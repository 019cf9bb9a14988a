"""Factorization caching keyed on matrix fingerprints.

A *fingerprint* is an exact content hash of a matrix (values, dtype, shape
and -- for sparse matrices -- the sparsity structure).  Two matrices with the
same fingerprint are numerically identical, so a factorization computed for
one can answer right-hand sides for the other bit-for-bit.  That exactness
is what lets the analyses reuse factorizations *by default* without changing
any result: a linear circuit stamps the same Jacobian on every Newton
iteration of every fixed-step time point, so the whole transient runs on a
single LU.

:class:`FactorizationCache` is a small LRU over such fingerprints.  It is
deliberately tiny (a handful of entries): the use cases are "the same matrix
again" (chord iterations, fixed-step transients, repeated campaign points)
and "alternating between two step sizes", not a general matrix store.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict

import numpy as np
import scipy.sparse as sp

from .. import telemetry
from ..errors import LinAlgError
from .solvers import Factorization, FactorizedSolver

__all__ = ["matrix_fingerprint", "FactorizationCache"]


def matrix_fingerprint(matrix) -> str:
    """Exact content hash of a dense or sparse matrix.

    Dense arrays hash their raw bytes; sparse matrices hash the CSR/CSC
    value, index and pointer arrays plus the format, so a structural change
    fingerprints differently even when the stored values coincide.
    """
    digest = hashlib.sha256()
    if sp.issparse(matrix):
        if matrix.format not in ("csr", "csc"):
            matrix = matrix.tocsr()
        digest.update(f"{matrix.format}:{matrix.shape}:{matrix.data.dtype}".encode())
        digest.update(np.ascontiguousarray(matrix.indptr).tobytes())
        digest.update(np.ascontiguousarray(matrix.indices).tobytes())
        digest.update(np.ascontiguousarray(matrix.data).tobytes())
    else:
        matrix = np.asarray(matrix)
        digest.update(f"dense:{matrix.shape}:{matrix.dtype}".encode())
        digest.update(np.ascontiguousarray(matrix).tobytes())
    return digest.hexdigest()


class FactorizationCache:
    """LRU cache of :class:`~repro.linalg.solvers.Factorization` handles.

    Parameters
    ----------
    solver:
        The :class:`FactorizedSolver` used on misses (a default-configured
        one when omitted).
    maxsize:
        Number of factorizations kept; least-recently-used entries are
        evicted beyond it.
    """

    def __init__(self, solver: FactorizedSolver | None = None,
                 maxsize: int = 8) -> None:
        if maxsize < 1:
            raise LinAlgError("FactorizationCache needs maxsize >= 1")
        self.solver = solver or FactorizedSolver()
        self.maxsize = int(maxsize)
        self._entries: OrderedDict[str, Factorization] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def factorize(self, matrix, fingerprint: str | None = None) -> Factorization:
        """A factorization of ``matrix``, reused when the fingerprint is known.

        ``fingerprint`` may be passed when the caller has already computed
        it (e.g. to decide whether a refactor is due).
        """
        if fingerprint is None:
            # Hashing cost is part of the cache's overhead story -- surface
            # it in profiles so "cache on" vs "cache off" is explainable.
            t0 = time.perf_counter() if telemetry.enabled() else None
            key = matrix_fingerprint(matrix)
            if t0 is not None:
                telemetry.registry.observe("linalg.fingerprint_s",
                                           time.perf_counter() - t0)
        else:
            key = fingerprint
        handle = self._entries.get(key)
        if handle is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            telemetry.registry.inc("linalg.factorization_cache_hits")
            return handle
        self.misses += 1
        telemetry.registry.inc("linalg.factorization_cache_misses")
        handle = self.solver.factorize(matrix)
        self._entries[key] = handle
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
            telemetry.registry.inc("linalg.factorization_cache_evictions")
        return handle

    def solve(self, matrix, rhs) -> np.ndarray:
        """Cached factor + back-substitution of one right-hand side."""
        return self.factorize(matrix).solve(rhs)

    def clear(self) -> None:
        """Drop every cached factorization and reset the counters."""
        self._entries.clear()
        self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (f"FactorizationCache({len(self._entries)}/{self.maxsize} entries, "
                f"{self.hits} hits / {self.misses} misses)")
