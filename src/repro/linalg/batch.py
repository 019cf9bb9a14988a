"""Batched factorizations: factor and back-substitute B systems at once.

A parameter campaign solves the *same* structure B times with different
values.  Serially that is B independent ``lu_factor``/``lu_solve`` round
trips through Python; batched, the dense backend hands LAPACK one
``(B, n, n)`` stack (``getrf``/``getrs`` loop entirely in compiled code)
and the sparse backend performs the SuperLU symbolic analysis (column
ordering) once and reuses it for every numeric factorization.

Failure stays per-lane: a singular or non-finite lane never raises -- it is
flagged in :attr:`BatchedFactorization.failed` and its solutions come back
as NaN rows, so the batched Newton driver can convert exactly that point to
the serial error path while the rest of the batch continues.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..errors import LinAlgError
from ..telemetry import registry

__all__ = ["BatchedFactorization", "BatchedDenseLU", "BatchedSparseLU",
           "batched_factorize", "BATCH_BACKENDS"]

BATCH_BACKENDS = ("auto", "dense", "superlu")


class BatchedFactorization:
    """Handle to B factored systems sharing one structure.

    Attributes
    ----------
    batch, n:
        Number of lanes and system size.
    failed:
        Boolean ``(B,)`` mask of lanes whose factorization was singular or
        non-finite.  Failed lanes produce NaN solution rows instead of
        raising; the caller decides how to retire them.
    """

    backend = "abstract"

    def __init__(self, batch: int, n: int) -> None:
        self.batch = int(batch)
        self.n = int(n)
        self.failed = np.zeros(self.batch, dtype=bool)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Back-substitute a ``(B, n)`` right-hand-side block."""
        raise NotImplementedError

    def solve_transposed(self, rhs: np.ndarray) -> np.ndarray:
        """Back-substitute ``A_b^T x_b = rhs_b`` per lane (same factors)."""
        raise NotImplementedError

    def _check_rhs(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.batch, self.n):
            raise LinAlgError(
                f"batched right-hand side has shape {rhs.shape}, expected "
                f"({self.batch}, {self.n})")
        return rhs

    def _mask_failed(self, solutions: np.ndarray) -> np.ndarray:
        if self.failed.any():
            solutions[self.failed] = np.nan
        return solutions


class BatchedDenseLU(BatchedFactorization):
    """Stacked LAPACK LU of a ``(B, n, n)`` array.

    One ``lu_factor`` call factors every lane (SciPy broadcasts ``getrf``
    over the leading axis); singular lanes are detected from zero or
    non-finite U pivots afterwards instead of letting LAPACK raise, so one
    bad lane cannot kill the batch.
    """

    backend = "dense"

    def __init__(self, matrices: np.ndarray) -> None:
        matrices = np.asarray(matrices, dtype=float)
        if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
            raise LinAlgError(
                f"batched dense input must have shape (B, n, n), got "
                f"{matrices.shape}")
        super().__init__(matrices.shape[0], matrices.shape[1])
        with warnings.catch_warnings():
            # Exactly singular lanes emit a LinAlgWarning; they are handled
            # through the per-lane pivot check below.
            warnings.simplefilter("ignore")
            try:
                self._lu, self._piv = la.lu_factor(matrices, check_finite=False)
            except Exception:
                # Per-lane fallback: keeps old SciPy (no stacked getrf) and
                # pathological inputs on the same per-lane-failure contract.
                self._lu, self._piv = self._factor_lanes(matrices)
        diag = np.diagonal(self._lu, axis1=1, axis2=2)
        self.failed = np.any(diag == 0.0, axis=1) \
            | ~np.all(np.isfinite(diag), axis=1)

    @staticmethod
    def _factor_lanes(matrices: np.ndarray):
        n = matrices.shape[1]
        lus, pivs = [], []
        for lane in matrices:
            try:
                lu, piv = la.lu_factor(lane, check_finite=False)
            except Exception:
                lu = np.full((n, n), np.nan)
                piv = np.arange(n, dtype=np.int32)
            lus.append(lu)
            pivs.append(piv)
        return np.stack(lus), np.stack(pivs)

    def _solve(self, rhs: np.ndarray, trans: int) -> np.ndarray:
        rhs = self._check_rhs(rhs)
        with warnings.catch_warnings():
            # Zero pivots of failed lanes divide by zero inside getrs; the
            # rows are overwritten with NaN below.
            warnings.simplefilter("ignore")
            try:
                solutions = la.lu_solve((self._lu, self._piv), rhs[:, :, None],
                                        trans=trans, check_finite=False)[:, :, 0]
            except Exception:
                solutions = np.stack([
                    la.lu_solve((self._lu[b], self._piv[b]), rhs[b],
                                trans=trans, check_finite=False)
                    for b in range(self.batch)])
        return self._mask_failed(solutions)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._solve(rhs, trans=0)

    def solve_transposed(self, rhs: np.ndarray) -> np.ndarray:
        registry.inc("linalg.transpose_solves", self.batch)
        return self._solve(rhs, trans=1)


class BatchedSparseLU(BatchedFactorization):
    """B SuperLU numeric factorizations sharing one symbolic analysis.

    The first healthy lane runs the full ``splu`` (COLAMD column ordering +
    numeric factorization); its column permutation is then applied to every
    later lane, which is factored with ``permc_spec="NATURAL"`` -- the
    numeric work on the identically permuted matrix, without re-running the
    ordering.  The pattern is shared across lanes by construction (the
    campaign batches points with one :class:`~repro.linalg.StructureCache`
    pattern), so the reused ordering is the one COLAMD would have produced.
    """

    backend = "superlu"

    def __init__(self, matrices: Sequence) -> None:
        lanes = [sp.csc_matrix(m) for m in matrices]
        if not lanes:
            raise LinAlgError("batched sparse input must contain >= 1 matrix")
        n = lanes[0].shape[0]
        super().__init__(len(lanes), n)
        self._perm_c: np.ndarray | None = None
        self._lus: list[tuple[object, bool] | None] = []
        for b, lane in enumerate(lanes):
            if lane.shape != (n, n):
                raise LinAlgError("batched sparse lanes must share one shape")
            try:
                if self._perm_c is None:
                    lu = spla.splu(lane)
                    self._perm_c = np.asarray(lu.perm_c)
                    self._lus.append((lu, False))
                else:
                    lu = spla.splu(lane[:, self._perm_c],
                                   permc_spec="NATURAL")
                    self._lus.append((lu, True))
            except RuntimeError:
                self._lus.append(None)
                self.failed[b] = True

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = self._check_rhs(rhs)
        solutions = np.full((self.batch, self.n), np.nan)
        for b, entry in enumerate(self._lus):
            if entry is None:
                continue
            lu, permuted = entry
            if permuted:
                # lu factors A[:, perm]; its solution y satisfies
                # A x = b with x[perm] = y.
                y = lu.solve(rhs[b])
                solutions[b, self._perm_c] = y
            else:
                solutions[b] = lu.solve(rhs[b])
        return solutions

    def solve_transposed(self, rhs: np.ndarray) -> np.ndarray:
        rhs = self._check_rhs(rhs)
        registry.inc("linalg.transpose_solves", self.batch)
        solutions = np.full((self.batch, self.n), np.nan)
        for b, entry in enumerate(self._lus):
            if entry is None:
                continue
            lu, permuted = entry
            if permuted:
                # (A[:, perm])^T z = b[perm]  <=>  A^T z = b.
                solutions[b] = lu.solve(rhs[b][self._perm_c], trans="T")
            else:
                solutions[b] = lu.solve(rhs[b], trans="T")
        return solutions


def batched_factorize(matrices, backend: str = "auto") -> BatchedFactorization:
    """Factor a batch of same-structure systems.

    ``matrices`` is either a dense ``(B, n, n)`` array or a sequence of B
    sparse matrices.  ``backend`` mirrors the serial solver names: ``dense``
    (stacked LAPACK LU), ``superlu`` (shared-symbolic SuperLU) or ``auto``
    (follow the input representation).  Each lane counts as one
    ``linalg.factorizations`` registry event, so campaign solver stats stay
    comparable between the serial and batched paths.
    """
    dense_input = isinstance(matrices, np.ndarray)
    if backend not in BATCH_BACKENDS:
        raise LinAlgError(
            f"unknown batched backend {backend!r} (use one of {BATCH_BACKENDS})")
    if backend == "auto":
        backend = "dense" if dense_input else "superlu"
    if backend == "dense":
        if not dense_input:
            matrices = np.stack([np.asarray(sp.csr_matrix(m).toarray())
                                 for m in matrices])
        handle: BatchedFactorization = BatchedDenseLU(matrices)
    else:
        if dense_input:
            matrices = [sp.csc_matrix(matrices[b])
                        for b in range(matrices.shape[0])]
        handle = BatchedSparseLU(matrices)
    registry.inc("linalg.factorizations", handle.batch)
    return handle
