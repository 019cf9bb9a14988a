"""A fixed block of work that tells how fast the host runs right now.

The benchmark shares a few cores of a host with other tenants, and the
speed of a core can change by half within a minute while nothing in the
program changes.  The loop therefore times this block before the first op
and after every op, and the end-to-end times are rescaled by it: a value
in *normalised* milliseconds is the op's host time multiplied by
``NOMINAL_S`` over the block's time next to that op, i.e. the time the op
would take on a host that runs the block in exactly ``NOMINAL_S``.

The block is the same kind of work the program does most -- many small
dense solves and elementwise NumPy calls, and sparse LU factorisations --
but it calls only NumPy and SciPy, never ``repro``, so no change to the
program can move it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: Host time of one block that a normalised time is scaled to.  About what
#: an unloaded core of the 2-core AMD EPYC host this was tuned on takes.
NOMINAL_S = 5e-3

_DENSE_N = 24
_DENSE_STEPS = 400
_GRID = 12
_SPARSE_FACTORS = 10

_A = np.random.default_rng(0).normal(size=(_DENSE_N, _DENSE_N)) \
    + _DENSE_N * np.eye(_DENSE_N)
_LAPLACIAN = sp.diags([-1.0, -1.0, 4.0, -1.0, -1.0],
                      [-_GRID, -1, 0, 1, _GRID],
                      shape=(_GRID * _GRID, _GRID * _GRID), format="csc")
_RHS = np.ones(_GRID * _GRID)


def _work() -> float:
    x = np.ones(_DENSE_N)
    for _ in range(_DENSE_STEPS):
        x = np.linalg.solve(_A, x + 1.0)
        x = np.tanh(x) * 0.5 + np.abs(x).sum() * 1e-6
    total = float(x[0])
    for _ in range(_SPARSE_FACTORS):
        total += float(spla.splu(_LAPLACIAN).solve(_RHS)[0])
    return total


def block_seconds(blocks: int = 1) -> float:
    """Host seconds one block takes now: the median of ``blocks`` runs."""
    times = []
    for _ in range(blocks):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


# The first call pays for lazy imports and allocations inside NumPy/SciPy.
_work()
