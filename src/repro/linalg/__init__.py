"""repro.linalg -- the shared factorization-caching linear-solver core.

One subsystem owns every ``A x = b`` in the reproduction:

* :class:`~repro.linalg.solvers.FactorizedSolver` abstracts the backends
  (dense LAPACK LU, SuperLU, Jacobi-preconditioned CG with direct fallback)
  behind :class:`~repro.linalg.solvers.Factorization` handles -- factor
  once, back-substitute many times,
* :class:`~repro.linalg.cache.FactorizationCache` keys those handles on
  exact matrix fingerprints so an unchanged matrix (linear circuit, fixed
  transient step, repeated campaign point) is never factored twice,
* :class:`~repro.linalg.structure.StructureCache` caches the COO->CSR
  reduction of a repeated triplet assembly so per-iteration sparse assembly
  is a value update instead of a sort-and-deduplicate rebuild.

The circuit analyses (:mod:`repro.circuit.analysis`), the FE solvers
(:mod:`repro.fem`) and the reduced-order models (:mod:`repro.rom`) all
route through here; see the README architecture section for the reuse
semantics exposed on :class:`~repro.circuit.analysis.options.SimulationOptions`.
"""

from __future__ import annotations

from .batch import (BATCH_BACKENDS, BatchedDenseLU, BatchedFactorization,
                    BatchedSparseLU, batched_factorize)
from .cache import FactorizationCache, matrix_fingerprint
from .sensitivity import (SENSITIVITY_METHODS, SensitivityResult,
                          SpectralSensitivities, solve_sensitivities,
                          sweep_spectral_sensitivities)
from .solvers import BACKENDS, Factorization, FactorizedSolver
from .structure import StructureCache

__all__ = [
    "BACKENDS",
    "BATCH_BACKENDS",
    "SENSITIVITY_METHODS",
    "BatchedDenseLU",
    "BatchedFactorization",
    "BatchedSparseLU",
    "Factorization",
    "FactorizedSolver",
    "FactorizationCache",
    "SensitivityResult",
    "SpectralSensitivities",
    "StructureCache",
    "batched_factorize",
    "matrix_fingerprint",
    "solve_sensitivities",
    "sweep_spectral_sensitivities",
]
