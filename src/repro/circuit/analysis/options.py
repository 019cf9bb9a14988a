"""Simulation options shared by all analyses.

The knobs deliberately mirror the classic SPICE option names (RELTOL, ABSTOL,
VNTOL, GMIN, ITL1/ITL4, TRTOL) so that option decks from the literature map
one-to-one.  The defaults are tuned for the microsystem netlists of the
paper: across variables span volts down to nanometre-per-second velocities,
hence the fairly tight ``vntol``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ... import constants
from ...errors import AnalysisError

__all__ = ["SimulationOptions"]


@dataclass
class SimulationOptions:
    """Numerical settings for the MNA analyses.

    Attributes
    ----------
    reltol:
        Relative convergence tolerance on unknown updates.
    abstol:
        Absolute tolerance on through-type unknowns (currents, forces).
    vntol:
        Absolute tolerance on across-type unknowns (voltages, velocities).
    gmin:
        Conductance tied from every node to ground for conditioning.
    max_newton_iterations:
        Iteration cap of a single Newton solve (SPICE ITL1/ITL4).
    max_source_steps:
        Number of homotopy levels used when plain Newton fails on the OP.
    integration_method:
        ``"trapezoidal"`` (default) or ``"backward_euler"``.
    trtol:
        Truncation-error over-estimation factor in the step controller.
    linear_solver:
        Linear-solve routing for the Newton updates: ``"auto"`` picks the
        sparse direct solver once the unknown count exceeds
        ``sparse_threshold``; ``"dense"`` forces LAPACK; ``"sparse"`` forces
        the SuperLU direct solve; ``"cg"`` forces Jacobi-preconditioned
        conjugate gradients (SPD systems only).
    linear_solver_rtol:
        Relative tolerance of the iterative (``"cg"``) linear solver.
    sparse_threshold:
        Unknown count above which ``"auto"`` switches from the dense LAPACK
        solve to sparse assembly + SuperLU.
    jacobian_reuse:
        Factorization-reuse policy of the Newton linear stage, for serial
        solves and batched campaign lanes alike (both faces of the one
        Newton core in :mod:`repro.circuit.analysis.op`):

        * ``"off"`` -- factor the freshly assembled Jacobian on every
          iteration (the historical behaviour),
        * ``"auto"`` (default) -- compare the assembled Jacobian against
          the recently factored matrices (exact array equality) and reuse
          the held factorization whenever the values are unchanged.
          Bit-identical to ``"off"``; linear circuits factor once per
          structure/step-size and sweeps/transients amortize it,
        * ``"chord"`` -- additionally hold the factorization across
          iterations and accepted time steps, assembling residual-only
          (no derivatives) while it converges, with an automatic
          full-Newton refactor when the residual stalls.  Fastest for
          smooth nonlinear transients; iterates may differ from full
          Newton within the convergence tolerance.
    step_chord_reuse:
        Chord-mode only: when a transient step is rejected (or re-grown) and
        only the step size ``h`` changed, keep riding the accepted-step
        factorization instead of refactoring (moderate step ratios only;
        the solve then runs to a tightened update tolerance with a
        confirming pass, and the stall detector still refactors when the
        step change was too aggressive).  Disable to recover the historical
        refactor-on-every-step-change chord behaviour exactly.
    behavioral_compile:
        Compile behavioral models to generated kernels
        (:mod:`repro.hdl.compile`) instead of re-interpreting their
        expressions through the AD layer on every stamp.  Results are
        bit-identical; the interpreter remains the verified fallback for
        anything the tracer cannot follow.  Set False to force the
        interpreter for every behavioral device of the run.
    telemetry:
        Instrumentation level of the run (see :mod:`repro.telemetry`):
        ``"off"`` (default) collects nothing beyond the always-on counters;
        ``"summary"`` records phase spans, timing histograms and convergence
        digests; ``"full"`` additionally keeps per-step/per-point detail
        spans and residual trajectories.  When enabled the analysis attaches
        a :class:`~repro.telemetry.TelemetryReport` to its result object as
        ``result.telemetry``.
    health_check:
        Run a cheap 1-norm condition estimate (LAPACK ``gecon`` / a
        deterministic Hager iteration, see
        :mod:`repro.telemetry.health`) on every freshly factored Jacobian
        and warn (``NumericalHealthWarning`` + ``health.near_singular``
        counter) when it exceeds
        :data:`repro.circuit.analysis.op.CONDITION_LIMIT`.  Off by default:
        costs a few back-substitutions per factorization.
    forensics:
        Capture a structured :class:`~repro.telemetry.FailureReport`
        (residual trajectory, offending unknown names, condition estimate,
        last-good state) when a solve fails, attached to the raised
        exception as ``exc.report`` and retained in
        ``repro.telemetry.forensics.recent_failures()``.  Off by default;
        the capture only runs on failure paths, but tracking the residual
        trajectory costs one float per Newton iteration.
    """

    reltol: float = constants.RELTOL
    abstol: float = constants.ABSTOL
    vntol: float = constants.VNTOL
    gmin: float = constants.GMIN
    max_newton_iterations: int = constants.MAX_NEWTON_ITERATIONS
    max_source_steps: int = constants.MAX_SOURCE_STEPS
    integration_method: str = "trapezoidal"
    trtol: float = 7.0
    linear_solver: str = "auto"
    linear_solver_rtol: float = 1e-10
    sparse_threshold: int = 256
    jacobian_reuse: str = "auto"
    step_chord_reuse: bool = True
    behavioral_compile: bool = True
    telemetry: str = "off"
    health_check: bool = False
    forensics: bool = False

    def __post_init__(self) -> None:
        if self.reltol <= 0.0 or self.reltol >= 1.0:
            raise AnalysisError("reltol must be in (0, 1)")
        if self.abstol <= 0.0 or self.vntol <= 0.0:
            raise AnalysisError("abstol and vntol must be positive")
        if self.gmin < 0.0:
            raise AnalysisError("gmin must be non-negative")
        if self.max_newton_iterations < 2:
            raise AnalysisError("max_newton_iterations must be at least 2")
        if self.integration_method not in ("trapezoidal", "backward_euler"):
            raise AnalysisError(
                f"unknown integration method {self.integration_method!r}")
        if self.linear_solver not in ("auto", "dense", "sparse", "cg"):
            raise AnalysisError(
                f"unknown linear solver {self.linear_solver!r} "
                "(use 'auto', 'dense', 'sparse' or 'cg')")
        if self.linear_solver_rtol <= 0.0:
            raise AnalysisError("linear_solver_rtol must be positive")
        if self.sparse_threshold < 1:
            raise AnalysisError("sparse_threshold must be at least 1")
        if self.jacobian_reuse not in ("off", "auto", "chord"):
            raise AnalysisError(
                f"unknown jacobian_reuse policy {self.jacobian_reuse!r} "
                "(use 'off', 'auto' or 'chord')")
        if self.telemetry not in ("off", "summary", "full"):
            raise AnalysisError(
                f"unknown telemetry level {self.telemetry!r} "
                "(use 'off', 'summary' or 'full')")

    def use_sparse(self, size: int) -> bool:
        """Whether a system of ``size`` unknowns should assemble sparse."""
        if self.linear_solver == "dense":
            return False
        if self.linear_solver in ("sparse", "cg"):
            return True
        return size > self.sparse_threshold

    def solver_backend(self) -> str:
        """The :class:`repro.linalg.FactorizedSolver` backend to use.

        ``"cg"`` when forced; otherwise ``"auto"``, which resolves to the
        SuperLU backend for sparse assemblies and dense LAPACK otherwise --
        matching :meth:`use_sparse` because the assembly type follows it.
        """
        return "cg" if self.linear_solver == "cg" else "auto"

    def with_(self, **changes) -> "SimulationOptions":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)
