"""Operating-point (DC bias) analysis and the Newton core.

Every analysis ends in the same loop -- one Newton solve per bias point,
sweep point or time step -- and that loop is written once, in
:func:`newton_core`, over lane state: ``(n,)`` for one lane, ``(B, n)`` for
B stacked parameter lanes.  It reduces over the last axis, so with one lane
every convergence and finiteness test is a plain scalar and no lane mask is
ever built.  A :class:`NewtonFace` supplies assembly, factorization and
failure handling, and there are two:

* :func:`newton_solve` is the B=1 face used by the operating-point, DC-sweep
  and transient analyses.  It assembles through
  :meth:`~repro.circuit.mna.MNASystem.assemble`, factors through
  :meth:`NewtonWorkspace.factor` (any :class:`~repro.linalg.FactorizedSolver`
  backend, CG included) and raises :class:`~repro.errors.ConvergenceError`
  or :class:`~repro.errors.SingularMatrixError` on the first failure.
* :func:`repro.circuit.analysis.batch.batched_newton` is the B-lane face:
  batched assembly and factorization, per-lane alive/converged masks, and
  failing lanes retire instead of raising.

Convergence requires every unknown's update to fall below
``tol_i = (vntol | abstol) + reltol * |x_i|`` -- the SPICE criterion -- with
across-type unknowns (node voltages and velocities) using ``vntol`` and
auxiliary through-type unknowns using ``abstol``.

Linear stage
------------
Every Newton update routes through :mod:`repro.linalg`.  A
:class:`NewtonWorkspace` carries the factorization state across iterations
*and* across calls (time steps of a transient, points of a DC sweep), which
is where the ``jacobian_reuse`` policies of
:class:`~repro.circuit.analysis.options.SimulationOptions` live, for both
faces alike:

* ``"off"`` factors every freshly assembled Jacobian,
* ``"auto"`` matches the assembled Jacobian against recently factored
  matrices (exact array equality) and skips the refactor when the values
  are unchanged -- bit-identical to ``"off"``, and a linear circuit at a
  fixed step factors exactly once for a whole run,
* ``"chord"`` keeps solving with the held factorization while assembling
  the residual only (no derivative propagation at all); a stalling residual
  or a step-size change triggers an automatic full-Newton refactor.

When plain Newton from a zero initial guess fails (strongly nonlinear bias
points such as an electrostatic transducer biased close to pull-in), the
operating-point analysis falls back to **source stepping**: all independent
sources are ramped from zero to their nominal values over a geometric
sequence of levels, each level starting from the previous solution.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

import scipy.sparse as sp

from ... import telemetry
from ...errors import ConvergenceError, LinAlgError, SingularMatrixError
from ...linalg import FactorizedSolver
from ...telemetry import NewtonTrace
from ...telemetry.convergence import MAX_RECORDS
from ..mna import Integrator, MNASystem, StampContext
from ..netlist import Circuit
from .options import SimulationOptions
from .results import OperatingPoint

__all__ = ["newton_solve", "newton_core", "NewtonFace", "collect_outputs",
           "NewtonWorkspace", "OperatingPointAnalysis"]


def _same_matrix(stored, matrix) -> bool:
    """Exact equality of two assembled Jacobians: dense arrays (one matrix
    or a ``(B, n, n)`` stack), CSR matrices, or lists of per-lane CSR
    matrices.  A memcmp-speed check, cheap enough to run every Newton
    iteration (unlike a content hash, which costs a sizable fraction of the
    LU it is trying to skip)."""
    if isinstance(matrix, list):
        return (isinstance(stored, list) and len(stored) == len(matrix)
                and all(map(_same_matrix, stored, matrix)))
    if sp.issparse(matrix):
        return sp.issparse(stored) and stored.shape == matrix.shape \
            and stored.data.size == matrix.data.size \
            and np.array_equal(stored.data, matrix.data)
    return isinstance(stored, np.ndarray) and np.array_equal(stored, matrix)


#: Condition-estimate threshold of ``SimulationOptions.health_check``.
CONDITION_LIMIT = 1e12

#: Chord-Newton stall criterion: a chord iteration must shrink the residual
#: norm below this fraction of the previous iteration's, otherwise the
#: Jacobian is refactored.
REFACTOR_THRESHOLD = 0.5


class NewtonWorkspace:
    """Linear-stage state shared across the Newton solves of one analysis.

    Holds the backend solver, a short equality-matched list of recently
    factored Jacobians and the chord-Newton bookkeeping (which factorization
    is held, and for which integrator step / source level it was produced).
    Analyses create one workspace per run and thread it through every solve
    -- :func:`newton_solve` calls of a transient or sweep, ``batched_newton``
    calls of a batched sweep -- so factorizations survive across time steps
    and sweep points.
    """

    #: Recent (matrix, factorization) pairs kept for equality matching.
    _RECENT_LIMIT = 4

    def __init__(self, options: SimulationOptions) -> None:
        self.options = options
        self.solver = FactorizedSolver(options.solver_backend(),
                                       rtol=options.linear_solver_rtol,
                                       cg_fallback=True)
        #: list of (structure generation, matrix, factorization), most
        #: recent first.
        self._recent: list[tuple[int, object, object]] = []
        self.factorization = None
        #: (analysis, step, source_scale, structure generation) the held
        #: factorization belongs to; chord reuse is only valid within it.
        self.chord_tag: tuple | None = None
        self.factorizations = 0
        self.factor_reuses = 0
        self.chord_iterations = 0
        self.stall_refactors = 0
        self.step_chord_reuses = 0
        #: Optional :class:`~repro.telemetry.ConvergenceDiagnostics` sink;
        #: analyses install one when ``options.telemetry`` asks for it and
        #: :func:`newton_solve` then records a residual trace per solve.
        self.convergence = None
        #: :class:`~repro.telemetry.ConditionRecord` per fresh factorization
        #: when ``options.health_check`` is on (capped like diagnostics).
        self.health: list = []

    def factor(self, system: MNASystem, ctx: StampContext):
        """Factor (or fetch) the Jacobian of a fully assembled context."""
        factorization, fresh = self.obtain(system, ctx, self.solver.factorize)
        if fresh and self.options.health_check:
            record = telemetry.health.check_factorization(
                factorization, limit=CONDITION_LIMIT)
            if len(self.health) < MAX_RECORDS:
                self.health.append(record)
        return factorization

    def obtain(self, system: MNASystem, ctx: StampContext, factorize):
        """``(factorization, fresh)`` for the context's Jacobian.

        Under a reusing policy an exactly equal recently factored matrix
        hands back its factorization; otherwise ``factorize(matrix)`` makes
        a fresh one.  Both Newton faces factor through here, each with its
        own ``factorize`` (serial solver or batched LU).
        """
        matrix = ctx.jacobian()
        reuse = self.options.jacobian_reuse != "off"
        if reuse:
            # The generation tag pins the sparsity pattern the stored data
            # arrays belong to.
            generation = system.structure_cache.generation \
                if ctx.use_sparse else 0
            for index, (stored_gen, stored, handle) in enumerate(self._recent):
                if stored_gen == generation and _same_matrix(stored, matrix):
                    if index:
                        self._recent.insert(0, self._recent.pop(index))
                    self.factor_reuses += 1
                    self.factorization = handle
                    return handle, False
        self.factorizations += 1
        handle = factorize(matrix)
        if reuse:
            self._recent.insert(0, (generation, matrix, handle))
            del self._recent[self._RECENT_LIMIT:]
        self.factorization = handle
        return handle, True

    def statistics(self) -> dict[str, int]:
        """Counters for result statistics and the reuse benchmarks."""
        return {
            "factorizations": self.factorizations,
            "factor_cache_hits": self.factor_reuses,
            "chord_iterations": self.chord_iterations,
            "stall_refactors": self.stall_refactors,
            "step_chord_reuses": self.step_chord_reuses,
        }


def _chord_tag(face: "NewtonFace") -> tuple:
    integrator = face.integrator
    step = integrator.h if (integrator is not None
                            and face.analysis == "tran"
                            and not integrator.priming) else None
    return (face.analysis, step, face.source_scale,
            face.system.structure_cache.generation)


#: Step ratios outside this window make the chord iteration matrix
#: ``I - A(h_old)^-1 A(h_new)`` expansive in the companion-dominated worst
#: case (the mismatch scales like ``h_old/h_new - 1``), so reuse is pointless
#: -- the stall detector would refactor immediately anyway.
_STEP_REUSE_RATIO = (0.5, 2.0)

#: Tightening factor applied to the convergence tolerance while a solve is
#: riding a step-mismatched factorization: with a contraction of at most 0.5
#: per chord pass the accepted solution then sits within ~1/20 of the normal
#: Newton tolerance of the exact answer, preserving the historical chord
#: accuracy pins at the cost of a few extra residual-only assemblies.
_CONFIRM_TIGHTEN = 0.02


def _step_only_change(old: tuple | None, new: tuple) -> bool:
    """True when two chord tags differ only in a *moderate* step change.

    The LTE controller softly rejects a step (``h * 0.8 .. 0.9``) and grows
    it after smooth stretches (up to ``transient.MAX_STEP_GROWTH``, 2x); the
    Jacobian then changes only through the companion conductances, so the
    held factorization is still a contractive chord operator -- the residual
    is assembled exactly at the new step, a confirming iteration guards the
    convergence test, and the stall detector refactors if the step change
    was too aggressive after all.  Hard rejections (``h * 0.2 .. 0.25``)
    fall outside the ratio window and refactor as before.
    """
    if not (old is not None and old[0] == new[0] == "tran"
            and old[1] is not None and new[1] is not None
            and old[1] != new[1] and old[2:] == new[2:]):
        return False
    ratio = new[1] / old[1]
    return _STEP_REUSE_RATIO[0] <= ratio <= _STEP_REUSE_RATIO[1]


class NewtonFace:
    """One face of :func:`newton_core`: the problem plus lane bookkeeping.

    The core owns the iteration (reuse, chord, stall refactor, tolerances);
    a face owns everything that differs between one lane and many:

    * ``assemble(x, want_jacobian)`` -- the stamp context at lane state ``x``,
    * ``admit(ctx, iteration, refactor)`` -- drop lanes whose residual or
      Jacobian is non-finite; whether any lane is still iterating,
    * ``any_active(lanes)`` -- reduce a per-lane test over the lanes still
      iterating,
    * ``factor(ctx)`` -- the factorization (``None``: no lane left),
    * ``solve(factorization, ctx, iteration)`` -- the Newton update with
      non-finite lanes dropped (``None``: no lane left),
    * ``advance(x, x_new, done, iteration)`` -- ``(x, finished)``, where
      ``done`` says which lanes converged this iteration,
    * ``result(x, iteration)`` / ``exhausted(x, ctx)`` -- the return value
      when every lane finished / when the iteration stopped short.
    """

    #: Telemetry histogram of the back-substitution time.
    solve_metric = ""

    def __init__(self, system: MNASystem, analysis: str, time: float,
                 integrator: Integrator | None, options: SimulationOptions,
                 source_scale: float, workspace: NewtonWorkspace) -> None:
        self.system = system
        self.analysis = analysis
        self.time = time
        self.integrator = integrator
        self.options = options
        self.source_scale = source_scale
        self.ws = workspace


def newton_core(face: NewtonFace, x: np.ndarray):
    """Chord/full Newton from lane state ``x``, the one loop of every face.

    ``x`` is ``(n,)`` for one lane or ``(B, n)`` for B lanes; the face's
    reductions decide which, and its ``result``/``exhausted`` decide what
    is returned.
    """
    options, ws = face.options, face.ws
    timing = telemetry.enabled()
    base_tol = np.where(np.arange(face.system.size) < face.system.num_nodes,
                        options.vntol, options.abstol)
    tag = _chord_tag(face)
    chord_allowed = options.jacobian_reuse == "chord"
    chord = (chord_allowed
             and ws.factorization is not None and ws.chord_tag == tag)
    #: While riding a factorization from a *different* step size, a small
    #: Newton update does not prove convergence (the chord operator is only
    #: contractive, not exact): drive the cheap residual-only iteration to a
    #: much tighter update tolerance and require one confirming pass, so the
    #: accepted solution matches a freshly factored solve to well below the
    #: Newton tolerance.  Extra residual assemblies cost a small fraction of
    #: the factorization they replace.
    require_confirm = False
    if (chord_allowed and options.step_chord_reuse and not chord
            and ws.factorization is not None
            and _step_only_change(ws.chord_tag, tag)):
        # A rejected (or re-grown) time step changed only ``h``: ride the
        # accepted-step factorization instead of re-assembling from scratch.
        chord = require_confirm = True
        ws.chord_tag = tag
        ws.step_chord_reuses += 1
    # Past this point a chord solve that is still grinding is assumed to be
    # riding a stale Jacobian; refactor instead of burning the iteration cap.
    chord_limit = max(3, options.max_newton_iterations // 2)
    previous_residual = None
    confirmed = False
    for iteration in range(1, options.max_newton_iterations + 1):
        ctx = face.assemble(x, not chord)
        if not face.admit(ctx, iteration, refactor=False):
            break
        stall_refactor = False
        if chord:
            residual = np.max(np.abs(ctx.res), axis=-1, initial=0.0)
            if iteration >= chord_limit or (
                    previous_residual is not None and face.any_active(
                        residual > REFACTOR_THRESHOLD
                        * previous_residual)):
                ctx = face.assemble(x, True)
                if not face.admit(ctx, iteration, refactor=True):
                    break
                stall_refactor = True
                previous_residual = None
                require_confirm = False  # fresh factorization for this step
                chord = False
                if iteration >= chord_limit:
                    # This solve is grinding: give the rest of it plain full
                    # Newton instead of re-assembling twice per iteration.
                    chord_allowed = False
            else:
                ws.chord_iterations += 1
                previous_residual = residual
        if chord:
            factorization = ws.factorization
        else:
            factorization = face.factor(ctx)
            if factorization is None:
                break
            ws.chord_tag = tag
            if stall_refactor:
                ws.stall_refactors += 1
            # Ride this factorization from the next iteration on.
            chord = chord_allowed
        t0 = perf_counter() if timing else None
        dx = face.solve(factorization, ctx, iteration)
        if t0 is not None:
            telemetry.registry.observe(face.solve_metric, perf_counter() - t0)
        if dx is None:
            break
        x_new = x + dx
        tol = base_tol + options.reltol * np.maximum(np.abs(x), np.abs(x_new))
        if require_confirm:
            tol = _CONFIRM_TIGHTEN * tol
        below = (np.abs(dx) <= tol).all(axis=-1)
        # Riding a step-mismatched factorization, a lane converges on its
        # second consecutive below-tolerance pass.
        done = below & confirmed if require_confirm else below
        confirmed = below
        x, finished = face.advance(x, x_new, done, iteration)
        if finished:
            return face.result(x, iteration)
    return face.exhausted(x, ctx)


class _OneLane(NewtonFace):
    """The B=1 face: one ``(n,)`` lane, scalar checks, failures raise."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.trace = NewtonTrace(context=self.analysis, time=self.time) \
            if self.ws.convergence is not None and telemetry.enabled() \
            else None
        # Forensics track the residual-norm trajectory (one float/iteration)
        # so a failure report can show how the solve died, not just that it
        # died.
        self.norms: list[float] | None = [] if self.options.forensics \
            else None

    @property
    def solve_metric(self) -> str:
        return f"newton.{self.analysis}.solve_s"

    def assemble(self, x, want_jacobian):
        return self.system.assemble(x, self.analysis, self.time,
                                    self.integrator, self.options,
                                    self.source_scale,
                                    want_jacobian=want_jacobian)

    def admit(self, ctx, iteration, refactor):
        if not np.all(np.isfinite(ctx.res)) or not ctx.jacobian_is_finite():
            what = "Jacobian" if refactor else "residual/Jacobian"
            self.fail(ConvergenceError(
                f"non-finite {what} at iteration {iteration} "
                f"(t={self.time:g})", iterations=iteration),
                iterations=iteration, vector=ctx.res)
        if not refactor and (self.trace is not None
                             or self.norms is not None):
            norm = float(np.max(np.abs(ctx.res))) if ctx.res.size else 0.0
            if self.trace is not None:
                self.trace.residuals.append(norm)
            if self.norms is not None:
                self.norms.append(norm)
        return True

    def any_active(self, lanes):
        return lanes

    def factor(self, ctx):
        try:
            return self.ws.factor(self.system, ctx)
        except LinAlgError as exc:
            self.fail(SingularMatrixError(
                f"singular MNA matrix while solving {self.analysis} "
                f"at t={self.time:g}: {exc}"), kind="singular",
                unfactorable=ctx, cause=exc)

    def solve(self, factorization, ctx, iteration):
        try:
            dx = factorization.solve(-ctx.res)
        except LinAlgError as exc:
            self.fail(SingularMatrixError(
                f"MNA solve failed for {self.analysis} at t={self.time:g}: "
                f"{exc}"), kind="singular", iterations=iteration,
                vector=ctx.res, cause=exc)
        if not np.all(np.isfinite(dx)):
            self.fail(ConvergenceError(
                f"non-finite Newton update at iteration {iteration} "
                f"(t={self.time:g})", iterations=iteration),
                iterations=iteration, vector=dx)
        return dx

    def advance(self, x, x_new, done, iteration):
        return x_new, done

    def result(self, x, iteration):
        if self.trace is not None:
            self.trace.converged = True
            self.ws.convergence.add_newton(self.trace)
        return x, iteration

    def exhausted(self, x, ctx):
        if self.trace is not None:
            self.ws.convergence.add_newton(self.trace)
        cap = self.options.max_newton_iterations
        self.fail(ConvergenceError(
            f"Newton failed to converge in {cap} iterations "
            f"({self.analysis}, t={self.time:g})", iterations=cap,
            residual=float(np.max(np.abs(ctx.res)))),
            iterations=cap, vector=ctx.res)

    def fail(self, error, *, kind: str = "newton",
             iterations: int | None = None, vector=None, unfactorable=None,
             cause: Exception | None = None):
        """Raise ``error`` with its forensics report (when captured)."""
        error.report = _newton_report(self, error, kind, iterations, vector,
                                      unfactorable)
        raise error from cause


def _newton_report(lane: _OneLane, error, kind: str, iterations, vector,
                   unfactorable):
    """Build/record a FailureReport for a dying solve (or None).

    A failed factorization (``unfactorable`` context) is reported
    structurally: the diagnosis of the matrix that would not factor, whose
    empty columns name unconstrained unknowns (floating nodes) and empty
    rows equations that constrain nothing -- without the held
    factorization, which belongs to an older matrix.
    """
    options = lane.options
    if not options.forensics:
        return None
    structural = unfactorable is not None
    return telemetry.forensics.newton_failure(
        kind=kind, analysis=lane.analysis, message=str(error),
        error_type=type(error).__name__, time=lane.time,
        iterations=iterations, labels=lane.system.unknown_labels(),
        residual=vector, trajectory=() if structural else lane.norms,
        factorization=None if structural else lane.ws.factorization,
        matrix=unfactorable.jacobian() if structural else None,
        options=options, context={"size": lane.system.size})


def newton_solve(system: MNASystem, x0: np.ndarray, analysis: str, time: float,
                 integrator: Integrator | None, options: SimulationOptions,
                 source_scale: float = 1.0,
                 workspace: NewtonWorkspace | None = None) -> tuple[np.ndarray, int]:
    """Solve ``F(x) = 0`` by Newton-Raphson starting from ``x0``.

    The B=1 face of :func:`newton_core`.  Returns the converged solution
    and the number of iterations used.  Raises
    :class:`~repro.errors.ConvergenceError` when the iteration cap is
    reached and :class:`~repro.errors.SingularMatrixError` when the Jacobian
    cannot be factorised.  ``workspace`` carries factorization reuse across
    calls; a throwaway one is created when omitted.
    """
    ws = NewtonWorkspace(options) if workspace is None else workspace
    lane = _OneLane(system, analysis, time, integrator, options,
                    source_scale, ws)
    return newton_core(lane, np.array(x0, dtype=float, copy=True))


def collect_outputs(system: MNASystem, ctx: StampContext) -> dict[str, float]:
    """Gather node across values and device-recorded outputs at a solution.

    Auxiliary unknowns (branch currents, behavioral extra unknowns) are
    included under their canonical names unless a device already recorded
    the same signal.
    """
    data: dict[str, float] = {}
    for node in system.nodes:
        data[f"v({node.name})"] = float(ctx.x[system.index_of(node)])
    for device in system.circuit:
        for key, value in device.record(ctx).items():
            data[key] = float(value)
    for offset, name in enumerate(system.aux_signal_names()):
        data.setdefault(name, float(ctx.x[system.num_nodes + offset]))
    return data


class OperatingPointAnalysis:
    """Compute the DC operating point of a circuit.

    Parameters
    ----------
    circuit:
        The netlist to solve.
    options:
        Numerical options; a default set is used when omitted.
    """

    def __init__(self, circuit: Circuit, options: SimulationOptions | None = None) -> None:
        self.circuit = circuit
        self.options = options or SimulationOptions()
        self.system = MNASystem(circuit)

    def run(self, initial_guess: np.ndarray | None = None,
            workspace: NewtonWorkspace | None = None) -> OperatingPoint:
        """Solve the operating point, falling back to source stepping if needed.

        ``workspace`` optionally shares the Newton linear-stage state with
        the caller -- the sensitivity path passes its own workspace so the
        converged factorization is reused instead of re-factored.

        With ``options.telemetry`` enabled the returned operating point
        carries a :class:`~repro.telemetry.TelemetryReport` (spans, metric
        deltas, Newton residual traces) as ``result.telemetry``.
        """
        options = self.options
        workspace = workspace or NewtonWorkspace(options)
        if options.telemetry == "off":
            return self._solve(initial_guess, workspace)
        if workspace.convergence is None:
            workspace.convergence = telemetry.ConvergenceDiagnostics()
        with telemetry.session(mode=options.telemetry) as sess:
            result = self._solve(initial_guess, workspace)
        sess.report.convergence = workspace.convergence
        result.telemetry = sess.report
        return result

    def _solve(self, initial_guess: np.ndarray | None,
               workspace: NewtonWorkspace) -> OperatingPoint:
        options = self.options
        x0 = np.zeros(self.system.size) if initial_guess is None else \
            np.array(initial_guess, dtype=float, copy=True)
        with telemetry.span("op.run") as op_span:
            try:
                with telemetry.span("op.newton"):
                    solution, iterations = newton_solve(
                        self.system, x0, "op", 0.0, None, options,
                        source_scale=1.0, workspace=workspace)
            except (ConvergenceError, SingularMatrixError):
                with telemetry.span("op.source_stepping"):
                    solution, iterations = self._source_stepping(x0, workspace)
            with telemetry.span("op.collect"):
                ctx = self.system.assemble(solution, "op", 0.0, None, options,
                                           1.0, want_jacobian=False)
                data = collect_outputs(self.system, ctx)
            op_span.set("newton_iters", iterations)
        return OperatingPoint(data, solution, self.system.unknown_labels(), iterations)

    def sensitivities(self, params, outputs, method: str = "auto",
                      operating_point: OperatingPoint | None = None):
        """Exact output/parameter sensitivities at the operating point.

        One forward Newton solve (skipped when ``operating_point`` is
        given), then one transposed back-substitution per output (adjoint)
        or one forward back-substitution per parameter (direct) on the
        already-factored Jacobian -- see
        :func:`repro.circuit.analysis.sensitivity
        .operating_point_sensitivities`.
        """
        from .sensitivity import operating_point_sensitivities

        return operating_point_sensitivities(
            self, params, outputs, method=method,
            operating_point=operating_point)

    def _source_stepping(self, x0: np.ndarray,
                         workspace: NewtonWorkspace | None = None
                         ) -> tuple[np.ndarray, int]:
        """Homotopy on the independent-source amplitudes (0 -> 1)."""
        options = self.options
        levels = np.linspace(0.0, 1.0, min(options.max_source_steps, 32) + 1)[1:]
        x = np.array(x0, dtype=float, copy=True)
        total_iterations = 0
        track = telemetry.progress.tracker("op.source_stepping",
                                           total=len(levels), unit="levels")
        for index, scale in enumerate(levels):
            try:
                x, iterations = newton_solve(
                    self.system, x, "op", 0.0, None, options,
                    source_scale=float(scale), workspace=workspace)
                total_iterations += iterations
            except (ConvergenceError, SingularMatrixError) as exc:
                # The inner failure's forensic report (when captured) rides
                # along on the wrapping error.
                raise ConvergenceError(
                    f"operating point failed even with source stepping at scale "
                    f"{scale:.3f}: {exc}",
                    report=getattr(exc, "report", None)) from exc
            track.update(index + 1, message=f"scale={scale:.3f}")
        track.finish(len(levels))
        return x, max(total_iterations, 1)
