"""Batched DC-class analyses: B campaign points through one Newton core.

A campaign evaluates the *same* circuit at B parameter points.  The drivers
here stack those points along a lane axis and run the Newton core of
:mod:`repro.circuit.analysis.op` -- the very iteration serial analyses use
-- over ``(B, n)`` state.  :func:`batched_newton` is its B-lane face:

* devices whose stamps broadcast (``Device.batch_safe``) are stamped once
  with ``(B,)`` parameter/state arrays,
* devices that cannot broadcast (AD-dual behavioral models) are stamped per
  lane through a genuine serial :class:`~repro.circuit.mna.StampContext`
  aliasing the batch arrays,
* the linear stage factors all B Jacobians in one
  :func:`repro.linalg.batched_factorize` call, behind the same
  :class:`~repro.circuit.analysis.op.NewtonWorkspace` reuse, chord and stall
  policy as the serial face,
* convergence is tested per lane with the exact serial criterion; converged
  lanes freeze while stragglers iterate.

A lane that fails any serial failure condition (non-finite residual /
Jacobian / update, singular matrix, iteration cap) is *retired* from the
batch and reported back as unsolved -- the campaign evaluator re-runs it
through the ordinary serial path, which reproduces the exact serial error
(or rescues it, e.g. via operating-point source stepping).  The batch never
dies because one point does.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ... import telemetry
from ...errors import AnalysisError, LinAlgError
from ...linalg import batched_factorize
from ..devices.sources import CurrentSource, VoltageSource
from ..mna import BatchStampContext, MNASystem
from ..netlist import Circuit
from ..waveforms import DC
from .op import NewtonFace, NewtonWorkspace, collect_outputs, newton_core
from .options import SimulationOptions
from .results import DCSweepResult, OperatingPoint

__all__ = ["ParameterColumns", "batch_supported", "assemble_batch",
           "batched_newton", "batched_operating_points", "batched_dcsweeps"]


class ParameterColumns:
    """Per-lane values of the tunable parameters a batch sweeps.

    Each assignment targets one device parameter (the
    :attr:`~repro.circuit.devices.base.Device._TUNABLE` protocol) with a
    ``(B,)`` value column.  Batch-safe devices take the whole column at once
    (:meth:`set_arrays`) so vectorized stamps broadcast; per-lane passes
    (non-broadcastable stamping, output collection) swap in lane scalars via
    :meth:`set_lane` / :meth:`set_unsafe_lane`.  :meth:`restore` puts the
    original values back; use the instance as a context manager to make that
    unconditional.
    """

    def __init__(self, circuit: Circuit,
                 assignments: Iterable[tuple[str, str, Sequence[float]]]) -> None:
        self.circuit = circuit
        self.entries: list[tuple[object, str, np.ndarray, object, bool]] = []
        batch: int | None = None
        for device_name, param, values in assignments:
            device = circuit[device_name]
            column = np.asarray(values, dtype=float)
            if column.ndim != 1:
                raise AnalysisError(
                    f"parameter column {device_name}.{param} must be 1-D, got "
                    f"shape {column.shape}")
            if batch is None:
                batch = column.size
            elif column.size != batch:
                raise AnalysisError(
                    f"parameter column {device_name}.{param} has {column.size} "
                    f"lanes, expected {batch}")
            original = device.get_parameter(param)
            safe = bool(getattr(device, "batch_safe", False))
            self.entries.append((device, param, column, original, safe))
        if batch is None:
            raise AnalysisError("a batch needs at least one parameter column")
        self.batch = batch

    def targets(self, device) -> bool:
        """Whether any column writes to ``device``."""
        return any(entry[0] is device for entry in self.entries)

    def set_arrays(self) -> None:
        """Install the full ``(B,)`` columns on every batch-safe device."""
        for device, param, column, _, safe in self.entries:
            if safe:
                device.set_parameter(param, column)

    def set_lane(self, lane: int) -> None:
        """Install lane scalars on *every* device (serial passes)."""
        for device, param, column, _, _ in self.entries:
            device.set_parameter(param, float(column[lane]))

    def set_unsafe_lane(self, lane: int) -> None:
        """Install lane scalars on the non-batch-safe devices only."""
        for device, param, column, _, safe in self.entries:
            if not safe:
                device.set_parameter(param, float(column[lane]))

    def restore(self) -> None:
        """Put every original parameter value back."""
        for device, param, _, original, _ in self.entries:
            device.set_parameter(param, original)

    def __enter__(self) -> "ParameterColumns":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


def batch_supported(options: SimulationOptions) -> bool:
    """Whether the batched drivers can honor these options.

    Every ``jacobian_reuse`` policy is supported (the batch runs the serial
    Newton core).  Only the CG backend has no batched counterpart and falls
    back to the serial path.
    """
    return options.solver_backend() != "cg"


def assemble_batch(system: MNASystem, x: np.ndarray, analysis: str,
                   options: SimulationOptions, columns: ParameterColumns,
                   source_scale: float = 1.0,
                   want_jacobian: bool = True) -> BatchStampContext:
    """Assemble residuals (and Jacobians) for all B lanes at once.

    Batch-safe devices stamp once over the lane axis; the rest stamp per
    lane with their lane-scalar parameters installed.  Mixed circuits force
    dense assembly -- per-lane triplet streams may diverge (behavioral
    stamps skip exact-zero derivatives), so only all-safe circuits share a
    triplet pattern.
    """
    unsafe = [device for device in system.circuit
              if not getattr(device, "batch_safe", False)]
    ctx = BatchStampContext(system, x, analysis=analysis, options=options,
                            source_scale=source_scale,
                            want_jacobian=want_jacobian,
                            force_dense=bool(unsafe))
    for device in system.circuit:
        if getattr(device, "batch_safe", False):
            device.stamp(ctx)
    if unsafe:
        from ...hdl.compile.runtime import count_per_lane

        for device in unsafe:
            count_per_lane(device, ctx.batch)
        for lane in range(ctx.batch):
            columns.set_unsafe_lane(lane)
            lane_ctx = ctx.lane_context(lane)
            for device in unsafe:
                device.stamp(lane_ctx)
    ctx.apply_gmin(options.gmin)
    return ctx


class _Lanes(NewtonFace):
    """The B-lane face: ``(B, n)`` state, lane masks, failing lanes retire."""

    solve_metric = "batch.solve_s"

    def __init__(self, system: MNASystem, analysis: str,
                 options: SimulationOptions, columns: ParameterColumns,
                 source_scale: float, workspace: NewtonWorkspace,
                 batch: int) -> None:
        super().__init__(system, analysis, 0.0, None, options, source_scale,
                         workspace)
        self.columns = columns
        self.backend = "superlu" if options.use_sparse(system.size) \
            else "dense"
        self.alive = np.ones(batch, dtype=bool)
        self.converged = np.zeros(batch, dtype=bool)
        self.iterations = np.zeros(batch, dtype=int)

    def _retire(self, healthy: np.ndarray) -> bool:
        """Retire the unfinished lanes outside ``healthy``; whether any lane
        is still iterating."""
        self.alive &= healthy | self.converged
        return bool((self.alive & ~self.converged).any())

    def assemble(self, x, want_jacobian):
        return assemble_batch(self.system, x, self.analysis, self.options,
                              self.columns, self.source_scale,
                              want_jacobian=want_jacobian)

    def admit(self, ctx, iteration, refactor):
        return self._retire(ctx.residual_finite_lanes()
                            & ctx.jacobian_finite_lanes())

    def any_active(self, lanes):
        return bool(lanes[self.alive & ~self.converged].any())

    def factor(self, ctx):
        try:
            factorization, _ = self.ws.obtain(
                self.system, ctx,
                lambda matrix: batched_factorize(matrix, self.backend))
        except LinAlgError:
            # A batch-level factorization failure (not a per-lane one)
            # retires every unfinished lane to the serial path.
            self.alive &= self.converged
            return None
        return factorization

    def solve(self, factorization, ctx, iteration):
        self.alive &= ~factorization.failed | self.converged
        dx = factorization.solve(-ctx.res)
        return dx if self._retire(np.all(np.isfinite(dx), axis=1)) else None

    def advance(self, x, x_new, done, iteration):
        active = self.alive & ~self.converged
        # Active lanes take the update (the B=1 face returns ``x_new``
        # itself); frozen lanes keep theirs.
        x[active] = x_new[active]
        self.iterations[active] = iteration
        self.converged |= active & done
        return x, not (self.alive & ~self.converged).any()

    def result(self, x, iteration):
        return x, self.alive & self.converged, self.iterations

    def exhausted(self, x, ctx):
        return self.result(x, None)


def batched_newton(system: MNASystem, x0: np.ndarray, analysis: str,
                   options: SimulationOptions, columns: ParameterColumns,
                   source_scale: float = 1.0,
                   workspace: NewtonWorkspace | None = None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton over B stacked systems with per-lane convergence.

    The B-lane face of :func:`~repro.circuit.analysis.op.newton_core`.
    Returns ``(x, solved, iterations)``: the per-lane solutions, a ``(B,)``
    mask of lanes that converged, and the per-lane iteration counts.  Lanes
    that hit any serial failure condition simply come back unsolved --
    nothing raises, so the caller can retire exactly those lanes to the
    serial path.  ``workspace`` carries factorization reuse (and the held
    chord factorization) across calls, e.g. the points of a sweep.
    """
    if not batch_supported(options):
        raise AnalysisError(
            "batched Newton supports the dense/superlu backends only")
    ws = workspace if workspace is not None else NewtonWorkspace(options)
    x = np.array(x0, dtype=float, copy=True)
    if telemetry.enabled():
        telemetry.registry.observe("batch.size", float(x.shape[0]))
    columns.set_arrays()
    return newton_core(_Lanes(system, analysis, options, columns,
                              source_scale, ws, x.shape[0]), x)


def batched_operating_points(circuit: Circuit, options: SimulationOptions,
                             columns: ParameterColumns
                             ) -> list[OperatingPoint | None]:
    """Operating points of B parameter lanes; ``None`` for retired lanes.

    A ``None`` entry means "solve this lane serially" -- the lane may still
    succeed there (source stepping) or produce the exact serial error.
    """
    system = MNASystem(circuit)
    with columns:
        x0 = np.zeros((columns.batch, system.size))
        x, solved, iterations = batched_newton(system, x0, "op", options,
                                               columns)
        results: list[OperatingPoint | None] = [None] * columns.batch
        labels = system.unknown_labels()
        for lane in np.flatnonzero(solved):
            columns.set_lane(lane)
            ctx = system.assemble(x[lane], "op", 0.0, None, options, 1.0,
                                  want_jacobian=False)
            data = collect_outputs(system, ctx)
            results[lane] = OperatingPoint(data, x[lane].copy(), labels,
                                           int(iterations[lane]))
    return results


def batched_dcsweeps(circuit: Circuit, source_name: str,
                     values: Sequence[float], options: SimulationOptions,
                     columns: ParameterColumns,
                     continue_on_failure: bool = False
                     ) -> list[DCSweepResult | None]:
    """DC sweeps of B parameter lanes in lockstep over shared sweep values.

    Follows the serial continuation policy per lane: each converged point
    warm-starts the lane's next one; with ``continue_on_failure`` a failed
    point records NaN and the lane restarts from zero.  Without it a failing
    lane is retired (``None``) so the serial path reproduces the exact
    error.  Retired lanes stop consuming batch work.
    """
    sweep_values = np.asarray(list(values), dtype=float)
    if sweep_values.size == 0:
        raise AnalysisError("DC sweep needs at least one value")
    source = circuit[source_name]
    if not isinstance(source, (VoltageSource, CurrentSource)):
        raise AnalysisError(
            f"{source_name!r} is not an independent source; cannot sweep it")
    if columns.targets(source):
        raise AnalysisError(
            f"batched DC sweep cannot also sweep a parameter of the swept "
            f"source {source_name!r}")
    system = MNASystem(circuit)
    batch = columns.batch
    x = np.zeros((batch, system.size))
    alive = np.ones(batch, dtype=bool)
    rows: list[list[dict[str, float]]] = [[] for _ in range(batch)]
    original_waveform = source.waveform
    workspace = NewtonWorkspace(options)
    try:
        with columns:
            for value in sweep_values:
                source.waveform = DC(float(value))
                x_next, solved, _ = batched_newton(
                    system, x, "dc", options, columns, workspace=workspace)
                x[solved] = x_next[solved]
                for lane in range(batch):
                    if not alive[lane]:
                        continue
                    if solved[lane]:
                        columns.set_lane(lane)
                        ctx = system.assemble(x[lane], "dc", 0.0, None,
                                              options, 1.0,
                                              want_jacobian=False)
                        rows[lane].append(collect_outputs(system, ctx))
                    elif continue_on_failure:
                        # Serial policy: NaN row, restart from zero.
                        rows[lane].append({})
                        x[lane] = 0.0
                    else:
                        alive[lane] = False
    finally:
        source.waveform = original_waveform
    results: list[DCSweepResult | None] = [None] * batch
    for lane in range(batch):
        if not alive[lane]:
            continue
        keys: set[str] = set()
        for row in rows[lane]:
            keys.update(row)
        data = {key: np.array([row.get(key, np.nan) for row in rows[lane]],
                              dtype=float)
                for key in sorted(keys)}
        results[lane] = DCSweepResult(source_name, sweep_values, data)
    return results
