"""Per-layer metrics of the traced run, and what each one should move.

Every entry names how the metric is computed from the trace and the
end-to-end metric (and workload) a change to that layer should move.  Time
metrics are per-op means over every traced op.  Counts and ratios are
per-op means over the first ``EXACT_OPS`` traced ops, whose inputs are
fixed by the seed, so they repeat exactly from run to run.
"""

from __future__ import annotations

#: Traced ops over which counts and ratios are taken.
EXACT_OPS = 3

#: Counts that describe the simulation itself; a change that only makes
#: things faster must leave them identical.  Reported and compared between
#: runs, never gated.
SIM_STATS = ("circuit.analysis.newton_iterations",
             "circuit.analysis.steps_accepted",
             "circuit.analysis.steps_rejected",
             "linalg.factorizations",
             "linalg.factor_cache_hits",
             "circuit.analysis.batch.per_lane_stamps")

_DEVICE = ("op_norm_ms_p50 on fig5_pulse and points_per_norm_s on mc_pullin; "
           "zero on fig5_adjoint and pxt_grid")
_FIG5_BOTH = "op_norm_ms_p50 on fig5_pulse and fig5_adjoint"
_LINALG = "op_norm_ms_p50 on fig5_adjoint, only slightly on fig5_pulse"
_FEM = "points_per_norm_s on pxt_grid only"
_CAMPAIGN = "points_per_norm_s on pxt_grid, barely on mc_pullin"

#: name -> (kind, source, what it should move).  Kinds: ``self`` (self
#: time of the listed spans), ``incl`` (inclusive time), ``calls`` (span
#: count), ``count`` (counter bumped at a layer boundary) and ``special``
#: (computed in :func:`layer_metrics`).
LAYERS = {
    "transducers.energy_method_ms":
        ("self", ("transducers.energy_method",), _DEVICE),
    "transducers.energy_method_calls":
        ("calls", "transducers.energy_method", _DEVICE),
    "circuit.devices.behavioral_stamp_ms":
        ("self", ("circuit.devices.behavioral_stamp",), _DEVICE),
    "circuit.devices.behavioral_stamp_calls":
        ("calls", "circuit.devices.behavioral_stamp", _DEVICE),
    "circuit.devices.behavioral_record_ms":
        ("self", ("circuit.devices.behavioral_record",), _DEVICE),
    "circuit.analysis.batch.per_lane_stamps":
        ("count", "per_lane_stamps", "points_per_norm_s on mc_pullin"),
    "hdl.compile.compiled_stamp_ratio":
        ("special", None, "op_norm_ms_p50 on fig5_adjoint"),
    "hdl.compile.kernel_compiles": ("special", None, "setup_s"),
    "hdl.compile.cache_hits": ("special", None, "setup_s"),
    "circuit.mna.assemble_self_ms":
        ("self", ("circuit.mna.assemble",),
         "op_norm_ms_p50 on fig5_pulse (linearized half) and fig5_adjoint"),
    "circuit.mna.assemble_calls":
        ("calls", "circuit.mna.assemble",
         "op_norm_ms_p50 on fig5_pulse (linearized half) and fig5_adjoint"),
    "circuit.analysis.newton_self_ms":
        ("self", ("circuit.analysis.newton",), _FIG5_BOTH),
    "circuit.analysis.batched_newton_self_ms":
        ("self", ("circuit.analysis.batched_newton",),
         "points_per_norm_s on mc_pullin"),
    "circuit.analysis.batch.assemble_self_ms":
        ("self", ("circuit.analysis.batch.assemble",),
         "points_per_norm_s on mc_pullin"),
    "circuit.analysis.step_control_self_ms":
        ("self", ("circuit.analysis.tran_behavioral",
                  "circuit.analysis.tran_linearized"), _FIG5_BOTH),
    "circuit.analysis.tran_behavioral_ms":
        ("incl", ("circuit.analysis.tran_behavioral",),
         "op_norm_ms_p50 on fig5_pulse and fig5_adjoint"),
    "circuit.analysis.tran_linearized_ms":
        ("incl", ("circuit.analysis.tran_linearized",),
         "op_norm_ms_p50 on fig5_pulse"),
    "circuit.analysis.sensitivities_self_ms":
        ("self", ("circuit.analysis.sensitivities",),
         "op_norm_ms_p50 on fig5_adjoint"),
    "circuit.analysis.adjoint_replay_ms":
        ("incl", ("circuit.analysis.adjoint_replay",),
         "op_norm_ms_p50 on fig5_adjoint"),
    "circuit.analysis.adjoint_replay_self_ms":
        ("self", ("circuit.analysis.adjoint_replay",),
         "op_norm_ms_p50 on fig5_adjoint"),
    "circuit.analysis.newton_iterations":
        ("count", "newton_iterations", _FIG5_BOTH + " and mc_pullin"),
    "circuit.analysis.steps_accepted":
        ("count", "steps_accepted", _FIG5_BOTH),
    "circuit.analysis.steps_rejected":
        ("count", "steps_rejected", _FIG5_BOTH),
    "linalg.factorize_ms": ("self", ("linalg.factorize",), _LINALG),
    "linalg.factorizations": ("calls", "linalg.factorize", _LINALG),
    "linalg.factor_cache_hits":
        ("count", "factor_cache_hits", _LINALG),
    "linalg.factor_cache_hit_ratio": ("special", None, _LINALG),
    "linalg.solve_ms": ("self", ("linalg.solve",), _LINALG),
    "linalg.solve_transposed_ms":
        ("self", ("linalg.solve_transposed",), "op_norm_ms_p50 on fig5_adjoint"),
    "linalg.batched_factorize_ms":
        ("self", ("linalg.batched_factorize",), "points_per_norm_s on mc_pullin"),
    "linalg.batched_solve_ms":
        ("self", ("linalg.batched_solve",), "points_per_norm_s on mc_pullin"),
    "fem.assemble_ms": ("self", ("fem.assemble",), _FEM),
    "fem.solve_ms": ("self", ("fem.solve",), _FEM),
    "fem.postprocess_ms": ("self", ("fem.problem",), _FEM),
    "campaign.dispatch_ms": ("self", ("campaign.run",), _CAMPAIGN),
    "campaign.eval_ms": ("self", ("campaign.eval",), _CAMPAIGN),
    "system.penalty_x":
        ("special", None, "op_norm_ms_p50 on fig5_pulse (the paper's ~10x)"),
    "trace.overhead_frac": ("special", None, "nothing: tracing cost"),
    "trace.unattributed_frac":
        ("special", None, "nothing: op time outside every layer span"),
}


def _per_op(total: float, ops: int) -> float:
    return total / ops if ops else 0.0


def layer_metrics(analysis: dict, tracer, setup_registry: dict,
                  untraced_p50_s: float, traced_p50_s: float,
                  penalty: float) -> tuple[dict, dict]:
    """Per-layer metric values and the exact simulation statistics.

    ``analysis`` is :func:`tracing.self_times` over the traced ops;
    ``setup_registry`` holds the compile counters of a fresh set-up process.
    """
    ops = analysis["ops"]
    exact_ops = [op for op in sorted(analysis["calls"]) if op is not None
                 and op < EXACT_OPS]
    calls: dict = {}
    for op in exact_ops:
        for name, count in analysis["calls"][op].items():
            calls[name] = calls.get(name, 0) + count
    counts: dict = {}
    for (op, name), amount in tracer.counts.items():
        if op in exact_ops:
            counts[name] = counts.get(name, 0.0) + amount
    n_exact = len(exact_ops)
    wall = sum(analysis["wall_s"])
    values = {}
    totals = {}
    for name, (kind, source, _) in LAYERS.items():
        if kind == "self":
            total = sum(analysis["self_s"].get(span, 0.0) for span in source)
            values[name] = 1e3 * _per_op(total, ops)
        elif kind == "incl":
            total = sum(analysis["incl_s"].get(span, 0.0) for span in source)
            values[name] = 1e3 * _per_op(total, ops)
        elif kind in ("calls", "count"):
            totals[name] = (calls if kind == "calls" else counts).get(source, 0)
            values[name] = _per_op(totals[name], n_exact)
    stamps = totals["circuit.devices.behavioral_stamp_calls"]
    values["hdl.compile.compiled_stamp_ratio"] = \
        counts.get("compiled_stamps", 0.0) / stamps if stamps else 0.0
    hits = totals["linalg.factor_cache_hits"]
    requests = hits + totals["linalg.factorizations"]
    values["linalg.factor_cache_hit_ratio"] = \
        hits / requests if requests else 0.0
    values["hdl.compile.kernel_compiles"] = setup_registry["hdl.compile.count"]
    values["hdl.compile.cache_hits"] = setup_registry["hdl.compile.cache_hits"]
    values["system.penalty_x"] = penalty
    values["trace.overhead_frac"] = traced_p50_s / untraced_p50_s - 1.0 \
        if untraced_p50_s else 0.0
    values["trace.unattributed_frac"] = \
        analysis["self_s"].get("op", 0.0) / wall if wall else 0.0
    sim_stats = {name: totals[name] for name in SIM_STATS}
    return values, sim_stats
