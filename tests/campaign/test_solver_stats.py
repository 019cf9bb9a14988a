"""Aggregation of linalg cache counters into CampaignResult.solver_stats."""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import CampaignResult, CampaignRow, CampaignRunner, GridSweep
from repro.campaign import runner
from repro.campaign.runner import SOLVER_COUNTERS, CircuitEvaluator
from repro.circuit import Circuit, OperatingPointAnalysis, SimulationOptions
from repro.circuit.analysis.batch import (ParameterColumns,
                                          batched_operating_points)
from repro.circuit.devices.passive import Resistor
from repro.circuit.devices.sources import VoltageSource
from repro.hdl import compile as hdl_compile
from repro.hdl.compile import runtime as hdl_runtime
from repro.linalg import FactorizationCache, FactorizedSolver, StructureCache
from repro.telemetry import registry


def build_divider(params: dict) -> Circuit:
    circuit = Circuit()
    n_in = circuit.electrical_node("in")
    n_out = circuit.electrical_node("out")
    circuit.add(VoltageSource("V1", n_in, circuit.ground, 5.0))
    circuit.add(Resistor("R1", n_in, n_out, float(params["r_top"])))
    circuit.add(Resistor("R2", n_out, circuit.ground, 1e3))
    return circuit


def build_behavioral(params: dict) -> Circuit:
    """Divider with a behavioral conductance: exercises the HDL compiler."""
    from repro.circuit.devices.behavioral import BehavioralDevice, Port
    from repro.natures import ELECTRICAL

    circuit = Circuit()
    n_in = circuit.electrical_node("in")
    n_out = circuit.electrical_node("out")
    circuit.add(VoltageSource("V1", n_in, circuit.ground,
                              float(params["v"])))
    circuit.add(Resistor("R1", n_in, n_out, 1e3))

    def behavior(ctx):
        ctx.contribute("p", ctx.param("g") * ctx.across("p"))

    circuit.add(BehavioralDevice(
        "G1", [Port("p", n_out, circuit.ground, ELECTRICAL)], behavior,
        params={"g": 1e-3}))
    return circuit


def cached_evaluator(point: dict) -> dict:
    """Evaluator that exercises the FactorizationCache inside workers."""
    cache = FactorizationCache(maxsize=4)
    matrix = np.eye(3) * float(point["v"])
    cache.factorize(matrix)
    cache.factorize(matrix)  # second call is a guaranteed hit
    solution = cache.solve(matrix, np.ones(3))
    return {"x0": float(solution[0])}


def build_one_port(behavior, v: float = 1.0) -> Circuit:
    """A source driving one behavioral port through a resistor."""
    from repro.circuit.devices.behavioral import BehavioralDevice, Port
    from repro.natures import ELECTRICAL

    circuit = Circuit()
    circuit.voltage_source("V1", "in", "0", v)
    circuit.resistor("R1", "in", "out", 1e3)
    circuit.add(BehavioralDevice(
        "G1", [Port("p", circuit.electrical_node("out"), circuit.ground,
                    ELECTRICAL)], behavior))
    return circuit


def build_shared_node() -> Circuit:
    """Two behavioral ports on one node: their leaves collide."""
    from repro.circuit.devices.behavioral import BehavioralDevice, Port
    from repro.natures import ELECTRICAL

    circuit = Circuit()
    circuit.voltage_source("V1", "in", "0", 1.0)
    circuit.resistor("R1", "in", "out", 1e3)
    node = circuit.electrical_node("out")

    def behavior(ctx):
        ctx.contribute("a", 1e-6 * ctx.across("a") * ctx.across("b"))

    circuit.add(BehavioralDevice(
        "G1", [Port("a", node, circuit.ground, ELECTRICAL),
               Port("b", node, circuit.ground, ELECTRICAL)], behavior))
    return circuit


def build_unfusable() -> Circuit:
    """A parameter bound to an attribute name that is no identifier."""
    from repro.circuit.devices.behavioral import BehavioralDevice, Port
    from repro.natures import ELECTRICAL

    owner = type("Owner", (), {})()
    setattr(owner, "g value", 1e-6)

    def behavior(ctx):
        ctx.contribute("p", getattr(owner, "g value") * ctx.across("p"))

    circuit = build_divider({"r_top": 1e3})
    circuit.add(BehavioralDevice(
        "G1", [Port("p", circuit.electrical_node("out"), circuit.ground,
                    ELECTRICAL)], behavior,
        parameter_bindings={"g": (owner, "g value")}))
    return circuit


def untraceable(ctx):
    # float() drops the derivative: the interpreter still converges since
    # the 1 kOhm resistor dominates the Jacobian.
    ctx.contribute("p", float(ctx.across("p")) / 1e6)


def guarded(ctx):
    v = ctx.across("p")
    ctx.contribute("p", v / 1e3 if v > 0.5 else v / 2e3)


class TestMetricsModule:
    """The campaign's counter table over the metrics registry."""

    def test_record_snapshot_delta(self):
        before = runner._solver_counters()
        registry.inc("linalg.factorizations", 3)
        after = runner._solver_counters()
        assert after["factorizations"] - before["factorizations"] == 3
        assert after["structure_reuses"] == before["structure_reuses"]

    def test_every_table_counter_is_bumped(self, monkeypatch):
        # A representative operation per counter: a misspelt registry name
        # in the table would stay at zero here.
        before = runner._solver_counters()
        handle = FactorizedSolver("dense").factorize(2.0 * np.eye(2))
        handle.solve_transposed(np.ones(2))
        cache = FactorizationCache(maxsize=1)
        cache.factorize(np.eye(2))              # miss
        cache.factorize(np.eye(2))              # hit
        cache.factorize(3.0 * np.eye(2))        # miss + eviction
        structure = StructureCache()
        structure.assemble([0, 1], [0, 1], [1.0, 2.0], 2)   # rebuild
        structure.assemble([0, 1], [0, 1], [3.0, 4.0], 2)   # reuse
        hdl_compile.clear_cache()
        OperatingPointAnalysis(build_behavioral({"v": 1.0})).run()  # compile
        OperatingPointAnalysis(build_behavioral({"v": 2.0})).run()  # cache hit
        OperatingPointAnalysis(build_one_port(untraceable)).run()
        OperatingPointAnalysis(build_shared_node()).run()
        OperatingPointAnalysis(build_unfusable()).run()
        circuit = build_one_port(guarded)
        with ParameterColumns(circuit, [("V1", "dc", [0.5, 2.0])]) as columns:
            batched_operating_points(circuit, SimulationOptions(), columns)
        monkeypatch.setattr(hdl_runtime, "MAX_VARIANTS", 0)
        OperatingPointAnalysis(build_behavioral({"v": 3.0})).run()
        after = runner._solver_counters()
        for key, name in SOLVER_COUNTERS:
            assert after[key] > before[key], (key, name)

    def test_merge(self):
        total = {key: 1 for key, _ in SOLVER_COUNTERS}
        runner._merge_solver_stats(total, {"factorizations": 4})
        assert total["factorizations"] == 5
        assert total["hdl_compiles"] == 1


class TestCampaignAggregation:
    SPEC = GridSweep(v=[1.0, 2.0, 3.0, 4.0])

    def test_serial_counts_cache_traffic(self):
        result = CampaignRunner("serial").run(self.SPEC, cached_evaluator)
        stats = result.solver_stats
        # Per point: 2 hits (the repeat factorize + the cached solve),
        # 1 miss, 1 real factorization.
        assert stats["factorization_cache_hits"] == 2 * len(self.SPEC.points())
        assert stats["factorization_cache_misses"] == len(self.SPEC.points())
        assert stats["factorizations"] == len(self.SPEC.points())

    def test_pool_matches_serial(self):
        serial = CampaignRunner("serial").run(self.SPEC, cached_evaluator)
        pool = CampaignRunner("pool", processes=2).run(self.SPEC,
                                                       cached_evaluator)
        assert pool.solver_stats == serial.solver_stats

    def test_circuit_evaluator_factorizations_visible(self):
        evaluator = CircuitEvaluator(build_divider, outputs=("v(out)",))
        spec = GridSweep(r_top=[5e2, 1e3, 2e3])
        result = CampaignRunner("serial").run(spec, evaluator)
        assert result.solver_stats["factorizations"] >= 3

    def test_solver_summary_rates(self):
        result = CampaignRunner("serial").run(self.SPEC, cached_evaluator)
        summary = result.solver_summary()
        assert summary["factorization_cache_hit_rate"] == pytest.approx(2 / 3)
        assert summary["structure_reuse_rate"] == 0.0

    def test_repr_mentions_factorizations(self):
        result = CampaignRunner("serial").run(self.SPEC, cached_evaluator)
        assert "factorizations" in repr(result)

    def test_derived_results_have_empty_stats(self):
        result = CampaignRunner("serial").run(self.SPEC, cached_evaluator)
        filtered = result.filter(lambda row: row["v"] > 2.0)
        assert filtered.solver_stats == {}
        summary = filtered.solver_summary()
        assert summary["factorization_cache_hit_rate"] == 0.0

    def test_manual_construction_defaults_empty(self):
        row = CampaignRow(0, {"v": 1.0}, {"y": 2.0})
        result = CampaignResult([row])
        assert result.solver_stats == {}


class TestHdlCompileCounters:
    SPEC = GridSweep(v=[1.0, 2.0, 3.0])

    def test_behavioral_campaign_counts_kernel_cache(self):
        evaluator = CircuitEvaluator(build_behavioral, outputs=("v(out)",))
        result = CampaignRunner("serial").run(self.SPEC, evaluator)
        stats = result.solver_stats
        # One kernel-cache event per point (the fingerprint-keyed cache is
        # process-wide, so the compile itself may predate this campaign --
        # only the compile+hit total is deterministic here).
        events = stats["hdl_compiles"] + stats["hdl_compile_cache_hits"]
        assert events >= len(self.SPEC.points())
        assert stats["hdl_compile_cache_hits"] >= 2
        summary = result.solver_summary()
        assert summary["hdl_compile_cache_hit_rate"] > 0.0
        # Every compiled -> interpreter fallback reason rides the summary.
        for reason in ("trace_error", "max_variants", "guarded_per_lane"):
            assert summary[f"hdl_fallback_{reason}"] == 0

    def test_non_behavioral_campaign_reports_zero_rate(self):
        result = CampaignRunner("serial").run(self.SPEC, cached_evaluator)
        stats = result.solver_stats
        assert stats["hdl_compiles"] == 0
        assert stats["hdl_compile_cache_hits"] == 0
        assert result.solver_summary()["hdl_compile_cache_hit_rate"] == 0.0
