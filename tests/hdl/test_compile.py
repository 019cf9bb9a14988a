"""Behavioral-model compiler: bit-identity corpus and IR pass unit tests.

The compiler's contract is that compiled kernels replicate the AD
interpreter's IEEE-754 arithmetic operation by operation, so every analysis
result -- operating points, AC sweeps, transients, dual-seeded parameter
gradients -- must be **bitwise identical** with ``behavioral_compile`` on
and off.  The corpus below covers the behavioral device idioms used across
the suite: linear and nonlinear contributions, ``ddt``/``integ`` state,
extra unknowns with equations, records, data-dependent guards, and the
forensics/health-check instrumentation paths.  It runs on every
:data:`AXES` entry: the fused stamp is the only compiled scalar path, so
the contract must hold with telemetry timing it, with sparse (COO-triplet)
Jacobian assembly and with ``np.float64``/``int`` parameters.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.ad.functions import exp
from repro.circuit import (
    ACAnalysis,
    Circuit,
    OperatingPointAnalysis,
    SimulationOptions,
    Step,
    TransientAnalysis,
)
from repro.circuit.devices.behavioral import BehavioralDevice, Port
from repro.circuit.mna import MNASystem
from repro.hdl import compile as hdl_compile
from repro.hdl.compile import codegen, ir, passes, runtime
from repro.natures import ELECTRICAL
from repro.system.microsystem import PAPER_PARAMETERS, build_behavioral_system
from repro.telemetry import registry
from repro.transducers import (ElectrodynamicTransducer,
                               ElectromagneticTransducer,
                               LateralElectrostaticTransducer,
                               TransverseElectrostaticTransducer)

COMPILED = SimulationOptions(behavioral_compile=True)
INTERP = SimulationOptions(behavioral_compile=False)

#: Axes of the compiled-vs-interpreter contract: option overrides, or a
#: type every behavioral parameter is re-bound as (``int`` only where the
#: value is integral).
AXES = {
    "default": {},
    "telemetry": {"telemetry": "summary"},
    "sparse": {"linear_solver": "sparse"},
    "float64": np.float64,
    "int": int,
}


class _OnEveryAxis:
    """Mixin re-running an inherited corpus class on every non-default
    :data:`AXES` entry (test ids gain the axis name)."""

    @pytest.fixture(autouse=True, params=[a for a in AXES if a != "default"])
    def _axis(self, request):
        self.axis = request.param


def axis_options(axis: str, compiled: bool, **opts) -> SimulationOptions:
    overrides = AXES[axis] if isinstance(AXES[axis], dict) else {}
    return SimulationOptions(behavioral_compile=compiled, **overrides, **opts)


def retype(circuit: Circuit, axis: str) -> Circuit:
    """Re-bind the circuit's behavioral parameters as the axis's type."""
    cast = AXES[axis]
    if isinstance(cast, dict):
        return circuit
    for device in circuit:
        if not isinstance(device, BehavioralDevice):
            continue
        for name in device.parameter_names():
            value = device.get_parameter(name)
            if cast is np.float64 or float(value).is_integer():
                device.set_parameter(name, cast(value))
    return circuit


# ------------------------------------------------------------------- corpus
def behavioral_resistor(circuit, name, p, n, resistance):
    def behavior(ctx):
        ctx.contribute("e", ctx.across("e") / ctx.param("R"))

    return circuit.add(BehavioralDevice(
        name, [Port("e", circuit.electrical_node(p),
                    circuit.electrical_node(n), ELECTRICAL)],
        behavior, params={"R": resistance}))


def behavioral_capacitor(circuit, name, p, n, capacitance):
    def behavior(ctx):
        ctx.contribute("e", ctx.param("C") * ctx.ddt(ctx.across("e"),
                                                     key="v"))

    return circuit.add(BehavioralDevice(
        name, [Port("e", circuit.electrical_node(p),
                    circuit.electrical_node(n), ELECTRICAL)],
        behavior, params={"C": capacitance}))


def diode_circuit() -> Circuit:
    """Exponential behavioral diode behind a resistor: nonlinear Newton."""
    circuit = Circuit()
    circuit.voltage_source("V1", "n1", "0", 2.0)
    circuit.resistor("R1", "n1", "n2", 1e3)

    def behavior(ctx):
        v = ctx.across("e")
        ctx.contribute("e",
                       ctx.param("isat") * (exp(v / ctx.param("vt")) - 1.0))

    circuit.add(BehavioralDevice(
        "DB", [Port("e", circuit.electrical_node("n2"), circuit.ground,
                    ELECTRICAL)],
        behavior, params={"isat": 1e-9, "vt": 0.05}))
    return circuit


def rc_circuit() -> Circuit:
    """Step-driven RC with behavioral R and C plus an integ/record monitor."""
    circuit = Circuit()
    circuit.voltage_source("V1", "in", "0", Step(0.0, 5.0, ramp=1e-9))
    behavioral_resistor(circuit, "XR", "in", "out", 1e3)
    behavioral_capacitor(circuit, "XC", "out", "0", 1e-6)

    def monitor(ctx):
        # Leaky integral of the node voltage: exercises integ + record.
        q = ctx.integ(ctx.across("e"), key="q", initial=0.0)
        ctx.contribute("e", 1e-9 * q)
        ctx.record("q", q)

    circuit.add(BehavioralDevice(
        "XQ", [Port("e", circuit.electrical_node("out"), circuit.ground,
                    ELECTRICAL)], monitor))
    return circuit


def inductor_circuit() -> Circuit:
    """Behavioral inductor: extra unknown + branch equation + ddt."""
    circuit = Circuit()
    circuit.voltage_source("V1", "in", "0", Step(0.0, 1.0, ramp=1e-9))
    circuit.resistor("R1", "in", "out", 10.0)

    def behavior(ctx):
        current = ctx.unknown("i")
        ctx.contribute("e", current)
        ctx.equation("i", ctx.across("e") - 10e-3 * ctx.ddt(current, key="i"))

    circuit.add(BehavioralDevice(
        "XL", [Port("e", circuit.electrical_node("out"), circuit.ground,
                    ELECTRICAL)],
        behavior, extra_unknowns=("i",)))
    return circuit


def shared_node_circuit() -> Circuit:
    """Two ports on one node: both across leaves feed one unknown."""
    circuit = Circuit()
    circuit.voltage_source("V1", "in", "0", 2.0)
    circuit.resistor("R1", "in", "out", 1e3)
    node = circuit.electrical_node("out")

    def behavior(ctx):
        ctx.contribute("a", 1e-3 * ctx.across("a") * ctx.across("b"))

    circuit.add(BehavioralDevice(
        "XC", [Port("a", node, circuit.ground, ELECTRICAL),
               Port("b", node, circuit.ground, ELECTRICAL)],
        behavior))
    return circuit


def floating_two_port_circuit() -> Circuit:
    """Port ``a`` floats between two nodes and port ``b`` starts at its
    negative node: their leaves meet there with opposite signs."""
    circuit = Circuit()
    circuit.voltage_source("V1", "in", "0", 2.0)
    circuit.resistor("R1", "in", "a", 1e3)
    circuit.resistor("R2", "b", "0", 1e3)
    a, b = circuit.electrical_node("a"), circuit.electrical_node("b")

    def behavior(ctx):
        va, vb = ctx.across("a"), ctx.across("b")
        ctx.contribute("a", 1e-3 * va * vb + 1e-4 * va)
        ctx.contribute("b", 2e-3 * va * va - 3e-4 * vb)

    circuit.add(BehavioralDevice(
        "XF", [Port("a", a, b, ELECTRICAL),
               Port("b", b, circuit.ground, ELECTRICAL)],
        behavior))
    return circuit


def guarded_circuit() -> Circuit:
    """Piecewise conductance: the trace guard flips as the drive ramps."""
    circuit = Circuit()
    circuit.voltage_source("V1", "in", "0", Step(0.0, 4.0, ramp=2e-3))
    circuit.resistor("R1", "in", "out", 1e3)

    def behavior(ctx):
        v = ctx.across("e")
        if v > 2.0:
            ctx.contribute("e", (v - 1.0) / ctx.param("R"))
        else:
            ctx.contribute("e", v / (2.0 * ctx.param("R")))

    circuit.add(BehavioralDevice(
        "XG", [Port("e", circuit.electrical_node("out"), circuit.ground,
                    ELECTRICAL)],
        behavior, params={"R": 1e3}))
    return circuit


def _op_pair(build, axis="default"):
    return [OperatingPointAnalysis(retype(build(), axis),
                                   axis_options(axis, compiled)).run()
            for compiled in (True, False)]


def _transient_pair(build, t_stop=2e-3, t_step=10e-6, axis="default",
                    **opts):
    return [TransientAnalysis(retype(build(), axis), t_stop=t_stop,
                              t_step=t_step,
                              options=axis_options(axis, compiled,
                                                   **opts)).run()
            for compiled in (True, False)]


def assert_transients_identical(compiled, interp):
    assert np.array_equal(compiled.time, interp.time)
    assert set(compiled._data) == set(interp._data)
    for name in interp._data:
        assert np.array_equal(np.asarray(compiled._data[name]),
                              np.asarray(interp._data[name])), name


class TestBitIdenticalAnalyses:
    axis = "default"

    def test_operating_point_nonlinear(self):
        compiled, interp = _op_pair(diode_circuit, self.axis)
        assert np.array_equal(compiled.raw, interp.raw)
        assert compiled.iterations == interp.iterations

    def test_operating_point_linear_divider(self):
        def build():
            circuit = Circuit()
            circuit.voltage_source("V1", "in", "0", 6.0)
            circuit.resistor("R1", "in", "out", 1e3)
            behavioral_resistor(circuit, "X1", "out", "0", 2e3)
            return circuit

        compiled, interp = _op_pair(build, self.axis)
        assert np.array_equal(compiled.raw, interp.raw)

    def test_ac_sweep(self):
        def run(compiled):
            circuit = Circuit()
            circuit.voltage_source("V1", "in", "0", 0.0, ac=1.0)
            behavioral_resistor(circuit, "XR", "in", "out", 1e3)
            behavioral_capacitor(circuit, "XC", "out", "0", 1e-6)
            return ACAnalysis(retype(circuit, self.axis),
                              [10.0, 159.0, 5e3],
                              axis_options(self.axis, compiled)).run()

        compiled, interp = run(True), run(False)
        assert np.array_equal(np.asarray(compiled["v(out)"]),
                              np.asarray(interp["v(out)"]))

    def test_transient_rc_with_integ_and_record(self):
        compiled, interp = _transient_pair(rc_circuit, axis=self.axis)
        assert_transients_identical(compiled, interp)
        assert "q(XQ)" in interp._data

    def test_transient_extra_unknown_equation(self):
        compiled, interp = _transient_pair(inductor_circuit,
                                           axis=self.axis)
        assert_transients_identical(compiled, interp)

    def test_transient_backward_euler(self):
        compiled, interp = _transient_pair(rc_circuit, axis=self.axis,
                                           integration_method="backward_euler")
        assert_transients_identical(compiled, interp)

    def test_transient_guard_crossing_retraces(self):
        # The drive ramp crosses the v > 2 guard mid-run: the runtime must
        # retrace and compile the second variant, not fall back silently.
        before = hdl_compile.cache_info()["kernels"]
        compiled, interp = _transient_pair(guarded_circuit, t_stop=4e-3,
                                           axis=self.axis)
        assert_transients_identical(compiled, interp)
        assert hdl_compile.cache_info()["kernels"] >= before

    def test_forensics_and_health_paths(self):
        compiled, interp = _transient_pair(rc_circuit, axis=self.axis,
                                           forensics=True, health_check=True)
        assert_transients_identical(compiled, interp)


class TestBitIdenticalOnAxes(_OnEveryAxis, TestBitIdenticalAnalyses):
    def test_axis_hands_the_interpreter_no_extra_stamps(self, monkeypatch):
        original = runtime.try_stamp
        handed = []

        def counting(device, ctx):
            served = original(device, ctx)
            handed[-1] += not served
            return served

        monkeypatch.setattr(runtime, "try_stamp", counting)
        for axis in ("default", self.axis):
            handed.append(0)
            TransientAnalysis(retype(rc_circuit(), axis), t_stop=2e-4,
                              t_step=10e-6,
                              options=axis_options(axis, True)).run()
        assert handed[1] == handed[0]


class TestDualSeededGradients:
    axis = "default"

    def test_sensitivities_match_interpreter_bitwise(self):
        params = ["DB.isat", "DB.vt", "R1.resistance"]
        matrices = []
        for compiled in (True, False):
            analysis = OperatingPointAnalysis(
                retype(diode_circuit(), self.axis),
                axis_options(self.axis, compiled))
            matrices.append(
                analysis.sensitivities(params, ["v(n2)"]).matrix)
        assert np.array_equal(matrices[0], matrices[1])


class TestDualSeededGradientsOnAxes(_OnEveryAxis, TestDualSeededGradients):
    pass


class TestEscapeHatches:
    def test_options_flag_keeps_interpreter(self):
        before = hdl_compile.cache_info()["kernels"]
        result = TransientAnalysis(rc_circuit(), t_stop=5e-4, t_step=10e-6,
                                   options=INTERP).run()
        assert len(result.time) > 1
        assert hdl_compile.cache_info()["kernels"] == before


class TestBatchCompiled:
    def test_compiled_behavioral_is_batch_safe_with_serial_parity(self):
        from repro.circuit.analysis.batch import (ParameterColumns,
                                                  batched_operating_points)

        circuit = diode_circuit()
        # The compiled kernels make the behavioral diode batch-safe: the
        # whole batch stamps vectorized, no per-lane interpreter fallback.
        assert circuit["DB"].batch_safe is True
        vdd = np.array([1.0, 2.0, 3.0])
        columns = ParameterColumns(circuit, [("V1", "dc", vdd)])
        results = batched_operating_points(circuit, COMPILED, columns)
        assert all(op is not None for op in results)
        for lane, op in enumerate(results):
            columns.set_lane(lane)
            try:
                reference = OperatingPointAnalysis(circuit, COMPILED).run()
            finally:
                columns.restore()
            assert op.iterations == reference.iterations
            for key, value in reference.items():
                scale = max(1.0, abs(value))
                assert abs(op[key] - value) / scale <= 1e-12

    @pytest.mark.parametrize("linear_solver", ["dense", "sparse"])
    @pytest.mark.parametrize("build", [diode_circuit, shared_node_circuit,
                                       floating_two_port_circuit,
                                       inductor_circuit])
    def test_batch_task_matches_lane_stamps(self, build, linear_solver):
        # One batch stamp -- colliding leaves summed, branch equations,
        # DC ddt terms, dense or COO triplets -- matches every lane's
        # serial assembly to rounding.
        from repro.circuit.analysis.batch import (ParameterColumns,
                                                  assemble_batch)

        circuit = build()
        options = SimulationOptions(linear_solver=linear_solver)
        system = MNASystem(circuit)
        columns = ParameterColumns(circuit,
                                   [("R1", "resistance", [10.0, 1e3, 5e4])])
        x = np.random.default_rng(5).uniform(-1.0, 1.0, (3, system.size))
        with columns:
            columns.set_arrays(options)
            assert not columns.per_lane
            ctx = assemble_batch(system, x, "op", options, columns)
            jacobians = ctx.jacobian()
            for lane in range(3):
                columns.set_lane(lane)
                serial = system.assemble(x[lane], "op", 0.0, None, options)
                jac = serial.jacobian()
                batch_jac = jacobians[lane]
                if linear_solver == "sparse":
                    jac, batch_jac = jac.toarray(), batch_jac.toarray()
                np.testing.assert_allclose(ctx.res[lane], serial.res,
                                           rtol=1e-12, atol=1e-300)
                np.testing.assert_allclose(batch_jac, jac, rtol=1e-12,
                                           atol=1e-300)

    def test_batch_safe_honors_options_escape_hatch(self):
        from repro.circuit.analysis.batch import ParameterColumns

        circuit = diode_circuit()
        with ParameterColumns(circuit, [("V1", "dc", [1.0, 2.0])]) as columns:
            columns.set_arrays(COMPILED)
            assert circuit["DB"] not in columns.per_lane
            columns.set_arrays(INTERP)
            assert circuit["DB"] in columns.per_lane

    def test_interpreted_batch_stamps_per_lane_with_serial_parity(self):
        # Under behavioral_compile=False the guard-free diode, batch-safe
        # when compiled, must stamp one lane at a time: the interpreter
        # stamps scalars only.
        from repro.circuit.analysis.batch import (ParameterColumns,
                                                  batched_operating_points)

        circuit = diode_circuit()
        vdd = np.array([1.0, 2.0, 3.0])
        columns = ParameterColumns(circuit, [("V1", "dc", vdd)])
        results = batched_operating_points(circuit, INTERP, columns)
        assert all(op is not None for op in results)
        for lane, op in enumerate(results):
            columns.set_lane(lane)
            try:
                reference = OperatingPointAnalysis(circuit, INTERP).run()
            finally:
                columns.restore()
            assert op.iterations == reference.iterations
            for key, value in reference.items():
                scale = max(1.0, abs(value))
                assert abs(op[key] - value) / scale <= 1e-12


# ------------------------------------------------- energy-method transducers
def _transverse():
    return TransverseElectrostaticTransducer(area=4e-8, gap=2e-6,
                                             gap_orientation="closing")


def _lateral():
    return LateralElectrostaticTransducer(depth=20e-6, length=100e-6,
                                          gap=2e-6)


def _electromagnetic():
    return ElectromagneticTransducer(area=1e-6, turns=100.0, gap=1e-4)


def _electrodynamic():
    return ElectrodynamicTransducer(turns=50.0, radius=5e-3, b_field=0.5)


#: name -> (transducer factory, drive amplitude, source resistance, tunable
#: parameters).  Each device is built with the default (energy-method)
#: behaviour.
TRANSDUCERS = {
    "transverse": (_transverse, 3.0, 1e4, ("A", "d", "er")),
    "lateral": (_lateral, 3.0, 1e4, ("h", "l", "d", "er")),
    "electromagnetic": (_electromagnetic, 1.0, 10.0, ("A", "N", "d")),
    "electrodynamic": (_electrodynamic, 1.0, 10.0, ("N", "r", "B")),
}


def transducer_circuit(kind: str, closed_form: bool = False) -> Circuit:
    """Biased, step-driven transducer on a spring-mass-damper load."""
    factory, amplitude, resistance, _ = TRANSDUCERS[kind]
    circuit = Circuit()
    circuit.voltage_source("V1", "in", "0",
                           Step(0.5 * amplitude, amplitude, ramp=2e-6), ac=1.0)
    circuit.resistor("R1", "in", "a", resistance)
    factory().add_to_circuit(circuit, "XT", "a", "0", "m", "0",
                             closed_form=closed_form)
    circuit.mass("M1", "m", 1e-9)
    circuit.spring("K1", "m", "0", 5.0)
    circuit.damper("B1", "m", "0", 2e-5)
    return circuit


@pytest.mark.parametrize("kind", sorted(TRANSDUCERS))
class TestEnergyMethodTransducers:
    """The energy-method devices compile, bit-identically to the interpreter."""

    axis = "default"

    def test_operating_point(self, kind):
        circuit = retype(transducer_circuit(kind), self.axis)
        compiled = OperatingPointAnalysis(
            circuit, axis_options(self.axis, True)).run()
        state = hdl_compile.state_for(circuit["XT"])
        assert state.variants.get("op") and "op" not in state.disabled
        interp = OperatingPointAnalysis(
            retype(transducer_circuit(kind), self.axis),
            axis_options(self.axis, False)).run()
        assert np.array_equal(compiled.raw, interp.raw)
        assert compiled.iterations == interp.iterations

    def test_ac_sweep(self, kind):
        def run(compiled):
            return ACAnalysis(retype(transducer_circuit(kind), self.axis),
                              [1e2, 1.1e4, 4e4],
                              axis_options(self.axis, compiled)).run()

        compiled, interp = run(True), run(False)
        for name in ("v(a)", "v(m)"):
            assert np.array_equal(np.asarray(compiled[name]),
                                  np.asarray(interp[name])), name

    def test_ac_matches_table3_closed_form(self, kind):
        # The AC matrix holds the full co-energy Hessian (charge and force
        # derivatives in drive and displacement): exact, so the small-signal
        # response equals the hand-derived model's to rounding.
        def run(closed_form):
            return ACAnalysis(transducer_circuit(kind, closed_form),
                              [1e2, 1.1e4, 4e4], COMPILED).run()

        energy, closed = run(False), run(True)
        for name in ("v(a)", "v(m)"):
            np.testing.assert_allclose(np.asarray(energy[name]),
                                       np.asarray(closed[name]),
                                       rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("reuse", ["off", "chord"])
    def test_transient(self, kind, reuse):
        circuits = []

        def build():
            circuits.append(transducer_circuit(kind))
            return circuits[-1]

        compiled, interp = _transient_pair(build, t_stop=2e-5, t_step=5e-7,
                                           axis=self.axis,
                                           jacobian_reuse=reuse)
        assert_transients_identical(compiled, interp)
        assert hdl_compile.state_for(circuits[0]["XT"]).variants.get("tran")


class TestEnergyMethodTransducersOnAxes(_OnEveryAxis,
                                        TestEnergyMethodTransducers):
    test_ac_matches_table3_closed_form = None


def _fallbacks(reason: str) -> float:
    return registry.counter_value(f"{runtime.FALLBACK_PREFIX}{reason}")


def _monte_carlo_example():
    """The ``examples/monte_carlo_pull_in.py`` module (not a package)."""
    path = Path(__file__).resolve().parents[2] / "examples" \
        / "monte_carlo_pull_in.py"
    spec = importlib.util.spec_from_file_location("monte_carlo_pull_in", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFallbackCounters:
    """Losing the compiled path is counted by reason, never silent."""

    def test_figure5_system_has_no_trace_errors(self):
        before = _fallbacks("trace_error")
        circuit = build_behavioral_system(
            PAPER_PARAMETERS, Step(0.0, 10.0, ramp=1e-4))
        result = TransientAnalysis(circuit, t_stop=2e-3, t_step=2e-4,
                                   options=COMPILED).run()
        assert len(result.time) > 2
        assert _fallbacks("trace_error") == before
        state = hdl_compile.state_for(circuit["XDCR"])
        assert state.variants.get("op") and state.variants.get("tran")
        assert not state.disabled

    def test_monte_carlo_actuator_has_no_trace_errors(self):
        from repro.circuit.analysis.batch import (ParameterColumns,
                                                  batched_operating_points)

        example = _monte_carlo_example()
        circuit = example.build_actuator(
            {"gap": example.GAP_NOM, "thickness": example.THICKNESS_NOM})
        circuit["VS"].set_parameter("dc", 2.0)
        gaps = example.GAP_NOM * np.array([0.9, 1.0, 1.1])
        before = {reason: _fallbacks(reason)
                  for reason in ("trace_error", "guarded_per_lane")}
        columns = ParameterColumns(circuit, [("XDCR", "d", gaps)])
        with columns:
            results = batched_operating_points(circuit, COMPILED, columns)
        assert all(op is not None for op in results)
        assert _fallbacks("trace_error") == before["trace_error"]
        # The contact guard keeps the transducer on (compiled) per-lane
        # stamps, and every such lane is counted.
        assert hdl_compile.state_for(circuit["XDCR"]).variants.get("op")
        assert _fallbacks("guarded_per_lane") >= \
            before["guarded_per_lane"] + len(gaps)

    def test_untraceable_behavior_shows_in_profile(self):
        def behavior(ctx):
            ctx.contribute("e", float(ctx.across("e")) / 1e3)

        circuit = Circuit()
        circuit.voltage_source("V1", "a", "0", 1.0)
        circuit.add(BehavioralDevice(
            "XF", [Port("e", circuit.electrical_node("a"), circuit.ground,
                        ELECTRICAL)], behavior))
        options = SimulationOptions(telemetry="summary")
        result = OperatingPointAnalysis(circuit, options).run()
        table = result.telemetry.profile_summary()
        line = next(row for row in table.splitlines()
                    if row.startswith("hdl.compile.fallback.trace_error"))
        assert float(line.split()[-1]) >= 1

    def test_figure5_telemetry_hands_over_no_more_stamps(self, monkeypatch):
        # One compiled path: a telemetry session times the fused stamps, it
        # does not route them anywhere else.
        original = runtime.try_stamp
        handed = {"off": 0, "summary": 0}
        level = ["off"]

        def counting(device, ctx):
            served = original(device, ctx)
            if not served:
                handed[level[0]] += 1
            return served

        monkeypatch.setattr(runtime, "try_stamp", counting)
        for level[0] in handed:
            circuit = build_behavioral_system(
                PAPER_PARAMETERS, Step(0.0, 10.0, ramp=1e-4))
            TransientAnalysis(circuit, t_stop=2e-3, t_step=2e-4,
                              options=SimulationOptions(
                                  telemetry=level[0])).run()
        assert handed["summary"] <= handed["off"]

    def test_leaf_collision_is_counted(self):
        before = _fallbacks("leaf_collision")
        compiled, interp = _op_pair(shared_node_circuit)
        assert np.array_equal(compiled.raw, interp.raw)
        # Once per full stamp after the first, which traces.
        assert _fallbacks("leaf_collision") == \
            before + compiled.iterations - 1

    def test_unfusable_variant_is_counted(self):
        def build():
            # A binding attribute that is no identifier cannot be spliced
            # into generated source.
            owner = type("Owner", (), {})()
            setattr(owner, "g value", 1e-3)

            def behavior(ctx):
                ctx.contribute("e", getattr(owner, "g value")
                               * ctx.across("e"))

            circuit = Circuit()
            circuit.voltage_source("V1", "in", "0", 2.0)
            circuit.resistor("R1", "in", "out", 1e3)
            circuit.add(BehavioralDevice(
                "XU", [Port("e", circuit.electrical_node("out"),
                            circuit.ground, ELECTRICAL)], behavior,
                parameter_bindings={"g": (owner, "g value")}))
            return circuit

        before = _fallbacks("unfusable")
        circuit = build()
        compiled = OperatingPointAnalysis(circuit, COMPILED).run()
        interp = OperatingPointAnalysis(build(), INTERP).run()
        assert np.array_equal(compiled.raw, interp.raw)
        assert "op" in hdl_compile.state_for(circuit["XU"]).disabled
        assert _fallbacks("unfusable") == before + 1

    def test_max_variants_budget_is_counted(self, monkeypatch):
        monkeypatch.setattr(runtime, "MAX_VARIANTS", 1)
        before = _fallbacks("max_variants")
        compiled, interp = _transient_pair(guarded_circuit, t_stop=4e-3)
        assert_transients_identical(compiled, interp)
        assert _fallbacks("max_variants") > before


class TestKernelCacheBound:
    def test_cache_never_exceeds_limit(self, monkeypatch):
        monkeypatch.setattr(codegen, "_CACHE_LIMIT", 3)
        hdl_compile.clear_cache()
        for k in range(8):
            circuit = Circuit()
            circuit.voltage_source("V1", "a", "0", 1.0)
            # A distinct constant per device -> a distinct fingerprint.
            scale = 1.0 + k

            def behavior(ctx, scale=scale):
                ctx.contribute("e", scale * ctx.across("e"))

            device = circuit.add(BehavioralDevice(
                "XK", [Port("e", circuit.electrical_node("a"),
                            circuit.ground, ELECTRICAL)], behavior))
            hdl_compile.compile_device(device)
            assert hdl_compile.cache_info()["kernels"] <= 3
        hdl_compile.clear_cache()

    def test_fused_code_cache_never_exceeds_limit(self, monkeypatch):
        monkeypatch.setattr(runtime, "_FUSED_CODE_LIMIT", 3)
        monkeypatch.setattr(runtime, "_FUSED_CODE", {})
        for k in range(4):
            def build(scale=1.0 + k):
                circuit = Circuit()
                circuit.voltage_source("V1", "a", "0", 1.0)
                circuit.add(BehavioralDevice(
                    "XK", [Port("e", circuit.electrical_node("a"),
                                circuit.ground, ELECTRICAL)],
                    lambda ctx: ctx.contribute("e", scale * ctx.across("e"))))
                return circuit

            compiled, interp = _op_pair(build)
            assert np.array_equal(compiled.raw, interp.raw)
            assert len(runtime._FUSED_CODE) <= 3

    def test_rebuilt_netlist_shares_fused_code(self):
        codes = []
        for _ in range(2):
            circuit = diode_circuit()
            OperatingPointAnalysis(circuit, COMPILED).run()
            (bound,) = hdl_compile.state_for(circuit["DB"]).variants["op"]
            codes.append(bound.geometry.fused["jac"].__code__)
        assert codes[0] is codes[1]


class TestIRPasses:
    def test_constant_folding_matches_python_floats(self):
        builder = ir.IRBuilder()
        node = builder.binary("/", builder.const(1.0), builder.const(3.0))
        assert isinstance(node, ir.Const)
        assert node.value.hex() == (1.0 / 3.0).hex()

    def test_hash_consing_is_cse(self):
        builder = ir.IRBuilder()
        v = builder.input("across", "e")
        a = builder.binary("*", v, builder.const(2.0))
        b = builder.binary("*", v, builder.const(2.0))
        assert a is b  # structurally equal -> the same interned object

    @pytest.mark.parametrize("make", [
        lambda b, x: b.binary("*", x, b.const(1.0)),
        lambda b, x: b.binary("*", b.const(1.0), x),
        lambda b, x: b.binary("/", x, b.const(1.0)),
        lambda b, x: b.binary("**", x, b.const(1.0)),
        lambda b, x: b.binary("-", x, b.const(0.0)),
        lambda b, x: b.unary("pos", x),
        lambda b, x: b.unary("neg", b.unary("neg", x)),
    ], ids=["mul1", "1mul", "div1", "pow1", "sub0", "pos", "negneg"])
    def test_exact_identities_simplify_away(self, make):
        builder = ir.IRBuilder()
        x = builder.input("across", "e")
        assert passes.simplify(builder, make(builder, x)) is x

    @pytest.mark.parametrize("make", [
        # x + 0.0 flips -0.0 to +0.0; 0.0 - x has the same zero-sign
        # hazard; x * 0.0 is wrong for negative and non-finite x.
        lambda b, x: b.binary("+", x, b.const(0.0)),
        lambda b, x: b.binary("-", b.const(0.0), x),
        lambda b, x: b.binary("*", x, b.const(0.0)),
    ], ids=["add0", "0sub", "mul0"])
    def test_inexact_identities_preserved(self, make):
        builder = ir.IRBuilder()
        x = builder.input("across", "e")
        node = make(builder, x)
        assert passes.simplify(builder, node) is node

    def test_simplify_is_idempotent(self):
        builder = ir.IRBuilder()
        x = builder.input("across", "e")
        node = builder.binary("*", builder.unary("neg", builder.unary(
            "neg", x)), builder.const(1.0))
        once = passes.simplify(builder, node)
        assert passes.simplify(builder, once) is once


class TestFingerprint:
    def test_deterministic(self):
        payload = ("op", ("e", 1.0, ("across", "e")), None, True)
        assert ir.fingerprint(payload) == ir.fingerprint(payload)

    def test_component_sensitivity(self):
        base = ("op", ("e", 1.0))
        assert ir.fingerprint(base) != ir.fingerprint(("op", ("e", 2.0)))
        assert ir.fingerprint(base) != ir.fingerprint(("dc", ("e", 1.0)))

    def test_zero_sign_and_type_distinguished(self):
        assert ir.fingerprint((0.0,)) != ir.fingerprint((-0.0,))
        assert ir.fingerprint((1,)) != ir.fingerprint(("1",))
        assert ir.fingerprint((1,)) != ir.fingerprint((1.0,))
        assert ir.fingerprint((True,)) != ir.fingerprint((1,))

    def test_nesting_shape_distinguished(self):
        assert ir.fingerprint(("a", ("b", "c"))) != \
            ir.fingerprint(("a", "b", "c"))

    def test_equivalent_devices_share_kernels(self):
        # Two independent devices with structurally identical behaviours
        # land on the same fingerprint -> the same cached KernelSet.
        kernels = []
        for _ in range(2):
            circuit = Circuit()
            circuit.voltage_source("V1", "a", "0", 1.0)
            device = behavioral_resistor(circuit, "XS", "a", "0", 123.0)
            kernels.append(hdl_compile.compile_device(device))
        assert kernels[0] is kernels[1]
