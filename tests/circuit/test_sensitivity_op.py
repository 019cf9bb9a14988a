"""Operating-point / DC-sweep sensitivities: adjoint vs direct vs central FD.

The headline acceptance pin lives here: adjoint gradients of an op-point
output with respect to 7 device/geometry parameters match central finite
differences to ``rtol <= 1e-5`` while performing **exactly one forward
Newton solve and one transposed back-substitution** (counted through the
solver instrumentation).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ad import exp
from repro.circuit import (ACAnalysis, Circuit, CircuitSensitivityEvaluator,
                           OperatingPointAnalysis, SimulationOptions,
                           TransientAnalysis)
from repro.circuit.analysis.dcsweep import DCSweepAnalysis
from repro.circuit.analysis.sensitivity import resolve_parameters
from repro.circuit.devices.behavioral import BehavioralDevice, Port
from repro.circuit.devices.mechanical import Damper, Mass, Spring
from repro.circuit.devices.nonlinear import Diode
from repro.circuit.devices.passive import Resistor
from repro.circuit.devices.sources import VoltageSource
from repro.circuit.waveforms import PieceWiseLinear
from repro.errors import SensitivityError
from repro.natures import ELECTRICAL
from repro.transducers import TransverseElectrostaticTransducer

#: Tight tolerances so Newton convergence noise sits far below the FD
#: cross-check tolerance.
OPTIONS = SimulationOptions(reltol=1e-9, abstol=1e-15, vntol=1e-12)

#: The seven tunables of the acceptance circuit -- electrical, nonlinear,
#: transducer geometry and mechanical parameters in one gradient.
PARAMS = ("V1.dc", "R1.resistance", "D1.saturation_current",
          "XT.A", "XT.d", "XT.er", "B1.damping")
OUTPUTS = ("v(n2)", "v(nm)")


def build_acceptance_circuit(closed_form: bool = True) -> Circuit:
    """Nonlinear divider + biased electrostatic transducer + damper."""
    circuit = Circuit()
    n1 = circuit.electrical_node("n1")
    n2 = circuit.electrical_node("n2")
    ground = circuit.ground
    circuit.add(VoltageSource("V1", n1, ground, 5.0))
    circuit.add(Resistor("R1", n1, n2, 1e3))
    circuit.add(Diode("D1", n2, ground, 1e-12))
    circuit.mechanical_node("nm")
    transducer = TransverseElectrostaticTransducer(
        area=1e-8, gap=2e-6, gap_orientation="closing")
    transducer.add_to_circuit(circuit, "XT", "n2", "0", "nm", "0",
                              closed_form=closed_form)
    circuit.add(Damper("B1", circuit.mechanical_node("nm"), ground, 1e-4))
    return circuit


def op_outputs_at(offsets: np.ndarray) -> np.ndarray:
    """Rebuild, offset the parameters, and solve the op (FD reference)."""
    circuit = build_acceptance_circuit()
    refs = resolve_parameters(circuit, PARAMS)
    for ref, offset in zip(refs, offsets):
        ref.device.set_parameter(ref.parameter, ref.value + offset)
    op = OperatingPointAnalysis(circuit, OPTIONS).run()
    return np.array([op[name] for name in OUTPUTS])


def central_fd_matrix() -> np.ndarray:
    refs = resolve_parameters(build_acceptance_circuit(), PARAMS)
    matrix = np.zeros((len(OUTPUTS), len(PARAMS)))
    for k, ref in enumerate(refs):
        step = 1e-5 * abs(ref.value)
        offsets = np.zeros(len(PARAMS))
        offsets[k] = step
        matrix[:, k] = (op_outputs_at(offsets) - op_outputs_at(-offsets)) \
            / (2.0 * step)
    return matrix


class TestOperatingPointAcceptance:
    def test_adjoint_matches_central_fd_with_minimal_solves(self):
        analysis = OperatingPointAnalysis(build_acceptance_circuit(), OPTIONS)
        result = analysis.sensitivities(PARAMS, ["v(nm)"], method="adjoint")
        # --- solve accounting: 1 forward Newton solve + 1 transpose solve.
        assert result.stats["newton_solves"] == 1
        assert result.stats["adjoint_solves"] == 1
        assert result.stats["direct_solves"] == 0
        # --- exactness: every parameter of the 7-wide gradient within 1e-5.
        reference = central_fd_matrix()[1]
        np.testing.assert_allclose(result.matrix[0], reference, rtol=1e-5)
        assert result.method == "adjoint"
        assert result.params == PARAMS

    def test_direct_and_adjoint_agree_exactly(self):
        analysis = OperatingPointAnalysis(build_acceptance_circuit(), OPTIONS)
        operating_point = analysis.run()
        adjoint = analysis.sensitivities(PARAMS, OUTPUTS, method="adjoint",
                                         operating_point=operating_point)
        direct = analysis.sensitivities(PARAMS, OUTPUTS, method="direct",
                                        operating_point=operating_point)
        np.testing.assert_allclose(adjoint.matrix, direct.matrix,
                                   rtol=1e-12, atol=1e-30)
        # Reusing a precomputed operating point skips the Newton solve.
        assert adjoint.stats["newton_solves"] == 0
        assert direct.stats["direct_solves"] == len(PARAMS)

    def test_full_matrix_matches_central_fd(self):
        analysis = OperatingPointAnalysis(build_acceptance_circuit(), OPTIONS)
        result = analysis.sensitivities(PARAMS, OUTPUTS)
        reference = central_fd_matrix()
        scale = np.abs(reference).max(axis=1, keepdims=True)
        np.testing.assert_allclose(result.matrix, reference,
                                   rtol=1e-5, atol=1e-6 * scale.max())

    def test_values_are_the_op_solution(self):
        analysis = OperatingPointAnalysis(build_acceptance_circuit(), OPTIONS)
        operating_point = analysis.run()
        result = analysis.sensitivities(PARAMS, OUTPUTS,
                                        operating_point=operating_point)
        for m, name in enumerate(OUTPUTS):
            assert result.values[m] == pytest.approx(operating_point[name])

    def test_auto_picks_adjoint_for_few_outputs(self):
        analysis = OperatingPointAnalysis(build_acceptance_circuit(), OPTIONS)
        result = analysis.sensitivities(PARAMS, ["v(nm)"], method="auto")
        assert result.method == "adjoint"


class TestBehavioralParameterSeeding:
    def _diode_circuit(self) -> Circuit:
        circuit = Circuit()
        n1 = circuit.electrical_node("n1")
        n2 = circuit.electrical_node("n2")
        ground = circuit.ground
        circuit.add(VoltageSource("V1", n1, ground, 2.0))
        circuit.add(Resistor("R1", n1, n2, 1e3))

        def behavior(ctx):
            v = ctx.across("elec")
            ctx.contribute("elec",
                           ctx.param("isat") * (exp(v / ctx.param("vt")) - 1.0))

        circuit.add(BehavioralDevice(
            "DB", [Port.make("elec", n2, ground, ELECTRICAL)], behavior,
            params={"isat": 1e-9, "vt": 0.05}))
        return circuit

    def test_params_dict_sensitivities(self):
        circuit = self._diode_circuit()
        analysis = OperatingPointAnalysis(circuit, OPTIONS)
        result = analysis.sensitivities(["DB.isat", "DB.vt", "R1.resistance"],
                                        ["v(n2)"])

        def solve(isat, vt, resistance):
            c2 = self._diode_circuit()
            c2["DB"].set_parameter("isat", isat)
            c2["DB"].set_parameter("vt", vt)
            c2["R1"].set_parameter("resistance", resistance)
            return OperatingPointAnalysis(c2, OPTIONS).run()["v(n2)"]

        base = (1e-9, 0.05, 1e3)
        for k, name in enumerate(("isat", "vt", "resistance")):
            step = 1e-6 * base[k]
            up = list(base)
            up[k] += step
            down = list(base)
            down[k] -= step
            fd = (solve(*up) - solve(*down)) / (2.0 * step)
            assert result.matrix[0, k] == pytest.approx(fd, rel=1e-5)

    @pytest.mark.parametrize("kind", ["op", "ac", "tran"])
    def test_energy_method_exact(self, kind):
        """Energy-method devices are exactly dual-seedable: their
        sensitivities equal the Table 3 closed-form ones and central FD."""
        build, outputs, sensitivities, outputs_of = ENERGY_METHOD_CASES[kind]
        energy = sensitivities(build(False), outputs)
        closed = sensitivities(build(True), outputs)
        scale = np.abs(closed).max(axis=-1, keepdims=True)
        assert np.all(scale > 0.0)
        # Op and transient dF/dp are exact in both models, so they agree to
        # rounding; the AC chain differences the assembled small-signal
        # matrices (relative step 1e-6), which magnifies last-bit model
        # differences by ~1e6.
        agreement = 1e-9 if kind == "ac" else 1e-12
        assert np.max(np.abs(energy - closed) / scale) <= agreement
        for k, param in enumerate(ENERGY_METHOD_PARAMS):
            finals = []
            for sign in (1.0, -1.0):
                circuit = build(False)
                ref, = resolve_parameters(circuit, [param])
                step = 1e-6 * abs(ref.value)
                ref.device.set_parameter(ref.parameter, ref.value + sign * step)
                finals.append(outputs_of(circuit, outputs))
            fd = (finals[0] - finals[1]) / (2.0 * step)
            assert np.max(np.abs(energy[..., k] - fd) / scale[..., 0]) <= 1e-5


#: Geometry parameters of the energy-method cross-check below.
ENERGY_METHOD_PARAMS = ("XT.A", "XT.d")
AC_FREQUENCIES = [1e3, 1.1e4, 4e4]
#: Fixed steps (loose LTE tolerance) keep the accepted step sequence of the
#: transient independent of the FD perturbations.
FIXED_STEP_OPTIONS = SimulationOptions(reltol=1e-9, abstol=1e-15, vntol=1e-12,
                                       trtol=1e9)


def build_dynamic_circuit(closed_form: bool) -> Circuit:
    """Ramp-driven transducer below pull-in on a spring-mass-damper load."""
    circuit = Circuit()
    n1 = circuit.electrical_node("n1")
    n2 = circuit.electrical_node("n2")
    ground = circuit.ground
    circuit.add(VoltageSource("V1", n1, ground,
                              PieceWiseLinear(((0.0, 2.0), (1e-5, 4.0))),
                              ac=1.0))
    circuit.add(Resistor("R1", n1, n2, 1e4))
    nm = circuit.mechanical_node("nm")
    transducer = TransverseElectrostaticTransducer(
        area=4e-8, gap=2e-6, gap_orientation="closing")
    transducer.add_to_circuit(circuit, "XT", "n2", "0", "nm", "0",
                              closed_form=closed_form)
    circuit.add(Mass("M1", nm, ground, 1e-9))
    circuit.add(Spring("K1", nm, ground, 5.0))
    circuit.add(Damper("B1", nm, ground, 2e-5))
    return circuit


def _transient(circuit: Circuit) -> TransientAnalysis:
    return TransientAnalysis(circuit, t_stop=1.5e-5, t_step=3e-7,
                             max_step=3e-7, options=FIXED_STEP_OPTIONS)


def _op_outputs(circuit, outputs):
    result = OperatingPointAnalysis(circuit, OPTIONS).run()
    return np.array([result[name] for name in outputs])


def _ac_outputs(circuit, outputs):
    result = ACAnalysis(circuit, AC_FREQUENCIES, OPTIONS).run()
    return np.array([[result[name][f] for name in outputs]
                     for f in range(len(AC_FREQUENCIES))])


def _tran_outputs(circuit, outputs):
    result = _transient(circuit).run()
    return np.array([result.final(name) for name in outputs])


#: kind -> (builder, outputs, sensitivity matrix, FD output evaluation).
ENERGY_METHOD_CASES = {
    "op": (build_acceptance_circuit, ("v(nm)",),
           lambda c, o: OperatingPointAnalysis(c, OPTIONS).sensitivities(
               ENERGY_METHOD_PARAMS, o).matrix,
           _op_outputs),
    "ac": (build_dynamic_circuit, ("v(nm)", "v(n2)"),
           lambda c, o: ACAnalysis(c, AC_FREQUENCIES, OPTIONS).sensitivities(
               ENERGY_METHOD_PARAMS, o).matrix,
           _ac_outputs),
    "tran": (build_dynamic_circuit, ("i(K1)", "v(nm)"),
             lambda c, o: _transient(c).sensitivities(
                 ENERGY_METHOD_PARAMS, o).matrix,
             _tran_outputs),
}


class TestParameterResolution:
    def test_unknown_device(self):
        analysis = OperatingPointAnalysis(build_acceptance_circuit(), OPTIONS)
        with pytest.raises(SensitivityError, match="unknown device"):
            analysis.sensitivities(["nosuch.resistance"], ["v(n2)"])

    def test_unknown_parameter_lists_available(self):
        analysis = OperatingPointAnalysis(build_acceptance_circuit(), OPTIONS)
        with pytest.raises(SensitivityError, match="resistance"):
            analysis.sensitivities(["R1.conductance"], ["v(n2)"])

    def test_unknown_output_lists_available(self):
        analysis = OperatingPointAnalysis(build_acceptance_circuit(), OPTIONS)
        with pytest.raises(SensitivityError, match="v\\(n2\\)"):
            analysis.sensitivities(PARAMS, ["v(bogus)"])

    def test_duplicate_parameters_rejected(self):
        analysis = OperatingPointAnalysis(build_acceptance_circuit(), OPTIONS)
        with pytest.raises(SensitivityError, match="duplicate"):
            analysis.sensitivities(["R1.resistance", "R1.resistance"],
                                   ["v(n2)"])

    def test_seeding_restores_plain_parameters(self):
        circuit = build_acceptance_circuit()
        analysis = OperatingPointAnalysis(circuit, OPTIONS)
        analysis.sensitivities(PARAMS, OUTPUTS)
        for ref in resolve_parameters(circuit, PARAMS):
            assert isinstance(ref.device.get_parameter(ref.parameter), float)


class TestDCSweepSensitivities:
    def test_divider_sweep_matches_closed_form(self):
        circuit = Circuit()
        n1 = circuit.electrical_node("n1")
        n2 = circuit.electrical_node("n2")
        ground = circuit.ground
        circuit.add(VoltageSource("V1", n1, ground, 1.0))
        circuit.add(Resistor("R1", n1, n2, 1e3))
        circuit.add(Resistor("R2", n2, ground, 3e3))
        values = [1.0, 2.0, 4.0]
        analysis = DCSweepAnalysis(circuit, "V1", values, options=OPTIONS)
        sweep = analysis.sensitivities(["R1.resistance", "R2.resistance"],
                                       ["v(n2)"])
        # v(n2) = V * R2 / (R1 + R2): closed-form partials per sweep value.
        r1, r2 = 1e3, 3e3
        for i, v in enumerate(values):
            d_r1 = -v * r2 / (r1 + r2) ** 2
            d_r2 = v * r1 / (r1 + r2) ** 2
            assert sweep.matrix[i, 0, 0] == pytest.approx(d_r1, rel=1e-6)
            assert sweep.matrix[i, 0, 1] == pytest.approx(d_r2, rel=1e-6)
            assert sweep.values[i, 0] == pytest.approx(v * r2 / (r1 + r2),
                                                       rel=1e-6)
        assert sweep.derivative("v(n2)", "R2.resistance")[2] == \
            pytest.approx(4.0 * r1 / (r1 + r2) ** 2, rel=1e-6)
        # A linear circuit factors once for the whole sweep.
        assert sweep.stats["factorizations"] == 1
        assert sweep.stats["newton_solves"] == len(values)
        # The sweep leaves the source waveform restored.
        assert circuit["V1"].waveform.level == 1.0

    def test_swept_source_dc_sensitivity_matches_transfer(self):
        circuit = Circuit()
        n1 = circuit.electrical_node("n1")
        n2 = circuit.electrical_node("n2")
        ground = circuit.ground
        circuit.add(VoltageSource("V1", n1, ground, 1.0))
        circuit.add(Resistor("R1", n1, n2, 1e3))
        circuit.add(Resistor("R2", n2, ground, 3e3))
        analysis = DCSweepAnalysis(circuit, "V1", [0.5, 2.5], options=OPTIONS)
        sweep = analysis.sensitivities(["V1.dc"], ["v(n2)"])
        np.testing.assert_allclose(sweep.matrix[:, 0, 0], 0.75, rtol=1e-6)


class TestCircuitSensitivityEvaluator:
    def test_protocol_and_plain_call_agree(self):
        evaluator = CircuitSensitivityEvaluator(
            _build_divider, {"rtop": "R1.resistance", "rbot": "R2.resistance"},
            outputs=("v(out)",), options=OPTIONS)
        point = {"rtop": 2e3, "rbot": 6e3}
        plain = evaluator(point)
        values, gradients = evaluator.evaluate_with_gradient(point)
        assert plain == pytest.approx(values)
        assert values["v(out)"] == pytest.approx(5.0 * 6e3 / 8e3, rel=1e-6)
        assert gradients["v(out)"]["rtop"] == \
            pytest.approx(-5.0 * 6e3 / 8e3 ** 2, rel=1e-7)
        assert gradients["v(out)"]["rbot"] == \
            pytest.approx(5.0 * 2e3 / 8e3 ** 2, rel=1e-7)

    def test_cache_payload_is_stable(self):
        evaluator = CircuitSensitivityEvaluator(
            _build_divider, {"rtop": "R1.resistance"}, outputs=("v(out)",))
        payload = evaluator.cache_payload()
        assert payload["build"].endswith("_build_divider")
        assert payload["param_map"] == {"rtop": "R1.resistance"}


def _build_divider(config) -> Circuit:
    circuit = Circuit()
    n1 = circuit.electrical_node("in")
    n2 = circuit.electrical_node("out")
    circuit.add(VoltageSource("V1", n1, circuit.ground, 5.0))
    circuit.add(Resistor("R1", n1, n2, 1e3))
    circuit.add(Resistor("R2", n2, circuit.ground, 1e3))
    return circuit
