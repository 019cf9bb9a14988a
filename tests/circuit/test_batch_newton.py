"""Batched Newton drivers: per-lane parity with the serial analyses."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import Circuit, SimulationOptions
from repro.circuit.analysis.batch import (ParameterColumns, batch_supported,
                                          batched_dcsweeps, batched_newton,
                                          batched_operating_points)
from repro.circuit.analysis.dcsweep import DCSweepAnalysis
from repro.circuit.analysis.op import OperatingPointAnalysis, newton_solve
from repro.circuit.mna import MNASystem
from repro.errors import (AnalysisError, ConvergenceError, NetlistError,
                          SingularMatrixError)
from repro.transducers import TransverseElectrostaticTransducer


def build_ladder(sections: int = 4) -> Circuit:
    """Nonlinear diode ladder: every device is batch-safe."""
    circuit = Circuit("ladder")
    circuit.voltage_source("VS", "n0", "0", 5.0)
    for i in range(sections):
        circuit.resistor(f"R{i}", f"n{i}", f"n{i + 1}", 100.0)
        circuit.diode(f"D{i}", f"n{i + 1}", "0")
    return circuit


def build_actuator() -> Circuit:
    """Electrostatic actuator: the transducer is NOT batch-safe."""
    circuit = Circuit("actuator")
    circuit.voltage_source("VB", "a", "0", 4.0)
    circuit.mass("M1", "m", 1e-9)
    circuit.spring("K1", "m", "0", 2.0)
    circuit.damper("D1", "m", "0", 1e-5)
    transducer = TransverseElectrostaticTransducer(area=4e-8, gap=2e-6)
    transducer.add_to_circuit(circuit, "XDCR", "a", "0", "m", "0")
    return circuit


def serial_op(circuit, columns: ParameterColumns, lane: int,
              options: SimulationOptions):
    columns.set_lane(lane)
    try:
        return OperatingPointAnalysis(circuit, options).run()
    finally:
        columns.restore()


class TestParameterColumns:
    def test_lane_values_and_context_restore(self):
        circuit = build_ladder()
        columns = ParameterColumns(circuit, [("VS", "dc", [4.0, 7.0, 6.0])])
        assert columns.batch == 3
        with columns:
            columns.set_lane(1)
            assert circuit["VS"].get_parameter("dc") == 7.0
        # Exiting the context puts the construction-time value back.
        assert circuit["VS"].get_parameter("dc") == 5.0

    def test_restores_original_value(self):
        circuit = build_ladder()
        columns = ParameterColumns(circuit,
                                   [("R0", "resistance", [10.0, 20.0])])
        with columns:
            columns.set_arrays()
        assert circuit["R0"].get_parameter("resistance") == 100.0

    def test_ragged_columns_rejected(self):
        circuit = build_ladder()
        with pytest.raises(AnalysisError, match="lanes"):
            ParameterColumns(circuit, [("VS", "dc", [1.0, 2.0]),
                                       ("R0", "resistance", [1.0, 2.0, 3.0])])

    def test_unknown_device_rejected(self):
        with pytest.raises(NetlistError, match="no device"):
            ParameterColumns(build_ladder(), [("RX", "resistance", [1.0])])

    def test_targets(self):
        circuit = build_ladder()
        columns = ParameterColumns(circuit, [("VS", "dc", [1.0])])
        assert columns.targets(circuit["VS"])
        assert not columns.targets(circuit["R0"])


class TestBatchSupported:
    def test_only_cg_falls_back(self):
        assert batch_supported(SimulationOptions())
        assert batch_supported(SimulationOptions(jacobian_reuse="chord"))
        assert not batch_supported(SimulationOptions(linear_solver="cg"))


class TestBatchedOperatingPoints:
    @pytest.mark.parametrize("options", [
        SimulationOptions(),
        SimulationOptions(linear_solver="sparse", sparse_threshold=1),
    ], ids=["dense", "superlu"])
    def test_parity_with_serial(self, options):
        circuit = build_ladder()
        vdd = np.array([3.0, 4.0, 5.0, 6.0, 7.0])
        columns = ParameterColumns(circuit, [("VS", "dc", vdd)])
        results = batched_operating_points(circuit, options, columns)
        assert all(op is not None for op in results)
        for lane, op in enumerate(results):
            reference = serial_op(circuit, columns, lane, options)
            assert op.iterations == reference.iterations
            for key, value in reference.items():
                scale = max(1.0, abs(value))
                assert abs(op[key] - value) / scale <= 1e-12

    def test_nonfinite_lane_retired_others_solve(self):
        circuit = build_ladder()
        vdd = np.array([4.0, np.nan, 5.0])
        columns = ParameterColumns(circuit, [("VS", "dc", vdd)])
        results = batched_operating_points(circuit, SimulationOptions(),
                                           columns)
        assert results[1] is None
        assert results[0] is not None and results[2] is not None

    def test_mixed_behavioral_circuit_parity(self):
        circuit = build_actuator()
        gaps = np.array([1.8e-6, 2.0e-6, 2.2e-6])
        columns = ParameterColumns(circuit, [("XDCR", "d", gaps)])
        options = SimulationOptions()
        results = batched_operating_points(circuit, options, columns)
        assert all(op is not None for op in results)
        for lane, op in enumerate(results):
            reference = serial_op(circuit, columns, lane, options)
            assert op.iterations == reference.iterations
            for key in reference:
                scale = max(1.0, abs(reference[key]))
                assert abs(op[key] - reference[key]) / scale <= 1e-12


class TestBatchedDCSweeps:
    def test_parity_with_serial_sweep(self):
        circuit = build_ladder()
        sweep = np.linspace(0.0, 6.0, 7)
        rscale = np.array([80.0, 100.0, 120.0])
        columns = ParameterColumns(circuit, [("R0", "resistance", rscale)])
        options = SimulationOptions()
        results = batched_dcsweeps(circuit, "VS", sweep, options, columns)
        assert all(result is not None for result in results)
        for lane, result in enumerate(results):
            columns.set_lane(lane)
            try:
                reference = DCSweepAnalysis(circuit, "VS", sweep,
                                            options).run()
            finally:
                columns.restore()
            assert set(result.keys()) == set(reference.keys())
            for key in reference.keys():
                ref_col = reference.column(key)
                scale = np.maximum(1.0, np.abs(ref_col))
                assert np.all(
                    np.abs(result.column(key) - ref_col) / scale <= 1e-12)

    def test_swept_source_cannot_be_column_target(self):
        circuit = build_ladder()
        columns = ParameterColumns(circuit, [("VS", "dc", [1.0, 2.0])])
        with pytest.raises(AnalysisError, match="cannot also sweep"):
            batched_dcsweeps(circuit, "VS", [0.0, 1.0], SimulationOptions(),
                             columns)

    def test_non_source_sweep_rejected(self):
        circuit = build_ladder()
        columns = ParameterColumns(circuit, [("VS", "dc", [1.0])])
        with pytest.raises(AnalysisError, match="independent source"):
            batched_dcsweeps(circuit, "R0", [0.0], SimulationOptions(),
                             columns)

    def test_failing_lane_retired(self):
        circuit = build_ladder()
        columns = ParameterColumns(
            circuit, [("R0", "resistance", [100.0, np.nan])])
        results = batched_dcsweeps(circuit, "VS", [0.0, 1.0],
                                   SimulationOptions(), columns)
        assert results[0] is not None
        assert results[1] is None


class TestBatchedChord:
    """jacobian_reuse="chord" rides one held batched factorization.

    The drive levels are milder than the full-Newton tests above: chord
    Newton (batched or serial -- the batch mirrors the serial contract) is
    only contractive near the solution, and the diode ladder far into
    forward conduction defeats it in both implementations alike.  Lanes
    that fail retire to ``None`` for the serial path's source stepping.
    """

    def test_chord_op_parity_with_serial(self):
        options = SimulationOptions(jacobian_reuse="chord")
        circuit = build_ladder()
        vdd = np.array([0.4, 0.6, 0.8, 1.0, 1.2])
        columns = ParameterColumns(circuit, [("VS", "dc", vdd)])
        results = batched_operating_points(circuit, options, columns)
        assert all(op is not None for op in results)
        for lane, op in enumerate(results):
            reference = serial_op(circuit, columns, lane, options)
            for key, value in reference.items():
                # Chord accepts at the Newton update tolerance while riding
                # a stale Jacobian, and the batch-wide refactor schedule is
                # not the per-lane serial one, so parity holds to the Newton
                # tolerance rather than to machine precision.
                tol = options.vntol + options.reltol * abs(value)
                assert abs(op[key] - value) <= tol

    def test_chord_mixed_behavioral_parity(self):
        options = SimulationOptions(jacobian_reuse="chord")
        circuit = build_actuator()
        gaps = np.array([1.8e-6, 2.0e-6, 2.2e-6])
        columns = ParameterColumns(circuit, [("XDCR", "d", gaps)])
        results = batched_operating_points(circuit, options, columns)
        assert all(op is not None for op in results)
        for lane, op in enumerate(results):
            reference = serial_op(circuit, columns, lane, options)
            for key in reference:
                scale = max(1.0, abs(reference[key]))
                assert abs(op[key] - reference[key]) / scale <= 1e-12

    def test_chord_holds_factorization_across_iterations_and_solves(self):
        from repro.circuit.analysis.batch import batched_newton
        from repro.circuit.analysis.op import NewtonWorkspace
        from repro.circuit.mna import MNASystem

        circuit = build_ladder()
        system = MNASystem(circuit)
        columns = ParameterColumns(circuit,
                                   [("VS", "dc", np.array([0.5, 0.7, 0.9]))])
        options = SimulationOptions(jacobian_reuse="chord")
        ws = NewtonWorkspace(options)
        with columns:
            x0 = np.zeros((3, system.size))
            x, solved, iters = batched_newton(system, x0, "op", options,
                                              columns, workspace=ws)
            assert solved.all()
            # The solve rode the held factorization with residual-only
            # assemblies after the first iteration.
            assert ws.chord_iterations > 0
            assert ws.chord_tag is not None
            before = ws.chord_iterations
            # A warm restart from the solution reuses the held factorization
            # from iteration one (same chord tag).
            x2, solved2, iters2 = batched_newton(system, x, "op", options,
                                                 columns, workspace=ws)
            assert solved2.all()
            assert ws.chord_iterations > before
            assert np.all(iters2 <= iters)

    def test_chord_hostile_lane_retired_others_solve(self):
        # Deep forward conduction defeats chord Newton (serially too); the
        # batch retires exactly that lane so the campaign's serial re-run
        # can rescue it with source stepping.
        options = SimulationOptions(jacobian_reuse="chord")
        circuit = build_ladder()
        vdd = np.array([0.6, 5.0, 1.0])
        columns = ParameterColumns(circuit, [("VS", "dc", vdd)])
        results = batched_operating_points(circuit, options, columns)
        assert results[1] is None
        assert results[0] is not None and results[2] is not None

    def test_chord_dcsweep_parity_with_serial(self):
        options = SimulationOptions(jacobian_reuse="chord")
        circuit = build_ladder()
        sweep = np.linspace(0.0, 1.5, 7)
        rscale = np.array([80.0, 100.0, 120.0])
        columns = ParameterColumns(circuit, [("R0", "resistance", rscale)])
        results = batched_dcsweeps(circuit, "VS", sweep, options, columns)
        assert all(result is not None for result in results)
        for lane, result in enumerate(results):
            columns.set_lane(lane)
            try:
                reference = DCSweepAnalysis(circuit, "VS", sweep,
                                            options).run()
            finally:
                columns.restore()
            for key in reference.keys():
                ref_col = reference.column(key)
                scale = np.maximum(1.0, np.abs(ref_col))
                assert np.all(
                    np.abs(result.column(key) - ref_col) / scale <= 1e-12)


def _lane_values(low, high, log=False):
    """Column entries: finite draws, and now and then a NaN (a lane that
    must retire exactly when its serial solve raises)."""
    finite = st.floats(np.log10(low), np.log10(high)).map(lambda e: 10.0 ** e) \
        if log else st.floats(low, high)
    return st.one_of(finite, finite, finite, st.just(np.nan))


def _parity_cases(drive: float) -> dict:
    """(circuit builder, [(device, parameter, lane values)]) per circuit;
    ``drive`` caps the ladder's source voltage."""
    return {
        "ladder": (build_ladder, [("VS", "dc", _lane_values(0.2, drive)),
                                  ("R0", "resistance",
                                   _lane_values(50.0, 300.0))]),
        "diode": (build_ladder, [("D1", "saturation_current",
                                  _lane_values(1e-16, 1e-12, log=True)),
                                 ("VS", "dc", _lane_values(0.2, drive))]),
        "actuator": (build_actuator, [("XDCR", "d",
                                       _lane_values(1.2e-6, 3e-6)),
                                      ("VB", "dc", _lane_values(0.0, 12.0))]),
    }


@st.composite
def _parity_problems(draw, drive: float):
    cases = _parity_cases(drive)
    build, targets = cases[draw(st.sampled_from(sorted(cases)))]
    batch = draw(st.integers(1, 4))
    columns = [(device, param, draw(st.lists(values, min_size=batch,
                                             max_size=batch)))
               for device, param, values in targets]
    return build, columns


def _serial_and_batched(problem, options):
    """Serial ``newton_solve`` per lane (``None`` where it raises) and one
    ``batched_newton`` over all lanes, from zero initial guesses."""
    build, assignments = problem
    circuit = build()
    system = MNASystem(circuit)
    columns = ParameterColumns(circuit, assignments)
    serial = []
    for lane in range(columns.batch):
        columns.set_lane(lane)
        try:
            serial.append(newton_solve(system, np.zeros(system.size), "op",
                                       0.0, None, options))
        except (ConvergenceError, SingularMatrixError):
            serial.append(None)
        finally:
            columns.restore()
    with columns:
        x, solved, iterations = batched_newton(
            system, np.zeros((columns.batch, system.size)), "op", options,
            columns)
    # Retired lanes are exactly the ones whose serial solve raises.
    assert solved.tolist() == [result is not None for result in serial]
    return serial, x, iterations


class TestGenerativeParity:
    """batched_newton lane by lane against serial newton_solve."""

    @pytest.mark.parametrize("reuse", ["off", "auto"])
    @settings(max_examples=25, deadline=None)
    @given(problem=_parity_problems(drive=8.0))
    def test_full_newton_lanes_match_serial(self, reuse, problem):
        serial, x, iterations = _serial_and_batched(
            problem, SimulationOptions(jacobian_reuse=reuse))
        for lane, result in enumerate(serial):
            if result is not None:
                reference, reference_iterations = result
                scale = np.maximum(1.0, np.abs(reference))
                assert np.all(np.abs(x[lane] - reference) / scale <= 1e-12)
                assert iterations[lane] == reference_iterations

    @settings(max_examples=25, deadline=None)
    @given(problem=_parity_problems(drive=1.2))
    def test_chord_lanes_match_serial(self, problem):
        # Drives as in TestBatchedChord: where chord Newton contracts.  Far
        # into forward conduction it diverges through overflow-sized
        # iterates in both faces, and round-off differences between the
        # batched and serial stamps/LU then decide which lanes survive.
        options = SimulationOptions(jacobian_reuse="chord")
        serial, x, _ = _serial_and_batched(problem, options)
        for lane, result in enumerate(serial):
            if result is not None:
                # The batch-wide refactor schedule differs from the
                # per-lane serial one, so chord parity holds to the Newton
                # tolerance.
                reference = result[0]
                tol = options.vntol + options.reltol * np.abs(reference)
                assert np.all(np.abs(x[lane] - reference) <= tol)
