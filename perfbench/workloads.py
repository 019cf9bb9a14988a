"""The benchmark's four workloads, each one of the paper's experiments.

A workload is built once from its seed (imports, netlist builders, mesh
geometry, evaluators) and then runs *ops*.  The inputs of op ``i`` are drawn
from ``numpy.random.default_rng([seed, 0, i])``, so a seed fixes every
input, and the program only ever sees the drawn numbers.  Every op has a
cheap correctness check; :meth:`deep_check` runs one expensive reference
comparison per run.  A check returns ``None`` when it passes and a message
when it fails.

Why these four (the same text is in ``BENCHMARK.json``):

* ``fig5_pulse`` -- the paper's figure-5 experiment: device evaluation
  (energy method) dominates the behavioral half, while the linearized half
  measures assembly, Newton bookkeeping and solves with almost no device
  cost.
* ``fig5_adjoint`` -- the same system through the discrete adjoint:
  compiled kernels instead of the energy method, and transposed solves plus
  factorization-cache replay in ``linalg``.
* ``mc_pullin`` -- the batched campaign path on the paper's transducer.
* ``pxt_grid`` -- never enters ``circuit``: the no-change control for
  device, Newton and dense ``linalg`` work, and the only workload where FE
  post-processing and campaign pool dispatch show (on a one-worker pool,
  since the benchmark runs on one CPU).

Importing ``repro`` loads nearly the whole package, so importing this
module is part of every workload's set-up time.
"""

from __future__ import annotations

import math
import os
import sys
import time

import numpy as np

from repro.campaign import CampaignRunner, CircuitEvaluator, PointList
from repro.circuit import TransientAnalysis
from repro.circuit.analysis.sensitivity import resolve_parameters
from repro.pxt import ParameterExtractor
from repro.system.comparison import (BEHAVIORAL_DISPLACEMENT,
                                     MASS_DISPLACEMENT, _plateau)
from repro.system.microsystem import (PAPER_PARAMETERS,
                                      build_behavioral_system,
                                      build_drive_waveform,
                                      build_linearized_system)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)


class _Workload:
    name = ""
    points_per_op = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _draw(self, rng: np.random.Generator) -> dict:
        raise NotImplementedError

    def inputs(self, index: int) -> dict:
        return self._draw(np.random.default_rng([self.seed, 0, index]))

    def warm_inputs(self) -> dict:
        """Inputs of the cold first op that set-up includes."""
        return self._draw(np.random.default_rng([self.seed, 1]))

    def deep_check(self, inputs: dict, out: dict) -> str | None:
        return None


def _pulse(amplitude: float):
    """Figure-5 drive pulse and the transient's stop time."""
    drive = build_drive_waveform(amplitude)
    return drive, drive.delay + drive.rise + drive.width + drive.fall + 15e-3


class Fig5Pulse(_Workload):
    """One figure-5 amplitude: behavioral transient + linearized transient."""

    name = "fig5_pulse"
    #: Linearization (bias) voltage of Table 4.
    V0 = PAPER_PARAMETERS.dc_voltage

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._bias = PAPER_PARAMETERS.derived_bias_point()

    def _draw(self, rng) -> dict:
        return {"amplitude": float(rng.uniform(5.0, 15.0))}

    def run(self, inputs: dict) -> dict:
        drive, t_stop = _pulse(inputs["amplitude"])
        behavioral = build_behavioral_system(PAPER_PARAMETERS, drive)
        start = time.perf_counter()
        beh = TransientAnalysis(behavioral, t_stop=t_stop, t_step=2e-4).run()
        behavioral_s = time.perf_counter() - start
        linearized = build_linearized_system(PAPER_PARAMETERS, drive,
                                             linearized=self._bias)
        start = time.perf_counter()
        lin = TransientAnalysis(linearized, t_stop=t_stop, t_step=2e-4).run()
        linearized_s = time.perf_counter() - start
        x_beh = _plateau(beh, BEHAVIORAL_DISPLACEMENT, drive)
        x_lin = _plateau(lin, MASS_DISPLACEMENT, drive)
        return {"plateau_ratio": x_lin / x_beh if x_beh else math.nan,
                "behavioral_s": behavioral_s, "linearized_s": linearized_s}

    def check(self, inputs: dict, out: dict) -> str | None:
        amplitude, ratio = inputs["amplitude"], out["plateau_ratio"]
        expected = self.V0 / amplitude
        if not math.isfinite(ratio):
            return f"plateau ratio is {ratio} at {amplitude:.3f} V"
        # Quasi-statically the linear model is off by V0/V (paper, fig. 5).
        if _relative_error(ratio, expected) > 0.01:
            return (f"plateau ratio {ratio:.5f} at {amplitude:.3f} V is not "
                    f"within 1% of V0/V = {expected:.5f}")
        if amplitude < self.V0 - 0.05 and not ratio > 1.0:
            return f"linear model does not overshoot at {amplitude:.3f} V"
        if amplitude > self.V0 + 0.05 and not ratio < 1.0:
            return f"linear model does not undershoot at {amplitude:.3f} V"
        if abs(amplitude - self.V0) <= 0.5 and abs(ratio - 1.0) > 0.06:
            return f"plateau ratio {ratio:.5f} is not ~1 near the bias point"
        return None


class Fig5Adjoint(_Workload):
    """Adjoint gradient of ``i(res_k)`` over five figure-5 parameters."""

    name = "fig5_adjoint"
    PARAMS = ("XDCR.A", "XDCR.d", "res_k.stiffness", "res_m.mass",
              "res_a.damping")
    OUTPUT = "i(res_k)"
    #: Central-difference step (relative) and the agreement demanded.
    FD_STEP = 1e-5
    FD_TOL = 1e-4

    def _draw(self, rng) -> dict:
        return {"amplitude": float(rng.uniform(5.0, 15.0))}

    @staticmethod
    def _analysis(amplitude: float) -> TransientAnalysis:
        drive, t_stop = _pulse(amplitude)
        circuit = build_behavioral_system(PAPER_PARAMETERS, drive,
                                          closed_form=True)
        return TransientAnalysis(circuit, t_stop=t_stop, t_step=2e-4)

    def run(self, inputs: dict) -> dict:
        result = self._analysis(inputs["amplitude"]).sensitivities(
            self.PARAMS, [self.OUTPUT], method="adjoint")
        return {"gradient": np.asarray(result.matrix[0], dtype=float)}

    def check(self, inputs: dict, out: dict) -> str | None:
        gradient = out["gradient"]
        if gradient.shape != (len(self.PARAMS),) \
                or not np.all(np.isfinite(gradient)):
            return f"bad gradient {gradient!r}"
        return None

    def deep_check(self, inputs: dict, out: dict) -> str | None:
        gradient = out["gradient"]
        for k, param in enumerate(self.PARAMS):
            values = []
            for sign in (1.0, -1.0):
                analysis = self._analysis(inputs["amplitude"])
                ref = resolve_parameters(analysis.circuit, [param])[0]
                step = self.FD_STEP * abs(ref.value)
                ref.device.set_parameter(ref.parameter,
                                         ref.value + sign * step)
                values.append(analysis.run().signal(self.OUTPUT)[-1])
            fd = (values[0] - values[1]) / (2.0 * step)
            if _relative_error(gradient[k], fd) > self.FD_TOL:
                return (f"adjoint d{self.OUTPUT}/d{param} = {gradient[k]:.6e} "
                        f"differs from central FD {fd:.6e} by more than "
                        f"{self.FD_TOL:g}")
        return None


class McPullin(_Workload):
    """A 32-sample Monte-Carlo pull-in campaign on the batched backend.

    Distributions, drive sweep, netlist and ``PARAM_MAP`` are those of
    ``examples/monte_carlo_pull_in.py``; no result cache is used.
    """

    name = "mc_pullin"
    points_per_op = 32
    #: Samples of the checked op re-run serially for the batch-parity check.
    PARITY_SAMPLES = 4
    #: Pull-in is read off a 0.1 V drive sweep.
    SWEEP_STEP = 0.1

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        sys.path.insert(0, os.path.join(ROOT, "examples"))
        try:
            import monte_carlo_pull_in as example
        finally:
            sys.path.pop(0)
        self.example = example
        args = {"source_name": "VS",
                "values": example.DRIVE_VOLTAGES.tolist(),
                "continue_on_failure": True}
        self._batched = CircuitEvaluator(
            example.build_actuator, analysis="dc", analysis_args=args,
            reduce=example.pull_in_from_sweep, param_map=example.PARAM_MAP)
        self._serial = CircuitEvaluator(
            example.build_actuator, analysis="dc", analysis_args=args,
            reduce=example.pull_in_from_sweep)

    def _draw(self, rng) -> dict:
        ex = self.example

        def truncated_normal(mean, sigma, low):
            values = rng.normal(mean, sigma, self.points_per_op)
            while np.any(values < low):
                bad = values < low
                values[bad] = rng.normal(mean, sigma, int(bad.sum()))
            return values

        gaps = truncated_normal(ex.GAP_NOM, ex.GAP_SIGMA, 0.5 * ex.GAP_NOM)
        thicknesses = truncated_normal(ex.THICKNESS_NOM, ex.THICKNESS_SIGMA,
                                       0.5 * ex.THICKNESS_NOM)
        return {"points": [{"gap": float(g), "thickness": float(t)}
                           for g, t in zip(gaps, thicknesses)]}

    def run(self, inputs: dict) -> dict:
        result = CampaignRunner(backend="batch").run(
            PointList(inputs["points"]), self._batched)
        return {"rows": [(row.error, row.outputs) for row in result]}

    def check(self, inputs: dict, out: dict) -> str | None:
        rows = out["rows"]
        if len(rows) != self.points_per_op:
            return f"{len(rows)} rows for {self.points_per_op} samples"
        for point, (error, outputs) in zip(inputs["points"], rows):
            if error is not None:
                return f"sample {point} failed: {error}"
            analytic = self.example.analytic_pull_in(point["gap"],
                                                     point["thickness"])
            # The estimate is the last stable swept voltage, so it sits at
            # most one sweep step below the closed form.
            below = analytic - outputs["pull_in_v"]
            if not -1e-9 <= below <= self.SWEEP_STEP + 1e-9:
                return (f"pull-in {outputs['pull_in_v']:.4f} V is not within "
                        f"one {self.SWEEP_STEP} V step below the analytic "
                        f"{analytic:.4f} V")
        return None

    def deep_check(self, inputs: dict, out: dict) -> str | None:
        subset = inputs["points"][:self.PARITY_SAMPLES]
        serial = CampaignRunner(backend="serial").run(PointList(subset),
                                                      self._serial)
        for (_, batched), row in zip(out["rows"], serial):
            if row.error is not None:
                return f"serial rerun failed: {row.error}"
            for name, value in row.outputs.items():
                if _relative_error(batched[name], value) > 1e-12:
                    return (f"batched {name} = {batched[name]!r} differs from "
                            f"serial {value!r} by more than 1e-12")
        return None


class PxtGrid(_Workload):
    """A 64-point PXT boundary-condition grid on a one-worker process pool.

    One worker, because the benchmark runs on one CPU: a second worker
    would only time-share it.  Dispatch, pickling and result IPC still go
    through the pool.
    """

    name = "pxt_grid"
    points_per_op = 64
    AXIS = 8
    QUANTITIES = ("capacitance", "charge", "force", "energy", "field")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.extractor = ParameterExtractor(
            area=PAPER_PARAMETERS.area, gap=PAPER_PARAMETERS.gap,
            epsilon_r=PAPER_PARAMETERS.epsilon_r, nx=20, ny=14)
        self.evaluator = self.extractor.campaign_evaluator()
        self.processes = 1

    def _draw(self, rng) -> dict:
        steps = np.arange(self.AXIS) / (self.AXIS - 1)
        jitter = rng.uniform(-0.4, 0.4, (2, self.AXIS)) / (self.AXIS - 1)
        relative = np.clip(-0.3 + 0.6 * (steps + jitter[0]), -0.3, 0.3)
        voltages = np.clip(2.0 + 13.0 * (steps + jitter[1]), 2.0, 15.0)
        return {"displacements": (relative * self.extractor.gap).tolist(),
                "voltages": voltages.tolist()}

    def run(self, inputs: dict) -> dict:
        spec = self.extractor.campaign_spec(inputs["displacements"],
                                            inputs["voltages"])
        runner = CampaignRunner(backend="pool", processes=self.processes)
        result = runner.run(spec, self.evaluator)
        return {"rows": [(row.params["displacement"], row.params["voltage"],
                          row.error, row.outputs) for row in result]}

    def check(self, inputs: dict, out: dict) -> str | None:
        rows = out["rows"]
        if len(rows) != self.points_per_op:
            return f"{len(rows)} rows for {self.points_per_op} grid points"
        for displacement, voltage, error, outputs in rows:
            if error is not None:
                return f"point ({displacement:g}, {voltage:g}) failed: {error}"
            values = [outputs[name] for name in self.QUANTITIES]
            if not all(math.isfinite(v) and v > 0.0 for v in values):
                return f"point ({displacement:g}, {voltage:g}) gave {outputs}"
        return None

    def deep_check(self, inputs: dict, out: dict) -> str | None:
        # One point per displacement, against a direct in-process solve.
        for displacement, voltage, _, outputs in out["rows"][::self.AXIS + 1]:
            direct = self.extractor.solve_point(displacement, voltage)
            for name in self.QUANTITIES:
                if _relative_error(outputs[name], getattr(direct, name)) > 1e-9:
                    return (f"{name} at ({displacement:g}, {voltage:g}) "
                            f"differs from direct solve_point by more than "
                            f"1e-9")
        return None


WORKLOADS = {cls.name: cls for cls in (Fig5Pulse, Fig5Adjoint, McPullin,
                                       PxtGrid)}
