"""Figure 5 (runtime claim) -- simulation-speed penalty of the HDL model.

The paper: "The drawback is a strong penalty in simulation performance (a
factor of 10 was observed)".  This benchmark times one pulse simulation of
the behavioral-transducer system and of the linearized equivalent circuit
separately (so the pytest-benchmark table shows both), and asserts the
qualitative claim: the behavioral model is substantially slower, within the
same order of magnitude reported by the paper.

The paper's simulator interprets the AHDL model on every evaluation, so the
asserted penalty times the behavioral model with ``behavioral_compile=False``
(the interpreter).  The compiled model's penalty -- about 1.4x, the
generated kernels having closed most of the gap -- is printed next to it for
information only.
"""

from __future__ import annotations

from conftest import report
from repro.circuit import SimulationOptions, TransientAnalysis
from repro.system import build_behavioral_system, build_linearized_system
from repro.system.microsystem import build_drive_waveform

DRIVE = build_drive_waveform(10.0)
T_STOP = DRIVE.delay + DRIVE.rise + DRIVE.width + DRIVE.fall + 15e-3
OPTIONS = SimulationOptions(trtol=10.0)
INTERPRETED = OPTIONS.with_(behavioral_compile=False)

_timings: dict[str, float] = {}


def _simulate(circuit, options=OPTIONS):
    return TransientAnalysis(circuit, t_stop=T_STOP, t_step=4e-4,
                             options=options).run()


def test_runtime_behavioral_model(benchmark):
    circuit = build_behavioral_system(drive=DRIVE)
    result = benchmark(lambda: _simulate(circuit, INTERPRETED))
    _timings["behavioral"] = benchmark.stats.stats.mean
    assert result.statistics["accepted"] > 50


def test_runtime_compiled_behavioral_model(benchmark):
    circuit = build_behavioral_system(drive=DRIVE)
    result = benchmark(lambda: _simulate(circuit))
    _timings["compiled"] = benchmark.stats.stats.mean
    assert result.statistics["accepted"] > 50


def test_runtime_linearized_model(benchmark):
    circuit = build_linearized_system(drive=DRIVE)
    result = benchmark(lambda: _simulate(circuit))
    _timings["linearized"] = benchmark.stats.stats.mean
    assert result.statistics["accepted"] > 50

    if "behavioral" in _timings and _timings["linearized"] > 0.0:
        penalty = _timings["behavioral"] / _timings["linearized"]
        ms = {name: value * 1e3 for name, value in _timings.items()}
        lines = [
            f"behavioral model : {ms['behavioral']:8.2f} ms per run "
            "(interpreted)",
            f"linearized model : {ms['linearized']:8.2f} ms per run",
            f"penalty          : {penalty:5.1f}x   (paper reports ~10x)",
        ]
        if "compiled" in ms:
            lines.append(
                f"compiled model   : {ms['compiled']:8.2f} ms per run, "
                f"penalty {ms['compiled'] / ms['linearized']:5.1f}x "
                "(information only)")
        report("Figure 5 runtime claim: behavioral vs linearized simulation "
               "time", lines)
        assert penalty > 1.5
        assert penalty < 100.0
