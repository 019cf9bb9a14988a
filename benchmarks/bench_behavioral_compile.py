"""Behavioral-compiler benchmark: compiled kernels vs the AD interpreter.

The workload is a behavioral-heavy variant of the figure-5 experiment: an
array of closed-form electrostatic transducer cells (the paper's HDL-A
model) each loaded by a mass/spring/damper resonator written as *behavioral
models* as well, so every device on the mechanical side stamps through
``BehavioralDevice``.  The pulse drive and trapezoidal transient match the
figure-5 setup.

The same netlist is integrated twice -- ``behavioral_compile=True`` (typed
expression IR -> generated NumPy kernels + fused stamp functions) and
``False`` (the AD-dual tracing interpreter) -- and the benchmark checks the
compiler's two contracts:

* every recorded waveform is **bitwise identical** between the two runs
  (the compiled kernels replicate the interpreter's IEEE arithmetic
  operation by operation), and
* the compiled transient is at least **5x faster** than the interpreted
  one (wall clock, the minimum on each side over ``repeats`` interleaved
  compiled/interpreted pairs, so a slow spell of a shared host hits both
  sides alike).

Run standalone (``python benchmarks/bench_behavioral_compile.py``);
``--smoke`` shrinks the time grid so CI can exercise the pin in seconds.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.circuit import Circuit, SimulationOptions, TransientAnalysis
from repro.circuit.devices.behavioral import BehavioralDevice, Port
from repro.hdl import compile as hdl_compile
from repro.natures import MECHANICAL_TRANSLATION
from repro.system import PAPER_PARAMETERS, build_drive_waveform

#: Acceptance floor for the compiled-vs-interpreted transient wall clock.
SPEEDUP_FLOOR = 5.0


def _behavioral_resonator(circuit, node, prefix, mass, stiffness, damping):
    """The figure-3 resonator with every element as a behavioral model."""
    mech = circuit.mechanical_node(node)
    frame = circuit.ground

    def mass_behavior(ctx):
        ctx.contribute("mech", ctx.param("m") * ctx.ddt(ctx.across("mech"),
                                                        key="p"))

    def spring_behavior(ctx):
        x = ctx.integ(ctx.across("mech"), key="x")
        ctx.contribute("mech", ctx.param("k") * x)
        ctx.record("x", x)

    def damper_behavior(ctx):
        ctx.contribute("mech", ctx.param("a") * ctx.across("mech"))

    for suffix, behavior, params in (
            ("m", mass_behavior, {"m": mass}),
            ("k", spring_behavior, {"k": stiffness}),
            ("a", damper_behavior, {"a": damping})):
        circuit.add(BehavioralDevice(
            f"{prefix}_{suffix}",
            [Port("mech", mech, frame, MECHANICAL_TRANSLATION)],
            behavior, params=dict(params)))


def build_circuit(cells: int) -> Circuit:
    circuit = Circuit("behavioral-heavy figure-5 array")
    drive = build_drive_waveform(10.0, delay=0.5e-3, rise=0.2e-3,
                                 width=3.5e-3, fall=0.2e-3)
    circuit.voltage_source("VS", "a", "0", drive, ac=1.0)
    for i in range(cells):
        xdcr = PAPER_PARAMETERS.transducer()
        xdcr.add_to_circuit(circuit, f"XDCR{i}", "a", "0", f"m{i}", "0",
                            closed_form=True)
        _behavioral_resonator(circuit, f"m{i}", f"res{i}",
                              PAPER_PARAMETERS.mass,
                              PAPER_PARAMETERS.stiffness,
                              PAPER_PARAMETERS.damping)
    return circuit


def _transient(cells: int, t_stop: float, compile_on: bool):
    circuit = build_circuit(cells)
    options = SimulationOptions(trtol=7.0, behavioral_compile=compile_on)
    analysis = TransientAnalysis(circuit, t_stop=t_stop, t_step=2e-5,
                                 options=options)
    start = time.perf_counter()
    result = analysis.run()
    return result, time.perf_counter() - start


def run(cells: int, t_stop: float, repeats: int, check: bool = True):
    """Run the comparison; returns report lines (raises on pin failure)."""
    # Warm-up run: populates the process-wide fingerprint-keyed kernel cache
    # (shared across circuits, exactly like a long-lived session) and pays
    # any one-time NumPy/SciPy import costs off the clock.
    _transient(cells, t_stop, compile_on=True)

    t_compiled = t_interp = float("inf")
    for _ in range(repeats):
        compiled, elapsed = _transient(cells, t_stop, compile_on=True)
        t_compiled = min(t_compiled, elapsed)
        interp, elapsed = _transient(cells, t_stop, compile_on=False)
        t_interp = min(t_interp, elapsed)
    cache = hdl_compile.cache_info()

    mismatches = [name for name in interp._data
                  if not np.array_equal(np.asarray(compiled._data[name]),
                                        np.asarray(interp._data[name]))]
    time_identical = np.array_equal(compiled.time, interp.time)
    speedup = t_interp / t_compiled
    lines = [
        f"workload: {cells} transducer cells -> {4 * cells} behavioral "
        f"devices, t_stop = {t_stop:.1e} s, {len(interp.time)} time points",
        f"compiled kernels     : {cache['kernels']} "
        "(fingerprint-cached, shared across the array)",
        f"interpreted transient: {t_interp * 1e3:8.1f} ms",
        f"compiled transient   : {t_compiled * 1e3:8.1f} ms",
        f"speedup              : {speedup:8.2f}x",
        f"waveforms bit-identical: {not mismatches and time_identical} "
        f"({len(interp._data)} signals)",
    ]
    if check:
        # Explicit raises, not asserts: the pins must survive `python -O`.
        if not time_identical:
            raise RuntimeError("compiled and interpreted runs disagree on "
                               "the accepted time grid")
        if mismatches:
            raise RuntimeError(
                f"{len(mismatches)} signal(s) not bitwise identical between "
                f"compiled and interpreted runs: {mismatches[:5]}")
        if speedup < SPEEDUP_FLOOR:
            raise RuntimeError(
                f"behavioral-compile speedup {speedup:.2f}x "
                f"(acceptance: >= {SPEEDUP_FLOOR:.0f}x)")
        lines.append(f"acceptance: bit-identical waveforms, "
                     f"{speedup:.2f}x >= {SPEEDUP_FLOOR:.0f}x")
    return lines


def test_behavioral_compile_speedup(benchmark):
    """Pytest entry point (regression-gate ledger suite)."""
    from conftest import report
    lines = benchmark.pedantic(
        lambda: run(cells=8, t_stop=6e-3, repeats=3), rounds=1, iterations=1)
    report("Behavioral compiler: compiled kernels vs interpreter", lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="short time grid for CI (pins still enforced)")
    args = parser.parse_args(argv)
    if args.smoke:
        lines = run(cells=8, t_stop=6e-3, repeats=3)
    else:
        lines = run(cells=8, t_stop=10e-3, repeats=3)
    print("==== Behavioral compiler: compiled kernels vs interpreter ====")
    for line in lines:
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
