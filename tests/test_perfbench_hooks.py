"""The benchmark's traced run can still hook every entry point it wraps.

``perfbench/tracing.py`` patches module and class attributes of ``repro``
by name (``vars(owner)[attr]``) for the duration of a traced run.  Renaming
or moving a traced entry point would break every ``--trace 1`` run; this
test turns that into a tier-1 failure.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from repro.campaign import runner
from repro.circuit import Circuit, SimulationOptions, mna
from repro.circuit.analysis import adjoint, batch, dcsweep, op, transient
from repro.circuit.devices.behavioral import BehavioralDevice
from repro.fem import electrostatics
from repro.hdl.compile import runtime
from repro.linalg import batch as linalg_batch
from repro.linalg import solvers
from repro.transducers import base as transducer_base

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.tracing import Tracer  # noqa: E402

#: Every module and class whose attributes the tracer may replace.
OWNERS = (runner, runner.CampaignRunner, transient,
          transient.TransientAnalysis, adjoint, adjoint._Replay, op,
          op.NewtonWorkspace, dcsweep, batch, mna.MNASystem,
          BehavioralDevice, runtime, transducer_base,
          linalg_batch.BatchedDenseLU, linalg_batch.BatchedSparseLU,
          electrostatics, electrostatics.ParallelPlateProblem,
          *(cls for cls in vars(solvers).values()
            if isinstance(cls, type) and issubclass(cls, solvers.Factorization)),
          solvers.FactorizedSolver)


def _attributes():
    return [(owner, dict(vars(owner))) for owner in OWNERS]


def _ladder() -> Circuit:
    circuit = Circuit("ladder")
    circuit.voltage_source("VS", "n0", "0", 2.0)
    circuit.resistor("R0", "n0", "n1", 100.0)
    circuit.diode("D0", "n1", "0")
    return circuit


def test_install_wraps_and_restores_every_entry_point():
    before = _attributes()
    tracer = Tracer()
    with tracer.install():
        patched = [(owner, name) for owner, attrs in before
                   for name, value in attrs.items()
                   if vars(owner).get(name) is not value]
        # The traced entry points keep their call shapes: a serial solve
        # returns (x, iterations), a batched one (x, solved, iterations).
        circuit = _ladder()
        system = mna.MNASystem(circuit)
        options = SimulationOptions()
        x, iterations = op.newton_solve(system, np.zeros(system.size), "op",
                                        0.0, None, options)
        columns = batch.ParameterColumns(circuit, [("VS", "dc", [1.0, 2.0])])
        with columns:
            xb, solved, lane_iterations = batch.batched_newton(
                system, np.zeros((2, system.size)), "op", options, columns)
    assert (op, "newton_solve") in patched
    assert (batch, "batched_newton") in patched
    assert (op.NewtonWorkspace, "factor") in patched
    assert solved.all() and np.allclose(xb[1], x)
    assert tracer.counts[(None, "newton_iterations")] == \
        iterations + lane_iterations.sum()
    for owner, attrs in before:
        for name, value in attrs.items():
            assert vars(owner).get(name) is value, (owner, name)
