"""Span tracing of the benchmark's traced run, installed from outside ``repro``.

The traced run wraps the public entry points of every layer the benchmark
reports on -- ``campaign``, ``circuit.analysis``, ``circuit.mna``, device
evaluation (``circuit.devices``, ``transducers``, ``hdl.compile``),
``linalg`` and ``fem`` -- by replacing module and class attributes for the
duration of the run.  Nothing under ``src/`` is edited; :meth:`Tracer.install`
returns a context manager that puts every original back.

Each span records its name, start, end, the span that was open when it
started (its parent) and the operation it belongs to.  Spans live in memory
and are written out when the run ends.  A layer's *self* time is its span's
duration minus the time its child spans cover.

Campaign pool workers are forked from the traced process, so they inherit
the wrappers.  Their spans travel back with the chunk heartbeat the runner
already ships to its progress reporters.  Children that ran in ``L`` worker
processes cover their parent by the mean, over workers, of each worker's
busy time; each worker span is weighted ``1/L``.  With that weighting the
self times of all spans of one operation add up exactly to its wall time.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict


class Tracer:
    """In-memory span and counter recorder for one traced run."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: Process the spans are being recorded in (a worker after fork).
        self.lane = self.pid
        #: (op, lane, sid, parent key, name, t0, t1, lanes)
        self.spans: list[tuple] = []
        #: (op, name) -> amount
        self.counts: dict[tuple, float] = defaultdict(float)
        self.stack: list[tuple] = []
        self.op: int | None = None
        self._next = 0
        self._in_batch_assemble = False

    # ------------------------------------------------------------ recording
    def _open(self):
        self._next += 1
        key = (self.lane, self._next)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(key)
        return key, parent

    def _close(self, key, parent, name, t0, lanes=0) -> None:
        t1 = time.perf_counter()
        self.stack.pop()
        self.spans.append((self.op, key[0], key[1], parent, name, t0, t1,
                           lanes))

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (the benchmark's own ``op``)."""
        key, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(key, parent, name, t0)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[(self.op, name)] += amount

    def wrap(self, name: str, fn, after=None, lanes_of=None):
        """``fn`` recorded as span ``name``.

        ``after(result)`` may bump counters from the return value;
        ``lanes_of(args)`` gives the number of worker processes a call
        fans out to (campaign pools).
        """
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            lanes = lanes_of(args) if lanes_of is not None else 0
            key, parent = tracer._open()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(key, parent, name, t0, lanes)
            if after is not None:
                after(result)
            return result

        return traced

    # ------------------------------------------------------------- patches
    @contextlib.contextmanager
    def install(self):
        """Wrap every layer entry point; restore the originals on exit."""
        from repro.campaign import runner
        from repro.circuit import mna
        from repro.circuit.analysis import adjoint, batch, dcsweep, op, transient
        from repro.circuit.devices.behavioral import BehavioralDevice
        from repro.fem import electrostatics
        from repro.hdl.compile import runtime
        from repro.linalg import batch as linalg_batch
        from repro.linalg import solvers
        from repro.transducers import base as transducer_base

        saved: list[tuple[object, str, object]] = []

        def patch(owner, attr, replacement):
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)

        def wrap(owner, attr, name, **kw):
            patch(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

        # -- campaign ------------------------------------------------------
        def pool_lanes(args):
            runner_obj, spec = args[0], args[1]
            if runner_obj.backend != "pool":
                return 0
            return min(runner_obj.processes or os.cpu_count() or 1,
                       len(spec.points()))

        wrap(runner.CampaignRunner, "run", "campaign.run", lanes_of=pool_lanes)
        wrap(runner, "_evaluate_one", "campaign.eval")
        wrap(runner, "_evaluate_batch_items", "campaign.eval")
        patch(runner, "_evaluate_chunk",
              _ChunkShipper(self, runner._evaluate_chunk))

        # -- circuit.analysis ---------------------------------------------
        def tran_done(result):
            self.count("steps_accepted", result.statistics["accepted"])
            self.count("steps_rejected", result.statistics["rejected"])

        original_run = transient.TransientAnalysis.run
        behavioral_run = self.wrap("circuit.analysis.tran_behavioral",
                                   original_run, after=tran_done)
        linearized_run = self.wrap("circuit.analysis.tran_linearized",
                                   original_run, after=tran_done)

        def tran_run(analysis, *args, **kwargs):
            # The circuit decides the label: any behavioral device makes
            # it the paper's behavioral (HDL) model.
            behavioral = any(isinstance(device, BehavioralDevice)
                             for device in analysis.circuit)
            run = behavioral_run if behavioral else linearized_run
            return run(analysis, *args, **kwargs)

        patch(transient.TransientAnalysis, "run", tran_run)
        wrap(adjoint, "transient_sensitivities",
             "circuit.analysis.sensitivities")
        wrap(adjoint._Replay, "prime", "circuit.analysis.adjoint_replay")
        wrap(adjoint, "_backward_sweep", "circuit.analysis.adjoint_replay")
        wrap(adjoint, "_forward_sweep", "circuit.analysis.adjoint_replay")

        def newton_done(result):
            self.count("newton_iterations", result[1])

        newton = self.wrap("circuit.analysis.newton", op.newton_solve,
                           after=newton_done)
        for module in (op, transient, dcsweep):
            patch(module, "newton_solve", newton)

        def batched_done(result):
            self.count("newton_iterations", float(result[2].sum()))

        wrap(batch, "batched_newton", "circuit.analysis.batched_newton",
             after=batched_done)
        original_assemble_batch = batch.assemble_batch
        traced_assemble_batch = self.wrap("circuit.analysis.batch.assemble",
                                          original_assemble_batch)

        def assemble_batch(*args, **kwargs):
            self._in_batch_assemble = True
            try:
                return traced_assemble_batch(*args, **kwargs)
            finally:
                self._in_batch_assemble = False

        patch(batch, "assemble_batch", assemble_batch)

        # -- circuit.mna ---------------------------------------------------
        wrap(mna.MNASystem, "assemble", "circuit.mna.assemble")
        # The sensitivity replay assembles seeded contexts directly.
        wrap(adjoint, "_run_seeded", "circuit.mna.assemble")

        # -- device evaluation ---------------------------------------------
        traced_stamp = self.wrap("circuit.devices.behavioral_stamp",
                                 BehavioralDevice.stamp)

        def stamp(device, ctx):
            if self._in_batch_assemble and not isinstance(
                    ctx, mna.BatchStampContext):
                self.count("per_lane_stamps")
            return traced_stamp(device, ctx)

        patch(BehavioralDevice, "stamp", stamp)
        wrap(BehavioralDevice, "record", "circuit.devices.behavioral_record")
        original_try_stamp = runtime.try_stamp

        def try_stamp(device, ctx):
            served = original_try_stamp(device, ctx)
            if served:
                self.count("compiled_stamps")
            return served

        patch(runtime, "try_stamp", try_stamp)
        wrap(transducer_base, "differentiate_coenergy",
             "transducers.energy_method")

        # -- linalg ----------------------------------------------------------
        wrap(solvers.FactorizedSolver, "factorize", "linalg.factorize")
        for cls in vars(solvers).values():
            if isinstance(cls, type) and issubclass(cls, solvers.Factorization):
                for attr, name in (("solve", "linalg.solve"),
                                   ("solve_transposed",
                                    "linalg.solve_transposed")):
                    if attr in cls.__dict__:
                        wrap(cls, attr, name)
        for cls in (linalg_batch.BatchedDenseLU, linalg_batch.BatchedSparseLU):
            for attr in ("solve", "solve_transposed"):
                if attr in cls.__dict__:
                    wrap(cls, attr, "linalg.batched_solve")
        wrap(batch, "batched_factorize", "linalg.batched_factorize")

        def factor_request(fn):
            # A request that finishes without a new factorization span was
            # served from a factorization cache.
            @functools.wraps(fn)
            def request(*args, **kwargs):
                before = len(self.spans)
                result = fn(*args, **kwargs)
                fresh = any(span[4] == "linalg.factorize"
                            for span in self.spans[before:])
                self.count("factor_cache_hits", 0.0 if fresh else 1.0)
                return result
            return request

        patch(op.NewtonWorkspace, "factor",
              factor_request(op.NewtonWorkspace.factor))
        patch(adjoint._Replay, "_factor", factor_request(adjoint._Replay._factor))

        # -- fem -------------------------------------------------------------
        wrap(electrostatics, "assemble_stiffness", "fem.assemble")
        wrap(electrostatics, "apply_dirichlet", "fem.assemble")
        wrap(electrostatics, "solve_sparse", "fem.solve")
        wrap(electrostatics.ParallelPlateProblem, "solve", "fem.problem")

        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ------------------------------------------------------- worker spans
    def ingest(self, event) -> None:
        """Progress-reporter callback: take the spans a pool chunk shipped."""
        shipped = event.data.get("perfbench_trace")
        if shipped is None:
            return
        spans, counts = shipped
        self.spans.extend(spans)
        for key, amount in counts.items():
            self.counts[key] += amount


class _ChunkShipper:
    """Replacement for the runner's chunk entry point.

    In a pool worker it records the chunk's spans and counters and adds
    them to the chunk heartbeat; in the tracing process it is a plain call.
    It is a class instance rather than a closure so the pool can pickle it
    by reference to this module.
    """

    def __init__(self, tracer: Tracer, chunk_fn) -> None:
        self.tracer = tracer
        self.chunk_fn = chunk_fn

    def __call__(self, task, on_point=None):
        tracer = self.tracer
        if os.getpid() == tracer.pid:
            return self.chunk_fn(task, on_point)
        tracer.lane = os.getpid()
        mark = len(tracer.spans)
        before = dict(tracer.counts)
        results, delta, payload, heartbeat = self.chunk_fn(task, on_point)
        spans = tracer.spans[mark:]
        del tracer.spans[mark:]
        counts = {key: amount - before.get(key, 0.0)
                  for key, amount in tracer.counts.items()
                  if amount != before.get(key, 0.0)}
        heartbeat = dict(heartbeat, perfbench_trace=(spans, counts))
        return results, delta, payload, heartbeat

    def __reduce__(self):
        return (_chunk_shipper, ())


_ACTIVE: list[_ChunkShipper] = []


def _chunk_shipper():
    # Workers are forked from the traced process, so the shipper installed
    # there is already present in the worker's copy of this module.
    return _ACTIVE[-1]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install ``tracer`` and route pool-chunk heartbeats into it."""
    from repro.telemetry import progress

    with tracer.install():
        from repro.campaign import runner
        _ACTIVE.append(runner._evaluate_chunk)
        try:
            with progress.reporting(progress.CallbackReporter(tracer.ingest)):
                yield tracer
        finally:
            _ACTIVE.pop()


# ------------------------------------------------------------------ analysis
def self_times(spans) -> dict:
    """Per-op weighted self time (seconds) by span name, plus op walls.

    Returns ``{"ops": n, "wall_s": [...], "self_s": {name: total},
    "incl_s": {name: total}, "calls": {op: {name: count}}}``.
    """
    by_op: dict = defaultdict(list)
    for span in spans:
        by_op[span[0]].append(span)
    self_s: dict = defaultdict(float)
    incl_s: dict = defaultdict(float)
    calls: dict = {}
    walls = []
    for op_index, group in by_op.items():
        children: dict = defaultdict(list)
        roots = []
        keys = {(span[1], span[2]) for span in group}
        op_calls: dict = defaultdict(int)
        for span in group:
            op_calls[span[4]] += 1
            if span[3] in keys:
                children[span[3]].append(span)
            else:
                roots.append(span)
        calls[op_index] = op_calls
        for root in roots:
            if root[4] != "op":
                continue
            walls.append(root[6] - root[5])
            # (span, clipped start, clipped end, weight)
            pending = [(root, root[5], root[6], 1.0)]
            while pending:
                span, start, end, weight = pending.pop()
                duration = end - start
                incl_s[span[4]] += weight * duration
                same_cover = 0.0
                lanes: dict = defaultdict(float)
                kids = []
                for child in children.get((span[1], span[2]), ()):
                    c_start = max(child[5], start)
                    c_end = max(c_start, min(child[6], end))
                    kids.append((child, c_start, c_end))
                    if child[1] == span[1]:
                        same_cover += c_end - c_start
                    else:
                        lanes[child[1]] += c_end - c_start
                n_lanes = max(len(lanes), span[7]) if lanes else 1
                self_s[span[4]] += weight * (
                    duration - same_cover - sum(lanes.values()) / n_lanes)
                for child, c_start, c_end in kids:
                    child_weight = weight if child[1] == span[1] \
                        else weight / n_lanes
                    pending.append((child, c_start, c_end, child_weight))
    return {"ops": len(walls), "wall_s": walls, "self_s": dict(self_s),
            "incl_s": dict(incl_s), "calls": calls}
