#!/usr/bin/env python3
"""The repository benchmark: four paper workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py                       # all workloads, both modes
    python3 perfbench/run.py --workload fig5_pulse --seed 3 --seconds 10 --trace 0

Each workload is a closed loop with one client: the next op starts when the
previous one has finished.  With several workloads or both modes, each
(workload, mode) pair runs in a fresh process of its own.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` runs the same op sequence
untraced and then traced, and reports the per-layer metrics.

The benchmark and every process it starts run on one CPU, and op times are
reported in normalised milliseconds: host time rescaled by a fixed block of
NumPy/SciPy work timed next to each op (see ``yardstick.py``), so that a
core of a shared host slowing down for a while does not read as a change
of the program.  The raw host times are printed next to them.  The metric
names and units are declared in ``BENCHMARK.json``; the last line of
standard output is one JSON object with the results.

Seed 1997 is held out: tune on other seeds and use it only to confirm a
claim.

Every run also writes a bench-ledger (schema ``repro-bench-ledger/2``) and
the matching run record into ``.perfbench_out/``, so two runs diff with
``python -m repro.telemetry.ledger compare A.json B.json``.
"""

import time

# The set-up clock starts before any heavy import.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: Fresh-process set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_RUNS = 5
#: Yardstick blocks timed between two set-up probes.
PROBE_BLOCKS = 3
#: Ops each loop runs however short ``--seconds`` is.
MIN_OPS = 1
#: ``points_per_norm_s`` is the median throughput of this many consecutive
#: windows of ops, so a burst of load from outside moves it less.
WINDOWS = 5


@dataclass(slots=True)
class Record:
    """One op: its index, inputs, output, host time and failure (if any).

    ``scale`` turns the host time into normalised time: the yardstick's
    ``NOMINAL_S`` over the mean time of its blocks run just before and
    after the op.
    """

    index: int
    inputs: dict
    output: object
    seconds: float
    error: str | None
    scale: float

    @property
    def norm_seconds(self) -> float:
        return self.seconds * self.scale


def _pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    The highest-numbered CPU the process may use is taken, so every run
    lands on the same one.  A pool worker then shares that CPU with a
    parent that only waits for it, and the yardstick timed in the parent
    measures the core the op ran on.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return ({m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]], spec["run_seconds"])


def _loop(workload, seconds, tracer=None, min_ops=MIN_OPS):
    """Run ops ``0, 1, ...`` until ``seconds`` have passed.

    A yardstick block is timed before the first op and after every op.
    """
    from yardstick import NOMINAL_S, block_seconds

    records = []
    gc.collect()
    before = block_seconds()
    start = time.perf_counter()
    index = 0
    while index < min_ops or time.perf_counter() - start < seconds:
        inputs = workload.inputs(index)
        output, error = None, None
        if tracer is not None:
            tracer.op = index
        t0 = time.perf_counter()
        try:
            if tracer is None:
                output = workload.run(inputs)
            else:
                with tracer.span("op"):
                    output = workload.run(inputs)
        except Exception as exc:  # noqa: BLE001 -- a failed op is counted
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if error is None:
            error = workload.check(inputs, output)
        after = block_seconds()
        records.append(Record(index, inputs, output, elapsed, error,
                              NOMINAL_S / (0.5 * (before + after))))
        before = after
        index += 1
    if tracer is not None:
        tracer.op = None
    return records


def _deep_check(workload, records) -> None:
    """Run the workload's reference check on the first good op."""
    for record in records:
        if record.error is None:
            record.error = workload.deep_check(record.inputs, record.output)
            return


def _tail(seconds):
    """The highest percentile with at least 10 samples beyond it.

    That is the 11th-largest op.  With fewer than 11 ops no percentile
    qualifies, and the slowest op is reported as percentile 100.
    """
    ordered = sorted(seconds)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (1.0 - 10.0 / n)


def _throughput(seconds, points_per_op: int) -> float:
    """Median points per second over consecutive windows of ops."""
    count = min(WINDOWS, len(seconds))
    bounds = [round(k * len(seconds) / count) for k in range(count + 1)]
    return statistics.median(
        points_per_op * (end - start) / sum(seconds[start:end])
        for start, end in zip(bounds, bounds[1:]))


#: Registry counters a set-up probe reports: kernels compiled and compile
#: cache hits of a cold process, so they do not depend on what ran before.
SETUP_COUNTERS = ("hdl.compile.count", "hdl.compile.cache_hits")


def _setup_probe(name: str, seed: int) -> dict:
    """One fresh process: its set-up time (imports, build, cold first op)
    and the :data:`SETUP_COUNTERS` it ended set-up with."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_probes(name: str, seed: int, runs: int) -> list:
    """Run ``runs`` set-up probes one after the other.

    Each probe's ``norm_setup_s`` is its set-up time scaled like an op, by
    the yardstick timed just before and after it (the median of
    ``PROBE_BLOCKS`` blocks each time, since a block right after a process
    exits can read slow).
    """
    from yardstick import NOMINAL_S, block_seconds

    before = block_seconds(PROBE_BLOCKS)
    probes = []
    for _ in range(runs):
        probe = _setup_probe(name, seed)
        after = block_seconds(PROBE_BLOCKS)
        probe["norm_setup_s"] = probe["setup_s"] * NOMINAL_S \
            / (0.5 * (before + after))
        before = after
        probes.append(probe)
    return probes


def _build(name: str, seed: int):
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.run(workload.warm_inputs())
    return workload


def measure(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; returns metrics plus what the report needs."""
    import yardstick

    probes = _setup_probes(name, seed, SETUP_RUNS if trace == 0 else 1)
    setups = [probe["norm_setup_s"] for probe in probes]
    setup_registry = {key: probes[0][key] for key in SETUP_COUNTERS}
    workload = _build(name, seed)
    result = {"workload": name, "seed": seed, "trace": trace}
    if trace == 0:
        records = _loop(workload, seconds)
        _deep_check(workload, records)
        times = [r.seconds for r in records]
        norm = [r.norm_seconds for r in records]
        tail, percentile = _tail(norm)
        result["metrics"] = {
            "op_norm_ms_p50": 1e3 * statistics.median(norm),
            "op_norm_ms_tail": 1e3 * tail,
            "points_per_norm_s": _throughput(norm, workload.points_per_op),
            "setup_s": statistics.median(setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["tail"] = {"percentile": percentile, "samples": len(times)}
        result["setup_samples_s"] = setups
        result["raw"] = {
            "op_ms_p50": 1e3 * statistics.median(times),
            "op_ms_tail": 1e3 * _tail(times)[0],
            "points_per_s": _throughput(times, workload.points_per_op),
            "yardstick_ms_p50": 1e3 * yardstick.NOMINAL_S
            / statistics.median(r.scale for r in records),
            "yardstick_nominal_ms": 1e3 * yardstick.NOMINAL_S,
            "setup_samples_s": [probe["setup_s"] for probe in probes],
        }
        result["op_seconds"] = times
    else:
        import layers
        import tracing

        # The overhead is taken between normalised times, so a host
        # slowing down between the two halves does not read as tracing cost.
        plain = _loop(workload, seconds / 2.0)
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            traced = _loop(workload, seconds / 2.0, tracer=tracer,
                           min_ops=layers.EXACT_OPS)
        _deep_check(workload, plain)
        records = plain + traced
        analysis = tracing.self_times(tracer.spans)
        penalty = 0.0
        if name == "fig5_pulse":
            penalty = statistics.median(
                r.output["behavioral_s"] for r in plain if r.output) \
                / statistics.median(
                    r.output["linearized_s"] for r in plain if r.output)
        untraced_p50 = statistics.median(r.norm_seconds for r in plain)
        traced_p50 = statistics.median(r.norm_seconds for r in traced)
        values, sim_stats = layers.layer_metrics(
            analysis, tracer, setup_registry, untraced_p50, traced_p50,
            penalty)
        result["metrics"] = values
        result["sim_stats"] = sim_stats
        result["trace_wall_ms"] = 1e3 * statistics.fmean(analysis["wall_s"])
        result["self_ms"] = {span: 1e3 * total / analysis["ops"]
                             for span, total in analysis["self_s"].items()}
        result["op_seconds"] = [r.seconds for r in traced]
        _write_trace(name, tracer)
    result["attempted"] = len(records)
    result["failed"] = sum(r.error is not None for r in records)
    result["errors"] = [f"op {r.index}: {r.error}" for r in records
                        if r.error is not None][:5]
    return result


# ------------------------------------------------------------------ outputs
def _stamp(name: str, seed: int, trace: int) -> str:
    return (f"{name}-s{seed}-t{trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S', time.gmtime())}-{os.getpid()}")


def _write_trace(name: str, tracer) -> None:
    """Write the spans of the traced ops (kept in memory until now).

    One file per workload, replaced by its next traced run, so repeated
    runs do not pile up span dumps.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["op", "lane", "id", "parent", "name",
                              "start_s", "end_s", "worker_lanes"],
                   "spans": tracer.spans}, handle)


def _write_ledger(result: dict, units: dict) -> str:
    """Bench-ledger v2 payload plus its run record, for ledger diffing."""
    from repro.telemetry.ledger import RunRecord, capture_provenance

    name = result["workload"]
    entries = []
    times = result["op_seconds"]
    if times:
        entries.append({
            "test": f"perfbench::{name}::op_t{result['trace']}",
            "outcome": "passed" if result["failed"] == 0 else "failed",
            "duration_s": statistics.median(times),
            "benchmark": {"rounds": len(times), "min_s": min(times),
                          "mean_s": statistics.fmean(times),
                          "max_s": max(times)}})
    for metric, value in result["metrics"].items():
        unit = units[metric]
        if unit in ("ms", "s"):
            entries.append({
                "test": f"perfbench::{name}::{metric}", "outcome": "passed",
                "duration_s": value / 1e3 if unit == "ms" else value,
                "benchmark": None})
    payload = {
        "schema": "repro-bench-ledger/2",
        "created_s": time.time(),
        "python": sys.version.split()[0],
        "platform": sys.platform,
        "provenance": capture_provenance(),
        "exit_status": 0 if result["failed"] == 0 else 1,
        "results": entries,
        # Not read by the ledger; kept for people reading the file.
        "perfbench": {key: value for key, value in result.items()
                      if key != "op_seconds"},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stamp = _stamp(name, result["seed"], result["trace"])
    bench_path = os.path.join(OUT_DIR, f"bench-{stamp}.json")
    with open(bench_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
    record = RunRecord.from_bench_ledger(payload, label=f"perfbench-{name}")
    return record.dump(os.path.join(OUT_DIR, f"record-{stamp}.json"))


def _compare_sim_stats(name: str, seed: int, stats: dict) -> list[str]:
    """Lines flagging exact statistics that changed since the last run."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"simstats-{name}-s{seed}.json")
    previous = None
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            previous = json.load(handle)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(stats, handle, indent=1)
    if previous is None:
        return ["  sim stats: first run of this workload and seed here"]
    changed = [f"  sim stats CHANGED {key}: {previous.get(key)} -> {value}"
               for key, value in stats.items() if previous.get(key) != value]
    return changed or ["  sim stats: identical to the previous run"]


def report(result: dict, declared: dict) -> None:
    """Print every metric by name and unit (human-readable lines)."""
    import layers

    name, trace = result["workload"], result["trace"]
    print(f"== {name} (seed {result['seed']}, trace {trace}) ==")
    for metric, value in result["metrics"].items():
        line = f"  {metric} = {value:.6g} {declared[metric]['unit']}"
        if metric in layers.LAYERS:
            line += f"    [moves {layers.LAYERS[metric][2]}]"
        print(line)
    attempted, failed = result["attempted"], result["failed"]
    print(f"  failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} ops)")
    if trace == 0:
        tail = result["tail"]
        raw = result["raw"]
        print(f"  op_norm_ms_tail is p{tail['percentile']:.1f} of "
              f"{tail['samples']} ops; setup_s samples "
              f"{[round(s, 4) for s in result['setup_samples_s']]}")
        print(f"  host time: op p50 {raw['op_ms_p50']:.6g} ms, tail "
              f"{raw['op_ms_tail']:.6g} ms, {raw['points_per_s']:.6g} "
              f"points/s, set-up samples "
              f"{[round(s, 4) for s in raw['setup_samples_s']]} s; "
              f"yardstick block p50 "
              f"{raw['yardstick_ms_p50']:.6g} ms (nominal "
              f"{raw['yardstick_nominal_ms']:g} ms)")
    else:
        print(f"  trace.op_wall_ms = {result['trace_wall_ms']!r} ms")
        for key, value in result["sim_stats"].items():
            print(f"  sim stat {key} = {value:g}")
        for line in _compare_sim_stats(name, result["seed"],
                                       result["sim_stats"]):
            print(line)
    for error in result["errors"]:
        print(f"  FAILED {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured host seconds per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both",
                        help="0: end-to-end metrics, 1: per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro package under {ROOT}/src; run from a full "
              "checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    _pin_to_one_cpu()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if HERE not in sys.path:
        sys.path.insert(0, HERE)

    if args.setup_probe:
        _build(args.workload, args.seed)
        setup_s = time.perf_counter() - _T0
        from repro.telemetry import registry

        print(json.dumps({"setup_s": setup_s,
                          **{key: registry.counter_value(key)
                             for key in SETUP_COUNTERS}}))
        return 0

    end_to_end, per_layer, workloads, run_seconds = _declared()
    seconds = run_seconds if args.seconds is None else args.seconds
    names = workloads if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads:
            parser.error(f"unknown workload {name!r} (choose from {workloads})")
    modes = (0, 1) if args.trace == "both" else (int(args.trace),)
    pairs = [(name, trace) for name in names for trace in modes]
    if len(pairs) > 1:
        return _run_children(pairs, args.seed, seconds)

    (name, trace), = pairs
    declared = {**end_to_end, **per_layer}
    units = {metric: spec["unit"] for metric, spec in declared.items()}
    result = measure(name, args.seed, seconds, trace)
    expected = end_to_end if trace == 0 else per_layer
    if set(result["metrics"]) != set(expected):
        raise RuntimeError(
            f"metrics {sorted(set(result['metrics']) ^ set(expected))}"
            " differ from BENCHMARK.json")
    report(result, declared)
    print(f"  ledger record: {_write_ledger(result, units)}")
    failed = result["failed"]
    print(json.dumps({
        "correct": failed == 0, "attempted": result["attempted"],
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in result["metrics"].items()}}))
    return 0


def _run_children(pairs, seed: int, seconds: float) -> int:
    """Measure each (workload, trace) pair in a fresh process of its own.

    Peak RSS and the process-wide compile and pattern caches then belong
    to that pair alone, not to whatever ran before it.  Each child prints
    its report; the last line combines their results, with every metric
    prefixed by its workload.
    """
    metrics, attempted, failed = {}, 0, 0
    for name, trace in pairs:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", repr(seconds),
               "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: {name} (trace {trace}) exited with "
                  f"{proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        child = json.loads(lines[-1])
        attempted += child["attempted"]
        failed += child["failed"]
        metrics.update({f"{name}.{metric}": entry
                        for metric, entry in child["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
