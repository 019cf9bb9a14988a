#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, both modes, at small size.

Run from the repository root::

    python3 perfbench/smoke.py

It checks that

* every metric ``BENCHMARK.json`` declares is printed by name with its unit,
  and is in the final JSON line with that unit,
* every correctness check passes,
* the traced self times plus the unattributed share add up to the op wall
  time (which also shows that every recorded span has a self-time metric),
* ``--workload all`` reports every metric of every workload, and its set-up
  counters match those of a run of one workload alone,
* without the rest of the repository the benchmark fails without a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"


def run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench",
                                                        "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(workload: str, trace: str, declared: dict) -> dict:
    import layers

    proc = run("--workload", workload, "--seed", "1", "--seconds", SECONDS,
               "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 4 and parts[1] == "=":
            printed[parts[0]] = (float(parts[2]), parts[3])
    section = "end_to_end" if trace == "0" else "per_layer"
    names = {m["name"]: m["unit"] for m in declared[section]}
    assert set(result["metrics"]) == set(names), set(result["metrics"]) ^ set(names)
    for name, unit in names.items():
        assert printed[name][1] == unit, (name, printed.get(name))
        assert result["metrics"][name]["unit"] == unit
        assert math.isfinite(result["metrics"][name]["value"])
    if trace == "1":
        values = {name: entry["value"]
                  for name, entry in result["metrics"].items()}
        wall = printed["trace.op_wall_ms"][0]
        attributed = sum(values[name] for name, (kind, _, _)
                         in layers.LAYERS.items() if kind == "self")
        total = attributed + values["trace.unattributed_frac"] * wall
        assert math.isclose(total, wall, rel_tol=1e-5), (workload, total, wall)
    print(f"ok {workload} trace {trace}: {result['attempted']} ops")
    return result["metrics"]


#: Metrics that depend only on the program and the seed, not on the host.
SETUP_COUNTERS = ("hdl.compile.kernel_compiles", "hdl.compile.cache_hits")


def check_all(declared: dict, alone: dict) -> None:
    """Every workload and mode in one command, each in its own process."""
    proc = run("--workload", "all", "--seed", "1", "--seconds", SECONDS)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    expected = {f"{w['name']}.{name}" for w in declared["workloads"]
                for name in names}
    assert set(result["metrics"]) == expected, \
        set(result["metrics"]) ^ expected
    for workload, metrics in alone.items():
        for name in SETUP_COUNTERS:
            assert result["metrics"][f"{workload}.{name}"] == metrics[name], \
                (workload, name)
    print(f"ok all workloads: {result['attempted']} ops")


def check_isolated() -> None:
    """Only BENCHMARK.json and the benchmark's files: exit non-zero."""
    with tempfile.TemporaryDirectory() as directory:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), directory)
        shutil.copytree(HERE, os.path.join(directory, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("--workload", "fig5_pulse", "--seconds", SECONDS,
                   "--trace", "0", cwd=directory)
    assert proc.returncode != 0
    assert not proc.stdout.strip(), proc.stdout
    print("ok isolated copy fails without a result")


def main() -> int:
    sys.path.insert(0, HERE)
    import layers

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert [m["name"] for m in declared["per_layer"]] == list(layers.LAYERS)
    alone = {}
    for workload in declared["workloads"]:
        for trace in ("0", "1"):
            metrics = check_run(workload["name"], trace, declared)
        alone[workload["name"]] = metrics
    check_all(declared, alone)
    check_isolated()
    return 0


if __name__ == "__main__":
    sys.exit(main())
