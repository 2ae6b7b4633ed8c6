#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny inputs (Jmax 4 and 5).

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about two minutes on two cores.  It
records tiny references, then checks that every workload prints exactly the
metrics BENCHMARK.json names, each with a unit, in both modes; that a
perturbed reference output, a wrong float and a changed determinism record
are each reported as a failure; and that the benchmark exits non-zero without
a result in a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(".perfbench", "selftest")
REF = os.path.join(WORK, "ref")
WORKLOADS = ("cli-j10", "cli-j14", "fit-positions", "beta-scan")


def bench(workload, trace=0, *extra, cwd=None):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "0", "--trace", str(trace), "--scale", "tiny",
            "--ref-dir", os.path.abspath(REF), *extra]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else "", proc.stderr


def result_of(workload, trace=0, *extra):
    rc, last, err = bench(workload, trace, *extra)
    if rc != 0:
        raise AssertionError(f"{workload} trace={trace} exited {rc}: {err[-500:]}")
    return json.loads(last)


def check_shape(result, names, what):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, what
    assert isinstance(result["failed"], int), what
    assert list(result["metrics"]) == names, f"{what}: metric names {list(result['metrics'])}"
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"} and metric["unit"], f"{what}: {name}"
        assert isinstance(metric["value"], (int, float)), f"{what}: {name}"


def expect_failure(workload, what):
    result = result_of(workload)
    assert result["correct"] is False and result["failed"] >= 1, f"{what} went unnoticed"
    print(f"ok  {what} is reported: failed {result['failed']} of {result['attempted']}")


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)

    for workload in WORKLOADS:
        result = result_of(workload, 0, "--record")
        check_shape(result, end_to_end, f"{workload} trace 0")
        assert result["correct"] and result["metrics"]["op_s"]["value"] > 0, workload
        result = result_of(workload, 1)
        check_shape(result, per_layer, f"{workload} trace 1")
        assert result["correct"], f"{workload}: traced run fails its own reference"
        print(f"ok  {workload}: {len(end_to_end)} end-to-end and {len(per_layer)} "
              "per-layer metrics, outputs match")

    levels = os.path.join(REF, "cli-j10", "levels.csv")
    with open(levels, encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    energy, deg, label, spin, ordinal = rows[2].split(",")
    rows[2] = ",".join([energy, deg, "E2" if label != "E2" else "A1", spin, ordinal])
    with open(levels, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    expect_failure("cli-j10", "a relabelled reference level")

    sticks = os.path.join(REF, "cli-j14", "sticks.csv")
    with open(sticks, encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    cells = rows[1].split(",")
    cells[0] = repr(float(cells[0]) + 1e-4)
    rows[1] = ",".join(cells)
    with open(sticks, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    expect_failure("cli-j14", "a stick frequency moved by 1e-4 cm-1")

    digests = os.path.join(".perfbench", "digests.json")
    with open(digests, encoding="utf-8") as fh:
        saved = fh.read()
    known = json.loads(saved)
    for key in known:
        if ":fit-positions:4:7:fit.json" in key:
            known[key] = "0" * 64
    with open(digests, "w", encoding="utf-8") as fh:
        json.dump(known, fh)
    try:
        expect_failure("fit-positions", "a fit output that differs from an earlier run")
    finally:
        with open(digests, "w", encoding="utf-8") as fh:
            fh.write(saved)

    bare = os.path.join(WORK, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    rc, last, _ = bench("cli-j10", 0, cwd=bare)
    assert rc != 0 and not last.startswith("{"), "ran without a program to measure"
    print(f"ok  a directory with only the benchmark exits {rc} without a result")
    print("selftest passed")


if __name__ == "__main__":
    main()
