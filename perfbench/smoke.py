"""Smoke test of the benchmark itself: a tiny run of every workload.

    python3 perfbench/smoke.py

For each workload in ``BENCHMARK.json`` it runs ``run.py`` for one second
untraced and traced.  It asserts that the run exits 0 and reports correct
outputs, that every end-to-end metric is printed by name with its unit (on a
report line and in the final JSON line), and that the traced run emits every
per-layer metric.  Finally it runs the benchmark in a directory holding only
``BENCHMARK.json`` and the benchmark's files, where it must exit nonzero
without printing a result.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    args = command + ["--workload", workload, "--seed", "7", "--seconds", "1",
                      "--trace", str(trace)]
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(bench, workload, trace):
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        raise AssertionError(f"{workload} --trace {trace}: bad result {lines[-1][:200]}")
    wanted = bench["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        raise AssertionError(f"{workload} --trace {trace}: metric names differ from BENCHMARK.json")
    for m in wanted:
        if result["metrics"][m["name"]]["unit"] != m["unit"]:
            raise AssertionError(f"{workload}: {m['name']} has the wrong unit")
        if not any(ln.split()[:1] == [m["name"]] and f" {m['unit']}" in ln for ln in lines[:-1]):
            raise AssertionError(f"{workload}: no report line names {m['name']} in {m['unit']}")


def check_bare_directory():
    """Without quadsum sources the benchmark must fail and print no result."""
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "gfp-mid", 0)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            raise AssertionError("benchmark in a bare directory did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    try:
        for w in bench["workloads"]:
            for trace in (0, 1):
                check_run(bench, w["name"], trace)
                print(f"ok  {w['name']} --trace {trace}")
        check_bare_directory()
        print("ok  bare directory exits nonzero")
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
