"""Collect the benchmark's end-to-end metrics into one ``BENCH_<label>.json``.

Usage::

    python tests/bench.py --label L [--trace]
    python tests/bench.py --compare OLD.json NEW.json

With ``--label`` it runs ``perfbench/run.py`` (the command of
``BENCHMARK.json``) for ``run_seconds`` of ``BENCHMARK.json`` once per
workload and per entry of :data:`SEEDS`, and writes ``BENCH_<L>.json`` at
the root of the checkout: the git SHA and whether tracked files differ from
it, the Python version, the platform, the CPU count, each command line, each
run's final JSON line, and per workload and metric the median and quartiles
over its runs.  With ``--trace`` it also runs each workload once with
``--trace 1`` at the first seed and keeps that run, whose metrics are the
per-layer ones, under ``"traced"``.  Every run's process gets
``PYTHONDONTWRITEBYTECODE=1`` and a ``PYTHONPYCACHEPREFIX`` that names a new
empty temporary directory, so no bytecode cache, stale or fresh, moves
``setup_s`` or ``peak_rss_mb``; the file records both under ``"env"``.  It
measures nothing itself, so ``perfbench/`` stays the one harness.

With ``--compare`` it runs nothing and prints, per workload and end-to-end
metric, old -> new medians, the change in %, and whether a worsening stays
inside the metric's ``BENCHMARK.json`` bound, and the failed share of
operations old -> new; it exits 1 when a metric is outside its bound, more
operations fail, or NEW has a result from fewer runs of one of OLD's
workloads (none when the workload crashed on every run).  It refuses two
files whose run length, seeds or ``"env"`` differ: one file without
``"env"``, different variables set, or a different
``PYTHONDONTWRITEBYTECODE`` (the ``PYTHONPYCACHEPREFIX`` path is new on
every run and is not compared).  When both files hold a traced run
of a workload, it then prints old -> new for each per-layer metric that both
runs report; these single runs gate nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Stated in every file, because the spread it explains shows in the quartiles.
MACHINE_NOTE = ("Ran on a shared 2-core machine: other tenants' load moves a process's "
                "speed by up to a third, so compare medians against the quartiles.")


#: Each seed runs twice, so every workload's quartiles rest on four runs.
SEEDS = (1, 7, 1, 7)


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_benchmark() -> dict:
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def parse_report(text: str):
    """The final JSON line of a ``perfbench/run.py`` report, or None."""
    for line in reversed(text.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    return None


def quartiles(values) -> dict:
    """Median and quartiles (inclusive method) of one metric's runs."""
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def summarize(runs) -> dict:
    """Per workload: per metric its unit and :func:`quartiles` over the runs
    that printed a result, and the attempted and failed operations."""
    out = {}
    for run in runs:
        result = run["result"]
        if result is None:
            continue
        entry = out.setdefault(run["workload"], {"attempted": 0, "failed": 0, "metrics": {}})
        entry["attempted"] += result["attempted"]
        entry["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            entry["metrics"].setdefault(name, {"unit": metric["unit"], "values": []})
            entry["metrics"][name]["values"].append(metric["value"])
    for entry in out.values():
        for metric in entry["metrics"].values():
            metric.update(quartiles(metric.pop("values")))
    return out


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def run_once(bench: dict, workload: str, seed: int, trace: bool, env: dict) -> dict:
    """One run of the benchmark command, with ``env`` added to its
    environment: its command line, exit code and result (None when it
    printed no result line)."""
    command = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"])]
    command += ["--trace", "1"] if trace else []
    proc = subprocess.run([sys.executable, *command[1:]], cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ, **env})
    result = parse_report(proc.stdout)
    if result is None:
        shown = ", no result line"
    elif trace:
        shown = f", {len(result['metrics'])} per-layer metrics"
    else:
        shown = f", ops_per_s {result['metrics']['ops_per_s']['value']:.6g}"
    print(f"{workload} seed {seed}{' traced' if trace else ''}: exit {proc.returncode}{shown}",
          flush=True)
    return {"workload": workload, "seed": seed, "command": command, "exit": proc.returncode,
            "result": result}


def collect(label: str, trace: bool = False) -> dict:
    """Run every workload at every seed, and with ``trace`` once traced,
    and return the BENCH record."""
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = {"PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": cache}
        runs = [run_once(bench, workload, seed, False, env)
                for workload in workloads for seed in SEEDS]
        record = {"label": label, "note": MACHINE_NOTE, "sha": _git("rev-parse", "HEAD"),
                  "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
                  "python": platform.python_version(), "platform": platform.platform(),
                  "cpu_count": os.cpu_count(), "seconds": bench["run_seconds"],
                  "seeds": list(SEEDS), "env": env, "runs": runs, "summary": summarize(runs)}
        if trace:
            record["traced"] = {workload: run_once(bench, workload, SEEDS[0], True, env)
                                for workload in workloads}
    return record


def _result_runs(entry: dict) -> int:
    """How many runs of one workload printed a result."""
    return max((metric["runs"] for metric in entry["metrics"].values()), default=0)


def compare(old: dict, new: dict, bench: dict) -> tuple[list, bool]:
    """Report lines, old against new, and whether every end-to-end metric
    stays inside its bound with no larger failed share, on every workload
    both files ran, and whether NEW has a result from as many runs of each
    of OLD's workloads as OLD has."""
    lines, ok = [], True
    for workload, before in old["summary"].items():
        after = new["summary"].get(workload)
        runs = _result_runs(before), _result_runs(after) if after else 0
        if runs[1] < runs[0]:
            ok = False
            lines.append(f"{workload}: {runs[1]} runs with a result in NEW, {runs[0]} in OLD")
        if after is None:
            continue
        lines.append(f"{workload}:")
        for spec in bench["end_to_end"]:
            name = spec["name"]
            if name not in before["metrics"] or name not in after["metrics"]:
                continue
            a, b = before["metrics"][name]["median"], after["metrics"][name]["median"]
            change = (b - a) / a if a else 0.0
            worse = change if spec["better"] == "lower" else -change
            inside = worse <= spec["bound"]
            ok = ok and inside
            lines.append(f"  {name:12s} {a:.6g} -> {b:.6g} {spec['unit']}  {change:+.1%}  "
                         + ("inside" if inside else "OUTSIDE") + f" the bound {spec['bound']:g}")
        shares = [s["failed"] / s["attempted"] if s["attempted"] else 0.0 for s in (before, after)]
        ok = ok and shares[1] <= shares[0]
        lines.append(f"  failed share {shares[0]:.4g} -> {shares[1]:.4g}")
    return lines, ok


def compare_traced(old: dict, new: dict) -> list:
    """Report lines, old against new, of every per-layer metric that the
    traced runs of a workload in both files report."""
    lines = []
    for workload, before in old.get("traced", {}).items():
        after = new.get("traced", {}).get(workload)
        if not (before["result"] and after and after["result"]):
            continue
        a_metrics, b_metrics = before["result"]["metrics"], after["result"]["metrics"]
        lines.append(f"{workload}, traced at seed {before['seed']} (one run each, not gated):")
        for name in (name for name in a_metrics if name in b_metrics):
            a, b = a_metrics[name]["value"], b_metrics[name]["value"]
            lines.append(f"  {name:44s} {a:.6g} -> {b:.6g} {a_metrics[name]['unit']}"
                         + (f"  {(b - a) / a:+.1%}" if a else ""))
    return lines


def _setting(record: dict, key: str):
    """What a BENCH file ran with under ``key``, as ``--compare`` matches it:
    the value, None when the file has none, and of ``"env"`` each variable
    set, with the bytecode cache prefix's path left out."""
    value = record.get(key)
    if key == "env" and value is not None:
        value = {name: name == "PYTHONPYCACHEPREFIX" or v for name, v in value.items()}
    return value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--label", help="run the benchmark and write BENCH_<label>.json")
    mode.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                      help="compare two stored BENCH files")
    ap.add_argument("--trace", action="store_true",
                    help="with --label, also run each workload once traced")
    args = ap.parse_args(argv)
    if args.trace and not args.label:
        ap.error("--trace needs --label")
    if args.label:
        record = collect(args.label, args.trace)
        path = os.path.join(ROOT, f"BENCH_{args.label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")
        return 0
    old, new = map(load_json, args.compare)
    for key in ("seconds", "seeds", "env"):
        if _setting(old, key) != _setting(new, key):
            ap.error(f"the files ran with different {key}: {old.get(key)} and {new.get(key)}")
    lines, ok = compare(old, new, load_benchmark())
    print("\n".join(lines + compare_traced(old, new)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
