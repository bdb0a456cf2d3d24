"""Run one workload of the quadsum benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; quadsum is imported from its ``src``.  Every
loop runs in its own interpreter (``worker.py``), one caller in a closed loop.

A loop executes a fixed number of operations, the first whole blocks of the
generated inputs (``gen.BLOCK``), sized from ``OPS_PER_S`` so that the loops
of a run take about S seconds at the commit that set it.  On qq-growth and
gfp-mid whole blocks hold the same matrices for every seed; only their order
changes.

``--trace 0`` runs the same operations in each of ``PROCESSES`` fresh
interpreters, one after the other, each in its own order drawn from the seed,
so that no operation always follows the same one.  The machine is shared and
its speed changes by up to a third for seconds at a time, so every timing of
a process is scaled by ``REFERENCE_KERNEL_S`` over the median time of the
calibration kernel that process ran between its operations
(``worker.calibrate``).  ``ops_per_s`` is all operations over the summed
scaled loop times, the latency percentiles pool the scaled samples of every
process, and ``setup_s`` is the median over the processes.
``--trace 1`` runs a fixed number of operations twice, untraced and traced,
and reports the per-layer metrics of the traced phase and the tracing
overhead.

Stdout ends with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
The lines before it name every metric with its unit.  The exit code is 1 when
any output failed its check, 2 when the checkout holds no quadsum sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402

#: Interpreters per untraced run; each sets up and runs the same operations.
PROCESSES = 5
#: Loop rate per workload, measured at the commit that set it: each process
#: runs about OPS_PER_S * seconds / PROCESSES operations.
OPS_PER_S = {"tiny-exhaustive": 400, "roundtrip-small": 42, "qq-growth": 5, "gfp-mid": 10}
#: Calibration kernel time that untraced timings are scaled to: about its
#: median on the 2-core machine the rates above were measured on.
REFERENCE_KERNEL_S = 0.006
#: Whole-run limit; every worker gets what is left of it.
RUN_LIMIT_S = 170.0

#: Tail percentile per workload, fixed from the pooled sample count of a
#: --seconds 20 run: the highest of p90/p99/p99.9 with at least ten samples
#: beyond it, except on tiny-exhaustive.  Its operations take under a millisecond, so
#: p99 and p99.9 there measure the machine's bursts of interference (p99 of one
#: process ranged 1.7-9.2 ms within a run, and spread 47 % over five seeds);
#: p90 is used.
TAIL = {"tiny-exhaustive": 90.0, "roundtrip-small": 90.0, "qq-growth": 90.0, "gfp-mid": 90.0}

#: Operations per second of --seconds in a traced run, sized so the untraced
#: and traced phases together take about --seconds at the commit that set it.
TRACE_OPS_PER_S = {"tiny-exhaustive": 150, "roundtrip-small": 16,
                   "qq-growth": 2, "gfp-mid": 5}

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))

#: End-to-end numbers that apply only to some workloads; reported from the
#: untraced phase of a traced run (0 where the workload has no such operation).
DETAIL = (("decide_p50_ms", "ms"), ("decide_tail_ms", "ms"), ("construct_p50_ms", "ms"),
          ("construct_tail_ms", "ms"), ("cli_job_p50_ms", "ms"), ("failed_ratio", "ratio"),
          ("cert_max_digits", "count"), ("cert_json_kb", "KiB"))

#: Function self times reported by name, beside every module's totals.
SELF_TIMES = (
    "sums.decide", "canonical.split_spectral", "canonical.invariant_factors_with_transform",
    "canonical.nullity_sequence", "poly.minimal_polynomial", "sums.construct_case_a",
    "sums.construct_case_b", "canonical.nilpotent_jordan_with_transform",
    "sums.verify_certificate", "matrix.matmul", "matrix.elim", "oracle.build_sum_atlas",
)
CALLS = ("matrix.matmul", "matrix.elim", "poly.krylov_annihilator")
LAYERS = ("field", "matrix", "poly", "canonical", "sums", "oracle", "serialize", "cli")


def op_count(workload, seconds, rate):
    """Operations of a run: whole blocks, at least one."""
    block = gen.BLOCK[workload]
    return block * max(1, round(rate * seconds / block))


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = [(f"{m}.calls", "count") for m in LAYERS] + [(f"{m}.self_s", "s") for m in LAYERS]
    names += [(f"{f}.self_s", "s") for f in SELF_TIMES]
    names += [(f"{f}.calls", "count") for f in CALLS]
    names += [("matrix.matmul.mults", "count"), ("field.make.calls", "count"),
              ("canonical.krylov_per_factor", "ratio"), ("bench.self_s", "s"),
              ("trace.gap_s", "s"), ("trace.wall_s", "s"), ("trace.ops_per_s", "1/s"),
              ("trace.untraced_ops_per_s", "1/s"), ("trace.overhead_x", "ratio")]
    names += list(DETAIL)
    return names


# ---- statistics ------------------------------------------------------

def percentile(samples, q):
    """Nearest-rank percentile of a sorted list."""
    return samples[max(0, math.ceil(q / 100 * len(samples)) - 1)]


def tail_rule(count):
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = 90.0
    for q in (90.0, 99.0, 99.9):
        if count - math.ceil(q / 100 * count) >= 10:
            best = q
    return best


def latency_ms(samples, q, elapsed_s):
    """A failed operation (inf) counts as taking the whole timed phase."""
    v = percentile(samples, q)
    return (elapsed_s if math.isinf(v) else v) * 1000


def middle_ms(samples, elapsed_s):
    """The median of a sorted list, taken as the mean of its middle tenth
    (p45 to p55).  Latencies of a mixed workload fall in clusters, and on
    qq-growth and gfp-mid the 50 % point lies in a gap between two of them,
    where the plain median jumps from one side to the other between runs."""
    n = len(samples)
    middle = samples[int(0.45 * n):math.ceil(0.55 * n)]
    return statistics.mean(elapsed_s if math.isinf(v) else v for v in middle) * 1000


class Summary:
    """Latencies of one or more loop phases, sorted, overall and per kind."""

    def __init__(self, results):
        self.attempted = self.failed = 0
        self.elapsed_s = sum(r["elapsed_s"] for r in results)
        self.all = []
        self.kind = {"decide": [], "construct": [], "cli": []}
        for r in results:
            failed = set(r["failed"])
            self.attempted += len(r["latencies"])
            self.failed += len(failed)
            for i, (v, kind) in enumerate(zip(r["latencies"], r["kinds"])):
                v = float("inf") if i in failed else v
                self.all.append(v)
                self.kind[kind].append(v)
        self.all.sort()
        for samples in self.kind.values():
            samples.sort()
        self.ops_per_s = (self.attempted - self.failed) / self.elapsed_s
        self.max_digits = max(r["cert_max_digits"] for r in results)
        self.json_bytes = sum(r["cert_json_bytes"] for r in results)

    def ms(self, samples, q):
        return latency_ms(samples, q, self.elapsed_s) if samples else 0.0


def detail_metrics(s: Summary):
    """The per-operation-kind end-to-end numbers, 0 where a kind is absent."""
    values = {}
    for kind in ("decide", "construct"):
        samples = s.kind[kind]
        values[f"{kind}_p50_ms"] = s.ms(samples, 50)
        values[f"{kind}_tail_ms"] = s.ms(samples, tail_rule(len(samples)))
    values["cli_job_p50_ms"] = s.ms(s.kind["cli"], 50)
    values["failed_ratio"] = s.failed / s.attempted
    values["cert_max_digits"] = s.max_digits
    values["cert_json_kb"] = s.json_bytes / 1024
    return values


def print_detail(values, s: Summary):
    for name, unit in DETAIL:
        kind = name.split("_")[0]
        if kind in s.kind and not s.kind[kind]:
            print(f"{name:34s} n/a {unit}  (no {kind} operations in this workload)")
            continue
        note = ""
        if name.endswith("_tail_ms"):
            n = len(s.kind[kind])
            note = f"  (p{tail_rule(n):g} of {n} samples)"
        print(f"{name:34s} {values[name]:.6g} {unit}{note}")


# ---- workers ---------------------------------------------------------

class Runner:
    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.jobs = gen.generate(workload, seed)
        self.digest = gen.inputs_digest(self.jobs)
        self.inputs = os.path.join(workdir, "inputs.json")
        self.jobs_dir = os.path.join(workdir, "jobs")
        os.makedirs(self.jobs_dir)
        with open(self.inputs, "w", encoding="utf-8") as fh:
            json.dump(self.jobs, fh)
        params = {"a": "1", "b": "0", "c": "0", "d": "0"}
        for k, jb in enumerate(self.jobs):
            if jb["kind"] == "cli":
                with open(os.path.join(self.jobs_dir, f"{k}.json"), "w", encoding="utf-8") as fh:
                    json.dump({"field": jb["field"], "matrix": jb["rows"], "params": params}, fh)
        self.calls = 0

    def worker(self, order, trace=False):
        """Set up and run one loop in a fresh interpreter.

        Returns the worker's result with ``setup_s``, spawn to first operation.
        """
        self.calls += 1
        spec = {"root": ROOT, "workload": self.workload, "inputs": self.inputs,
                "jobs_dir": self.jobs_dir, "order": order, "trace": trace,
                "result": os.path.join(self.workdir, f"result{self.calls}.json"),
                "spans": os.path.join(ROOT, ".perfbench", f"spans-{self.workload}.bin")}
        spec_path = os.path.join(self.workdir, f"spec{self.calls}.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RuntimeError("run time limit reached before all phases ran")
        t_spawn = time.monotonic()
        # A fixed hash seed keeps dict and set layouts the same in every worker.
        env = dict(os.environ, PYTHONHASHSEED="0")
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                              cwd=ROOT, env=env, stdout=subprocess.DEVNULL, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        with open(spec["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_s"] = result["t_ready"] - t_spawn
        return result


def run_untraced(runner, seconds):
    count = op_count(runner.workload, seconds / PROCESSES, OPS_PER_S[runner.workload])
    rng = random.Random(f"{runner.workload}/{runner.seed}/order")
    orders = [rng.sample(range(count), count) for _ in range(PROCESSES)]
    results = [runner.worker(order) for order in orders]
    per = [Summary([r]) for r in results]
    s = Summary(results)
    scale = [REFERENCE_KERNEL_S / statistics.median(r["calibration_s"]) for r in results]
    pooled = sorted(v * f for p, f in zip(per, scale) for v in p.all)
    tail = TAIL[runner.workload]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] * f for r, f in zip(results, scale)),
        "ops_per_s": (s.attempted - s.failed) / sum(r["elapsed_s"] * f
                                                    for r, f in zip(results, scale)),
        "op_p50_ms": middle_ms(pooled, s.elapsed_s),
        "op_tail_ms": latency_ms(pooled, tail, s.elapsed_s),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    print(f"per process, unscaled: set-up s, ops/s, p50 ms, p{tail:g} ms; kernel ms: " + "; ".join(
        f"{r['setup_s']:.4f} {p.ops_per_s:.2f} {p.ms(p.all, 50):.4f} {p.ms(p.all, tail):.4f};"
        f" {statistics.median(r['calibration_s']) * 1000:.3f}"
        for r, p in zip(results, per)))
    beyond = s.attempted - math.ceil(tail / 100 * s.attempted)
    explain = {"setup_s": "  (median over the processes)",
               "ops_per_s": f"  ({s.attempted} operations, {count} in each process)",
               "op_p50_ms": f"  (mean of p45..p55 of {s.attempted} pooled samples)",
               "op_tail_ms": f"  (p{tail:g} of {s.attempted} pooled samples, {beyond} beyond)"}
    for name, unit in END_TO_END:
        print(f"{name:34s} {metrics[name]:.6g} {unit}{explain.get(name, '')}")
    print_detail(detail_metrics(s), s)
    notes = [n for r in results for n in r["notes"]]
    return metrics, s, notes, dict(END_TO_END)


def run_traced(runner, seconds):
    count = op_count(runner.workload, seconds, TRACE_OPS_PER_S[runner.workload])
    plain = runner.worker(list(range(count)))
    traced = runner.worker(list(range(count)), trace=True)
    sp, st = Summary([plain]), Summary([traced])
    tm = traced["trace"]
    metrics = {}
    for name, _unit in per_layer_names():
        base, _, stat = name.rpartition(".")
        if stat == "calls" and name != "field.make.calls":
            metrics[name] = tm["calls"].get(base, 0)
        elif stat == "self_s" and base != "bench":
            metrics[name] = tm["self_s"].get(base, 0.0)
    metrics["bench.self_s"] = tm["self_s"].get("bench", 0.0)
    metrics["matrix.matmul.mults"] = tm["counts"]["matrix.matmul.mults"]
    metrics["field.make.calls"] = tm["counts"]["field.make.calls"]
    factors = tm["counts"]["canonical.factors_returned"]
    metrics["canonical.krylov_per_factor"] = (tm["counts"]["canonical.krylov_calls"] / factors
                                              if factors else 0.0)
    metrics["trace.gap_s"] = tm["gap_s"]
    metrics["trace.wall_s"] = tm["wall_s"]
    metrics["trace.ops_per_s"] = st.ops_per_s
    metrics["trace.untraced_ops_per_s"] = sp.ops_per_s
    metrics["trace.overhead_x"] = sp.ops_per_s / st.ops_per_s
    metrics.update(detail_metrics(sp))
    for name, unit in per_layer_names():
        print(f"{name:44s} {metrics[name]:.6g} {unit}")
    modules = sum(metrics[f"{m}.self_s"] for m in LAYERS)
    print(f"accounting: modules {modules:.4f} s + bench {metrics['bench.self_s']:.4f} s"
          f" + gap {tm['gap_s']:.4f} s = {modules + metrics['bench.self_s'] + tm['gap_s']:.4f} s"
          f"; traced wall {tm['wall_s']:.4f} s; {tm['spans']} spans in {runner.workload}"
          f" over {count} operations")
    combined = Summary([plain, traced])
    return metrics, combined, plain["notes"] + traced["notes"], dict(per_layer_names())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "quadsum", "__init__.py")):
        sys.stderr.write(f"no quadsum sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    workdir = os.path.join(ROOT, ".perfbench", f"run-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(args.workload, args.seed, workdir)
        print(f"workload {args.workload} seed {args.seed}: {len(runner.jobs)} jobs, "
              f"inputs sha256 {runner.digest}")
        run = run_traced if args.trace else run_untraced
        metrics, counts, notes, units = run(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for note in notes:
        print(f"check failed: {note}")
    correct = counts.failed == 0
    print(json.dumps({"correct": correct, "attempted": counts.attempted,
                      "failed": counts.failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
