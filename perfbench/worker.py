"""One workload phase in a fresh interpreter: set up, run the closed loop, check.

Usage: ``python3 perfbench/worker.py SPEC.json``.  The spec names the checkout
root, the workload, the generated inputs, the order in which to run the first
``len(order)`` of them, and whether to trace.  The result is
written as JSON to ``spec["result"]``.

One caller, no threads: the next operation starts only when the previous one
has returned.  An untraced loop also times a fixed calibration kernel before
its first operation and then every ``CALIBRATE_EVERY_S`` between operations,
so that ``run.py`` can put the loop's timings at a reference machine speed.
Outputs are kept during the loop and checked after it, with the benchmark's
own arithmetic (:mod:`exact`), so checking stays out of the timings.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
import traceback
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import exact  # noqa: E402
import gen  # noqa: E402
from tracer import Tracer  # noqa: E402

#: CLI jobs run a second time after the loop; stdout must repeat byte for byte.
RERUN_SLICE = 6
ATLASES = ((3, 3), (2, 4))
CALIBRATE_EVERY_S = 0.25

_KERNEL_RNG = random.Random(5)
_KERNEL_Q = [Fraction(_KERNEL_RNG.randint(-9, 9), _KERNEL_RNG.randint(1, 9)) for _ in range(64)]
_KERNEL_P = [_KERNEL_RNG.randrange(101) for _ in range(14 * 14)]


def calibrate() -> float:
    """Seconds the calibration kernel takes now: Gauss-Jordan inverses of a
    fixed 8x8 rational and 14x14 GF(101) matrix in the benchmark's own
    arithmetic, about 6 ms.  It shares no code with quadsum, so its time
    tracks only the machine's speed, which on a shared host drifts by up to a
    third for seconds at a time."""
    gc.disable()
    t0 = perf_counter()
    exact.inverse(_KERNEL_Q, 8, None)
    exact.inverse(_KERNEL_P, 14, 101)
    t1 = perf_counter()
    gc.enable()
    return t1 - t0


def _load_quadsum(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import quadsum
    from quadsum import cli, oracle, serialize, sums  # noqa: F401
    if not os.path.abspath(quadsum.__file__).startswith(src + os.sep):
        raise SystemExit(f"quadsum imported from {quadsum.__file__}, not from {src}")
    return quadsum


def _field_p(field_json):
    return None if field_json == "Q" else field_json["GF"]


class Phase:
    def __init__(self, spec, quadsum, tracer):
        self.spec = spec
        self.q = quadsum
        self.tracer = tracer
        self.jobs = []
        self.prepared = []
        self.atlas = {}
        self.order = spec["order"]

    # ---- set-up ------------------------------------------------------

    def setup(self):
        q = self.q
        with open(self.spec["inputs"], encoding="utf-8") as fh:
            self.jobs = json.load(fh)[: len(self.order)]
        fields = {}
        for k, jb in enumerate(self.jobs):
            p = _field_p(jb["field"])
            if p not in fields:
                field = q.QQ if p is None else q.field.GF(p)
                fields[p] = (field, q.sums.QuadParams.of(field))
            field, params = fields[p]
            if jb["kind"] == "cli":
                self.prepared.append(("cli", os.path.join(self.spec["jobs_dir"], f"{k}.json")))
            else:
                m = q.matrix.Matrix.from_rows(field, jb["rows"])
                self.prepared.append((jb["kind"], (m, params)))
        if self.spec["workload"] == "tiny-exhaustive":
            for p, n in ATLASES:
                self.atlas[(p, n)] = q.oracle.build_sum_atlas(q.field.GF(p), n).members

    # ---- the closed loop ---------------------------------------------

    def run_op(self, kind, payload):
        q = self.q
        if kind == "decide":
            return "yes" if q.sums.decide(payload[0]).yes else "no"
        if kind == "construct":
            return q.sums.construct(*payload)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = q.cli.main(["construct", "--input", payload])
        return code, buf.getvalue()

    def loop(self):
        tracer = self.tracer
        latencies, outputs, errors, cal = [], [], {}, []
        t_first = t_cal = t1 = perf_counter()
        for i, j in enumerate(self.order):
            if tracer is None and (not cal or t1 - t_cal >= CALIBRATE_EVERY_S):
                cal.append(calibrate())
                t_cal = perf_counter()
                t_first += t_cal - t1  # calibration is not loop time
            kind, payload = self.prepared[j]
            t0 = perf_counter()
            try:
                if tracer is not None:
                    tracer.op_id = i
                    with tracer.span("bench.op"):
                        out = self.run_op(kind, payload)
                else:
                    out = self.run_op(kind, payload)
                t1 = perf_counter()
                latencies.append(t1 - t0)
            except Exception:  # a failed operation: recorded and counted
                t1 = perf_counter()
                out = None
                latencies.append(float("inf"))
                errors[i] = traceback.format_exc()
            outputs.append(out)
        return latencies, outputs, errors, t1 - t_first, cal

    # ---- independent checks ------------------------------------------

    def check(self, outputs, errors):
        """Return (failed op indices, cert digit max, cert JSON bytes, notes)."""
        q = self.q
        frozen = _frozen()
        failed = set(errors)
        notes = [errors[i].strip().splitlines()[-1] for i in sorted(errors)[:3]]
        max_digits = 0
        json_bytes = 0
        atlas_ok = {}
        for key, members in self.atlas.items():
            want = frozen["atlas"][f"GF{key[0]}n{key[1]}"]
            atlas_ok[key] = (len(members) == want["size"]
                             and _atlas_digest(members) == want["digest"])
            if not atlas_ok[key]:
                notes.append(f"atlas GF({key[0]}) n={key[1]} differs from the frozen atlas")
        n_jobs = len(self.jobs)
        for i, out in enumerate(outputs):
            if out is None:
                continue
            jb = self.jobs[self.order[i]]
            p = _field_p(jb["field"])
            n = len(jb["rows"])
            m = [exact.parse(p, x) for row in jb["rows"] for x in row]
            ok = True
            if jb["source"] in ("all", "sample"):
                key = (p, n)
                member = tuple(m) in self.atlas[key]
                ok = atlas_ok[key] and out == ("yes" if member else "no")
            elif jb["source"] == "pool":
                ok = out == frozen[self.spec["workload"]].get(gen.job_key(jb))
            elif jb["kind"] == "construct":
                a = [str(x) for row in out.a_part.to_rows() for x in row]
                b = [str(x) for row in out.b_part.to_rows() for x in row]
                ok = _cert_ok(p, n, m, a, b)
                if ok:
                    json_bytes += len(q.serialize.dumps(q.serialize.certificate_to_json(out)))
                    max_digits = max(max_digits, _digits(p, a + b))
            else:  # cli
                code, text = out
                ok = code == 0
                if ok:
                    json_bytes += len(text)
                    try:
                        cert = json.loads(text)
                    except ValueError:
                        cert = {}
                    ok = cert.get("decision") == "yes" and "A" in cert
                if ok:
                    a = [x for row in cert["A"]["entries"] for x in row]
                    b = [x for row in cert["B"]["entries"] for x in row]
                    ok = _cert_ok(p, n, m, a, b)
                    max_digits = max(max_digits, _digits(p, a + b))
            if not ok:
                failed.add(i)
                if len(notes) < 6:
                    notes.append(f"op {i}: {jb['kind']} {jb['source']} over {jb['field']} "
                                 f"n={n} gave a wrong or unchecked answer")
        if self.spec["workload"] == "roundtrip-small":
            for k in range(min(RERUN_SLICE, n_jobs)):
                job = self.prepared[self.order[k]]
                first = outputs[k] if k < len(outputs) else self.run_op(*job)
                if self.run_op(*job) != first:
                    failed.add(k)
                    notes.append(f"CLI job {self.order[k]}: stdout differs "
                                 "between two runs")
        return failed, max_digits, json_bytes, notes


def _cert_ok(p, n, m, a_text, b_text) -> bool:
    a = [exact.parse(p, x) for x in a_text]
    b = [exact.parse(p, x) for x in b_text]
    return (len(a) == len(b) == n * n) and exact.is_idempotent_plus_square_zero(m, a, b, n, p)


def _digits(p, texts) -> int:
    if p is not None:
        return 0
    return max((len(part.lstrip("-")) for x in texts for part in x.split("/")), default=0)


def _atlas_digest(members) -> str:
    return hashlib.sha256(json.dumps(sorted(members)).encode()).hexdigest()


def _frozen():
    with open(os.path.join(HERE, "frozen.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    quadsum = _load_quadsum(spec["root"])
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    phase = Phase(spec, quadsum, tracer)
    with tracer.span("bench.setup") if tracer is not None else contextlib.nullcontext():
        phase.setup()
    t_ready = time.monotonic()
    latencies, outputs, errors, elapsed, cal = phase.loop()
    if tracer is not None:
        tracer.uninstall()
    failed, max_digits, json_bytes, notes = phase.check(outputs, errors)
    n_jobs = len(phase.prepared)
    result = {
        "t_ready": t_ready,
        "latencies": latencies,
        "kinds": [phase.prepared[j][0] for j in phase.order],
        "failed": sorted(failed),
        "elapsed_s": elapsed,
        "cert_max_digits": max_digits,
        "cert_json_bytes": json_bytes,
        "notes": notes,
        "calibration_s": cal,
    }
    if tracer is not None:
        result["trace"] = tracer.metrics()
        tracer.dump(spec["spans"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
