"""Same-output check: quadsum's output bytes against a recorded manifest.

Usage::

    PYTHONPATH=src python tests/outputs.py --write   # record tests/data/outputs.json
    PYTHONPATH=src python tests/outputs.py --check   # compare, list every difference

The manifest holds, for each unique seed-1 job of the benchmark workloads in
``WORKLOADS`` (inputs from ``perfbench/gen.py``, keyed by ``gen.job_key``),
the digest of (exit code, stdout, stderr) of the in-process ``quadsum
decide`` and ``quadsum construct`` commands on it, with default params.  It
also holds digests of the Frobenius form F and witness T of seeded
``rand_matrix`` and ``rand_decomposable`` inputs, and of the certificate's A
for the latter, over the primes ``LARGE_PRIMES`` at n = ``WIDE_SIZES``: the
kernels of 2^61 - 1 keep list rows at every size, and those of conftest's
``WORD_PRIME`` 797555399 pack up to n = 29 and keep list rows at n = 30.  It
holds the digests of ``decide``, ``construct`` and ``classify`` on the small
jobs of ``HAND_JOBS``, whose params reach every case of the classification,
a shift, a quadratic that does not split and params the reader refuses.
Last, it holds the digests of (F, T) of every unique seed-1 job of ``TINY``
(each 3x3 matrix over GF(3) and the 4x4 sample over GF(2)), in buckets, and of
C(t^2 - t - 1)^(+k) conjugated over GF(101) for k in ``COMPANION_COPIES``,
whose k equal invariant factors make k levels of the decomposition.  The
``edges`` section holds the digests of the boundary code: ``quadsum
oracle`` on ``ORACLE_RUNS``, ``quadsum verify`` on the certificate of every
hand-made job that constructs one, and the sorted members of the main
atlases ``MAIN_ATLASES`` and of the scaled atlases of GF(3), alpha = 1 and
beta = 2, at n in ``SCALED_SIZES``, and ``quadsum necessary`` on
``NECESSARY_RUNS``.

``--write`` also records a fixed slice of the jobs, with their inputs, in
``tests/data/outputs_slice.json``; ``test_outputs.py`` checks that slice in
tier-1, so a later change to ``gen.py`` cannot break the test.  ``--check``
exits 1 when any entry differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "perfbench")]

import gen  # noqa: E402
from conftest import conjugated_companions, rand_decomposable, rand_matrix  # noqa: E402
from quadsum import cli, oracle  # noqa: E402
from quadsum.matrix import Matrix  # noqa: E402
from quadsum.canonical import invariant_factors_with_transform  # noqa: E402
from quadsum.field import GF  # noqa: E402
from quadsum.sums import QuadParams, construct  # noqa: E402

MANIFEST = os.path.join(HERE, "data", "outputs.json")
SLICE = os.path.join(HERE, "data", "outputs_slice.json")
WORKLOADS = ("roundtrip-small", "qq-growth", "gfp-mid")
COMMANDS = ("decide", "construct")
PARAMS = {"a": "1", "b": "0", "c": "0", "d": "0"}
_Q3 = [["2", "1", "0"], ["0", "1", "0"], ["1", "0", "3"]]
_GF5 = [["1", "2", "3"], ["4", "0", "1"], ["2", "2", "2"]]
_NILPOTENT = [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]]
#: name -> small job with its own params, run through decide, construct and classify.
HAND_JOBS = {
    "case I": {"field": "Q", "rows": _Q3, "params": {"a": "1", "b": "0", "c": "1", "d": "0"}},
    "case II": {"field": "Q", "rows": _Q3, "params": {"a": "0", "b": "0", "c": "0", "d": "0"}},
    "case III swapped": {"field": "Q", "rows": [["1", "0"], ["0", "0"]],
                         "params": {"a": "0", "b": "0", "c": "1", "d": "0"}},
    "case III shifted": {"field": "Q", "rows": [["3", "0", "0"], ["0", "2", "0"], ["0", "1", "2"]],
                         "params": {"a": "3", "b": "-2", "c": "2", "d": "-1"}},
    "case III shifted GF(5)": {"field": {"GF": 5},
                               "rows": [["1", "0", "0"], ["0", "4", "0"], ["0", "1", "4"]],
                               "params": {"a": "1", "b": "2", "c": "4", "d": "1"}},
    "case III no": {"field": "Q", "rows": _NILPOTENT, "params": PARAMS},
    "first not split": {"field": "Q", "rows": _Q3, "params": {"a": "0", "b": "-1"}},
    "second not split": {"field": "Q", "rows": _Q3, "params": {"d": "2"}},
    "both not split": {"field": {"GF": 5}, "rows": _GF5,
                       "params": {"a": "0", "b": "2", "c": "0", "d": "3"}},
    "bad param": {"field": "Q", "rows": _Q3, "params": {"b": "x"}},
    "two bad params": {"field": "Q", "rows": _Q3, "params": {"d": "y", "b": [1]}},
    "bad param key": {"field": "Q", "rows": _Q3, "params": {"e": "1"}},
    "null params": {"field": {"GF": 5}, "rows": _GF5, "params": None},
    "some params": {"field": {"GF": 5}, "rows": _GF5, "params": {"c": "0", "a": "1"}},
}
LARGE_PRIMES = (2 ** 61 - 1, 797555399)
WIDE_SIZES = range(10, 31)
TINY = "tiny-exhaustive"
COMPANION_COPIES = range(1, 33)
#: (field, n) of the ``quadsum oracle`` runs: each size that GF(2) and GF(3)
#: scan in seconds, and GF(5) at n = 4, which the budget refuses.
ORACLE_RUNS = [("gf2", n) for n in range(4)] + [("gf3", n) for n in range(3)] + [("gf5", 4)]
MAIN_ATLASES = ((3, 3), (2, 4))
SCALED_SIZES = range(4)
_DIAG_1_2 = {"field": "Q", "rows": [["1", "0"], ["0", "2"]]}
#: name -> (job, alpha, beta) of the ``quadsum necessary`` runs: one per
#: status of the report, and the refusal of alpha = beta.
NECESSARY_RUNS = {
    "inconclusive": (_DIAG_1_2, "1", "2"),
    "no": ({"field": {"GF": 3}, "rows": [["1", "0"], ["1", "1"]]}, "1", "2"),
    "not_applicable": ({"field": "Q", "rows": [["5"]]}, "1", "2"),
    "alpha = beta": (_DIAG_1_2, "1", "1"),
}
SECTIONS = ("jobs", "wide", "hand", "tiny", "companions", "edges")
#: Jobs of the tier-1 slice per (workload, field, size): a block's worth of
#: each workload's smallest size (on qq-growth and gfp-mid, every planted
#: shape and the pool jobs of the first block), so the slice runs in seconds.
SLICE_TAKE = {"roundtrip-small": 8, "qq-growth": 5, "gfp-mid": 8}
SLICE_SIZES = {"roundtrip-small": range(1, 9), "qq-growth": (7,), "gfp-mid": (16,)}


def digest(obj) -> str:
    """The first 16 hex digits of the SHA-256 of ``obj`` as compact JSON."""
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_cli(argv) -> str:
    """Digest of (exit code, stdout, stderr) of the in-process ``quadsum ARGV``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return digest([code, out.getvalue(), err.getvalue()])


def write_job(job, path: str) -> str:
    """Write a job to ``path`` as a job file, with its own params if it has
    them, else the default ones."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"field": job["field"], "matrix": job["rows"],
                   "params": job.get("params", PARAMS)}, fh)
    return path


def run_command(command: str, job, tmpdir: str) -> str:
    """Digest of (exit code, stdout, stderr) of ``quadsum COMMAND`` on a job."""
    return run_cli([command, "--input", write_job(job, os.path.join(tmpdir, "job.json"))])


def job_outputs(job, tmpdir: str):
    """Digests of decide and construct on a job, and of classify on a job
    with its own params."""
    commands = COMMANDS + ("classify",) if "params" in job else COMMANDS
    return {command: run_command(command, job, tmpdir) for command in commands}


def unique_jobs():
    """(workload, job) of every unique seed-1 job, first occurrence first."""
    seen = set()
    for name in WORKLOADS:
        for job in gen.generate(name, 1):
            key = gen.job_key(job)
            if key not in seen:
                seen.add(key)
                yield name, job


def _frobenius(m):
    factors, witness = invariant_factors_with_transform(m)
    return ([[str(c) for c in f.coeffs] for f in factors],
            [[str(x) for x in row] for row in witness.raw_rows()])


def wide_outputs():
    """Digests of (F, T) of a random matrix and of (F, T) and A of a
    decomposable one, per wide prime and size."""
    out = {}
    for p in LARGE_PRIMES:
        field = GF(p)
        for n in WIDE_SIZES:
            rng = random.Random(f"outputs/{p}/{n}")
            m = rand_matrix(field, n, rng)
            d = rand_decomposable(field, n, rng)
            cert = construct(d, QuadParams.of(field))
            out[f"GF({p}) n={n}"] = {"random F,T": digest(_frobenius(m)),
                                     "decomposable F,T": digest(_frobenius(d)),
                                     "decomposable A": digest(
                                         [[str(x) for x in row] for row in cert.a_part.raw_rows()])}
    return out


def tiny_outputs():
    """Digest of the (F, T) of every unique seed-1 job of ``TINY``, in
    buckets by the first two hex digits of ``gen.job_key``: 256 entries of
    about 93 matrices each, in key order, rather than 23779 entries."""
    buckets = {}
    for job in gen.generate(TINY, 1):
        key = gen.job_key(job)
        buckets.setdefault(key[:2], {})[key] = job
    return {prefix: {"F,T": digest([_frobenius(Matrix.from_rows(
        GF(job["field"]["GF"]), [[int(x) for x in row] for row in job["rows"]]))
        for _, job in sorted(jobs.items())])} for prefix, jobs in sorted(buckets.items())}


def companion_outputs():
    """Digest of (F, T) of C(t^2 - t - 1)^(+k) conjugated over GF(101)."""
    field = GF(101)
    return {f"k={k}": {"F,T": digest(_frobenius(conjugated_companions(
        field, [-1, -1, 1], k, random.Random(f"outputs/companions/{k}"))))}
        for k in COMPANION_COPIES}


def edge_outputs(tmpdir: str):
    """Digests of the oracle runs, of ``verify`` on each hand-made
    certificate, of the atlas members and of the ``necessary`` runs."""
    edges = {f"oracle {field} n={n}": {"run": run_cli(["oracle", "--field", field, "--n", str(n)])}
             for field, n in ORACLE_RUNS}
    for k, (name, job) in enumerate(HAND_JOBS.items()):
        path = write_job(job, os.path.join(tmpdir, f"hand{k}.json"))
        cert = os.path.join(tmpdir, f"cert{k}.json")
        run_cli(["construct", "--input", path, "--output", cert])
        if os.path.exists(cert):
            with open(cert, encoding="utf-8") as fh:
                if "A" not in json.load(fh):  # a decision "no"
                    continue
            edges[f"verify {name}"] = {"run": run_cli(["verify", "--input", path, "--cert", cert])}
    for p, n in MAIN_ATLASES:
        edges[f"atlas GF({p}) n={n}"] = {
            "members": digest(sorted(oracle.build_sum_atlas(GF(p), n).members))}
    for n in SCALED_SIZES:
        edges[f"scaled atlas GF(3) n={n}"] = {"members": digest(sorted(
            oracle.build_sum_atlas(GF(3), n, alpha=1, beta=2).members))}
    for name, (job, alpha, beta) in NECESSARY_RUNS.items():
        path = write_job(job, os.path.join(tmpdir, "necessary.json"))
        edges[f"necessary {name}"] = {
            "run": run_cli(["necessary", "--input", path, "--alpha", alpha, "--beta", beta])}
    return edges


def pick_slice(jobs):
    """The tier-1 slice: the first ``SLICE_TAKE`` jobs of each workload,
    field and size in ``SLICE_SIZES``."""
    taken = Counter()
    picked = []
    for name, job in jobs:
        group = (name, json.dumps(job["field"]), len(job["rows"]))
        if len(job["rows"]) in SLICE_SIZES[name] and taken[group] < SLICE_TAKE[name]:
            taken[group] += 1
            picked.append((name, job))
    return picked


def compute():
    jobs = list(unique_jobs())
    with tempfile.TemporaryDirectory() as tmpdir:
        outputs = {gen.job_key(job): job_outputs(job, tmpdir) for _, job in jobs}
        hand = {name: job_outputs(job, tmpdir) for name, job in HAND_JOBS.items()}
        edges = edge_outputs(tmpdir)
    manifest = {"jobs": outputs, "wide": wide_outputs(), "hand": hand,
                "tiny": tiny_outputs(), "companions": companion_outputs(), "edges": edges}
    sliced = [{"workload": name, "field": job["field"], "rows": job["rows"],
               **outputs[gen.job_key(job)]} for name, job in pick_slice(jobs)]
    sliced += [{"workload": "hand-made", **job, **hand[name]} for name, job in HAND_JOBS.items()]
    return manifest, sliced


def differences(recorded, now):
    """Every (section, key, what) whose recorded digest differs or is missing."""
    found = []
    for section in SECTIONS:
        old_section, new_section = recorded.get(section, {}), now.get(section, {})
        for key in sorted(set(old_section) | set(new_section)):
            old, new = old_section.get(key, {}), new_section.get(key, {})
            found += [(section, key, what) for what in sorted(set(old) | set(new))
                      if old.get(what) != new.get(what)]
    return found


def summary(manifest) -> str:
    return (f"{len(manifest['jobs'])} jobs, {len(manifest['wide'])} wide inputs, "
            f"{len(manifest['hand'])} hand-made jobs, {len(manifest['tiny'])} buckets of {TINY} "
            f"matrices, {len(manifest['companions'])} companion sums "
            f"and {len(manifest['edges'])} edge outputs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record the manifest and the slice")
    mode.add_argument("--check", action="store_true", help="compare with the manifest")
    args = parser.parse_args(argv)
    manifest, sliced = compute()
    if args.write:
        for path, obj in ((MANIFEST, manifest), (SLICE, sliced)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh, indent=0, sort_keys=True)
                fh.write("\n")
        print(f"recorded {summary(manifest)} and a slice of {len(sliced)} jobs")
        return 0
    with open(MANIFEST, encoding="utf-8") as fh:
        found = differences(json.load(fh), manifest)
    for section, key, what in found:
        print(f"differs: {section} {key} {what}")
    print(f"{len(found)} differences over {summary(manifest)}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
