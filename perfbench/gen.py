"""Seeded input generation for the four workloads.

Everything here uses :mod:`exact` arithmetic and :class:`random.Random`, so a
seed yields byte-identical jobs on every commit and generation stays out of
the timings.  A job is a dict::

    {"field": "Q" | {"GF": p}, "rows": [[str]], "kind": "decide" | "construct" | "cli",
     "source": "all" | "sample" | "planted" | "pool"}

``source`` selects the independent check: atlas membership for the exhaustive
("all") and sampled jobs, a verified YES certificate for planted jobs, and the
answer frozen in ``frozen.json`` for pool jobs.
"""

from __future__ import annotations

import hashlib
import json
import random

import exact

#: Seed of the fixed corpora of qq-growth and gfp-mid: uniform random inputs,
#: whose answers are frozen once, and planted inputs, CORPUS_PER_SIZE per size.
#: Their cost varies a lot from one matrix to the next (n = 11 construct over
#: Q: 180-490 ms), so a run takes whole blocks of the corpora, the same
#: multiset of matrices for every seed; the seed orders each block.
POOL_SEED = 20111109
POOL_SIZE = {"qq-growth": 48, "gfp-mid": 96}
CORPUS_PER_SIZE = 16
#: Random pool inputs per size in one block; every block also holds one
#: planted input per size and shape.
RANDOM_PER_SIZE = {"qq-growth": 1, "gfp-mid": 4}
#: Blocks generated.  An untraced --seconds 20 run takes the first block on
#: qq-growth and gfp-mid, a traced one the first two; blocks after the fourth
#: repeat matrices.
BLOCKS = 8

#: Size schedules: each workload cycles through its sizes in a fixed order,
#: so every seed has the same size mix and only the entries change.
QQ_SIZES = (7, 8, 9, 10, 11)
GFP_SIZES = ((5, 16), (101, 16), (5, 20), (101, 20), (5, 24), (101, 24))
ROUNDTRIP_FIELDS = (None, 2, 5)
GF2_SAMPLE = 4096


def field_json(p):
    return "Q" if p is None else {"GF": p}


def job(p, n, flat, kind, source):
    return {"field": field_json(p),
            "rows": [[exact.render(p, flat[i * n + j]) for j in range(n)] for i in range(n)],
            "kind": kind, "source": source}


def job_key(jb) -> str:
    """Stable digest of a job's field and matrix."""
    text = json.dumps([jb["field"], jb["rows"]], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def inputs_digest(jobs) -> str:
    text = json.dumps(jobs, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ---- planted instances -----------------------------------------------

def _conjugate_unimodular(x, n: int, rng, steps: int):
    """T X T^-1 for T a product of random transvections I + c e_i e_j^T
    with c = +-1: an integer conjugation that keeps entries small."""
    x = list(x)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        for k in range(n):  # row_i += c row_j
            x[i * n + k] += c * x[j * n + k]
        for k in range(n):  # col_j -= c col_i
            x[k * n + j] -= c * x[k * n + i]
    return x


def _conjugate_modp(x, n: int, p: int, rng):
    while True:
        t = [rng.randrange(p) for _ in range(n * n)]
        t_inv = exact.inverse(t, n, p)
        if t_inv is not None:
            return exact.mul(exact.mul(t, x, n, p), t_inv, n, p)


#: (rank of the idempotent, 2x2 blocks of the square-zero part) as shares of
#: n / 4 and (n // 2) / 2; planted jobs cycle through them in order.
SHAPES = ((1, 1), (2, 1), (3, 2), (2, 2))


def planted(p, n: int, rng, shape: int):
    """A random conjugate of an idempotent plus a random conjugate of a
    square-zero matrix: a YES instance by construction.  The two ranks come
    from ``SHAPES[shape]``, so the structure mix does not depend on the seed."""
    a_share, b_share = SHAPES[shape % len(SHAPES)]
    r = n * a_share // 4
    k = (n // 2) * b_share // 2
    idem = [int(i == j and i < r) for i in range(n) for j in range(n)]
    sqz = [int(i == j + 1 and j % 2 == 0 and j < 2 * k) for i in range(n) for j in range(n)]
    if p is None:
        a = _conjugate_unimodular(idem, n, rng, 2 * n)
        b = _conjugate_unimodular(sqz, n, rng, 2 * n)
    else:
        a = _conjugate_modp(idem, n, p, rng)
        b = _conjugate_modp(sqz, n, p, rng)
    return exact.add(a, b, p)


def uniform(p, n: int, rng):
    if p is None:
        return [rng.randint(-3, 3) for _ in range(n * n)]
    return [rng.randrange(p) for _ in range(n * n)]


# ---- workloads -------------------------------------------------------

def _odometer(p: int, n: int):
    size = n * n
    for idx in range(p ** size):
        flat = []
        for _ in range(size):
            flat.append(idx % p)
            idx //= p
        yield flat


def tiny_exhaustive(rng):
    jobs = [job(3, 3, flat, "decide", "all") for flat in _odometer(3, 3)]
    for idx in rng.sample(range(2 ** 16), GF2_SAMPLE):
        flat = [(idx >> b) & 1 for b in range(16)]
        jobs.append(job(2, 4, flat, "decide", "sample"))
    rng.shuffle(jobs)
    return jobs


def roundtrip_small(rng, count: int = 3000):
    jobs = []
    for i in range(count):
        p = ROUNDTRIP_FIELDS[i % len(ROUNDTRIP_FIELDS)]
        n = 1 + (i // len(ROUNDTRIP_FIELDS)) % 8
        shape = i // (len(ROUNDTRIP_FIELDS) * 8)
        jobs.append(job(p, n, planted(p, n, rng, shape), "cli", "planted"))
    return jobs


def random_pool(name: str):
    """The fixed pool of uniform random inputs of a workload."""
    rng = random.Random(f"{name}/pool/{POOL_SEED}")
    jobs = []
    for i in range(POOL_SIZE[name]):
        if name == "qq-growth":
            p, n = None, QQ_SIZES[i % len(QQ_SIZES)]
        else:
            p, n = GFP_SIZES[i % len(GFP_SIZES)]
        jobs.append(job(p, n, uniform(p, n, rng), "decide", "pool"))
    return jobs


def _blocks(name: str, rng, sizes):
    """Planted YES jobs through construct and pool jobs through decide, in
    blocks: per size, one planted job of each shape and RANDOM_PER_SIZE[name]
    pool jobs.  Block b takes the b-th planted matrix of each size and shape
    and the b-th group of pool matrices of each size; the seed only shuffles
    the jobs within each block."""
    corpus_rng = random.Random(f"{name}/corpus/{POOL_SEED}")
    corpus = {size: [job(*size, planted(*size, corpus_rng, k), "construct", "planted")
                     for k in range(CORPUS_PER_SIZE)]
              for size in sizes}
    pool = random_pool(name)
    by_size = [pool[s::len(sizes)] for s in range(len(sizes))]
    per_size = RANDOM_PER_SIZE[name]
    jobs = []
    for b in range(BLOCKS):
        block = []
        for s, size in enumerate(sizes):
            block += [corpus[size][(b * len(SHAPES) + k) % CORPUS_PER_SIZE]
                      for k in range(len(SHAPES))]
            block += [by_size[s][(b * per_size + r) % len(by_size[s])] for r in range(per_size)]
        rng.shuffle(block)
        jobs += block
    return jobs


def qq_growth(rng):
    return _blocks("qq-growth", rng, [(None, n) for n in QQ_SIZES])


def gfp_mid(rng):
    return _blocks("gfp-mid", rng, GFP_SIZES)


WORKLOADS = {
    "tiny-exhaustive": tiny_exhaustive,
    "roundtrip-small": roundtrip_small,
    "qq-growth": qq_growth,
    "gfp-mid": gfp_mid,
}

#: Jobs per block: a run takes a whole number of blocks.  A block of
#: roundtrip-small holds every field and size once; tiny-exhaustive is shuffled
#: as a whole and has blocks of one job.
BLOCK = {
    "tiny-exhaustive": 1,
    "roundtrip-small": len(ROUNDTRIP_FIELDS) * 8,
    "qq-growth": len(QQ_SIZES) * (len(SHAPES) + RANDOM_PER_SIZE["qq-growth"]),
    "gfp-mid": len(GFP_SIZES) * (len(SHAPES) + RANDOM_PER_SIZE["gfp-mid"]),
}


def generate(name: str, seed: int):
    return WORKLOADS[name](random.Random(f"{name}/{seed}"))
