"""Write ``frozen.json``: the answers the benchmark's gate compares against.

    python3 perfbench/freeze.py

It records, from the quadsum sources of the checkout it runs in, the decide
answer for every input of the fixed random pools and the size and digest of
the two oracle atlases.  Run it only to re-freeze on purpose; a benchmark run
never writes this file.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gen  # noqa: E402
from worker import ATLASES, _atlas_digest  # noqa: E402


def main():
    from quadsum import GF, QQ, Matrix, decide
    from quadsum.oracle import build_sum_atlas

    frozen = {"atlas": {}}
    for p, n in ATLASES:
        members = build_sum_atlas(GF(p), n).members
        frozen["atlas"][f"GF{p}n{n}"] = {"size": len(members), "digest": _atlas_digest(members)}
    for name in gen.POOL_SIZE:
        answers = {}
        for jb in gen.random_pool(name):
            field = QQ if jb["field"] == "Q" else GF(jb["field"]["GF"])
            answers[gen.job_key(jb)] = "yes" if decide(Matrix.from_rows(field, jb["rows"])).yes else "no"
        frozen[name] = answers
    with open(os.path.join(HERE, "frozen.json"), "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
