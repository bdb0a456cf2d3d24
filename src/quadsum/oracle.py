"""Brute-force ground truth over small finite fields.

Enumerates idempotents, square-zero matrices and their sums by one full scan
of the p^(n^2) matrix space, guarded by a fixed budget: each matrix is
squared once, and the square sorts it into the idempotents (square equal to
the matrix), the square-zero matrices (square zero), both (the zero matrix)
or neither.  The idempotents are checked against their closed-form count,
with a product of its own that shares no kernel with :mod:`quadsum.matrix`.
The resulting atlas is the reference answer set that the structural decision procedure is
compared against, entry by entry, in the headline exhaustive runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import mul

from .errors import BadParams, BudgetExceeded, InternalCheckFailed
from .field import Field
from .matrix import Matrix
from .sums import _is_int, decide

#: Full-scan budget: the largest sanctioned scan, GF(2) at n = 4, has 2^16
#: matrices; GF(2) at n = 5 (2^25, about seven hours) is refused.
_BUDGET = 1 << 17


def _raw_matrices(p: int, n: int):
    """All n x n matrices as flat residue tuples, odometer order: the first
    entry turns fastest."""
    return (raw[::-1] for raw in itertools.product(range(p), repeat=n * n))


def _raw_mul(a, b, p: int, n: int):
    columns = [b[j::n] for j in range(n)]
    return [sum(map(mul, a[i * n:(i + 1) * n], col)) % p for i in range(n) for col in columns]


def _gaussian_binomial(n: int, r: int, p: int) -> int:
    return (math.prod(p ** (n - i) - 1 for i in range(r))
            // math.prod(p ** (i + 1) - 1 for i in range(r)))


def idempotent_count(p: int, n: int) -> int:
    """Closed-form count: idempotents of rank r are image/kernel splittings."""
    return sum(_gaussian_binomial(n, r, p) * p ** (r * (n - r)) for r in range(n + 1))


def _raw_squares(p: int, n: int):
    """(idempotents, square-zero matrices) of the n x n space, in odometer
    order, from one scan that squares each matrix once; the zero matrix is
    in both.  A scan of more than ``_BUDGET`` matrices is refused."""
    if not _is_int(n) or n < 0:
        raise BadParams(f"matrix size must be a non-negative int, got {n!r}")
    # p^(n^2) >= 2^(n^2 (bits(p) - 1)) > budget when the exponent reaches the
    # budget's bit length: refuse on sizes before building a huge power.  The
    # message writes n^2 out only for n below the budget: a larger n is named
    # by its bit length, as its square may have more digits than str() writes
    if n * n * (p.bit_length() - 1) >= _BUDGET.bit_length() or p ** (n * n) > _BUDGET:
        scan = (f"{p}^{n * n} matrices" if n < _BUDGET
                else f"{p}^(n^2) matrices for an n of {n.bit_length()} bits")
        raise BudgetExceeded(f"scan of {scan} exceeds the budget of {_BUDGET}")
    idempotents, square_zero = [], []
    for a in _raw_matrices(p, n):
        sq = tuple(_raw_mul(a, a, p, n))
        if sq == a:
            idempotents.append(a)
        if not any(sq):
            square_zero.append(a)
    if len(idempotents) != idempotent_count(p, n):
        raise InternalCheckFailed("idempotent scan disagrees with the closed-form count")
    return idempotents, square_zero


@dataclass(frozen=True)
class SumAtlas:
    """The set of all matrices expressible as the requested kind of sum."""

    field: Field
    n: int
    members: frozenset  # of flat raw-entry tuples

    def contains(self, m: Matrix) -> bool:
        return m.field == self.field and m.rows == m.cols == self.n and m._e in self.members

    def __len__(self):
        return len(self.members)


def build_sum_atlas(field: Field, n: int, alpha=None, beta=None) -> SumAtlas:
    """Enumerate the main atlas {P + Q} (P idempotent, Q square-zero), or,
    when alpha and beta are given, the scaled atlas {alpha P + beta Q} (both
    idempotent)."""
    p = field.p
    if p is None:
        raise BadParams("oracle enumeration needs a finite field")
    if (alpha is None) != (beta is None):
        raise BadParams("scaled atlas needs alpha and beta")
    scaled = alpha is not None
    ca, cb = (field.value(alpha), field.value(beta)) if scaled else (1, 1)
    idempotents, square_zero = _raw_squares(p, n)
    second = idempotents if scaled else square_zero
    members = set()
    size = n * n
    for fa in idempotents:
        scaled_a = [ca * v % p for v in fa]
        for fb in second:
            members.add(tuple((scaled_a[i] + cb * fb[i]) % p for i in range(size)))
    return SumAtlas(field, n, frozenset(members))


@dataclass(frozen=True)
class ComparisonReport:
    field: Field
    n: int
    total: int
    atlas_size: int
    decide_yes: int
    mismatches: tuple  # of (raw entries, decide answer); the atlas says the opposite

    @property
    def ok(self) -> bool:
        return not self.mismatches


def exhaustive_compare(field: Field, n: int) -> ComparisonReport:
    """Check decide(M) <=> atlas membership over every n x n matrix."""
    members = build_sum_atlas(field, n).members
    p = field.p
    yes = 0
    mismatches = []
    for raw in _raw_matrices(p, n):
        answer = decide(Matrix._raw(field, n, n, raw)).yes
        if answer:
            yes += 1
        if answer != (raw in members):
            mismatches.append((raw, answer))
    return ComparisonReport(field, n, p ** (n * n), len(members), yes,
                            tuple(mismatches))


def comparison_to_json(report: ComparisonReport):
    return {
        "field": {"GF": report.field.p},
        "n": report.n,
        "total": report.total,
        "atlas_size": report.atlas_size,
        "decide_yes": report.decide_yes,
        "mismatches": [list(raw) for raw, _ in report.mismatches],
        "pass": report.ok,
    }
