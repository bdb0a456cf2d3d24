"""Brute-force ground truth over small finite fields.

Enumerates idempotents, square-zero matrices and their sums by full scan of
the p^(n^2) matrix space, guarded by an explicit budget.  The resulting
atlas is the reference answer set that the structural decision procedure is
compared against, entry by entry, in the headline exhaustive runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParams, BudgetExceeded, InternalCheckFailed
from .field import Field
from .matrix import Matrix
from .sums import decide

#: Full-scan budget: the largest sanctioned scan, GF(2) at n = 4, has 2^16
#: matrices; GF(2) at n = 5 (2^25, about seven hours) is refused.
DEFAULT_BUDGET = 1 << 17


def _require_prime_field(field: Field):
    if field.p is None:
        raise BadParams("oracle enumeration needs a finite field")


def _check_budget(p: int, n: int, budget: int):
    if n < 0:
        raise BadParams(f"matrix size must be non-negative, got {n}")
    # p^(n^2) >= 2^(n^2 (bits(p) - 1)) > budget when the exponent reaches the
    # budget's bit length: refuse on sizes before building a huge power
    if n * n * (p.bit_length() - 1) >= budget.bit_length() or p ** (n * n) > budget:
        raise BudgetExceeded(
            f"scan of {p}^{n * n} matrices exceeds the budget of {budget}")


def _raw_matrices(p: int, n: int):
    """All n x n matrices as flat residue lists, odometer order."""
    size = n * n
    cur = [0] * size
    while True:
        yield cur
        i = 0
        while i < size and cur[i] == p - 1:
            cur[i] = 0
            i += 1
        if i == size:
            return
        cur[i] += 1


def _raw_mul(a, b, p: int, n: int):
    out = [0] * (n * n)
    for i in range(n):
        row = a[i * n : (i + 1) * n]
        for j in range(n):
            out[i * n + j] = sum(row[t] * b[t * n + j] for t in range(n)) % p
    return out


def _gaussian_binomial(n: int, r: int, p: int) -> int:
    num = 1
    den = 1
    for i in range(r):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def idempotent_count(p: int, n: int) -> int:
    """Closed-form count: idempotents of rank r are image/kernel splittings."""
    return sum(_gaussian_binomial(n, r, p) * p ** (r * (n - r)) for r in range(n + 1))


def _raw_idempotents(p: int, n: int, budget: int):
    _check_budget(p, n, budget)
    hits = []
    for a in _raw_matrices(p, n):
        if _raw_mul(a, a, p, n) == a:
            hits.append(tuple(a))
    if len(hits) != idempotent_count(p, n):
        raise InternalCheckFailed("idempotent scan disagrees with the closed-form count")
    return hits


def _raw_square_zero(p: int, n: int, budget: int):
    _check_budget(p, n, budget)
    zero = [0] * (n * n)
    return [tuple(a) for a in _raw_matrices(p, n) if _raw_mul(a, a, p, n) == zero]


@dataclass(frozen=True)
class SumAtlas:
    """The set of all matrices expressible as the requested kind of sum."""

    field: Field
    n: int
    kind: str  # "main" (idempotent + square-zero) or "scaled" (a*P + b*Q)
    members: frozenset  # of flat raw-entry tuples
    first_count: int
    second_count: int

    def contains(self, m: Matrix) -> bool:
        return m._e in self.members

    def __len__(self):
        return len(self.members)


def build_sum_atlas(field: Field, n: int, kind: str = "main",
                    alpha=None, beta=None, budget: int = DEFAULT_BUDGET) -> SumAtlas:
    """Enumerate {P + Q} (main: P idempotent, Q square-zero) or
    {alpha P + beta Q} (scaled: both idempotent)."""
    _require_prime_field(field)
    p = field.p
    if kind == "main":
        first = _raw_idempotents(p, n, budget)
        second = _raw_square_zero(p, n, budget)
        ca = cb = 1
    elif kind == "scaled":
        if alpha is None or beta is None:
            raise BadParams("scaled atlas needs alpha and beta")
        ca = field.element(alpha).v
        cb = field.element(beta).v
        first = _raw_idempotents(p, n, budget)
        second = first
    else:
        raise BadParams(f"unknown atlas kind {kind!r}")
    members = set()
    size = n * n
    for fa in first:
        scaled_a = [ca * v % p for v in fa]
        for fb in second:
            members.add(tuple((scaled_a[i] + cb * fb[i]) % p for i in range(size)))
    return SumAtlas(field, n, kind, frozenset(members), len(first), len(second))


@dataclass(frozen=True)
class ComparisonReport:
    field: Field
    n: int
    total: int
    atlas_size: int
    decide_yes: int
    mismatches: tuple  # of (raw entries, decide answer, atlas answer)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def exhaustive_compare(field: Field, n: int, budget: int = DEFAULT_BUDGET) -> ComparisonReport:
    """Check decide(M) <=> atlas membership over every n x n matrix."""
    _require_prime_field(field)
    p = field.p
    _check_budget(p, n, budget)
    atlas = build_sum_atlas(field, n, "main", budget=budget)
    members = atlas.members
    yes = 0
    mismatches = []
    for raw in _raw_matrices(p, n):
        answer = decide(Matrix._raw(field, n, n, raw)).yes
        if answer:
            yes += 1
        if answer != (tuple(raw) in members):
            mismatches.append((tuple(raw), answer, not answer))
    return ComparisonReport(field, n, p ** (n * n), len(members), yes,
                            tuple(mismatches))


def comparison_to_json(report: ComparisonReport):
    return {
        "field": {"GF": report.field.p},
        "n": report.n,
        "total": report.total,
        "atlas_size": report.atlas_size,
        "decide_yes": report.decide_yes,
        "mismatches": [list(raw) for raw, _, _ in report.mismatches],
        "pass": report.ok,
    }
