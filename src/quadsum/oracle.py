"""Brute-force ground truth over small finite fields.

Enumerates idempotents, square-zero matrices and their sums by one full scan
of the p^(n^2) matrix space, guarded by a fixed budget.  A set of matrices
is one mask over the scan index: the idx-th matrix has base-p digit t of idx
as entry t.  The scan holds the space as bit planes: bit k of entry t is one
mask whose bit idx is bit k of entry t of the idx-th matrix.  Ripple-carry
adds, shift-and-add products and conditional subtractions of p 2^j square
every matrix at once, and two masks keep the indices whose square equals the
matrix (idempotent) or is zero (square-zero).  Both lists are checked against
their closed-form counts.  The sums X + R over a first set X are the first
set's mask translated by R: adding v to entry t mod p moves each index up by
v p^t, or down by (p - v) p^t where the digit wraps past p - 1, and the atlas
is the union of the translates over the second set.  All of this arithmetic
is the oracle's own and shares no kernel with :mod:`quadsum.matrix`.  The
resulting atlas is the reference answer set that the structural decision
procedure is compared against, entry by entry, in the headline exhaustive
runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import BadParams, BudgetExceeded, InternalCheckFailed
from .field import Field
from .matrix import Matrix
from .sums import _is_int, decide

#: Full-scan budget: the largest sanctioned scan, GF(2) at n = 4, has 2^16
#: matrices; GF(2) at n = 5, with 2^9 times as many, is refused.
_BUDGET = 1 << 17


def _raw_matrices(p: int, n: int):
    """All n x n matrices as flat residue tuples, odometer order: the first
    entry turns fastest."""
    return (raw[::-1] for raw in itertools.product(range(p), repeat=n * n))


def _repeat(x: int, period: int, total: int) -> int:
    """The first ``total`` bits of the pattern x, period bits long, repeated
    by doubling."""
    while period < total:
        x |= x << period
        period <<= 1
    return x & ((1 << total) - 1)


def _planes(p: int, n: int):
    """The n x n space as bit planes: per entry t, per bit k of a residue,
    the mask of the scan indices whose base-p digit t has bit k set.  Digit t
    holds v for a run of p^t indices, and bit k of v alternates in runs of
    2^k values, so a plane is p^t 2^k zeros then as many ones, repeated to a
    digit's period p^(t+1), then to the whole space."""
    size = p ** (n * n)
    return [[_repeat(_repeat(((1 << (run << k)) - 1) << (run << k), run << (k + 1), run * p),
                     run * p, size)
             for k in range((p - 1).bit_length())]
            for run in (p ** t for t in range(n * n))]


def _add(x, y):
    """Ripple-carry sum of two plane lists, lowest bit first."""
    out, carry = [], 0
    for u, v in itertools.zip_longest(x, y, fillvalue=0):
        out.append(u ^ v ^ carry)
        carry = (u & v) | (carry & (u ^ v))
    return out + [carry] if carry else out


def _mod(x, p: int, full: int):
    """The plane list x reduced mod p: from the highest j down to 0, p 2^j
    is subtracted where it fits, with ``full`` the mask of every index."""
    for j in range(len(x) - p.bit_length(), -1, -1):
        diff, borrow = [], 0
        for i, u in enumerate(x[j:]):
            if p >> i & 1:
                diff.append(full ^ u ^ borrow)
                borrow |= full ^ u
            else:
                diff.append(u ^ borrow)
                borrow &= ~u
        x = x[:j] + [u ^ ((u ^ d) & ~borrow) for u, d in zip(x[j:], diff)]
    return x[:(p - 1).bit_length()]


def _matrices_at(mask: int, p: int, n: int):
    """The matrices at the set bits of ``mask``, in increasing index, which
    is odometer order: entry t is base-p digit t of the index."""
    return list(itertools.compress(_raw_matrices(p, n), map("1".__eq__, bin(mask)[:1:-1])))


def _gaussian_binomial(n: int, r: int, p: int) -> int:
    return (math.prod(p ** (n - i) - 1 for i in range(r))
            // math.prod(p ** (i + 1) - 1 for i in range(r)))


def idempotent_count(p: int, n: int) -> int:
    """Closed-form count: idempotents of rank r are image/kernel splittings."""
    return sum(_gaussian_binomial(n, r, p) * p ** (r * (n - r)) for r in range(n + 1))


def _gl_order(n: int, p: int) -> int:
    return math.prod(p ** n - p ** i for i in range(n))


def square_zero_count(p: int, n: int) -> int:
    """Closed-form count: a square-zero matrix is similar to r Jordan blocks
    J_2(0) and s = n - 2r blocks J_1(0); each class has |GL_n| over the order
    p^(r^2 + 2rs) |GL_r| |GL_s| of its centralizer."""
    return sum(_gl_order(n, p) // (p ** (r * r + 2 * r * (n - 2 * r))
                                   * _gl_order(r, p) * _gl_order(n - 2 * r, p))
               for r in range(n // 2 + 1))


def _raw_squares(p: int, n: int):
    """(idempotents, square-zero matrices) of the n x n space, in odometer
    order, from one pass over its bit planes that squares every matrix at
    once; the zero matrix is in both.  A scan of more than ``_BUDGET``
    matrices is refused before any plane is built."""
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
    full = (1 << p ** (n * n)) - 1
    a = _planes(p, n)
    is_idempotent = is_square_zero = full
    for i, j in itertools.product(range(n), repeat=2):
        square = []
        for k in range(n):
            for b, v in enumerate(a[k * n + j]):
                square = _add(square, [0] * b + [u & v for u in a[i * n + k]])
        for s, x in itertools.zip_longest(_mod(square, p, full), a[i * n + j], fillvalue=0):
            is_idempotent &= ~(s ^ x)
            is_square_zero &= ~s
    idempotents = _matrices_at(is_idempotent, p, n)
    square_zero = _matrices_at(is_square_zero, p, n)
    for kind, found, count in (("idempotent", idempotents, idempotent_count(p, n)),
                               ("square-zero", square_zero, square_zero_count(p, n))):
        if len(found) != count:
            raise InternalCheckFailed(
                f"oracle: {kind} scan of the {n}x{n} matrices over GF({p}) found "
                f"{len(found)}, the closed-form count is {count}")
    return idempotents, square_zero


def _translate(mask: int, low: int, up: int, down: int) -> int:
    """The indices of ``mask`` that are in ``low`` moved up by ``up``, the
    others moved down by ``down``: one base-p digit of every index turned by
    the same amount mod p."""
    return (mask & low) << up | (mask & ~low) >> down


@dataclass(frozen=True)
class SumAtlas:
    """The set of all matrices expressible as the requested kind of sum."""

    members: frozenset  # of flat raw-entry tuples


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
    size, runs = p ** (n * n), [p ** t for t in range(n * n)]
    first = 0
    for m in idempotents:
        first |= 1 << sum(ca * v % p * run for v, run in zip(m, runs))
    lows, atlas = {}, 0
    for m in idempotents if scaled else square_zero:
        translate = first
        for run, v in zip(runs, m):
            if v := cb * v % p:
                if (run, v) not in lows:
                    # the indices whose digit is below p - v: the first
                    # (p - v) runs of each period of the digit
                    lows[run, v] = _repeat((1 << (p - v) * run) - 1, p * run, size)
                translate = _translate(translate, lows[run, v], v * run, (p - v) * run)
        atlas |= translate
    return SumAtlas(frozenset(_matrices_at(atlas, p, n)))


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

