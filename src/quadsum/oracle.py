"""Brute-force ground truth over small finite fields.

Enumerates idempotents, square-zero matrices and their sums by one full scan
of the p^(n^2) matrix space, guarded by a fixed budget.  A set of matrices
is one mask over the scan index: the idx-th matrix has base-p digit
n^2 - 1 - t of idx as entry t, so entry 0 is the most significant digit and
index order is the lexicographic order of the entry tuples, the order of
``itertools.product``.  The scan holds the space as bit planes: bit k of
entry t is one mask whose bit idx is bit k of entry t of the idx-th matrix.
Ripple-carry adds, shift-and-add products and conditional subtractions of
p 2^j square every matrix at once, and two masks keep the indices whose
square equals the matrix (idempotent) or is zero (square-zero).  Both masks
are checked against their closed-form counts by their bit counts, before
any matrix is decoded.  The sums X + R over a first set X are the first
set's mask translated by R: adding v to entry t mod p moves each index up by
v p^(n^2-1-t), or down by (p - v) p^(n^2-1-t) where the digit wraps past
p - 1, and the atlas is the union of the translates over the second set.
The second set is taken in index order, so each matrix shares its leading
entries with the one before, and a stack of translates by those prefixes
is cut back only to the first entry that differs.  All of this arithmetic
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
from .field import Field, _is_int
from .matrix import Matrix
from .sums import decide

#: Full-scan budget: the largest sanctioned scan, GF(2) at n = 4, has 2^16
#: matrices; GF(2) at n = 5, with 2^9 times as many, is refused.
_BUDGET = 1 << 17


def _raw_matrices(p: int, n: int):
    """All n x n matrices as flat residue tuples, in index order, which is
    lexicographic: the last entry turns fastest."""
    return itertools.product(range(p), repeat=n * n)


def _repeat(x: int, period: int, total: int) -> int:
    """The first ``total`` bits of the pattern x, period bits long, repeated
    by doubling."""
    while period < total:
        x |= x << period
        period <<= 1
    return x & ((1 << total) - 1)


def _runs(p: int, n: int):
    """The index step of each entry: entry t is base-p digit n^2 - 1 - t."""
    return [p ** (n * n - 1 - t) for t in range(n * n)]


def _planes(p: int, n: int):
    """The n x n space as bit planes: per entry t, per bit k of a residue,
    the mask of the scan indices whose entry t has bit k set.  Entry t is
    base-p digit n^2 - 1 - t, which holds v for a run of p^(n^2-1-t) indices,
    and bit k of v alternates in runs of 2^k values, so a plane is run 2^k
    zeros then as many ones, repeated to the digit's period run p, then to
    the whole space."""
    size = p ** (n * n)
    return [[_repeat(_repeat(((1 << (run << k)) - 1) << (run << k), run << (k + 1), run * p),
                     run * p, size)
             for k in range((p - 1).bit_length())]
            for run in _runs(p, n)]


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
    is lexicographic order: the idx-th tuple of ``_raw_matrices``."""
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


def _check_count(kind: str, mask: int, count: int, p: int, n: int) -> int:
    """``mask``, once its number of members is the closed-form ``count``."""
    if mask.bit_count() != count:
        raise InternalCheckFailed(
            f"oracle: {kind} scan of the {n}x{n} matrices over GF({p}) found "
            f"{mask.bit_count()}, the closed-form count is {count}")
    return mask


def _raw_squares(p: int, n: int):
    """The masks (idempotents, square-zero matrices) of the n x n space,
    from one pass over its bit planes that squares every matrix at once,
    each checked against its closed-form count; the zero matrix is in both.
    A scan of more than ``_BUDGET`` matrices is refused before any plane is
    built."""
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
    return (_check_count("idempotent", is_idempotent, idempotent_count(p, n), p, n),
            _check_count("square-zero", is_square_zero, square_zero_count(p, n), p, n))


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
    size, runs = p ** (n * n), _runs(p, n)
    if scaled:
        first, second = 0, _matrices_at(idempotents, p, n)
        for m in second:
            first |= 1 << sum(ca * v % p * run for v, run in zip(m, runs))
    else:
        first, second = idempotents, _matrices_at(square_zero, p, n)
    # stack[t] is the first mask translated by entries 0..t-1 of the last
    # matrix; the next matrix shares the entries before its first different
    # one, so only the translates past that entry are redone
    lows, atlas, stack, last = {}, 0, [first], ()
    for m in second:
        d = next((t for t, (x, y) in enumerate(zip(last, m)) if x != y), 0)
        del stack[d + 1:]
        for run, v in zip(runs[d:], m[d:]):
            translate = stack[-1]
            if v := cb * v % p:
                if (run, v) not in lows:
                    # the indices whose digit is below p - v: the first
                    # (p - v) runs of each period of the digit
                    lows[run, v] = _repeat((1 << (p - v) * run) - 1, p * run, size)
                translate = _translate(translate, lows[run, v], v * run, (p - v) * run)
            stack.append(translate)
        atlas |= stack[-1]
        last = m
    return SumAtlas(frozenset(_matrices_at(atlas, p, n)))


@dataclass(frozen=True)
class ComparisonReport:
    field: Field
    n: int
    total: int
    atlas_size: int
    decide_yes: int
    mismatches: tuple  # the raw entries of each matrix where decide and the atlas differ

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
            mismatches.append(raw)
    return ComparisonReport(field, n, p ** (n * n), len(members), yes,
                            tuple(mismatches))

