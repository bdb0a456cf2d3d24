"""Brute-force ground truth over small finite fields.

Enumerates idempotents, square-zero matrices and their sums by one full scan
of the p^(n^2) matrix space, guarded by a fixed budget.  Each matrix is
squared once, entry by entry in row-major order, and the scan leaves a
matrix at the first entry where its square is nonzero and differs from it:
from there it can be neither idempotent (square equal to the matrix) nor
square-zero (square zero).  Both lists are checked against their closed-form
counts.  The sums are taken on ints that hold one entry in each byte-aligned
slot, one int addition and one mask step per pair.  All of this arithmetic
is the oracle's own and shares no kernel with :mod:`quadsum.matrix`.  The
resulting atlas is the reference answer set that the structural decision
procedure is compared against, entry by entry, in the headline exhaustive
runs.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from dataclasses import dataclass
from operator import mul

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


def _raw_mul(a, b, p: int, n: int):
    """The entries of a b in row-major order, each computed when it is read."""
    for i in range(0, n * n, n):
        row = a[i:i + n]
        for j in range(n):
            yield sum(map(mul, row, b[j::n])) % p


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
    order, from one scan that squares each matrix once and reads the square
    only up to its first entry that is nonzero and differs from the matrix;
    the zero matrix is in both.  A scan of more than ``_BUDGET`` matrices is
    refused."""
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
        is_idempotent = is_square_zero = True
        for x, s in zip(a, _raw_mul(a, a, p, n)):
            if s:
                if s != x:
                    break
                is_square_zero = False
            elif x:
                is_idempotent = False
        else:
            if is_idempotent:
                idempotents.append(a)
            if is_square_zero:
                square_zero.append(a)
    if len(idempotents) != idempotent_count(p, n):
        raise InternalCheckFailed("idempotent scan disagrees with the closed-form count")
    if len(square_zero) != square_zero_count(p, n):
        raise InternalCheckFailed("square-zero scan disagrees with the closed-form count")
    return idempotents, square_zero


def _slots(p: int, size: int):
    """How ``size`` residues mod p share one int, for the pair sums: each
    takes a byte-aligned slot of w bits, an item of the array type code.  A
    slot holds a sum of at most 2p - 2, and adding 2^(w-1) - p to it sets the
    slot's bit w - 1 iff the sum reached p, with no carry into the next slot,
    as p <= 2^(w-1): the budget keeps p <= 2^17 when there is a slot.
    Returns (code, w - 1, lift, top), where lift and top hold 2^(w-1) - p and
    2^(w-1) in every slot."""
    code = "B" if p <= 1 << 7 else "H" if p <= 1 << 15 else "I"
    shift = 8 * array(code).itemsize - 1
    top = int.from_bytes(array(code, [1 << shift] * size), sys.byteorder)
    return code, shift, top - int.from_bytes(array(code, [p] * size), sys.byteorder), top


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
    code, shift, lift, top = _slots(p, n * n)

    def packed(c, matrices):
        return [int.from_bytes(array(code, [c * v % p for v in m]), sys.byteorder)
                for m in matrices]

    second = packed(cb, idempotents if scaled else square_zero)
    sums = set()
    for a in packed(ca, idempotents):
        sums.update([s - (((s + lift) & top) >> shift) * p for s in map(a.__add__, second)])
    length = n * n * (shift + 1) // 8
    members = (tuple(array(code, s.to_bytes(length, sys.byteorder))) for s in sums)
    return SumAtlas(frozenset(members))


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

