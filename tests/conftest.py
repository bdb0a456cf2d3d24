"""Shared random-instance helpers for the test suite.

All randomness is seeded per test, so runs are reproducible.
"""

import random
from fractions import Fraction
from math import gcd

import quadsum
from quadsum import QQ, Matrix, direct_sum, inverse, jordan_block
from quadsum.errors import DimensionMismatch
from quadsum.matrix import rank
from quadsum.poly import Polynomial, _gcd, _monic, companion


#: The largest prime p with 29 p^2 < 2^64: a packed GF(p) slot is one 64-bit
#: word, so at this p a reduction of up to 29 steps and a dot product of up to
#: 29 terms pack, and the next sizes up take the list rows.
WORD_PRIME = 797555399

#: Primes too wide for a 64-bit slot at any size, so their GF(p) kernels keep
#: the list rows past the packing gate: a Mersenne prime and the largest prime
#: the field accepts (just below its Miller-Rabin limit).
WIDE_PRIMES = (2 ** 61 - 1, 3317044064679887385961813)


def count_packs(monkeypatch):
    """The list of the rows that ``quadsum.matrix._pack`` packs from now on."""
    made = []
    real = quadsum.matrix._pack
    monkeypatch.setattr(quadsum.matrix, "_pack", lambda row: made.append(row) or real(row))
    return made


def conjugate_partition(sizes):
    """The nullity sequence n_k = #{blocks of size >= k} of Jordan blocks
    of the given sizes at one eigenvalue."""
    return tuple(sum(1 for s in sizes if s >= k) for k in range(1, max(sizes, default=0) + 1))


def nullity_sequence(m, eigenvalue):
    """n_k = dim Ker (M - lambda I)^k - dim Ker (M - lambda I)^(k-1), k >= 1,
    listed up to stabilization at 0, from the ranks of the powers of
    M - lambda I.  n_k counts the Jordan blocks of size >= k.  The test
    oracle for the sequences that ``decide`` reads off the invariant-factor
    valuations: it shares no code with the Frobenius decomposition."""
    if not m.is_square:
        raise DimensionMismatch("nullity sequence of a non-square matrix")
    f, n = m.field, m.rows
    x = m - f.element(eigenvalue) * Matrix.identity(f, n)
    values = []
    power, prev_nullity = x, 0
    while (nullity := n - rank(power)) != prev_nullity:
        values.append(nullity - prev_nullity)
        power, prev_nullity = power * x, nullity
    return tuple(values)


def monic_gcd(a, b):
    """The monic gcd of two polynomials, not both zero, by the package's raw
    Euclid kernel."""
    f = a.field
    return Polynomial._raw(f, _monic(f, _gcd(f, a.coeffs, b.coeffs)))


def rand_element(field, rng):
    if field.p is None:
        return field.element(rng.randint(-3, 3))
    return field.make(rng.randrange(field.p))


def rand_matrix(field, n, rng, cols=None):
    cols = n if cols is None else cols
    return Matrix(field, n, cols, [rand_element(field, rng) for _ in range(n * cols)])


def rand_invertible(field, n, rng):
    while True:
        m = rand_matrix(field, n, rng)
        try:
            inverse(m)
            return m
        except Exception:
            continue


def rand_idempotent(field, n, rng):
    """A random-conjugated rank-r projector."""
    r = rng.randrange(n + 1)
    p = Matrix.diagonal(field, [1] * r + [0] * (n - r))
    t = rand_invertible(field, n, rng)
    return t * p * inverse(t)


def rand_square_zero(field, n, rng):
    """A random-conjugated direct sum of 2x2 shift blocks and zeros."""
    k = rng.randrange(n // 2 + 1)
    blocks = [jordan_block(field, 2) for _ in range(k)]
    blocks += [Matrix.zero(field, 1)] * (n - 2 * k)
    q = direct_sum(field, blocks)
    t = rand_invertible(field, n, rng)
    return t * q * inverse(t)


def conjugated_companions(field, coeffs, k, rng):
    """C(f) (+) ... (+) C(f), k times, conjugated by a random invertible
    matrix, for the monic f with the given coefficients (constant first):
    k equal invariant factors f, so k levels of the Frobenius decomposition."""
    m = direct_sum(field, [companion(Polynomial(field, coeffs))] * k)
    t = rand_invertible(field, m.rows, rng)
    return t * m * inverse(t)


def rand_decomposable(field, n, rng):
    """A matrix known to be idempotent + square-zero by construction."""
    return rand_idempotent(field, n, rng) + rand_square_zero(field, n, rng)


def coprime_denominators(count, digits, rng):
    """``count`` distinct pairwise-coprime integers of ``digits`` digits.

    Raises ValueError once no integer of that many digits is left that is
    distinct from and coprime to every one drawn so far.  ``spare`` is the
    least such integer; it only moves up, since ``out`` only grows, and it
    draws nothing from ``rng``.
    """
    lo, hi = 10 ** (digits - 1), 10 ** digits

    def fits(d):
        return d not in out and all(gcd(d, e) == 1 for e in out)

    out = []
    spare = lo
    while len(out) < count:
        d = rng.randrange(lo, hi)
        if fits(d):
            out.append(d)
            continue
        while spare < hi and not fits(spare):
            spare += 1
        if spare == hi:
            raise ValueError(f"the {digits}-digit integers hold no {count} distinct "
                             f"pairwise-coprime ones after {out}")
    return out


def rand_wide_rational(n, rng, cols=None, digits=30):
    """A rational matrix whose entries have ~``digits``-digit pairwise-coprime
    denominators, the worst case for common-denominator arithmetic."""
    cols = n if cols is None else cols
    dens = coprime_denominators(max(n * cols, 1), digits, rng)
    return Matrix(QQ, n, cols, [QQ.element(Fraction(rng.randint(-10 ** digits, 10 ** digits), d))
                                for d in dens[: n * cols]])
