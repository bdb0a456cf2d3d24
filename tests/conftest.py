"""Shared random-instance helpers for the test suite.

All randomness is seeded per test, so runs are reproducible.
"""

import random
from fractions import Fraction
from math import gcd

from quadsum import QQ, Matrix, direct_sum, inverse, jordan_block


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


def rand_decomposable(field, n, rng):
    """A matrix known to be idempotent + square-zero by construction."""
    return rand_idempotent(field, n, rng) + rand_square_zero(field, n, rng)


def coprime_denominators(count, digits, rng):
    """``count`` pairwise-coprime integers of about ``digits`` digits."""
    out = []
    while len(out) < count:
        d = rng.randrange(10 ** (digits - 1), 10 ** digits)
        if all(gcd(d, e) == 1 for e in out):
            out.append(d)
    return out


def rand_wide_rational(n, rng, cols=None, digits=30):
    """A rational matrix whose entries have ~``digits``-digit pairwise-coprime
    denominators, the worst case for common-denominator arithmetic."""
    cols = n if cols is None else cols
    dens = coprime_denominators(max(n * cols, 1), digits, rng)
    return Matrix(QQ, n, cols, [QQ.element(Fraction(rng.randint(-10 ** digits, 10 ** digits), d))
                                for d in dens[: n * cols]])
