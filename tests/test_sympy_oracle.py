"""Independent oracle over the rationals: sympy's Smith form of t I - M over
QQ[t] and sympy ranks of powers, against quadsum's invariant factors, decide
and the case-I necessary condition."""

import random

import pytest

from quadsum.canonical import invariant_factors_with_transform
from quadsum.errors import Singular
from quadsum.field import QQ
from quadsum.matrix import Matrix, direct_sum, inverse, jordan_block, rank
from quadsum.poly import Polynomial, companion
from quadsum.sums import check_necessary_combination, decide
from conftest import rand_invertible, rand_matrix, rand_wide_rational

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors as smith_invariant_factors  # noqa: E402

T = sympy.Symbol("t")


def _sample(rng):
    """15 random matrices with small integer entries, then 25 conjugated
    direct sums of companion blocks, repeated factors and Jordan blocks at
    0, 1 and elsewhere; n <= 10."""
    for _ in range(15):
        yield rand_matrix(QQ, rng.randint(1, 10), rng)
    while True:
        blocks = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(4)
            size = rng.randint(1, 3)
            if kind == 0:
                p = Polynomial(QQ, [rng.randint(-2, 2) for _ in range(size)] + [1])
                blocks += [companion(p)] * rng.randint(1, 2)
            else:
                blocks.append(jordan_block(QQ, size, eigenvalue=[0, 1, "-1/2"][kind - 1]))
        n = sum(b.rows for b in blocks)
        if n > 10:
            continue
        t = rand_invertible(QQ, n, rng)
        yield t * direct_sum(QQ, blocks) * inverse(t)


def _to_sympy(m):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(str(x)) for x in m._e])


def _sympy_nullities(a):
    """n_k = rank(A^(k-1)) - rank(A^k), up to the first zero."""
    out, power, prev = [], sympy.eye(a.rows), a.rows
    while True:
        power = power * a
        rank = power.rank()
        if rank == prev:
            return tuple(out)
        out.append(prev - rank)
        prev = rank


def _intertwined(u, v, p):
    def at(seq, k):
        return seq[k - 1] if k <= len(seq) else 0
    return all(at(u, k + p) <= at(v, k) and at(v, k + p) <= at(u, k)
               for k in range(1, max(len(u), len(v)) + 1))


def test_rational_invariant_factors_and_decisions_match_sympy():
    rng = random.Random(5051)
    sample = _sample(rng)
    for _ in range(40):
        m = next(sample)
        n = m.rows
        s = _to_sympy(m)
        smith = [sympy.Poly(f, T, domain="QQ").monic()
                 for f in smith_invariant_factors(T * sympy.eye(n) - s, domain=sympy.QQ[T])]
        smith = [f for f in smith if f.degree() > 0]
        factors, _ = invariant_factors_with_transform(m)
        assert [[str(c) for c in f.coeffs] for f in factors] == \
            [[str(c) for c in reversed(f.all_coeffs())] for f in smith]
        decision = decide(m)
        seq0 = _sympy_nullities(s)
        seq1 = _sympy_nullities(s - sympy.eye(n))
        assert decision.nullity_at_0 == seq0
        assert decision.nullity_at_1 == seq1
        away_ok = True
        for f in smith:
            h = f
            for root in (0, 1):
                while h.eval(root) == 0:
                    h = h.exquo(sympy.Poly(T - root, T, domain="QQ"))
            if h.degree() > 0:
                away_ok = away_ok and h.degree() % 2 == 0 and \
                    sympy.expand(h.as_expr().subs(T, 1 - T) - h.as_expr()) == 0
        assert decision.yes == (away_ok and _intertwined(seq0, seq1, 2))


def test_rational_necessary_condition_matches_sympy_ranks():
    """check_necessary_combination(M, 1, 2) on the samples above and on 15
    conjugated sums of Jordan blocks at 1 and 2: it applies iff the nullities
    at 1 and 2 from sympy ranks of (M - alpha I)^k add up to n, and then its
    sequences are those nullities and its status is their 1-intertwining."""
    sample = _sample(random.Random(5051))
    cases = [next(sample) for _ in range(40)]
    rng = random.Random(5052)
    for _ in range(15):
        blocks = [jordan_block(QQ, rng.randint(1, 3), eigenvalue=rng.choice([1, 2]))
                  for _ in range(rng.randint(1, 3))]
        t = rand_invertible(QQ, sum(b.rows for b in blocks), rng)
        cases.append(t * direct_sum(QQ, blocks) * inverse(t))
    statuses = set()
    for m in cases:
        s = _to_sympy(m)
        seq1 = _sympy_nullities(s - sympy.eye(m.rows))
        seq2 = _sympy_nullities(s - 2 * sympy.eye(m.rows))
        rep = check_necessary_combination(m, 1, 2)
        statuses.add(rep.status)
        if sum(seq1) + sum(seq2) != m.rows:
            assert rep.status == "not_applicable"
            continue
        assert (rep.nullity_at_alpha, rep.nullity_at_beta) == (seq1, seq2)
        assert rep.status == ("inconclusive" if _intertwined(seq1, seq2, 1) else "no")
    assert statuses == {"no", "inconclusive", "not_applicable"}


def test_wide_rational_ranks_and_inverses_match_sympy():
    """Fraction-free elimination on 6x6 to 8x8 matrices with pairwise-coprime
    denominators of 10 to 30 digits, full rank and with dependent rows,
    against sympy's rank and inverse."""
    rng = random.Random(5053)
    for n in (6, 7, 8):
        for digits in (10, 30):
            m = rand_wide_rational(n, rng, digits=digits)
            rows = m.raw_rows()
            dependent = [x - 3 * y for x, y in zip(rows[0], rows[1])]
            deficient = Matrix.from_rows(QQ, rows[:-2] + [dependent, [0] * n])
            for a in (m, deficient):
                s = _to_sympy(a)
                assert rank(a) == s.rank()
                if s.rank() < n:
                    with pytest.raises(Singular):
                        inverse(a)
                else:
                    assert inverse(a) == Matrix(QQ, n, n, [str(x) for x in s.inv()])
