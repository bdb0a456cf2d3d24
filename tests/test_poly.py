"""Polynomial arithmetic, companion matrices, minimal polynomials, and the
t^2 - t substitution test."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadsum import (GF, QQ, Matrix, NotMonic, Polynomial, companion,
                     decompose_in_t2_minus_t, gcd, hstack, jordan_block,
                     krylov_annihilator, lcm, minimal_polynomial, rank, solve,
                     substitute_one_minus_t)
from conftest import coprime_denominators, rand_matrix, rand_wide_rational


def P(field, coeffs):
    return Polynomial.from_coeffs(field, coeffs)


def test_canonical_form():
    p = P(QQ, [1, 2, 0, 0])
    assert p.degree == 1
    assert Polynomial.zero(QQ).degree is None
    assert str(P(QQ, [0, -1, 1])) == "t^2 + -1*t"


def test_divrem_examples():
    t3 = P(QQ, [0, 0, 0, 1])
    t2 = P(QQ, [0, 0, 1])
    q, r = t3.divrem(t2)
    assert q == P(QQ, [0, 1]) and r.is_zero()
    q, r = P(QQ, [1, 0, 1]).divrem(P(QQ, [1, 1]))
    assert P(QQ, [1, 1]) * q + r == P(QQ, [1, 0, 1])


def test_gcd_examples():
    assert gcd(P(QQ, [-1, 0, 1]), P(QQ, [-1, 1])) == P(QQ, [-1, 1])
    a = P(GF(5), [1, 2, 1])
    assert gcd(a, P(GF(5), [1, 1])) == P(GF(5), [1, 1])
    assert lcm(P(QQ, [0, 1]), P(QQ, [-1, 1])) == P(QQ, [0, -1, 1])


def test_compose_example():
    # (s + 1) evaluated at s = t^2 - t
    outer = P(QQ, [1, 1])
    inner = P(QQ, [0, -1, 1])
    assert outer.compose(inner) == P(QQ, [1, -1, 1])


def test_eval_scalar_and_matrix():
    p = P(QQ, [-1, 0, 1])  # t^2 - 1
    assert p(3) == QQ.element(8)
    m = Matrix.diagonal(QQ, [1, 2])
    assert p(m) == Matrix.diagonal(QQ, [0, 3])


def test_companion_convention():
    # t^2 - t - 1 -> [[0, 1], [1, 1]]
    c = companion(P(QQ, [-1, -1, 1]))
    assert c == Matrix.from_rows(QQ, [[0, 1], [1, 1]])
    with pytest.raises(NotMonic):
        companion(P(QQ, [1, 2]))


def test_companion_has_its_polynomial_as_minimal():
    rng = random.Random(5)
    for f in (QQ, GF(3)):
        for _ in range(25):
            deg = rng.randint(1, 6)
            p = P(f, [rng.randint(-3, 3) for _ in range(deg)] + [1])
            assert minimal_polynomial(companion(p)) == p


def test_minimal_polynomial_annihilates():
    rng = random.Random(6)
    for f in (QQ, GF(2), GF(5)):
        for _ in range(30):
            n = rng.randint(0, 6)
            m = rand_matrix(f, n, rng)
            mu = minimal_polynomial(m)
            assert mu.is_monic() or n == 0
            assert mu.degree <= max(n, 0) if n else mu == Polynomial.one(f)
            assert mu(m).is_zero()


def test_minimal_polynomial_jordan():
    m = jordan_block(QQ, 4)
    assert minimal_polynomial(m) == P(QQ, [0, 0, 0, 0, 1])


def test_krylov_annihilator_chain():
    f = GF(5)
    m = companion(P(f, [2, 0, 1]))
    ann, chain = krylov_annihilator(m, [1, 0])
    assert ann == P(f, [2, 0, 1])
    assert len(chain) == 2


def naive_krylov(m, v):
    """Annihilator and chain of v by FieldElement triple loops and elimination."""
    f = m.field
    n = m.rows
    chain = [Matrix.column(f, v)]
    while rank(hstack(f, chain)) == len(chain):
        w = chain[-1]
        chain.append(Matrix.column(f, [sum((m[i, t] * w[t, 0] for t in range(n)), f.zero())
                                       for i in range(n)]))
    top = chain.pop()
    coeffs = solve(hstack(f, chain), top) if chain else Matrix.zero(f, 0, 1)
    ann = Polynomial(f, [-coeffs[i, 0] for i in range(len(chain))] + [f.one()])
    return ann, chain


def test_krylov_annihilator_matches_naive():
    rng = random.Random(14)
    cases = []
    for f in (GF(2), GF(5), GF(101)):
        for _ in range(15):
            n = rng.randint(1, 6)
            cases.append((rand_matrix(f, n, rng), [rng.randrange(f.p) for _ in range(n)]))
    for _ in range(15):
        n = rng.randint(1, 6)
        ints = [rng.randint(-3, 3) for _ in range(n)]
        cases.append((rand_matrix(QQ, n, rng), ints))
        cases.append((rand_wide_rational(n, rng), ints))
        dens = coprime_denominators(n, 30, rng)
        cases.append((rand_wide_rational(n, rng),
                      [Fraction(rng.randint(-10 ** 30, 10 ** 30), d) for d in dens]))
    for m, v in cases:
        ann, chain = krylov_annihilator(m, v)
        want_ann, want_chain = naive_krylov(m, v)
        assert ann == want_ann
        assert len(chain) == len(want_chain)
        for got, want in zip(chain, want_chain):
            assert Matrix.column(m.field, got) == want


# ---- the substitution test -------------------------------------------

def _is_even_and_symmetric(p):
    return p.degree % 2 == 0 and substitute_one_minus_t(p).monic() == p


def test_decompose_examples():
    f = QQ
    s_plus_1 = decompose_in_t2_minus_t(P(f, [1, -1, 1]))  # t^2 - t + 1
    assert s_plus_1 == P(f, [1, 1])
    assert decompose_in_t2_minus_t(P(f, [0, 1])) is None  # t: odd degree
    assert decompose_in_t2_minus_t(P(f, ["-1/2", 1])) is None  # t - 1/2
    g = decompose_in_t2_minus_t(P(f, [0, 2, -1, -2, 1]))  # (t^2-t)^2 - 2(t^2-t)
    assert g == P(f, [0, -2, 1])


def test_decompose_reconstructs():
    rng = random.Random(8)
    s = P(QQ, [0, -1, 1])
    for f in (QQ, GF(2), GF(5)):
        s = P(f, [0, -1, 1])
        for _ in range(50):
            g = P(f, [rng.randint(-3, 3) for _ in range(rng.randint(0, 4))] + [1])
            composed = g.compose(s)
            assert decompose_in_t2_minus_t(composed) == g


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=0, max_size=8),
       st.sampled_from([0, 2, 5]))
def test_decompose_iff_even_and_symmetric(coeffs, char):
    """decompose_in_t2_minus_t succeeds iff deg f is even and f(1-t) = f(t)."""
    f = QQ if char == 0 else GF(char)
    p = P(f, coeffs + [1])
    got = decompose_in_t2_minus_t(p)
    assert (got is not None) == _is_even_and_symmetric(p)
    if got is not None:
        assert got.compose(P(f, [0, -1, 1])) == p
