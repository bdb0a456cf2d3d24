"""Field arithmetic and quadratic root finding."""

import random
from fractions import Fraction

import pytest

from quadsum import GF, QQ, DivisionByZero, MixedFields, quadratic_roots
from quadsum.field import _is_prime


def test_rational_basics():
    x = QQ.element("3")
    y = QQ.element("-1/2")
    assert str(x + y) == "5/2"
    assert str(x * y) == "-3/2"
    assert str(y.inverse()) == "-2"
    assert QQ.element(Fraction(2, 4)) == QQ.element("1/2")


def test_gf_basics():
    f = GF(7)
    assert f.element(10) == f.element(3)
    assert str(f.element(-1)) == "6"
    assert f.element(3) * f.element(5) == f.element(1)
    assert f.element(3).inverse() == f.element(5)


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        GF(6)


def test_primality_matches_trial_division():
    for n in range(-2, 3000):
        assert _is_prime(n) == (n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1)))


def test_gf_large_prime_modulus():
    f = GF(2 ** 61 - 1)
    assert f.element(2 ** 62) == f.element(2)
    assert f.element(3) * f.element(3).inverse() == f.one()


def test_gf_rejects_strong_pseudoprimes():
    # 561: Carmichael; 3215031751: strong pseudoprime to bases 2, 3, 5, 7;
    # 318665857834031151167461: strong pseudoprime to the first twelve primes.
    for n in (561, 3215031751, 318665857834031151167461):
        with pytest.raises(ValueError, match="not prime"):
            GF(n)


def test_gf_rejects_moduli_beyond_the_primality_limit():
    with pytest.raises(ValueError, match="limit"):
        GF(2 ** 89 - 1)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        QQ.zero().inverse()
    with pytest.raises(DivisionByZero):
        GF(5).zero().inverse()


def test_mixed_fields_rejected():
    with pytest.raises(MixedFields):
        GF(2).one() + GF(3).one()
    with pytest.raises(MixedFields):
        QQ.element(GF(5).one())


def test_inverse_law_exhaustive_small():
    for p in (2, 3, 5, 7, 11):
        f = GF(p)
        for v in range(1, p):
            assert f.make(v) * f.make(v).inverse() == f.one()


def test_parse_round_trip():
    for s in ("3", "-1/2", "7/3", "0"):
        assert str(QQ.parse(s)) == s
    f = GF(13)
    for v in range(13):
        assert str(f.parse(str(v))) == str(v)


def test_element_total_order_deterministic():
    f = GF(5)
    assert sorted([f.element(4), f.element(1), f.element(3)]) == \
        [f.element(1), f.element(3), f.element(4)]
    assert QQ.element("-1/2") < QQ.element("1/3")


# ---- quadratic roots -------------------------------------------------

def test_roots_rational_idempotent_params():
    assert quadratic_roots(QQ, 1, 0) == [QQ.element(0), QQ.element(1)]


def test_roots_rational_sqrt2_not_split():
    assert quadratic_roots(QQ, 0, 2) is None


def test_roots_rational_fractional():
    # t^2 - t/2 - 1/2 = (t - 1)(t + 1/2)
    roots = quadratic_roots(QQ, "1/2", "1/2")
    assert roots == [QQ.element("-1/2"), QQ.element(1)]


def test_roots_gf7_example():
    f = GF(7)
    roots = quadratic_roots(f, 1, 2)
    assert roots == [f.element(2), f.element(6)]
    for r in roots:
        assert r * r - f.element(1) * r - f.element(2) == f.zero()


def test_roots_gf2_nonsplit():
    # t^2 + t + 1 is the only irreducible quadratic shape over GF(2)
    f = GF(2)
    assert quadratic_roots(f, 1, 1) is None
    assert quadratic_roots(f, 1, 0) == [f.element(0), f.element(1)]


def test_roots_double():
    f = GF(5)
    roots = quadratic_roots(f, 2, -1)  # t^2 - 2t + 1 = (t - 1)^2
    assert roots == [f.element(1), f.element(1)]


def test_roots_exhaustive_agreement_small_primes():
    """quadratic_roots must match a brute-force scan for every (a, b)."""
    for p in (2, 3, 5, 7):
        f = GF(p)
        for a in range(p):
            for b in range(p):
                brute = [r for r in range(p) if (r * r - a * r - b) % p == 0]
                got = quadratic_roots(f, a, b)
                if got is None:
                    assert brute == [], (p, a, b)
                else:
                    expanded = sorted(x.v for x in got)
                    if len(brute) == 1:
                        brute = brute * 2  # double root reported with multiplicity
                    assert expanded == sorted(brute), (p, a, b)


def test_roots_rational_random_verified():
    rng = random.Random(11)
    hits = 0
    for _ in range(300):
        a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        b = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        roots = quadratic_roots(QQ, a, b)
        if roots is None:
            continue
        hits += 1
        for r in roots:
            assert r * r - QQ.element(a) * r - QQ.element(b) == QQ.zero()
    assert hits > 10
