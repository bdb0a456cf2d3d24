"""Field arithmetic and quadratic root finding."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from operator import add, mul, sub, truediv

import pytest

import quadsum
from quadsum.errors import DimensionMismatch, DivisionByZero, MixedFields
from quadsum.field import (GF, QQ, Field, FieldElement, _is_prime, _rational, _sqrt_mod,
                           quadratic_roots)
from quadsum.matrix import Matrix
from quadsum.poly import Polynomial


def test_rational_basics():
    x = QQ.element("3")
    y = QQ.element("-1/2")
    assert str(x + y) == "5/2"
    assert str(x * y) == "-3/2"
    assert str(y.inverse()) == "-2"
    assert QQ.element(Fraction(2, 4)) == QQ.element("1/2")


def same(got, want):
    """Whether got equals want and has its type: int or Fraction."""
    return got == want and type(got) is type(want)


def test_rational_is_an_int_exactly_when_integral():
    """A rational is stored as an int when it is an integer, else as a
    Fraction with denominator above 1: ``_rational`` divides by a
    denominator of either sign (the kernels divide by signed pivots), and
    an inverse, a reduction and the roots of a quadratic come out the same
    way."""
    for (num, den), want in (((6, -3), -2), ((3, -2), Fraction(-3, 2)), ((0, -5), 0),
                             ((-8, 4), -2), ((4, 6), Fraction(2, 3))):
        assert same(_rational(num, den), want), (num, den)
    assert same(QQ.inv_raw(Fraction(-1, 2)), -2) and same(QQ.inv_raw(-3), Fraction(-1, 3))
    assert same(QQ.reduce(Fraction(6, 3)), 2) and same(QQ.reduce(Fraction(1, 3)), Fraction(1, 3))
    assert same(QQ.element("1/2").inverse().v, 2)
    assert [r.v for r in quadratic_roots(QQ, 1, 0)] == [0, 1]
    assert all(same(r.v, int(r.v)) for a, b in ((1, 0), (1, 2), (0, 4), (5, -6))
               for r in quadratic_roots(QQ, a, b))
    assert [r.v for r in quadratic_roots(QQ, 1, Fraction(-3, 16))] == [Fraction(1, 4),
                                                                       Fraction(3, 4)]


def test_value_reads_integer_strings_as_ints():
    """Over Q a string that names an integer reads as an int, however it is
    written, and any other as a Fraction."""
    for text, want in (("6/3", 2), ("1e2", 100), ("+7", 7), ("-0", 0), ("2.0", 2),
                       ("1/2", Fraction(1, 2)), ("-4/6", Fraction(-2, 3)),
                       ("1e-3", Fraction(1, 1000))):
        assert same(QQ.value(text), want), text


def test_gf_basics():
    f = GF(7)
    assert f.element(10) == f.element(3)
    assert str(f.element(-1)) == "6"
    assert f.element(3) * f.element(5) == f.element(1)
    assert f.element(3).inverse() == f.element(5)


def test_element_hashes_like_the_number_it_equals():
    """An element equal to an int lands in that int's set and dict slot: it
    hashes as its raw value.  Over GF(p) only the canonical residue can: 8
    equals GF(5)'s 3 but hashes as 8."""
    assert 3 in {QQ.element(3)} and QQ.element(3) in {3}
    assert {QQ.element(-4): "x"}[-4] == "x"
    assert 3 in {GF(5).element(3)} and GF(5).element(8) in {3}
    assert GF(5).element(3) == 8 and 8 not in {GF(5).element(3)}


def test_element_compares_with_fractions():
    """A Fraction compares through ``Field.value`` in both operand orders,
    and lands in the set slot of the element it equals.  Over GF(p) an
    integral Fraction is its residue and a non-integral one equals no
    element, with no error; bools stay refused."""
    half = QQ.element("1/2")
    assert half == Fraction(1, 2) and Fraction(1, 2) == half
    assert Fraction(1, 2) in {half} and half in {Fraction(1, 2)}
    assert half != Fraction(1, 3) and Fraction(1, 3) != half
    assert QQ.element(3) == Fraction(3) and Fraction(3) in {QQ.element(3)}
    f = GF(5)
    assert f.element(3) == Fraction(8) and Fraction(8) == f.element(3)
    assert Fraction(3) in {f.element(3)} and f.element(3) in {Fraction(3)}
    assert f.element(3) != Fraction(1, 2) and Fraction(1, 2) != f.element(3)
    assert Fraction(1, 2) not in {f.element(3)}
    assert QQ.element(1) != True and f.element(1) != True  # noqa: E712


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        GF(6)


def test_gf_refuses_a_modulus_that_is_not_an_int():
    """A float, a Fraction or a bool modulus is a TypeError, also once GF(5)
    is cached, which 5.0 equals and hashes like; GF(5) is unchanged."""
    assert GF(5) is GF(5) and GF(5).p == 5 and type(GF(5).value(3)) is int
    for p in (2.0, 5.0, Fraction(7), True):
        for make in (GF, Field):
            with pytest.raises(TypeError, match="is not an int"):
                make(p)


def test_primality_matches_trial_division():
    for n in range(-2, 3000):
        assert _is_prime(n) == (n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1)))


def test_gf_large_prime_modulus():
    f = GF(2 ** 61 - 1)
    assert f.element(2 ** 62) == f.element(2)
    assert f.element(3) * f.element(3).inverse() == f.element(1)


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
    for f in (QQ, GF(5)):
        with pytest.raises(DivisionByZero):
            f.element(0).inverse()
        for x, y in ((f.element(3), 0), (1, f.element(0)), (f.element(1), f.element(0))):
            with pytest.raises(DivisionByZero):
                x / y


def test_mixed_fields_rejected():
    """Another field's element on either side of an operator is MixedFields;
    a float, str or None operand is a TypeError; matrices of another field
    or shape cannot be added or subtracted."""
    with pytest.raises(MixedFields):
        GF(2).element(1) + GF(3).element(1)
    with pytest.raises(MixedFields):
        QQ.element(GF(5).element(1))
    for f, other in ((QQ, GF(5)), (GF(5), QQ), (GF(5), GF(7))):
        x = f.element(3)
        for op in (add, sub, mul, truediv):
            for a, b in ((x, other.element(2)), (other.element(2), x)):
                with pytest.raises(MixedFields):
                    op(a, b)
            for bad in (0.5, "2", None):
                for a, b in ((x, bad), (bad, x)):
                    with pytest.raises(TypeError):
                        op(a, b)
        m = Matrix.identity(f, 2)
        for op in (add, sub):
            with pytest.raises(MixedFields):
                op(m, Matrix.identity(other, 2))
            with pytest.raises(DimensionMismatch, match=f"^{op.__name__}: shapes differ$"):
                op(m, Matrix.zero(f, 2, 3))


def test_inverse_law_exhaustive_small():
    for p in (2, 3, 5, 7, 11):
        f = GF(p)
        for v in range(1, p):
            assert f.make(v) * f.make(v).inverse() == f.element(1)


def test_element_refuses_inexact_input():
    """Field.element reads exact scalars only: a float or a bool is never
    truncated or read as 0/1, and over GF(p) a Fraction must be an integer."""
    for f in (QQ, GF(5)):
        for bad in (0.5, 2.0, float("nan"), True, False, None, [1]):
            with pytest.raises(TypeError):
                f.element(bad)
        assert f.element(1) != True  # comparing with a bool is False, not an error
    with pytest.raises(TypeError):
        Matrix.from_rows(GF(5), [[2.7]])
    with pytest.raises(TypeError):
        Polynomial(QQ, [1, True])
    with pytest.raises(ValueError):
        GF(5).element(Fraction(1, 2))
    assert GF(5).element(Fraction(12, 2)) == GF(5).element(1)
    assert QQ.element(Fraction(1, 2)) == QQ.element("1/2")
    assert QQ.element(3) == QQ.element("3")


def test_parse_refuses_huge_exponents_fast():
    """Fraction reads "1e999999999" by computing 10**999999999; Field.element
    refuses such exponents before it gets there.  The check runs in a child
    process with a timeout, so a missing guard fails the test instead of
    hanging the suite."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(quadsum.__file__)))
    code = ("from quadsum import QQ\n"
            "for s in ('1e999999999', '-2.5E-999999999', '1e+4301', '1e9_999_999'):\n"
            "    try:\n"
            "        QQ.element(s)\n"
            "    except ValueError:\n"
            "        continue\n"
            "    raise SystemExit(s)\n"
            "print(QQ.element('1e4300') == QQ.element(10 ** 4300), QQ.element('25e-2'))\n")
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=20)
    assert (run.returncode, run.stdout) == (0, "True 1/4\n"), run.stderr


def test_parse_round_trip():
    for s in ("3", "-1/2", "7/3", "0"):
        assert str(QQ.element(s)) == s
    f = GF(13)
    for v in range(13):
        assert str(f.element(str(v))) == str(v)


#: One scalar of every kind ``Field.value`` accepts, where the field reads it.
_KINDS = (7, -3, 10 ** 30, Fraction(12, 4), Fraction(-1, 2), "3", "-1/2", "0.25", "1e-3", "-12")


def test_value_is_the_raw_value_of_the_element():
    """value(x) is element(x).v, of the same type, for every accepted kind
    over QQ and over primes below and above 4096."""
    for f in (QQ, GF(2), GF(101), GF(10007)):
        for x in _KINDS + (f.element(5),):
            try:
                wrapped = f.element(x)
            except ValueError:  # a fraction over GF(p)
                with pytest.raises(ValueError):
                    f.value(x)
                continue
            got = f.value(x)
            assert got == wrapped.v and type(got) is type(wrapped.v), (f, x)
            assert type(got) is (Fraction if f.p is None and got.denominator > 1 else int)
        assert f.value(f.element(5)) == f.value(5) == f.element("5").v


def test_value_refuses_what_element_refuses():
    """Every refused scalar raises the same class from value and element."""
    for f in (QQ, GF(2), GF(101), GF(10007)):
        other = GF(3) if f.p is None else QQ
        refused = [(0.5, TypeError), (2.0, TypeError), (True, TypeError), (False, TypeError),
                   (None, TypeError), (other.element(1), MixedFields), ("1e4301", ValueError),
                   ("abc", ValueError)]
        if f.p is not None:
            refused += [(Fraction(1, 2), ValueError), ("1/2", ValueError)]
        for bad, exc in refused:
            for read in (f.value, f.element):
                with pytest.raises(exc):
                    read(bad)


def test_scalar_arithmetic_coerces_ints_without_a_wrapper(monkeypatch):
    """An int operand is read to its raw value, so each operation wraps only its result."""
    made = []
    monkeypatch.setattr(Field, "make", lambda self, v: made.append(v) or FieldElement(self, v))
    for f in (QQ, GF(7)):
        x = f.element(3)
        made.clear()
        results = [x + 2, 2 + x, x - 2, 2 - x, x * 2, 2 * x, x / 2, 2 / x]
        assert x == 3 and x != 4 and len(made) == len(results)
        assert results[:6] == [f.element(v) for v in (5, 5, 1, -1, 6, 6)]
        assert results[6] * 2 == x and results[7] * x == 2


def test_constructors_wrap_no_scalar(monkeypatch):
    """Matrices and polynomials read strings and ints straight to raw values."""
    made = []
    monkeypatch.setattr(Field, "make", lambda self, v: made.append(v) or FieldElement(self, v))
    for f in (QQ, GF(5), GF(10007)):
        m = Matrix.from_rows(f, [["1", "-2", "3"], ["4", 5, "6"]])
        g = Polynomial(f, ["1", "-1", 2, "0"])
        assert m._e == tuple(map(f.value, (1, -2, 3, 4, 5, 6)))
        assert g.coeffs == tuple(map(f.value, (1, -1, 2)))
        assert (2 * m)._e == (m * 2)._e and (g * 3).coeffs == (3 * g).coeffs
    assert made == []


def test_sqrt_mod_at_primes_3_mod_4_is_the_closed_form():
    """For p = 3 (mod 4) Tonelli-Shanks returns a^((p+1)/4), the root of the
    closed form, for every residue tried."""
    rng = random.Random(3)
    for p in (3, 7, 11, 19, 23, 31, 43, 10007, 10 ** 9 + 7, 2 ** 61 - 1):
        assert p % 4 == 3
        squares = {x * x % p for x in range(p)} if p < 100 else \
            {rng.randrange(p) ** 2 % p for _ in range(300)}
        for a in squares:
            r = _sqrt_mod(a, p)
            assert r * r % p == a and r == pow(a, (p + 1) // 4, p), (a, p)


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
        assert r * r - f.element(1) * r - f.element(2) == f.element(0)


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
            assert r * r - QQ.element(a) * r - QQ.element(b) == QQ.element(0)
    assert hits > 10


def test_value_reads_plain_ascii_strings_only():
    """``int`` and ``Fraction`` read other scripts' digits, surrounding
    whitespace and digit separators; ``Field.value`` refuses each, and
    ``field_from_json`` refuses them in a modulus, while "0.25" and "1e-3"
    still read over Q."""
    assert QQ.value("0.25") == Fraction(1, 4) and QQ.value("1e-3") == Fraction(1, 1000)
    assert QQ.value("-1/2") == Fraction(-1, 2) and GF(7).value("-1") == 6
    for f in (QQ, GF(7)):
        for text in ("\u0663", "1\u0663", " -1 ", "3\n", "\t3", "1_0", "\u00a03"):
            with pytest.raises(ValueError, match="plain ASCII"):
                f.value(text)
