"""Exact scalar arithmetic over the rationals and over prime fields GF(p).

Every value is canonical: over the rationals an ``int`` when it is an
integer and otherwise a reduced :class:`~fractions.Fraction` (denominator
above 1), over GF(p) an ``int`` residue in ``[0, p)``.  So the ints 0 and 1
are the zero and the one of every field, and the kernels write them as they
are, with no call of :meth:`Field.reduce`.  An ``int`` and a ``Fraction`` of
the same value compare and hash equal and print alike, so the choice shows
in speed alone: integer matrices stay integral through the kernels.
Structural equality is exact equality, and all operations are pure, so
values are freely shareable.  Matrices and polynomials store these
raw canonical values; :class:`FieldElement` wraps one for the public API.
:meth:`Field.value` is the one coercion of a scalar (it reads ints,
Fractions, strings and elements to their raw value, and refuses floats and
bools), :meth:`Field.make` wraps a raw value, and :meth:`Field.reduce` is
the one function that brings a raw intermediate to canonical form (the GF(p)
elimination loops and :func:`quadsum.matrix._canonical` inline its ``% p``).  :func:`_rational`
builds every rational from a numerator and a denominator, and this module
alone builds a ``Fraction``.  :func:`_is_int` is the package's one test of
an integer, an int that is not a bool: moduli, matrix dimensions, counts and
exact scalars are all read through it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partialmethod
from math import isqrt
from operator import add, mul, sub, truediv

from .errors import DivisionByZero, MixedFields


#: The first thirteen primes.  As Miller-Rabin bases they decide primality
#: exactly for every n below ``_PRIME_LIMIT`` (the least strong pseudoprime
#: to all of them, Sorenson and Webster 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p below ``_PRIME_LIMIT``."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _plain(text: str) -> str:
    """``text`` when it is ASCII, has no surrounding whitespace and no
    ``_``, else ValueError: ``int`` and ``Fraction`` also read the decimal
    digits of other scripts (Arabic-Indic three as 3), spaces around the
    number and digit separators ("1_0" as 10), none of which a plain
    decimal string has."""
    if not text.isascii() or text != text.strip() or "_" in text:
        raise ValueError(f"{text!r} is not a plain ASCII decimal string")
    return text


def _is_int(x) -> bool:
    """Whether x is an int and not a bool: the package's one test of an
    integer, for moduli, sizes, counts and scalars alike."""
    return isinstance(x, int) and not isinstance(x, bool)


def _rational(num: int, den: int):
    """The canonical rational num / den, for ints num and den != 0 of any
    signs: the quotient when den divides num, else a reduced Fraction."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


class Field:
    """The rationals (``p is None``) or the prime field GF(p), p prime.

    A modulus that is not an int, or is a bool, is a TypeError.  Moduli are
    validated by deterministic Miller-Rabin, which bounds them below
    ``_PRIME_LIMIT`` (about 3.3e24).
    """

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if not _is_int(p):
                raise TypeError(f"modulus {p!r} is not an int")
            if p >= _PRIME_LIMIT:
                raise ValueError(f"modulus {p} is not below the supported limit {_PRIME_LIMIT}")
            if not _is_prime(p):
                raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"

    # ---- element construction ----------------------------------------

    def make(self, v) -> "FieldElement":
        """Wrap a canonical raw value: over the rationals an int, or a
        Fraction with denominator above 1; over GF(p) a residue in [0, p)."""
        return FieldElement(self, v)

    def value(self, x):
        """The canonical raw value of an int, Fraction, element of this field,
        or a string: "3", "-1/2", or over the rationals "0.25" and "1e-3".
        A float or bool is a TypeError, a non-integral Fraction over GF(p) a
        ValueError, and so is a string that is not ASCII, has whitespace
        around it or holds ``_`` (:func:`_plain`).  Fraction computes 10**k
        for an exponent k, so a string with |k| > 4300 is a ValueError."""
        if isinstance(x, FieldElement):
            if x.field != self:
                raise MixedFields(f"element of {x.field!r} used in {self!r}")
            return x.v
        if isinstance(x, str):
            _plain(x)
            if "e" in x.lower() and abs(int(x.lower().rpartition("e")[2])) > 4300:
                raise ValueError(f"exponent out of range in {x!r}")
            return self.reduce(Fraction(x) if self.p is None else int(x))
        if not (_is_int(x) or isinstance(x, Fraction)):
            raise TypeError(f"{x!r} is not an exact scalar")
        if self.p is not None and x.denominator != 1:
            raise ValueError(f"{x} is not an integer, so not a residue of {self!r}")
        return self.reduce(x if self.p is None else int(x))

    def element(self, x) -> "FieldElement":
        """``x`` as an element: its :meth:`value`, wrapped."""
        return self.make(self.value(x))

    # ---- raw-value arithmetic used by the dense kernels --------------

    def reduce(self, v):
        """Canonical form of a raw intermediate: ``v % p`` over GF(p); over
        the rationals an int as it is, and a Fraction as its numerator when
        its denominator is 1."""
        p = self.p
        if p is None:
            return v if type(v) is int or v.denominator != 1 else v.numerator
        return v % p

    def inv_raw(self, v):
        if not v:
            raise DivisionByZero("inverse of zero")
        if self.p is None:
            return _rational(v.denominator, v.numerator)
        return pow(v, self.p - 2, self.p)


class FieldElement:
    """Immutable scalar bound to its :class:`Field`.

    Supports ``+ - * /``, equality and hashing, and no order.  Plain ints
    are coerced into the element's field, and so are Fractions when it
    compares (over GF(p) a non-integral one equals no element).  An element
    hashes as its raw value, so it hashes like the number it equals: over
    the rationals that int or Fraction, over GF(p) its canonical residue.
    Over GF(p) it also equals the other ints of its residue class
    (``GF(5).element(3) == 8``), which no hash can follow:
    ``8 in {GF(5).element(3)}`` is False.
    """

    __slots__ = ("field", "v")

    def __init__(self, field: Field, v):
        self.field = field
        self.v = v

    def _apply(self, op, swap, other):
        """The one body of the binary operators and of negation (times -1):
        ``op`` on the raw values of self and ``other`` (in the other order
        with ``swap``), reduced and wrapped.  ``truediv`` multiplies by
        ``Field.inv_raw``, so a zero divisor is DivisionByZero.  ``other`` is
        an element of this field or an int; any other operand is
        NotImplemented."""
        if not isinstance(other, (FieldElement, int)):
            return NotImplemented
        f = self.field
        x, y = self.v, f.value(other)
        if swap:
            x, y = y, x
        return f.make(f.reduce(x * f.inv_raw(y) if op is truediv else op(x, y)))

    __add__ = __radd__ = partialmethod(_apply, add, False)
    __sub__ = partialmethod(_apply, sub, False)
    __rsub__ = partialmethod(_apply, sub, True)
    __mul__ = __rmul__ = partialmethod(_apply, mul, False)
    __truediv__ = partialmethod(_apply, truediv, False)
    __rtruediv__ = partialmethod(_apply, truediv, True)
    __neg__ = partialmethod(_apply, mul, False, -1)

    def inverse(self) -> "FieldElement":
        return self.field.make(self.field.inv_raw(self.v))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return other.field == self.field and other.v == self.v
        if _is_int(other) or isinstance(other, Fraction):
            if self.field.p is not None and other.denominator != 1:
                return False  # no residue is a non-integral rational
            return self.v == self.field.value(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.v)

    def __bool__(self):
        return bool(self.v)

    def __str__(self):
        return str(self.v)

    def __repr__(self):
        return f"{self.v!s} in {self.field!r}"


@lru_cache(maxsize=None, typed=True)
def GF(p: int) -> Field:
    """The prime field with p elements (cached, so ``GF(p) is GF(p)``; the
    cache keys on the type, so ``GF(5.0)`` is refused even after ``GF(5)``)."""
    return Field(p)


#: The field of rational numbers.
QQ = Field()


def _sqrt_mod(a: int, p: int) -> int:
    """Tonelli-Shanks square root of a quadratic residue a mod an odd prime p."""
    a %= p
    if a == 0:
        return 0
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def quadratic_roots(field: Field, a, b) -> list[FieldElement] | None:
    """Roots of t^2 - a*t - b in ``field``, or None if it does not split.

    When the polynomial splits, both roots are returned with multiplicity,
    sorted ascending (so callers can pick a deterministic representative).
    """
    a = field.value(a)
    b = field.value(b)
    p = field.p
    if p is None:
        disc = a * a + 4 * b
        if disc < 0:
            return None
        rn, rd = isqrt(disc.numerator), isqrt(disc.denominator)
        if rn * rn != disc.numerator or rd * rd != disc.denominator:
            return None
        s = _rational(rn, rd)
    elif p == 2:
        hits = [r for r in (0, 1) if (r * r - a * r - b) % 2 == 0]
        if not hits:
            return None
        roots = hits[0], (a - hits[0]) % 2
    else:
        disc = (a * a + 4 * b) % p
        if disc and pow(disc, (p - 1) // 2, p) != 1:
            return None
        s = _sqrt_mod(disc, p)
    if p != 2:
        half = field.inv_raw(2)
        roots = field.reduce((a + s) * half), field.reduce((a - s) * half)
    return [field.make(r) for r in sorted(roots)]
