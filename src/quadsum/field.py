"""Exact scalar arithmetic over the rationals and over prime fields GF(p).

Every element is canonical: a reduced :class:`~fractions.Fraction` for the
rationals, a residue in ``[0, p)`` for GF(p).  Structural equality is exact
equality, and all operations are pure, so values are freely shareable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

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


class Field:
    """The rationals (``p is None``) or the prime field GF(p), p prime.

    Moduli are validated by deterministic Miller-Rabin, which bounds them
    below ``_PRIME_LIMIT`` (about 3.3e24).
    """

    __slots__ = ("p", "_interned")

    _INTERN_CAP = 1 << 12

    def __init__(self, p: int | None = None):
        if p is not None:
            if p >= _PRIME_LIMIT:
                raise ValueError(f"modulus {p} is not below the supported limit {_PRIME_LIMIT}")
            if not _is_prime(p):
                raise ValueError(f"modulus {p} is not prime")
        self.p = p
        if p is not None and p <= self._INTERN_CAP:
            self._interned = tuple(FieldElement(self, r) for r in range(p))
        else:
            self._interned = None

    def __eq__(self, other):
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"

    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    @property
    def is_rational(self) -> bool:
        return self.p is None

    # ---- element construction ----------------------------------------

    def make(self, v) -> "FieldElement":
        """Wrap an already-reduced raw value (Fraction, or residue in [0, p))."""
        if self._interned is not None:
            return self._interned[v]
        if self.p is None and not isinstance(v, Fraction):
            v = Fraction(v)
        return FieldElement(self, v)

    def element(self, x) -> "FieldElement":
        """Coerce an int, Fraction, decimal/fraction string, or element."""
        if isinstance(x, FieldElement):
            if x.field != self:
                raise MixedFields(f"element of {x.field!r} used in {self!r}")
            return x
        if isinstance(x, str):
            return self.parse(x)
        if self.p is None:
            return self.make(Fraction(x))
        return self.make(int(x) % self.p)

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def parse(self, s: str) -> "FieldElement":
        s = s.strip()
        if self.p is None:
            return self.make(Fraction(s))
        return self.make(int(s) % self.p)

    # ---- raw-value arithmetic used by the dense kernels --------------

    def reduce(self, v):
        """Reduce an intermediate raw value to canonical form."""
        return v if self.p is None else v % self.p

    def inv_raw(self, v):
        if not v:
            raise DivisionByZero("inverse of zero")
        if self.p is None:
            # raw rational values may be plain ints; keep division exact
            return Fraction(1) / v
        return pow(v, self.p - 2, self.p)


class FieldElement:
    """Immutable scalar bound to its :class:`Field`.

    Supports ``+ - * / **`` and a total order used for deterministic root
    selection (rationals by value, residues by representative).  Plain ints
    are coerced into the element's field.
    """

    __slots__ = ("field", "v")

    def __init__(self, field: Field, v):
        self.field = field
        self.v = v

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise MixedFields(f"{self.field!r} vs {other.field!r}")
            return other
        if isinstance(other, int):
            return self.field.element(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.field
        return f.make(self.v + o.v if f.p is None else (self.v + o.v) % f.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.field
        return f.make(self.v - o.v if f.p is None else (self.v - o.v) % f.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.field
        return f.make(self.v * o.v if f.p is None else (self.v * o.v) % f.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        f = self.field
        return f.make(-self.v if f.p is None else (-self.v) % f.p)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        f = self.field
        if f.p is not None:
            return f.make(pow(self.v, k, f.p))
        return f.make(self.v ** k)

    def inverse(self) -> "FieldElement":
        return self.field.make(self.field.inv_raw(self.v))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return other.field == self.field and other.v == self.v
        if isinstance(other, int):
            return self == self.field.element(other)
        return NotImplemented

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.v < o.v

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.v <= o.v

    def __hash__(self):
        return hash((self.field.p, self.v))

    def __bool__(self):
        return bool(self.v)

    def __str__(self):
        return str(self.v)

    def __repr__(self):
        return f"{self.v!s} in {self.field!r}"


@lru_cache(maxsize=None)
def GF(p: int) -> Field:
    """The prime field with p elements (cached, so ``GF(p) is GF(p)``)."""
    return Field(p)


#: The field of rational numbers.
QQ = Field()


def characteristic(field: Field) -> int:
    """0 for the rationals, p for GF(p)."""
    return field.characteristic()


def _sqrt_mod(a: int, p: int) -> int:
    """Tonelli-Shanks square root of a quadratic residue a mod an odd prime p."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
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
    a = field.element(a)
    b = field.element(b)
    p = field.p
    if p is None:
        disc = a.v * a.v + 4 * b.v
        if disc < 0:
            return None
        rn, rd = isqrt(disc.numerator), isqrt(disc.denominator)
        if rn * rn != disc.numerator or rd * rd != disc.denominator:
            return None
        s = Fraction(rn, rd)
        lo, hi = sorted(((a.v + s) / 2, (a.v - s) / 2))
        return [field.make(lo), field.make(hi)]
    if p == 2:
        hits = [r for r in (0, 1) if (r * r - a.v * r - b.v) % 2 == 0]
        if not hits:
            return None
        r = hits[0]
        lo, hi = sorted((r, (a.v - r) % 2))
        return [field.make(lo), field.make(hi)]
    disc = (a.v * a.v + 4 * b.v) % p
    half = field.inv_raw(2)
    if disc == 0:
        r = a.v * half % p
        return [field.make(r), field.make(r)]
    if pow(disc, (p - 1) // 2, p) != 1:
        return None
    s = _sqrt_mod(disc, p)
    lo, hi = sorted(((a.v + s) * half % p, (a.v - s) * half % p))
    return [field.make(lo), field.make(hi)]
