"""Univariate polynomials over an exact field.

Includes companion matrices, Krylov-based minimal polynomials, and the
substitution test deciding whether f(t) can be written as g(t^2 - t).
"""

from __future__ import annotations

from .errors import (DegreeZero, DimensionMismatch, DivisionByZero,
                     InternalCheckFailed, MixedFields, NotMonic)
from .field import Field, FieldElement
from .matrix import Matrix, _integral, _raw_products


class Polynomial:
    """Dense univariate polynomial, constant term first, trailing zeros trimmed.

    The zero polynomial has degree ``None`` (a sentinel, deliberately not -1).
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        coeffs = tuple(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs = coeffs[:-1]
        self.field = field
        self.coeffs = coeffs

    @classmethod
    def from_coeffs(cls, field: Field, coeffs) -> "Polynomial":
        return cls(field, [field.element(c) for c in coeffs])

    @classmethod
    def zero(cls, field: Field) -> "Polynomial":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Polynomial":
        return cls(field, (field.one(),))

    @classmethod
    def constant(cls, field: Field, c) -> "Polynomial":
        return cls(field, (field.element(c),))

    @classmethod
    def x(cls, field: Field) -> "Polynomial":
        return cls(field, (field.zero(), field.one()))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one()

    def lead(self) -> FieldElement:
        if not self.coeffs:
            raise DegreeZero("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> FieldElement:
        return self.coeffs[k] if k < len(self.coeffs) else self.field.zero()

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        inv = self.lead().inverse()
        return Polynomial(self.field, [c * inv for c in self.coeffs])

    # ---- arithmetic --------------------------------------------------

    def _chk(self, other: "Polynomial"):
        if other.field != self.field:
            raise MixedFields("polynomials over different fields")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._chk(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(self.field, out)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Polynomial(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int)):
            c = self.field.element(other)
            return Polynomial(self.field, [c * x for x in self.coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._chk(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.field)
        f = self.field
        p = f.p
        a = [c.v for c in self.coeffs]
        b = [c.v for c in other.coeffs]
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        if p is not None:
            out = [v % p for v in out]
        return Polynomial(f, [f.make(v) for v in out])

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        result = Polynomial.one(self.field)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def divrem(self, divisor: "Polynomial"):
        self._chk(divisor)
        if divisor.is_zero():
            raise DivisionByZero("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        d = divisor.degree
        dlead_inv = divisor.lead().inverse()
        quo = [f.zero()] * max(len(rem) - d, 0)
        for k in range(len(rem) - d - 1, -1, -1):
            c = rem[k + d] * dlead_inv
            if c:
                quo[k] = c
                for i, dc in enumerate(divisor.coeffs):
                    rem[k + i] = rem[k + i] - c * dc
        return Polynomial(f, quo), Polynomial(f, rem[:d])

    def __call__(self, x):
        """Evaluate at a scalar or (square) matrix, by Horner's rule."""
        if isinstance(x, Matrix):
            ident = Matrix.identity(x.field, x.rows)
            acc = Matrix.zero(x.field, x.rows, x.rows)
            for c in reversed(self.coeffs):
                acc = acc * x + c * ident
            return acc
        x = self.field.element(x)
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """self(inner(t))."""
        self._chk(inner)
        acc = Polynomial.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * inner + Polynomial.constant(self.field, c)
        return acc

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.p, tuple(c.v for c in self.coeffs)))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*t" if c != self.field.one() else "t")
            else:
                parts.append(f"{c}*t^{k}" if c != self.field.one() else f"t^{k}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self!s} over {self.field!r})"


def gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor."""
    while not b.is_zero():
        _, r = a.divrem(b)
        a, b = b, r
    return a.monic() if not a.is_zero() else a


def lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.is_zero() or b.is_zero():
        return Polynomial.zero(a.field)
    g = gcd(a, b)
    q, _ = (a * b).divrem(g)
    return q.monic()


def companion(p: Polynomial) -> Matrix:
    """Companion matrix with subdiagonal ones.

    For p = t^n - a_{n-1} t^{n-1} - ... - a_0 the last column carries
    a_0, ..., a_{n-1}, so the minimal polynomial of C(p) is p.
    """
    if not p.is_monic():
        raise NotMonic(f"companion needs a monic polynomial, got {p}")
    n = p.degree
    if n < 1:
        raise DegreeZero("companion needs degree >= 1")
    f = p.field
    z, o = f.zero(), f.one()
    ent = []
    for i in range(n):
        for j in range(n):
            if j == n - 1:
                ent.append(-p.coeffs[i])
            elif i == j + 1:
                ent.append(o)
            else:
                ent.append(z)
    return Matrix(f, n, n, ent)


# ---- Krylov machinery ------------------------------------------------

def krylov_annihilator(m: Matrix, v_raw):
    """Least-degree monic annihilator of the vector v under m, plus its chain.

    Returns ``(poly, chain)`` where chain is the list of raw Krylov vectors
    v, m v, ..., m^(d-1) v for d = deg(poly).
    """
    f = m.field
    p = f.p
    n = m.rows
    m_rows = _integral(f, m.raw_rows())
    ech = []  # (pivot index, reduced vector, combination over krylov powers)
    chain = []
    w = list(v_raw)
    k = 0
    while True:
        vec = list(w)
        combo = [0] * (k + 1)
        combo[k] = 1
        for pi, evec, ecombo in ech:
            c = vec[pi]
            if c:
                if p is None:
                    vec = [x - c * y for x, y in zip(vec, evec)]
                    for i, e in enumerate(ecombo):
                        combo[i] -= c * e
                else:
                    vec = [(x - c * y) % p for x, y in zip(vec, evec)]
                    for i, e in enumerate(ecombo):
                        combo[i] = (combo[i] - c * e) % p
        if not any(vec):
            return Polynomial(f, [f.make(f.reduce(c)) for c in combo]), chain
        if k > n:
            raise InternalCheckFailed("krylov chain exceeded the ambient dimension")
        piv = next(i for i, x in enumerate(vec) if x)
        inv = f.inv_raw(vec[piv])
        if p is None:
            vec = [x * inv for x in vec]
            combo = [c * inv for c in combo]
        else:
            vec = [x * inv % p for x in vec]
            combo = [c * inv % p for c in combo]
        ech.append((piv, vec, combo))
        chain.append(list(w))
        # advance: w <- m w
        w = _raw_products(f, _integral(f, [w]), m_rows)[0]
        k += 1


def _standard_krylov(m: Matrix):
    """The minimal polynomial as the lcm of the Krylov annihilators of
    e_0, e_1, ..., plus the ``(annihilator, chain)`` pair of every e_i
    tried; the scan stops once the lcm has degree n."""
    f = m.field
    n = m.rows
    acc = Polynomial.one(f)
    tried = []
    for i in range(n):
        if acc.degree == n:
            break
        v = [0] * n
        v[i] = 1
        ann, chain = krylov_annihilator(m, v)
        tried.append((ann, chain))
        acc = lcm(acc, ann)
    return acc, tried


def minimal_polynomial(m: Matrix) -> Polynomial:
    """Monic minimal polynomial, as the lcm of standard-basis Krylov annihilators."""
    if not m.is_square:
        raise DimensionMismatch("minimal polynomial of a non-square matrix")
    return _standard_krylov(m)[0]


def decompose_in_t2_minus_t(f: Polynomial):
    """Write a monic f as g(t^2 - t) if possible; return g, else None.

    Greedy: repeatedly strip the even leading term c*t^(2m) by subtracting
    c*(t^2 - t)^m, failing as soon as an odd-degree leading term shows up.
    The representation is unique when it exists.
    """
    if not f.is_monic():
        raise NotMonic("decompose_in_t2_minus_t needs a monic polynomial")
    field = f.field
    s = Polynomial.from_coeffs(field, [0, -1, 1])  # t^2 - t
    powers = {0: Polynomial.one(field)}

    def s_pow(m):
        if m not in powers:
            powers[m] = s_pow(m - 1) * s
        return powers[m]

    work = f
    g_coeffs: dict[int, FieldElement] = {}
    while work.degree not in (None, 0):
        d = work.degree
        if d % 2:
            return None
        m = d // 2
        c = work.lead()
        g_coeffs[m] = c
        work = work - c * s_pow(m)
    if not work.is_zero():
        g_coeffs[0] = work.coeffs[0]
    top = max(g_coeffs)
    out = [field.zero()] * (top + 1)
    for k, c in g_coeffs.items():
        out[k] = c
    return Polynomial(field, out)


def substitute_one_minus_t(f: Polynomial) -> Polynomial:
    """The polynomial f(1 - t)."""
    one_minus_t = Polynomial.from_coeffs(f.field, [1, -1])
    return f.compose(one_minus_t)
