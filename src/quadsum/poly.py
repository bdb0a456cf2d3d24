"""Univariate polynomials over an exact field.

Includes companion matrices, Krylov annihilators, cyclic vectors (built by
an lcm merge of standard basis vectors, never searched for), and the
substitution test deciding whether f(t) can be written as g(t^2 - t).

The scan of the standard vectors proves the minimal polynomial mu one of
three ways: a chain of degree n, chains that span k^n (the scan stops
there), or, in the Frobenius decomposition only, the split of k^n into the
chain of e_0 and an invariant complement, which the decomposition checks
itself: :func:`_cyclic_scan` offers e_0's chain early, unproven, and
resumes when the offer fails.

Coefficients are stored raw and canonical, as in :mod:`quadsum.matrix`:
``Polynomial(...)`` coerces through ``Field.value``, scalar evaluation
wraps, and the kernels build with :meth:`Polynomial._raw`.  Every
polynomial computation on the decide and construct paths runs on raw
coefficient lists and builds a ``Polynomial`` only for a result: division,
gcd and lcm, the coprime split and merge of cyclic vectors, the digits in
base t^2 - t, and in :mod:`quadsum.canonical` and :mod:`quadsum.sums` the
divisibility chain, the cyclic-block split and the valuation check.  A
product is the one multiplication loop, :func:`_mul`, which
``Polynomial.__mul__`` runs too; a quotient is :func:`_divrem`, with one
``% p`` per coefficient of each step over GF(p); a value at a scalar is
:func:`_horner`.  The operators of ``Polynomial`` serve the public API.

The Krylov annihilator has no elimination of its own: it yields the Krylov
vectors to :func:`quadsum.matrix._first_relation`, and knows nothing of the
span.  The cyclic-vector scan keeps the echelon of its chains itself and
extends it after each run with :func:`quadsum.matrix._span_rank`.
"""

from __future__ import annotations

import itertools
import math

from .errors import (DegreeZero, DimensionMismatch, DivisionByZero,
                     InternalCheckFailed, MixedFields, NotMonic)
from .field import Field, FieldElement
from .matrix import (Matrix, _canonical, _columns, _combination, _first_relation,
                     _raw_products, _span_rank)


class Polynomial:
    """Dense univariate polynomial, constant term first, trailing zeros trimmed.

    The zero polynomial has degree ``None`` (a sentinel, deliberately not -1).
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        self._store(field, list(map(field.value, coeffs)))

    @classmethod
    def _raw(cls, field: Field, coeffs) -> "Polynomial":
        """The kernels' constructor: canonical raw coefficients, trimmed here."""
        poly = object.__new__(cls)
        poly._store(field, list(coeffs))
        return poly

    def _store(self, field: Field, coeffs: list):
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, field: Field) -> "Polynomial":
        return cls._raw(field, ())

    @classmethod
    def one(cls, field: Field) -> "Polynomial":
        return cls._raw(field, (1,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _scaled(self, c) -> "Polynomial":
        """c times self, for a raw canonical scalar c."""
        reduce = self.field.reduce
        return Polynomial._raw(self.field, [reduce(c * x) for x in self.coeffs])

    def monic(self) -> "Polynomial":
        f = self.field
        return self if not self.coeffs else Polynomial._raw(f, _monic(f, self.coeffs))

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
        reduce = self.field.reduce
        return Polynomial._raw(self.field,
                               [reduce(x + y) for x, y in zip(a, b)] + list(a[len(b):]))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return self._scaled(self.field.value(other))
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._chk(other)
        return Polynomial._raw(self.field, _mul(self.field, self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError(f"polynomial to the negative power {k}")
        return math.prod([self] * k, start=Polynomial.one(self.field))

    def divrem(self, divisor: "Polynomial"):
        self._chk(divisor)
        if divisor.is_zero():
            raise DivisionByZero("polynomial division by zero")
        quo, rem = _divrem(self.field, self.coeffs, divisor.coeffs)
        return Polynomial._raw(self.field, quo), Polynomial._raw(self.field, rem)

    def __call__(self, x):
        """Evaluate at a scalar or a square matrix X, by Horner's rule; at X
        it starts from c_d X + c_(d-1) I and packs X's columns once."""
        f = self.field
        if isinstance(x, Matrix):
            if x.field != f:
                raise MixedFields("polynomial and matrix over different fields")
            if not x.is_square:
                raise DimensionMismatch("polynomial of a non-square matrix")
            n, coeffs = x.rows, self.coeffs
            if len(coeffs) < 2:
                return Matrix.zero(f, n, n)._plus_identity(coeffs[0] if coeffs else 0)
            cols = _columns(f, x.raw_cols())  # packed once for every step
            acc = x._scaled(coeffs[-1])._plus_identity(coeffs[-2])
            for c in reversed(coeffs[:-2]):
                acc = Matrix._raw(f, n, n, [v for row in _raw_products(f, acc.raw_rows(), cols)
                                            for v in row])._plus_identity(c)
            return acc
        return f.make(_horner(f, self.coeffs, f.value(x)))

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """self(inner(t))."""
        self._chk(inner)
        f = self.field
        acc = Polynomial.zero(f)
        for c in reversed(self.coeffs):
            acc = acc * inner + Polynomial._raw(f, (c,))
        return acc

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.p, self.coeffs))

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
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                parts.append(f"{c}*t^{k}" if c != 1 else f"t^{k}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self!s} over {self.field!r})"


def _mul(field: Field, a, b) -> list:
    """Raw coefficient list of the product of raw coefficient sequences a
    and b, each coefficient reduced once; the one multiplication loop of
    the package's polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return list(map(field.reduce, out))


def _horner(field: Field, coeffs, x):
    """The raw value at a raw scalar x of raw coefficients, by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = field.reduce(acc * x + c)
    return acc


def _divrem(field: Field, num, den):
    """Raw quotient and trimmed remainder coefficient lists of num / den,
    for raw coefficient sequences with den trimmed and nonzero, both
    canonical; over GF(p) each step reduces once per coefficient, over the
    rationals the remainder is reduced once, at the end."""
    p = field.p
    d = len(den) - 1
    inv = field.inv_raw(den[-1])
    rem = list(num)
    quo = [0] * max(len(rem) - d, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem.pop() * inv
        c = c % p if p is not None else field.reduce(c)
        if c:
            quo[k] = c
            low = zip(rem[k:], den)
            rem[k:] = ([x - c * y for x, y in low] if p is None
                       else [(x - c * y) % p for x, y in low])
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem if p is not None else _canonical(field, rem)


def _monic(field: Field, coeffs) -> list:
    """Raw coefficients made monic, for a nonzero leading one."""
    inv = field.inv_raw(coeffs[-1])
    return [field.reduce(c * inv) for c in coeffs]


def _gcd(field: Field, a, b):
    """Raw coefficient list of a greatest common divisor, by Euclid."""
    while b:
        a, b = b, _divrem(field, a, b)[1]
    return a


def lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic least common multiple: the one of a and b that the other
    divides, made monic, else (a / gcd(a, b)) b, made monic."""
    a._chk(b)
    f = a.field
    if a.is_zero() or b.is_zero():
        return Polynomial.zero(f)
    for multiple, divisor in ((a, b), (b, a)):
        if not _divrem(f, multiple.coeffs, divisor.coeffs)[1]:
            return multiple.monic()
    quo = _divrem(f, a.coeffs, _gcd(f, a.coeffs, b.coeffs))[0]
    return Polynomial._raw(f, _monic(f, _mul(f, quo, b.coeffs)))


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
    last = [f.reduce(-c) for c in p.coeffs]
    return Matrix._raw(f, n, n, [last[i] if j == n - 1 else int(i == j + 1)
                                 for i in range(n) for j in range(n)])


# ---- Krylov machinery ------------------------------------------------

def krylov_annihilator(m: Matrix, v_raw, m_rows=None):
    """Least-degree monic annihilator of the vector v under m, plus its chain.

    Returns ``(poly, chain)`` where chain is the list of raw Krylov vectors
    v, m v, ..., m^(d-1) v for d = deg(poly).  ``m_rows`` is
    ``quadsum.matrix._columns`` of m's rows, built here when not given;
    callers that run several chains under one m build it once.

    Each Krylov vector is computed only when
    :func:`quadsum.matrix._first_relation` asks for it, and the first
    relation among them gives the annihilator's coefficients.
    """
    n = m.rows
    if m.cols != n or len(v_raw) != n:
        raise DimensionMismatch(f"krylov annihilator: a {len(v_raw)}-vector under "
                                f"a {m.rows}x{m.cols} matrix")
    f = m.field
    if m_rows is None:
        m_rows = _columns(f, m.raw_rows())
    chain = []

    def powers(w):
        for _ in range(n + 1):
            chain.append(w)
            yield w
            w = _raw_products(f, [w], m_rows)[0]

    combo = _first_relation(f, powers(_canonical(f, v_raw)), n)
    if combo is None:
        raise InternalCheckFailed(f"krylov annihilator: the chain outgrew the {n}x{n} matrix")
    return Polynomial._raw(f, combo), chain[:-1]


def _coprime_split(p: Polynomial, q: Polynomial):
    """The raw coefficient lists of (a, b) with a | p, b | q, gcd(a, b) = 1
    and a b = lcm(p, q), for monic p, q.  a starts as p / gcd(p, q), whose
    irreducibles are those with a higher power in p than in q, and grows
    until p / a is coprime to it.  The work runs on raw coefficient lists,
    each gcd made monic."""
    f = p.field
    g = _monic(f, _gcd(f, p.coeffs, q.coeffs))
    a = _divrem(f, p.coeffs, g)[0]
    while len(h := _monic(f, _gcd(f, _divrem(f, p.coeffs, a)[0], a))) > 1:
        a = _mul(f, a, h)
    b = _divrem(f, _mul(f, q.coeffs, _divrem(f, p.coeffs, a)[0]), g)[0]
    return a, b


def _merge(m: Matrix, m_rows, first, second):
    """An (annihilator, chain) pair whose annihilator is the lcm of those of
    two pairs (p, chain of u) and (q, chain of w) under m, with m's rows
    ``m_rows`` as :func:`krylov_annihilator` takes them.  With lcm(p, q) =
    a b split by :func:`_coprime_split`, (p/a)(m) u + (q/b)(m) w has
    annihilator a b; both terms are read off the chains, with no matrix
    product."""
    (p, u_chain), (q, w_chain) = first, second
    f = m.field
    if not _divrem(f, p.coeffs, q.coeffs)[1]:
        return first
    if not _divrem(f, q.coeffs, p.coeffs)[1]:
        return second
    a, b = _coprime_split(p, q)
    coeffs, vecs = [], []
    for chain, num, den in ((u_chain, p, a), (w_chain, q, b)):
        quo = _divrem(f, num.coeffs, den)[0]
        coeffs += quo
        vecs += chain[:len(quo)]
    ann, chain = krylov_annihilator(m, _combination(f, coeffs, vecs), m_rows)
    ab = Polynomial._raw(f, _mul(f, a, b))
    if ann != ab:
        raise InternalCheckFailed(f"cyclic vector merge: annihilator {ann}, not {ab}, "
                                  f"under the {m.rows}x{m.rows} matrix")
    return ann, chain


def cyclic_vector(m: Matrix):
    """(mu, chain): the minimal polynomial of m, the lcm of the annihilators
    of e_0, e_1, ..., and the Krylov chain of a vector whose annihilator it
    is: the first e_i that has it, else the merge of all e_i, two at a time.

    mu is proven one of two ways.  A chain of degree n is cyclic.  Otherwise
    the chains of e_0, ..., e_i span W = Z(e_0) + ... + Z(e_i), which m maps
    into itself; once W is k^n, the lcm so far kills all of k^n and is mu,
    so the scan stops there.  W's rank is kept here, in an echelon that each
    scanned chain extends through :func:`quadsum.matrix._span_rank` (modulo
    one prime over the rationals, where a rank short of n only keeps the
    scan going).  The first e_j with annihilator mu is then looked for among
    the vectors already run, else e_(i+1), e_(i+2), ... are run one at a
    time, and when none has it all n are merged, as by a full scan.  A chain
    of degree n, the last e_(n-1) and the merge's check runs extend no
    echelon, as nothing is left to save.  This is the last offer of
    :func:`_cyclic_scan`, which the Frobenius decomposition drives itself.
    """
    for mu, chain, proven in _cyclic_scan(m):
        if proven:
            return mu, chain


def _cyclic_scan(m: Matrix):
    """The scan of :func:`cyclic_vector`, offering (lcm, chain, proven).

    The last offer is cyclic_vector's result, proven.  One offer may come
    before it, unproven: the chain of e_0 with its annihilator a, right
    after e_1, when e_1's annihilator divides a (the lcm did not move) and
    the two chains leave at least two dimensions of k^n uncovered (with one
    left, the scan ends within one more chain).  Whoever takes that offer
    proves a = mu itself (:func:`quadsum.canonical._cyclic_decompose`
    does, from the invariant complement it builds anyway and a(R) = 0 on
    the restriction R, before it recurses on R); the scan, when resumed,
    goes on from the chains and the echelon it has, so no chain runs
    twice.  A vector's chain depends on the vector alone, so when a is
    mu the offer is the chain the scan would return: e_0 comes first.
    """
    if not m.is_square:
        raise DimensionMismatch("cyclic vector of a non-square matrix")
    n = m.rows
    mu = Polynomial.one(m.field)
    m_rows = _columns(m.field, m.raw_rows())
    span = []
    runs = (krylov_annihilator(m, [int(i == j) for j in range(n)], m_rows) for i in range(n))
    tried = []
    for ann, chain in runs:
        if ann.degree == n:
            yield ann, chain, True
            return
        tried.append((ann, chain))
        mu = lcm(mu, ann)
        if len(tried) == n or (covered := _span_rank(m.field, span, chain, n)) == n:
            break
        if len(tried) == 2 and mu == tried[0][0] and covered <= n - 2:
            yield mu, tried[0][1], False
    passed = []
    for pair in itertools.chain(tried, runs):
        if pair[0] == mu:
            yield *pair, True
            return
        passed.append(pair)
    merged = passed[0] if passed else (mu, [])
    for pair in passed[1:]:
        merged = _merge(m, m_rows, merged, pair)
    yield *merged, True


def minimal_polynomial(m: Matrix) -> Polynomial:
    """Monic minimal polynomial, as the lcm of standard-basis Krylov annihilators."""
    return cyclic_vector(m)[0]


def decompose_in_t2_minus_t(f: Polynomial):
    """Write a monic f as g(t^2 - t) if possible; return g, else None.

    The digits of f in base s = t^2 - t, the remainders of repeated division
    by s, have degree below 2.  f is g(s) exactly when every digit is a
    constant, and then the digits are g's coefficients, lowest first.  As
    t^k = t^(k-2) s + t^(k-1), one pass from the top, w_(k-1) += w_k for
    k >= 2, divides w by s in place: the quotient is w[2:] and the
    remainder w_0 + w_1 t.
    """
    if not f.is_monic():
        raise NotMonic("decompose_in_t2_minus_t needs a monic polynomial")
    field = f.field
    work, digits = list(f.coeffs), []
    while work:
        for k in range(len(work) - 1, 1, -1):
            work[k - 1] = field.reduce(work[k - 1] + work[k])
        if len(work) > 1 and work[1]:
            return None
        digits.append(work[0])
        work = work[2:]
    return Polynomial._raw(field, digits)


def substitute_one_minus_t(f: Polynomial) -> Polynomial:
    """The polynomial f(1 - t)."""
    one_minus_t = Polynomial(f.field, [1, -1])
    return f.compose(one_minus_t)
