"""Structure theory with explicit change-of-basis matrices.

Provides the invariant-factor (Frobenius) decomposition via iterated cyclic
subspaces, the valuations f = (t - alpha)^a (t - beta)^b h of an invariant
factor, and the split of one cyclic block k[t]/(f) with f = t^a (t - 1)^b h
into C(h), J_a(0) and J_b(1) by the Chinese remainder theorem.  Nullity
sequences are not computed here: :mod:`quadsum.sums` reads them off the
valuations, which it checks exactly, and no rank of a power is taken.
Every transform is verified post-hoc by the conjugation identity it claims,
M X = X E for a block sum E, with no inverse and no product matrix: X E is
read off X's columns (a companion block shifts them and closes with one
combination of them, :func:`_times_companions`) and compared entry by entry
with M's rows times those columns (:func:`quadsum.matrix._products_equal`).

Every basis vector of the Frobenius decomposition is constructed, none is
searched for.  The cyclic vector of each level comes from
:func:`quadsum.poly.cyclic_vector` (a standard basis vector, or a merge of
them).  The invariant complement of its cyclic subspace is the kernel of d
dual rows w, wM, ..., wM^(d-1): w is the first standard row whose pairing
with the Krylov chain is invertible, or else the solution of w K = e_(d-1)^T,
whose pairing is always invertible.  That kernel's basis is the identity at
its free coordinates, so M restricted to it is read off those rows of M times
the basis, and the next level starts from it with no solve.

Each level's minimal polynomial mu is proven one of three ways: the cyclic
vector's chain has degree n; the scanned chains span k^n; or the split of
k^n into the chain of e_0 (annihilator a) and ker W proves it, when the scan
offers e_0 early (:func:`quadsum.poly._cyclic_scan`).  The split proves a =
mu when ker W is M-invariant (the last dual row times M vanishes on it) and
a(R) = 0 for the restriction R, which says that mu_R divides a, since then
mu = lcm(a, mu_R) = a.  Both checks come before the level recurses on R, so
an offer that fails one is dropped having decomposed nothing, the scan
resumes where it stopped, and the decomposition recurses at most once per
invariant factor.  A level that takes an offer is the one the full scan
gives, e_0 being the first vector with annihilator mu.  A scalar level lam I
is closed at once: its factors are t - lam, and its basis is the
anti-identity that its levels would build one dimension at a time.
"""

from __future__ import annotations

from functools import partial

from .errors import DimensionMismatch, InternalCheckFailed
from .field import Field
from .matrix import (Matrix, _columns, _combination, _products_equal, _rank, _raw_products,
                     _span_rank, kernel_matrix, rank, solve)
from .poly import Polynomial, _cyclic_scan, _divrem, _mul, companion


def _dual_rows(m: Matrix, chain) -> Matrix:
    """Rows w, wM, ..., wM^(d-1) whose pairing with the Krylov chain, d raw
    canonical vectors of length n, is invertible.

    The kernel of the resulting d x n matrix is an M-invariant complement of
    the cyclic subspace spanned by the chain.  The standard rows are tried
    first, in order.  When none pairs invertibly, w solves w K = e_(d-1)^T:
    it reads the last Krylov coordinate, so w M^(i+j) v is 0 above the
    antidiagonal and 1 on it, and the pairing is invertible.
    """
    f = m.field
    n, d = m.rows, len(chain)
    m_cols = _columns(f, m.raw_cols())
    chain_cols = _columns(f, chain)
    for i in range(n + 1):
        rows = [[int(i == j) for j in range(n)] if i < n else
                list(solve(Matrix._raw(f, d, n, [x for v in chain for x in v]),
                           Matrix._raw(f, d, 1, [0] * (d - 1) + [1]))._e)]
        for _ in range(d - 1):
            rows.append(_raw_products(f, [rows[-1]], m_cols)[0])
        pairing = _raw_products(f, rows, chain_cols)
        if _rank(f, pairing, d) == d:
            return Matrix._raw(f, d, n, [x for r_ in rows for x in r_])
    raise InternalCheckFailed(f"dual rows: the solved row pairs singularly with the {n}x{d} chain")


def _times_companions(field: Field, cols, factors) -> list:
    """The columns of X (C(f_1) (+) C(f_2) (+) ...) from the raw columns of
    X, with no product: in the block of f = t^d + f_(d-1) t^(d-1) + ... +
    f_0 whose columns of X are x_0, ..., x_(d-1), column j is x_(j+1) and
    the last is -(f_0 x_0 + ... + f_(d-1) x_(d-1)).  Factors of degree 0
    have no block."""
    out, off = [], 0
    for fac in factors:
        block = cols[off:off + fac.degree]
        if block:
            out += block[1:] + [_combination(field, [-c for c in fac.coeffs[:-1]], block)]
        off += fac.degree
    return out


def _chain_matrix(field: Field, chain) -> Matrix:
    """The matrix whose columns are the canonical raw vectors of a chain;
    0 x 0 for no vectors."""
    return Matrix._raw(field, len(chain[0]) if chain else 0, len(chain),
                       [x for row in zip(*chain) for x in row])


def _cyclic_decompose(m: Matrix):
    """Factors (divisibility chain, largest last) and the raw columns (lists)
    of a basis T with T^-1 M T = C(f_1) + ... + C(f_r) block-diagonal.

    T is built as columns and never as a matrix: a cyclic level's columns
    are its chain, and a level with complement comp puts comp times each
    column of the level below before its chain, one :func:`_raw_products`
    call, the call shape of a Krylov step.

    The scan's unproven offer (e_0's chain with annihilator a, see
    :func:`quadsum.poly._cyclic_scan`) is taken when the split it builds
    proves a = mu: its complement ker W is M-invariant exactly when the last
    dual row w M^(d-1) times M vanishes on it, and then mu = lcm(a, mu_R),
    so a = mu exactly when mu_R divides a, that is when a(R) = 0.  Both
    checks come before the recursion on R: an offer that fails either is
    dropped having decomposed nothing, and the scan resumes.

    A scalar M = lam I is closed at once, with no Krylov run: n factors
    t - lam and the anti-identity T, the result the levels would reach one
    dimension at a time (each takes e_0's chain, and the complement is the
    span of e_1, ..., e_(n-1)).  The 0 x 0 matrix closes there too, as lam I
    with no factors and no columns.
    """
    f = m.field
    n = m.rows
    minus_lam = f.reduce(-m._e[0]) if n else 0
    if m._plus_identity(minus_lam).is_zero():  # M = lam I
        anti = [[int(i + j == n - 1) for i in range(n)] for j in range(n)]
        return [Polynomial._raw(f, [minus_lam, 1])] * n, anti
    for mu, chain, proven in _cyclic_scan(m):
        d = mu.degree
        if d == n:
            return [mu], chain
        w_mat = _dual_rows(m, chain)
        comp, free = kernel_matrix(w_mat)  # n x (n - d), M-invariant complement when proven
        if not proven and not (Matrix._raw(f, 1, n, w_mat._e[-n:]) * m * comp).is_zero():
            continue
        # M comp = comp R with comp the identity at its free rows, so R is those rows of M comp;
        # a complement that is not M-invariant fails the M T = T F check
        m_free = Matrix._raw(f, n - d, n, [x for i in free for x in m._e[i * n:(i + 1) * n]])
        r = m_free * comp
        if not proven and not mu(r).is_zero():  # mu_R divides a exactly when a(R) = 0
            continue
        factors2, t2 = _cyclic_decompose(r)
        return factors2 + [mu], _raw_products(f, t2, _columns(f, comp.raw_rows())) + chain


def invariant_factors_with_transform(m: Matrix):
    """Invariant factors and a witness T with T^-1 M T in Frobenius form.

    The factors are a tuple of monic f_1 | f_2 | ... | f_r; f_r is the
    minimal polynomial and the degrees sum to n.  The construction is
    iterated cyclic decomposition; correctness is enforced by re-checking,
    before returning, the degree sum, M T = T F for the Frobenius form F
    with T of full rank (which is T^-1 M T = F without an inverse), and the
    divisibility chain, all on the raw columns of T that
    :func:`_cyclic_decompose` returns; the witness matrix is built once, on
    return.  Full rank is read first from :func:`quadsum.matrix._span_rank`
    of T's columns, modulo one prime over the rationals, and only a rank
    short of n there runs the exact :func:`quadsum.matrix._rank`.
    """
    if not m.is_square:
        raise DimensionMismatch("invariant factors of a non-square matrix")
    factors, t_cols = _cyclic_decompose(m)
    f, n = m.field, m.rows
    where = f"blocks {[fac.degree for fac in factors]} of the {n}x{n} matrix"
    if sum(fac.degree for fac in factors) != n:
        raise InternalCheckFailed(f"invariant factors: sizes do not add up, {where}")
    if len(t_cols) != n or (_span_rank(f, [], t_cols, n) < n and _rank(f, t_cols, n) != n):
        raise InternalCheckFailed(f"invariant factors: the witness T is singular, {where}")
    if not _products_equal(f, m.raw_rows(), t_cols, _times_companions(f, t_cols, factors)):
        raise InternalCheckFailed(f"invariant factors: M T is not T F, {where}")
    for a, b in zip(factors, factors[1:]):
        if _divrem(f, b.coeffs, a.coeffs)[1]:
            raise InternalCheckFailed(f"invariant factors: divisibility chain broken, {where}")
    return tuple(factors), _chain_matrix(f, t_cols)


def valuations(fac: Polynomial, alpha, beta):
    """(a, b, h) with fac = (t - alpha)^a (t - beta)^b h and h(alpha) h(beta)
    != 0, for alpha != beta: each factor t - r is divided out by one
    synthetic division.  The zero polynomial, divisible by every power,
    raises ValueError."""
    if fac.is_zero():
        raise ValueError("valuations of the zero polynomial")
    f = fac.field
    reduce = f.reduce
    out = []
    coeffs = fac.coeffs
    for r in (f.value(alpha), f.value(beta)):
        k = 0
        while True:
            acc, quo = 0, []  # Horner at r: the quotient's coefficients, then the value
            for c in reversed(coeffs):
                acc = reduce(acc * r + c)
                quo.append(acc)
            if acc:
                break
            coeffs, k = quo[-2::-1], k + 1
        out.append(k)
    return out[0], out[1], Polynomial._raw(f, coeffs)


def split_cyclic_block(fac: Polynomial, a: int, b: int, h: Polynomial) -> Matrix:
    """Basis S with S^-1 C(fac) S = C(h) (+) J_a(0) (+) J_b(1), for
    fac = t^a (t - 1)^b h as returned by :func:`valuations` at 0 and 1.

    C(fac) is multiplication by t on k[t]/(fac) in the basis 1, t, t^2, ....
    By the Chinese remainder theorem the block splits into the ideals
    generated by t^a (t - 1)^b, by h (t - 1)^b and by h t^a, and the columns
    of S are the coefficient vectors of t^j t^a (t - 1)^b for j < deg h,
    of the chain t^j e_0 for j < a with e_0 a multiple of h (t - 1)^b, and of
    the chain (t - 1)^j e_1 for j < b with e_1 a multiple of h t^a.  Every
    product has degree below deg fac, so none needs reducing.  e_0 and e_1
    are scaled to be 1 modulo t and t - 1, so the eigenvector closing each
    chain is the primary component of t^(a-1) resp. (t - 1)^(b-1) itself.
    The columns are raw coefficient lists: times t prepends a 0, and times
    t - 1 is one :func:`quadsum.poly._mul`.  The identity is checked without
    an inverse, as rank(S) = deg fac and C(fac) S = S E for the block sum E.
    """
    f = fac.field
    d = fac.degree

    def times_t(c):
        return [0] + c

    times_t_1 = partial(_mul, f, (f.reduce(-1), 1))
    t_1b = [1]
    for _ in range(b):
        t_1b = times_t_1(t_1b)
    e_0, e_1 = _mul(f, h.coeffs, t_1b), [0] * a + list(h.coeffs)
    inv_0, inv_1 = f.inv_raw(e_0[0]), f.inv_raw(f.reduce(sum(e_1)))
    cols = []
    for head, step, length in (([0] * a + t_1b, times_t, h.degree),
                               ([f.reduce(inv_0 * c) for c in e_0], times_t, a),
                               ([f.reduce(inv_1 * c) for c in e_1], times_t_1, b)):
        for _ in range(length):
            cols.append(head)
            head = step(head)
    s_mat = _chain_matrix(f, [col + [0] * (d - len(col)) for col in cols])
    # S E column by column: C(h) and J_a(0) = C(t^a) are companions, and
    # column j of J_b(1) = I + C(t^b) is s_j + s_(j+1), the last one s_j
    s_cols = s_mat.raw_cols()
    at_1 = s_cols[d - b:]
    expected = (_times_companions(f, s_cols, [h, Polynomial._raw(f, [0] * a + [1])])
                + [_combination(f, [1, 1], pair) for pair in zip(at_1, at_1[1:])] + at_1[-1:])
    if rank(s_mat) != d or not _products_equal(f, companion(fac).raw_rows(), s_cols, expected):
        raise InternalCheckFailed(
            f"cyclic block split: {d}x{d} block of {fac} is not C(h) + J_{a}(0) + J_{b}(1)")
    return s_mat
