"""Structure theory with explicit change-of-basis matrices.

Provides nullity sequences, the invariant-factor (Frobenius) decomposition
via iterated cyclic subspaces, spectral splitting at the eigenvalue set
{0, 1}, and nilpotent Jordan reduction by chain bases.  Every transform is
verified post-hoc by the conjugation identity it claims.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import DimensionMismatch, InternalCheckFailed, MalformedSequence, NotNilpotent
from .field import Field, FieldElement
from .matrix import (Matrix, SimilarityWitness, _integral, _raw_products, direct_sum,
                     hstack, inverse, jordan_block, kernel_matrix, rank, solve)
from .poly import Polynomial, companion, krylov_annihilator, minimal_polynomial


@dataclass(frozen=True)
class NullitySequence:
    """n_k = dim Ker (M - lambda I)^k - dim Ker (M - lambda I)^(k-1), k >= 1,
    listed up to stabilization at 0.  n_k counts Jordan blocks of size >= k."""

    eigenvalue: FieldElement
    values: tuple

    def __post_init__(self):
        vals = self.values
        if any(v < 0 for v in vals) or any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
            raise MalformedSequence(f"not non-increasing: {vals}")

    def n(self, k: int) -> int:
        return self.values[k - 1] if 1 <= k <= len(self.values) else 0

    def j(self, k: int) -> int:
        """Number of Jordan blocks of size exactly k."""
        return self.n(k) - self.n(k + 1)

    def block_sizes(self) -> tuple:
        """Jordan block sizes at this eigenvalue, non-increasing."""
        sizes = []
        for k in range(len(self.values), 0, -1):
            sizes.extend([k] * self.j(k))
        return tuple(sorted(sizes, reverse=True))

    def total(self) -> int:
        return sum(self.values)


def nullity_sequence(m: Matrix, eigenvalue) -> NullitySequence:
    if not m.is_square:
        raise DimensionMismatch("nullity sequence of a non-square matrix")
    lam = m.field.element(eigenvalue)
    n = m.rows
    shifted = m - lam * Matrix.identity(m.field, n)
    values = []
    power = Matrix.identity(m.field, n)
    prev_nullity = 0
    while True:
        power = power * shifted
        nullity = n - rank(power)
        nk = nullity - prev_nullity
        if nk == 0:
            break
        values.append(nk)
        prev_nullity = nullity
        if nullity == n:
            break
    return NullitySequence(lam, tuple(values))


@dataclass(frozen=True)
class InvariantFactors:
    """Monic invariant factors f_1 | f_2 | ... | f_r; f_r is the minimal
    polynomial and the degrees sum to the matrix size."""

    factors: tuple

    def minimal(self) -> Polynomial:
        return self.factors[-1]

    def __iter__(self):
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)


def _matrix_seed(m: Matrix) -> int:
    return hash((m.field.characteristic(), m.rows, tuple(x.v for x in m._e)))


def _vector_candidates(field: Field, n: int, seed: int):
    """Deterministic scan: standard basis, pairwise sums, then seeded randoms."""
    for i in range(n):
        v = [0] * n
        v[i] = 1
        yield v
    one = 1
    for i in range(n):
        for j in range(i + 1, n):
            v = [0] * n
            v[i] = one
            v[j] = one
            yield v
    rng = random.Random(seed)
    p = field.p
    for _ in range(20000):
        if p is None:
            yield [rng.randint(-3, 3) for _ in range(n)]
        else:
            yield [rng.randrange(p) for _ in range(n)]


def _find_cyclic_vector(m: Matrix, target: Polynomial):
    """A vector whose Krylov annihilator equals ``target``, plus its chain."""
    n = m.rows
    for v in _vector_candidates(m.field, n, _matrix_seed(m)):
        ann, chain = krylov_annihilator(m, v)
        if ann == target:
            return v, chain
    raise InternalCheckFailed("no cyclic vector found for the minimal polynomial")


def _row_candidates(field: Field, n: int, seed: int):
    yield from _vector_candidates(field, n, seed ^ 0x5F5E1)
    # exhaustive fallback over small finite coordinate spaces
    p = field.p
    if p is not None and p ** n <= 1 << 16:
        for idx in range(p ** n):
            v = []
            x = idx
            for _ in range(n):
                v.append(x % p)
                x //= p
            yield v


def _find_dual_rows(m: Matrix, chain, d: int):
    """Rows w, wM, ..., wM^(d-1) whose pairing with the Krylov chain is invertible.

    The kernel of the resulting d x n matrix is an M-invariant complement of
    the cyclic subspace spanned by the chain.
    """
    f = m.field
    n = m.rows
    a = [x.v for x in m._e]
    m_cols = _integral(f, [a[j::n] for j in range(n)])
    chain_cols = _integral(f, chain)
    for w in _row_candidates(f, n, _matrix_seed(m)):
        rows = [w]
        for _ in range(d - 1):
            rows.append(_raw_products(f, _integral(f, [rows[-1]]), m_cols)[0])
        pairing = _raw_products(f, _integral(f, rows), chain_cols)
        h = Matrix(f, d, d, [f.make(x) for r_ in pairing for x in r_])
        if rank(h) == d:
            return Matrix(f, d, n, [f.make(f.reduce(x)) for r_ in rows for x in r_])
    raise InternalCheckFailed("no dual row vector found for the cyclic subspace")


def _cyclic_decompose(m: Matrix):
    """Factors (divisibility chain, largest last) and basis T with
    T^-1 M T = C(f_1) + ... + C(f_r) block-diagonal."""
    f = m.field
    n = m.rows
    if n == 0:
        return [], Matrix.zero(f, 0, 0)
    mu = minimal_polynomial(m)
    d = mu.degree
    _, chain = _find_cyclic_vector(m, mu)
    k_mat = Matrix(f, n, d,
                   [f.make(f.reduce(chain[j][i])) for i in range(n) for j in range(d)])
    if d == n:
        return [mu], k_mat
    w_mat = _find_dual_rows(m, chain, d)
    comp = kernel_matrix(w_mat)  # n x (n - d), M-invariant complement
    restricted = solve(comp, m * comp)
    factors2, t2 = _cyclic_decompose(restricted)
    t_mat = hstack(f, [comp * t2, k_mat])
    return factors2 + [mu], t_mat


def invariant_factors_with_transform(m: Matrix):
    """Invariant factors and a witness T with T^-1 M T in Frobenius form.

    The construction is iterated cyclic decomposition; correctness is
    enforced by re-checking the conjugation identity, the divisibility
    chain, and the degree sum before returning.
    """
    if not m.is_square:
        raise DimensionMismatch("invariant factors of a non-square matrix")
    factors, t_mat = _cyclic_decompose(m)
    witness = (SimilarityWitness.from_matrix(t_mat) if m.rows
               else SimilarityWitness.identity(m.field, 0))
    frobenius = direct_sum(m.field, [companion(fac) for fac in factors])
    if witness.apply_inverse(m) != frobenius:
        raise InternalCheckFailed("Frobenius conjugation identity failed")
    if sum(fac.degree for fac in factors) != m.rows:
        raise InternalCheckFailed("invariant factor degrees do not sum to n")
    for a, b in zip(factors, factors[1:]):
        _, rem = b.divrem(a)
        if not rem.is_zero():
            raise InternalCheckFailed("divisibility chain broken")
    return InvariantFactors(tuple(factors)), witness


@dataclass(frozen=True)
class SpectralSplit:
    """Similarity M ~ M1 + M2 (block-diagonal) where M1 has no eigenvalue in
    {0, 1} and M2 is annihilated by t^p (t-1)^q.

    The witness satisfies conjugate(M, witness) = M1 (+) M2.
    """

    m1: Matrix
    m2: Matrix
    witness: SimilarityWitness
    p: int
    q: int


def split_spectral(m: Matrix) -> SpectralSplit:
    if not m.is_square:
        raise DimensionMismatch("spectral split of a non-square matrix")
    f = m.field
    n = m.rows
    mu = minimal_polynomial(m)
    t_poly = Polynomial.x(f)
    t_minus_1 = Polynomial.from_coeffs(f, [-1, 1])
    p_exp = 0
    q_exp = 0
    rest = mu
    while True:
        q_, r_ = rest.divrem(t_poly)
        if not r_.is_zero():
            break
        rest, p_exp = q_, p_exp + 1
    while True:
        q_, r_ = rest.divrem(t_minus_1)
        if not r_.is_zero():
            break
        rest, q_exp = q_, q_exp + 1
    ker_away = kernel_matrix(rest(m)) if rest.degree not in (None, 0) else Matrix.zero(f, n, 0)
    ident = Matrix.identity(f, n)
    ker_01 = kernel_matrix((m ** p_exp) * ((m - ident) ** q_exp)) \
        if p_exp + q_exp else Matrix.zero(f, n, 0)
    basis = hstack(f, [ker_away, ker_01])
    if basis.cols != n:
        raise InternalCheckFailed("kernel split does not span")
    witness = (SimilarityWitness(inverse(basis), basis) if n
               else SimilarityWitness.identity(f, 0))
    split_form = witness.apply(m)
    n1 = ker_away.cols
    m1 = split_form.submatrix(0, n1, 0, n1)
    m2 = split_form.submatrix(n1, n, n1, n)
    if (not split_form.submatrix(0, n1, n1, n).is_zero()
            or not split_form.submatrix(n1, n, 0, n1).is_zero()):
        raise InternalCheckFailed("split form is not block-diagonal")
    if not ((m2 ** p_exp) * ((m2 - Matrix.identity(f, m2.rows)) ** q_exp)).is_zero():
        raise InternalCheckFailed("{0,1}-part not annihilated by t^p (t-1)^q")
    return SpectralSplit(m1, m2, witness, p_exp, q_exp)


def nilpotent_jordan_with_transform(nil: Matrix):
    """Jordan reduction of a nilpotent matrix by the chain-basis construction.

    Returns ``(sizes, witness)`` with sizes non-increasing and
    T^-1 N T = J_{sizes[0]}(0) (+) J_{sizes[1]}(0) (+) ... for T = witness.t.
    """
    if not nil.is_square:
        raise DimensionMismatch("Jordan reduction of a non-square matrix")
    f = nil.field
    n = nil.rows
    if n == 0:
        return (), SimilarityWitness.identity(f, 0)
    if not (nil ** n).is_zero():
        raise NotNilpotent("matrix is not nilpotent")
    # kernel bases of successive powers, as raw column vectors
    power = nil
    kernels = {0: []}
    s = 0
    while True:
        s += 1
        km = kernel_matrix(power)
        kernels[s] = [[km[i, j].v for i in range(n)] for j in range(km.cols)]
        if km.cols == n:
            break
        power = power * nil
    nil_rows = _integral(f, nil.raw_rows())

    def apply_n(vec):
        return _raw_products(f, _integral(f, [vec]), nil_rows)[0]

    span = _RawSpan(f, n)
    chains = []  # (height, head vector), discovered top height first
    at_level = []
    for k in range(s, 0, -1):
        carried = [apply_n(w) for w in at_level]
        span.reset()
        for vec in kernels[k - 1]:
            span.add(vec)
        for vec in carried:
            if not span.add(vec):
                raise InternalCheckFailed("carried chain vector became dependent")
        at_level = carried
        for vec in kernels[k]:
            if span.add(vec):
                chains.append((k, vec))
                at_level.append(vec)
    chains.sort(key=lambda c: -c[0])
    cols = []
    for height, head in chains:
        vec = head
        for _ in range(height):
            cols.append(vec)
            vec = apply_n(vec)
    t_mat = Matrix(f, n, n,
                   [f.make(f.reduce(cols[j][i])) for i in range(n) for j in range(n)])
    witness = SimilarityWitness.from_matrix(t_mat)
    sizes = tuple(height for height, _ in chains)
    expected = direct_sum(f, [jordan_block(f, size) for size in sizes])
    if witness.apply_inverse(nil) != expected:
        raise InternalCheckFailed("Jordan chain basis did not diagonalize into blocks")
    return sizes, witness


class _RawSpan:
    """Incremental echelon span over raw vectors, for independence tests."""

    def __init__(self, field: Field, dim: int):
        self.field = field
        self.dim = dim
        self.rows = []  # (pivot, normalized vector)

    def reset(self):
        self.rows = []

    def add(self, vec) -> bool:
        """Reduce vec against the span; add it and return True if independent."""
        f = self.field
        p = f.p
        v = list(vec)
        for piv, row in self.rows:
            c = v[piv]
            if c:
                if p is None:
                    v = [x - c * y for x, y in zip(v, row)]
                else:
                    v = [(x - c * y) % p for x, y in zip(v, row)]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return False
        inv = f.inv_raw(v[piv])
        if p is None:
            v = [x * inv for x in v]
        else:
            v = [x * inv % p for x in v]
        self.rows.append((piv, v))
        return True
