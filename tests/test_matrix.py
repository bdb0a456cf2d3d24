"""Exact matrix arithmetic, elimination, and block composition."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import quadsum
from quadsum.canonical import invariant_factors_with_transform, valuations
from quadsum.errors import (BadParams, DegreeZero, DimensionMismatch, DivisionByZero,
                            InternalCheckFailed, MixedFields, NotMonic, Singular)
from quadsum.field import GF, QQ
from quadsum.matrix import (_PACK_MIN, Matrix, _columns, _combination, _krylov_relation,
                            _placed, _products_equal, _rref, block2x2, direct_sum, inverse,
                            jordan_block, kernel_matrix, rank, solve)
from quadsum.oracle import build_sum_atlas
from quadsum.poly import (Polynomial, companion, cyclic_vector, decompose_in_t2_minus_t,
                          krylov_annihilator, lcm, minimal_polynomial)
from quadsum.sums import QuadParams, classify_and_reduce
from conftest import (WIDE_PRIMES, WORD_PRIME, count_packs, monic_gcd, nullity_sequence,
                      rand_element, rand_invertible, rand_matrix, rand_wide_rational)

#: Fields of the kernel property tests: small primes, which pack at every
#: size these tests reach past the gate, the largest prime that packs at
#: size 28, and primes too wide to pack.
PRIME_FIELDS = [GF(p) for p in (2, 5, 101, WORD_PRIME) + WIDE_PRIMES]


def naive_product(a, b):
    """Triple loop on FieldElements: the reference for the product kernel."""
    f = a.field
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = f.element(0)
            for t in range(a.cols):
                acc = acc + a[i, t] * b[t, j]
            out.append(acc)
    return Matrix(f, a.rows, b.cols, out)


def assert_canonical(m):
    """Every value stored in the matrix or polynomial ``m`` is raw and
    canonical: over Q an int when integral and otherwise a Fraction with
    denominator above 1, an int in [0, p) over GF(p)."""
    values = m._e if isinstance(m, Matrix) else m.coeffs
    if m.field.p is None:
        assert all(type(x) is int or type(x) is Fraction and x.denominator > 1 for x in values)
    else:
        assert all(type(x) is int and 0 <= x < m.field.p for x in values)


def test_shapes_and_zero_sized():
    m = Matrix.zero(QQ, 0, 0)
    assert m.rows == m.cols == 0
    assert (m * m).rows == 0
    assert direct_sum(QQ, []) == m
    tall = Matrix.zero(QQ, 3, 0)
    assert (tall.transpose()).rows == 0


def test_bad_entry_count():
    with pytest.raises(DimensionMismatch):
        Matrix(QQ, 2, 2, [QQ.element(0)] * 3)


def test_arithmetic_basics():
    f = GF(5)
    a = Matrix.from_rows(f, [[1, 2], [3, 4]])
    b = Matrix.from_rows(f, [[0, 1], [1, 0]])
    assert a + b == Matrix.from_rows(f, [[1, 3], [4, 4]])
    assert a * b == Matrix.from_rows(f, [[2, 1], [4, 3]])
    assert 2 * a == Matrix.from_rows(f, [[2, 4], [1, 3]])
    for k in (2, 3):
        assert f.element(k) * a == k * a == a * k == a * f.element(k)
    for product in (lambda: "2" * a, lambda: a * "2"):
        with pytest.raises(TypeError):
            product()
    assert a - a == Matrix.zero(f, 2)
    assert a.transpose() == Matrix.from_rows(f, [[1, 3], [2, 4]])


def test_products_match_naive_triple_loop():
    """Over GF(p) the last trials draw sizes on both sides of the packing
    gate, and a product of matrices of all p - 1 fills every slot of the
    packed product with k (p - 1)^2, the most it can hold: at the word-bound
    prime, k = 29 packs and k = 30 does not."""
    rng = random.Random(12)
    makers = [(f, rand_matrix) for f in PRIME_FIELDS + [QQ]]
    makers.append((QQ, lambda f, n, r, cols=None: rand_wide_rational(n, r, cols)))
    for field, make in makers:
        for trial in range(25):
            low, high = (_PACK_MIN - 2, 28) if trial >= 20 and field.p else (0, 5)
            n, k, m = (rng.randint(low, high) for _ in range(3))
            a = make(field, n, rng, cols=k)
            b = make(field, k, rng, cols=m)
            got = a * b
            assert got == naive_product(a, b)
            assert_canonical(got)
    for field in PRIME_FIELDS:
        for k in (_PACK_MIN - 1, _PACK_MIN, 28, 29, 30):
            full = Matrix(field, k, k, [-1] * (k * k))
            assert full * full == naive_product(full, full)


def _scalars(f):
    """Raw scalars of f: over Q, fractions with numerators and denominators
    of up to 40 digits, the denominator drawn with either sign."""
    if f.p is not None:
        return st.integers(0, f.p - 1)
    big = 10 ** 40
    return st.builds(lambda a, b: f.value(Fraction(a, b)), st.integers(-big, big),
                     st.integers(1, big) | st.integers(-big, -1))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_products_equal_agrees_with_the_product(data):
    """``_products_equal(rows of A, columns of B, columns of C)`` is A B == C,
    on 0x0, 1 x k and square shapes, over Q with large denominators, GF(2),
    GF(101) at n >= 10 (packed columns) and GF(2^61 - 1) (list rows), for C
    the product or the product with one entry changed."""
    f = data.draw(st.sampled_from([QQ, GF(2), GF(101), GF(2 ** 61 - 1)]))
    shape = data.draw(st.sampled_from(["0x0", "1xk", "square"]))
    if shape == "0x0":
        r = k = c = 0
    elif shape == "1xk":
        r, k, c = 1, data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
    else:
        r = k = c = data.draw(st.integers(10, 12) if f.p in (101, 2 ** 61 - 1)
                              else st.integers(1, 6))
    a, b = (Matrix._raw(f, rows, cols, data.draw(st.lists(_scalars(f), min_size=rows * cols,
                                                          max_size=rows * cols)))
            for rows, cols in ((r, k), (k, c)))
    product = a * b
    expected = list(product._e)
    if expected and data.draw(st.booleans(), label="changed"):
        at = data.draw(st.integers(0, len(expected) - 1))
        expected[at] = f.reduce(expected[at] + data.draw(_scalars(f)))
    expected = Matrix._raw(f, r, c, expected)
    assert _products_equal(f, a.raw_rows(), b.raw_cols(), expected.raw_cols()) \
        == (product == expected)


def test_every_operation_stores_canonical_values():
    """An unreduced GF(p) residue would silently break == and hashing, and a
    bare int over Q breaks the stored-type rule, so every operation that
    builds a matrix or a polynomial is checked for raw canonical storage."""
    rng = random.Random(14)
    for f in (GF(2), GF(5), GF(101), QQ):
        for n in (1, 3, 4):
            a, b = rand_matrix(f, n, rng), rand_matrix(f, n, rng)
            if f.p is None:
                a = a * Matrix.diagonal(f, [Fraction(1, k + 2) for k in range(n)])
            t = rand_invertible(f, n, rng)
            x = rand_matrix(f, n, rng, cols=2)
            results = [
                a + b, a - b, -a, 3 * a, a * -1, a * f.element(-2), 0 * a,
                a * f.element(0), a.transpose(),
                inverse(t), solve(t, t * x), solve(Matrix.zero(f, n), Matrix.zero(f, n, 2)),
                direct_sum(f, [a, Matrix.zero(f, 2), t]),
                block2x2(a, x, x.transpose(), Matrix.identity(f, 2)),
                jordan_block(f, n, eigenvalue=-1), jordan_block(f, n),
                Matrix.identity(f, n), Matrix.zero(f, n, 2),
            ]
            if f.p is not None:
                results.append(f.p * a)
            results.extend(kernel_matrix(x)[0] for x in (a, Matrix.zero(f, n, 3)))
            for m in results:
                assert_canonical(m)
            assert 0 * a == a * f.element(0) == Matrix.zero(f, n)
            assert -a + a == Matrix.zero(f, n) and (f.p != 2 or -a == a)
            g = Polynomial(f, [rand_element(f, rng) for _ in range(n + 2)] + [1])
            h = Polynomial(f, [rand_element(f, rng) for _ in range(n)] + [-1])
            quo, rem = g.divrem(h)
            polys = [g + h, g - h, g - g, -g, g * h, g * -1, 7 * g, quo, rem, h.monic(),
                     g.compose(h), g ** 2, krylov_annihilator(a, [0] * (n - 1) + [1])[0]]
            for m in polys + [companion(g), companion(h.monic())]:
                assert_canonical(m)
        x, p = f.element(3), Polynomial(f, [0, 3, -1])
        assert -x == f.element(-3) and -x + x == 0 and -f.element(0) == f.element(0)
        assert -p == Polynomial(f, [0, -3, 1]) and -Polynomial.zero(f) == Polynomial.zero(f)
        assert_canonical(-p)


def test_rational_polynomial_operations_store_ints_where_integral():
    """Over Q division, gcd, lcm, monic and compose store an integral
    coefficient as an int: (2t + 4) / 2 is t + 2, and the quotient of g h
    by h is g; random integer polynomials with leading coefficients 2 and
    -3 go through every operation."""
    quo, rem = Polynomial(QQ, [4, 2]).divrem(Polynomial(QQ, [2]))
    assert quo.coeffs == (2, 1) and all(type(c) is int for c in quo.coeffs) and rem.is_zero()
    rng = random.Random(32)
    for _ in range(30):
        g = Polynomial(QQ, [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [2])
        h = Polynomial(QQ, [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [-3])
        assert (g * h).divrem(h) == (g, Polynomial.zero(QQ))
        results = [*g.divrem(h), *h.divrem(g), monic_gcd(g, h), monic_gcd(g * h, h * h),
                   lcm(g, h), lcm(g * h, h), g.monic(), h.monic(), g.compose(h),
                   h.compose(g.monic()),
                   decompose_in_t2_minus_t(g.compose(Polynomial(QQ, [0, -1, 1])).monic())]
        for p in results:
            assert_canonical(p)


def test_constructors_coerce_once_and_reject_other_fields():
    f = GF(5)
    m = Matrix(f, 1, 3, [7, "-1", f.element(2)])
    assert m._e == (2, 4, 2)
    assert Matrix(QQ, 1, 2, [1, "1/2"])._e == (Fraction(1), Fraction(1, 2))
    assert Polynomial(f, [6, 0, 5]).coeffs == (1,)
    for build in (lambda: Matrix(f, 1, 1, [GF(7).element(1)]),
                  lambda: Matrix.from_rows(f, [[QQ.element(1)]]),
                  lambda: Polynomial(QQ, [f.element(1)])):
        with pytest.raises(MixedFields):
            build()


def test_zero_sized_products():
    for f in (GF(2), GF(101), QQ):
        assert Matrix.zero(f, 3, 0) * Matrix.zero(f, 0, 4) == Matrix.zero(f, 3, 4)
        assert Matrix.zero(f, 0, 3) * Matrix.zero(f, 3, 0) == Matrix.zero(f, 0, 0)
        assert Matrix.zero(f, 0, 2) * Matrix.identity(f, 2) == Matrix.zero(f, 0, 2)


def test_kernel_matrix_canonical():
    """The basis is the identity at the free coordinates, so the same input
    always gives the same basis."""
    f = GF(3)
    m = Matrix.from_rows(f, [[1, 2, 0], [0, 1, 0]])
    k, free = kernel_matrix(m)
    assert free == [2]
    assert k == Matrix(f, 3, 1, [0, 0, 1])
    assert (m * k).is_zero()
    m = Matrix.from_rows(f, [[1, 2, 1, 0]])
    k, free = kernel_matrix(m)
    assert free == [1, 2, 3]
    assert k == Matrix.from_rows(f, [[1, 2, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_kernel_matrix_columns_annihilate():
    rng = random.Random(3)
    for f in (QQ, GF(2), GF(5)):
        for _ in range(20):
            n = rng.randint(1, 5)
            m = rand_matrix(f, n, rng, cols=rng.randint(1, 5))
            k, free = kernel_matrix(m)
            assert rank(m) + k.cols == m.cols
            assert Matrix.from_rows(f, [k.row(j) for j in free]) == Matrix.identity(f, k.cols)
            assert (m * k).is_zero()


def test_inverse_round_trip():
    rng = random.Random(4)
    for f in (QQ, GF(2), GF(7)):
        for _ in range(20):
            n = rng.randint(1, 5)
            t = rand_invertible(f, n, rng)
            assert t * inverse(t) == Matrix.identity(f, n)


def test_inverse_singular():
    with pytest.raises(Singular):
        inverse(Matrix.zero(QQ, 2))


def test_solve_exact_and_inconsistent():
    f = QQ
    a = Matrix.from_rows(f, [[1, 0], [0, 2], [1, 2]])
    x = Matrix.from_rows(f, [[3], ["1/2"]])
    b = a * x
    assert solve(a, b) == x
    bad = b + Matrix.from_rows(f, [[0], [0], [1]])
    with pytest.raises(Singular):
        solve(a, bad)


def test_block_composition():
    f = GF(2)
    a = Matrix.identity(f, 2)
    b = jordan_block(f, 3)
    d = direct_sum(f, [a, b])
    assert d.rows == 5
    assert d == block2x2(a, Matrix.zero(f, 2, 3), Matrix.zero(f, 3, 2), b)
    q = block2x2(a, Matrix.zero(f, 2), Matrix.zero(f, 2), a)
    assert q == Matrix.identity(f, 4)


@pytest.mark.parametrize("f", [GF(2), GF(5), QQ])
def test_placed_blocks_are_a_permuted_direct_sum(f):
    """Blocks placed at interleaved coordinates are P D P^T, for D the direct
    sum of the blocks and P the permutation that sends coordinate k of D to
    the coordinate its block's entry is placed at.  ``direct_sum`` places
    through the same kernel, so D is first checked against the blocks read
    entry by entry."""
    rng = random.Random(26)
    cases = [((2, 3), [4, 0, 1, 3, 2]), ((1, 2, 2), [2, 4, 0, 3, 1])]
    cases += [((3, 1, 0, 2), rng.sample(range(6), 6)) for _ in range(4)]
    for sizes, perm in cases:
        n = len(perm)
        blocks = [rand_matrix(f, s, rng) for s in sizes]
        coords, entries, off = [], {}, 0
        for s, blk in zip(sizes, blocks):
            coords.append(perm[off:off + s])
            entries.update(((off + i, off + j), blk[i, j]) for i in range(s) for j in range(s))
            off += s
        d = direct_sum(f, blocks)
        assert d == Matrix.from_rows(f, [[entries.get((i, j), 0) for j in range(n)]
                                         for i in range(n)])
        p_mat = Matrix.from_rows(f, [[int(perm[k] == i) for k in range(n)] for i in range(n)])
        expected = p_mat * d * p_mat.transpose()
        assert _placed(f, n, zip(blocks, coords)) == expected
        assert_canonical(expected)


def _zero(rows, cols, f=QQ):
    return Matrix.zero(f, rows, cols)


#: Refusals with the error type each documents, one call each.
REFUSALS = {
    "direct_sum mixed fields": (lambda: direct_sum(QQ, [_zero(1, 1, GF(5))]), MixedFields),
    "direct_sum non-square block": (lambda: direct_sum(QQ, [_zero(1, 2)]), DimensionMismatch),
    "block2x2 row heights": (lambda: block2x2(_zero(1, 1), _zero(2, 1), _zero(1, 1), _zero(1, 1)),
                             DimensionMismatch),
    "block2x2 column widths": (lambda: block2x2(_zero(1, 1), _zero(1, 1), _zero(1, 2),
                                                _zero(1, 1)), DimensionMismatch),
    "block2x2 mixed fields": (lambda: block2x2(_zero(1, 1), _zero(1, 1), _zero(1, 1),
                                               _zero(1, 1, GF(5))), MixedFields),
    "from_rows ragged rows": (lambda: Matrix.from_rows(QQ, [[1, 2], [3]]), DimensionMismatch),
    "solve row counts": (lambda: solve(_zero(2, 2), _zero(3, 1)), DimensionMismatch),
    "inverse non-square": (lambda: inverse(_zero(2, 3)), DimensionMismatch),
    "nullity_sequence non-square": (lambda: nullity_sequence(_zero(2, 3), 0), DimensionMismatch),
    "invariant factors non-square": (lambda: invariant_factors_with_transform(_zero(3, 2)),
                                     DimensionMismatch),
    "classify_and_reduce non-square": (lambda: classify_and_reduce(_zero(2, 3), QuadParams.of(QQ)),
                                       DimensionMismatch),
    "companion degree 0": (lambda: companion(Polynomial(QQ, [1])), DegreeZero),
    "valuations of zero": (lambda: valuations(Polynomial.zero(QQ), 0, 1), ValueError),
    "cyclic_vector non-square": (lambda: cyclic_vector(_zero(2, 3)), DimensionMismatch),
    "minimal_polynomial non-square": (lambda: minimal_polynomial(_zero(2, 3)),
                                      DimensionMismatch),
    "decompose_in_t2_minus_t non-monic": (lambda: decompose_in_t2_minus_t(Polynomial(QQ, [1, 2])),
                                          NotMonic),
    "divrem by zero": (lambda: Polynomial(QQ, [1]).divrem(Polynomial.zero(QQ)), DivisionByZero),
    "polynomial negative power": (lambda: Polynomial(QQ, [0, 1]) ** -1, ValueError),
    "polynomial sum mixed fields": (lambda: Polynomial(QQ, [1]) + Polynomial(GF(5), [1]),
                                    MixedFields),
    "polynomial of a matrix mixed fields": (lambda: Polynomial(QQ, [0, 1])(_zero(2, 2, GF(5))),
                                            MixedFields),
    "polynomial of a non-square matrix": (lambda: Polynomial(QQ, [0, 0, 1])(_zero(2, 3)),
                                          DimensionMismatch),
    "build_sum_atlas over Q": (lambda: build_sum_atlas(QQ, 1), BadParams),
    "build_sum_atlas alpha alone": (lambda: build_sum_atlas(GF(2), 1, alpha=1), BadParams),
    "product shapes": (lambda: _zero(2, 3) * _zero(2, 3), DimensionMismatch),
    "index out of range": (lambda: _zero(2, 2)[2, 0], IndexError),
    "row out of range": (lambda: _zero(2, 2).row(5), IndexError),
    "negative row": (lambda: _zero(2, 2).row(-1), IndexError),
    "bool index": (lambda: _zero(2, 2)[True, False], IndexError),
    "bool row": (lambda: _zero(2, 2).row(True), IndexError),
    "float index": (lambda: _zero(2, 2)[1.5, 0], IndexError),
    "matrix plus int": (lambda: _zero(2, 2) + 1, TypeError),
    "polynomial plus int": (lambda: Polynomial(QQ, [1]) + 1, TypeError),
}


@pytest.mark.parametrize("call, error", REFUSALS.values(), ids=REFUSALS)
def test_refusals_raise_their_documented_type(call, error):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error


def test_jordan_block_subdiagonal():
    j = jordan_block(QQ, 3, eigenvalue=2)
    assert j == Matrix.from_rows(QQ, [[2, 0, 0], [1, 2, 0], [0, 1, 2]])
    f = GF(5)
    for lam in (0, 4):
        j = jordan_block(f, 3, eigenvalue=lam)
        assert j == Matrix.from_rows(f, [[lam, 0, 0], [1, lam, 0], [0, 1, lam]])
        assert_canonical(j)
    assert jordan_block(f, 3, eigenvalue=-1) == jordan_block(f, 3, eigenvalue=4)
    assert Matrix.identity(f, 3) == Matrix.from_rows(f, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert_canonical(Matrix.identity(f, 3))


def test_negative_sizes_are_refused():
    """Every constructor refuses a dimension that is negative or not an int
    (a bool or a float), naming it, instead of building a matrix of that
    size or failing later."""
    for build in (lambda: Matrix(QQ, -1, 0, []), lambda: jordan_block(QQ, -2),
                  lambda: jordan_block(GF(5), -1, eigenvalue=1), lambda: Matrix.identity(QQ, -1),
                  lambda: Matrix.zero(QQ, -2), lambda: Matrix.zero(GF(2), 2, -1),
                  lambda: Matrix.zero(QQ, -1, 3), lambda: Matrix(QQ, True, True, [1]),
                  lambda: Matrix.zero(QQ, True), lambda: jordan_block(QQ, True),
                  lambda: Matrix.identity(QQ, 2.0), lambda: Matrix(GF(2), 1, False, [])):
        with pytest.raises(DimensionMismatch, match="must be a non-negative int, got"):
            build()
    with pytest.raises(DimensionMismatch) as exc:
        Matrix(QQ, -1, -1, [1])
    assert str(exc.value) == "matrix rows must be a non-negative int, got -1"
    assert jordan_block(QQ, 0) == Matrix.identity(QQ, 0) == Matrix.zero(QQ, 0)


def test_similarity_preserves_rank():
    rng = random.Random(9)
    f = GF(7)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = rand_matrix(f, n, rng)
        t = rand_invertible(f, n, rng)
        c = t * m * inverse(t)
        assert rank(c) == rank(m)


# ---- the Krylov relation ----------------------------------------------

def independent_vectors(f, n, rng):
    """n independent raw n-vectors, lists; over Q with denominators."""
    rows = rand_invertible(f, n, rng).raw_rows()
    if f.p is None:
        rows = [[QQ.reduce(Fraction(x, rng.randint(1, 9))) for x in row] for row in rows]
    return rows


def krylov_planted(f, basis, k, image):
    """The n x n matrix M with M b_j = b_(j+1) for j < k - 1, M b_(k-1) =
    ``image`` and M b_j = b_j for j >= k, for n independent raw n-vectors
    b_0, ..., b_(n-1) and 1 <= k <= n: M = [b_1 ... b_(k-1) image b_k ...
    b_(n-1)] B^-1 with B = [b_0 ... b_(n-1)].  The Krylov chain of b_0
    under M is b_0, ..., b_(k-1), then ``image``."""
    images = basis[1:k] + [image] + basis[k:]
    return Matrix.from_rows(f, zip(*images)) * inverse(Matrix.from_rows(f, zip(*basis)))


def test_krylov_relation_returns_the_planted_combination(monkeypatch):
    """Under M = :func:`krylov_planted` the Krylov chain of b_0 runs through
    the independent b_0, ..., b_(k-1) to v_k, a combination of them; the
    kernel returns exactly that relation, with c_k = 1, and the chain
    b_0, ..., b_(k-1), after k Krylov products.  For k = 0 the chain starts
    at v_0 = 0.  A reduction that never vanishes (its pivot looked for in
    the whole row) finds no relation: the kernel stops after n + 1 vectors,
    and ``krylov_annihilator`` names the failure.  The sizes lie on both
    sides of the packing gate and reach the word-bound prime's 29."""
    rng = random.Random(31)
    made = count_packs(monkeypatch)
    products = []
    real_products, real_pivot = quadsum.matrix._raw_products, quadsum.matrix._pivot
    monkeypatch.setattr(quadsum.matrix, "_raw_products",
                        lambda *args: products.append(1) or real_products(*args))
    for f in (QQ, GF(2), GF(5), GF(101), GF(WORD_PRIME)):
        for n in (_PACK_MIN - 1, _PACK_MIN, 28, 29):
            packs = f.p is not None and n >= _PACK_MIN
            basis = independent_vectors(f, n, rng)
            for k in (0, 1, rng.randint(2, n - 1), n):
                if f.p is None:
                    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k)]
                else:
                    coeffs = [rng.randrange(f.p) for _ in range(k)]
                v_k = [f.reduce(sum(c * v[i] for c, v in zip(coeffs, basis))) for i in range(n)]
                m_rows = _columns(f, krylov_planted(f, basis, max(k, 1), v_k).raw_rows())
                made.clear()
                products.clear()
                relation = _krylov_relation(f, m_rows, basis[0] if k else v_k, n)
                assert relation == ([f.reduce(-c) for c in coeffs] + [1], basis[:k])
                assert len(products) == k
                assert bool(made) == packs
            m = krylov_planted(f, basis, n, v_k)  # the last k's: k = n
            with monkeypatch.context() as patch:
                patch.setattr(quadsum.matrix, "_pivot", lambda row, ncols, p, packed:
                              real_pivot(row, len(row), p, packed))
                made.clear()
                coeffs, chain = _krylov_relation(f, _columns(f, m.raw_rows()), basis[0], n)
                assert coeffs is None and chain == basis + [v_k]
                assert bool(made) == packs
                with pytest.raises(InternalCheckFailed,
                                   match=f"the chain outgrew the {n}x{n} matrix"):
                    krylov_annihilator(m, basis[0])


def test_combination_matches_the_naive_sum(monkeypatch):
    """c_0 v_0 + ... + c_(k-1) v_(k-1), entry by entry, on both sides of the
    packing gate, with coefficients that are negative and at least p (a
    packed product takes residues only), and over Q with wide denominators
    and Fraction coefficients."""
    rng = random.Random(38)
    made = count_packs(monkeypatch)
    shapes = ((3, 4), (_PACK_MIN - 1, _PACK_MIN + 2), (_PACK_MIN, _PACK_MIN), (12, 16))
    for f in (GF(101), GF(WORD_PRIME)):
        p = f.p
        for k, n in shapes:
            vecs = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
            coeffs = [-1, 3 * p - 1] + [rng.randint(-3 * p, 3 * p) for _ in range(k - 2)]
            made.clear()
            assert _combination(f, coeffs, vecs) == [
                sum(c * v[j] for c, v in zip(coeffs, vecs)) % p for j in range(n)]
            assert bool(made) == (min(k, n) >= _PACK_MIN), (f, k, n)
    for k, n in shapes:
        vecs = rand_wide_rational(k, rng, n, digits=12).raw_rows()
        coeffs = [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
                  for _ in range(k)]
        got = _combination(QQ, coeffs, vecs)
        assert got == [sum(c * v[j] for c, v in zip(coeffs, vecs)) for j in range(n)]
        assert all(type(x) is int or x.denominator > 1 for x in got)


def test_krylov_relation_fills_a_slot_with_n_steps(monkeypatch):
    """The Krylov chain v_0 = -e_0, v_j = e_j - e_0 (:func:`krylov_planted`)
    gives pivot rows whose combination entry at v_0 is p - 1, and the next
    vector, all ones, is then reduced by n steps of multiplier p - 1, so
    that entry reaches n (p - 1)^2.  At the word-bound prime n = 29 packs
    and n = 30, whose slot would overflow 64 bits, does not."""
    f = GF(WORD_PRIME)
    made = count_packs(monkeypatch)
    for n in (_PACK_MIN, 29, 30):
        vecs = [[f.p - 1 if i == 0 else int(i == j) for i in range(n)] for j in range(n)]
        m_rows = _columns(f, krylov_planted(f, vecs, n, [1] * n).raw_rows())
        made.clear()
        assert _krylov_relation(f, m_rows, vecs[0], n) == ([n] + [f.p - 1] * (n - 1) + [1], vecs)
        assert bool(made) == (n <= 29)


# ---- elimination against a Gauss-Jordan reference ---------------------

def reference_rref(field, rows, ncols):
    """Textbook Gauss-Jordan on FieldElements: pivot rows scaled to 1, rows
    past the rank zero.  Returns (pivot columns, rows)."""
    rows = [[field.element(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                fac = rows[i][c]
                rows[i] = [x - fac * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots, rows


@st.composite
def elimination_inputs(draw):
    """A matrix with small-integer or wide-denominator entries, some rows
    and columns zeroed and some rows made dependent, including 0 x k and
    k x 0, and a right-hand side for solve."""
    f = draw(st.sampled_from([QQ, QQ, GF(2), GF(7), GF(101)] + [GF(p) for p in WIDE_PRIMES]))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    if f.p is None and draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 10 ** 6)))
        m = rand_wide_rational(rows, rng, cols=cols, digits=draw(st.integers(3, 12)))
        entries = m.raw_rows()
    else:
        entries = [[draw(st.integers(-3, 3)) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, 5), max_size=2)) & set(range(rows)):
        entries[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, 5), max_size=2)) & set(range(cols)):
        for row in entries:
            row[j] = 0
    if rows >= 3 and draw(st.booleans()):
        c = draw(st.integers(-2, 2))
        entries[-1] = [c * x + y for x, y in zip(entries[0], entries[1])]
    rhs = [[draw(st.integers(-3, 3)) for _ in range(2)] for _ in range(rows)]
    if rows and draw(st.booleans()):
        rhs = [[sum(x * k for x, k in zip(row, range(1, cols + 1))), 0] for row in entries]
    return (Matrix.from_rows(f, entries) if rows else Matrix.zero(f, 0, cols),
            Matrix.from_rows(f, rhs) if rows else Matrix.zero(f, 0, 2))


@settings(max_examples=300, deadline=None)
@given(elimination_inputs())
def test_elimination_matches_fraction_gauss_jordan(case):
    """_rref, rank, kernel_matrix, inverse and solve give exactly what a
    Gauss-Jordan reference in field arithmetic gives: the reduced echelon
    form is unique, however the kernel eliminates."""
    check_elimination(*case)


def wide_elimination_inputs(f, rng):
    """GF(p) systems on both sides of the packing gate: uniform, rank
    deficient, and rows reduced against many pivots.

    The pivot rows e_i + (p - 1)(e_(i+1) + ... ) with the row (1, 0, -1,
    -2, ...) give every step of the row's reduction the multiplier p - 1, so
    slot j of the packed row reaches j (p - 1)^2 + p - 1, the most the
    slot width allows for; the row of all p - 1 is reduced against the same
    pivots.  At the word-bound prime n = 27 and 28 pack and n = 30, whose
    slots would overflow 64 bits, does not."""
    p = f.p
    for rows, cols in ((_PACK_MIN - 1, _PACK_MIN - 1), (_PACK_MIN, _PACK_MIN),
                       (_PACK_MIN + 2, 28), (28, _PACK_MIN + 2), (24, 24)):
        m = rand_matrix(f, rows, rng, cols=cols)
        yield m, rand_matrix(f, rows, rng, cols=2)
        low = rand_matrix(f, rows, rng, cols=3) * rand_matrix(f, 3, rng, cols=cols)
        yield low, low * rand_matrix(f, cols, rng, cols=2)
    for n in (_PACK_MIN - 1, _PACK_MIN, 27, 28, 30):
        pivots = [[0] * i + [1] + [-1] * (n - i) for i in range(n)]
        entries = pivots + [[(1 - j) % p for j in range(n + 1)], [-1] * (n + 1)]
        m = Matrix.from_rows(f, entries)
        yield m, Matrix.from_rows(f, [[-1, j] for j in range(n + 2)])


def test_wide_elimination_matches_fraction_gauss_jordan():
    """The same checks on GF(p) systems up to 28 wide, past the packing
    gate, over primes that pack, the largest prime that packs at size 28,
    and primes too wide to pack."""
    rng = random.Random(28)
    for f in PRIME_FIELDS:
        for m, b in wide_elimination_inputs(f, rng):
            check_elimination(m, b)


def test_elimination_packs_up_to_the_word_bound(monkeypatch):
    """At the word-bound prime an elimination whose rank can reach 29 packs
    its rows, and agrees with Gauss-Jordan: a uniform 29 x 29 matrix, and
    the worst-case system of 28 pivot rows, whose last rows are reduced by
    28 steps of multiplier p - 1."""
    f = GF(WORD_PRIME)
    rng = random.Random(29)
    made = count_packs(monkeypatch)
    cases = [(rand_matrix(f, 29, rng), rand_matrix(f, 29, rng, cols=2))]
    cases += [(m, b) for m, b in wide_elimination_inputs(f, rng) if m.cols == 29]
    assert len(cases) == 2
    for m, b in cases:
        made.clear()
        rank(m)
        assert made
        check_elimination(m, b)


def test_echelon_stops_at_full_rank(monkeypatch):
    """Once the rank is the width, no later row is reduced: a 12 x 3 matrix
    whose rank is 3 at its third row takes three reductions, and eliminates
    as Gauss-Jordan does."""
    real = quadsum.matrix._reduce
    calls = []
    monkeypatch.setattr(quadsum.matrix, "_reduce", lambda *args: calls.append(1) or real(*args))
    rng = random.Random(12)
    for f in (QQ, GF(5), GF(WORD_PRIME)):
        m = Matrix.from_rows(f, [[1, 0, 0], [1, 1, 0], [2, 1, 1]]
                             + [[rng.randint(-4, 4) for _ in range(3)] for _ in range(9)])
        calls.clear()
        assert rank(m) == 3 and len(calls) == 3
        check_elimination(m, rand_matrix(f, 12, rng, cols=2))


def check_elimination(m, b):
    f = m.field
    pivots, ref = reference_rref(f, m.to_rows(), m.cols)
    rows = m.raw_rows()
    assert _rref(f, rows, m.cols) == pivots
    assert [[f.make(x) for x in row] for row in rows] == ref
    assert_canonical(Matrix._raw(f, m.rows, m.cols, [x for row in rows for x in row]))
    assert rank(m) == len(pivots)
    free = [j for j in range(m.cols) if j not in pivots]
    want = []
    for j in free:
        v = [f.element(0)] * m.cols
        v[j] = f.element(1)
        for i, pc in enumerate(pivots):
            v[pc] = -ref[i][j]
        want.append(v)
    k = Matrix(f, m.cols, len(free), [v[i] for i in range(m.cols) for v in want])
    assert kernel_matrix(m) == (k, free)
    if m.rows == m.cols:
        ident = Matrix.identity(f, m.rows)
        aug_pivots, aug = reference_rref(f, [r + i for r, i in zip(m.to_rows(), ident.to_rows())],
                                         m.cols)
        if len(aug_pivots) == m.rows:
            assert inverse(m) == Matrix.from_rows(f, [row[m.cols:] for row in aug])
        else:
            with pytest.raises(Singular):
                inverse(m)
    aug_pivots, aug = reference_rref(f, [r + s for r, s in zip(m.to_rows(), b.to_rows())],
                                     m.cols + b.cols)
    if any(pc >= m.cols for pc in aug_pivots):
        with pytest.raises(Singular):
            solve(m, b)
    else:
        x = [[f.element(0)] * b.cols for _ in range(m.cols)]
        for i, pc in enumerate(aug_pivots):
            x[pc] = aug[i][m.cols:]
        assert solve(m, b) == Matrix(f, m.cols, b.cols, [v for row in x for v in row])
