"""Exact matrix arithmetic, elimination, and block composition."""

import random
from fractions import Fraction

import pytest

from quadsum import (GF, QQ, DimensionMismatch, Matrix, SimilarityWitness,
                     Singular, block2x2, conjugate, direct_sum, hstack, inverse,
                     jordan_block, kernel_matrix, permutation_matrix, rank,
                     rank_and_kernel, solve)
from conftest import rand_invertible, rand_matrix, rand_wide_rational


def naive_product(a, b):
    """Triple loop on FieldElements: the reference for the product kernel."""
    f = a.field
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = f.zero()
            for t in range(a.cols):
                acc = acc + a[i, t] * b[t, j]
            out.append(acc)
    return Matrix(f, a.rows, b.cols, out)


def assert_canonical(m):
    if m.field.p is None:
        assert all(type(x.v) is Fraction for x in m._e)
    else:
        assert all(type(x.v) is int and 0 <= x.v < m.field.p for x in m._e)


def test_shapes_and_zero_sized():
    m = Matrix.zero(QQ, 0, 0)
    assert m.rows == m.cols == 0
    assert (m * m).rows == 0
    assert direct_sum(QQ, []) == m
    tall = Matrix.zero(QQ, 3, 0)
    assert (tall.transpose()).rows == 0


def test_bad_entry_count():
    with pytest.raises(DimensionMismatch):
        Matrix(QQ, 2, 2, [QQ.zero()] * 3)


def test_arithmetic_basics():
    f = GF(5)
    a = Matrix.from_rows(f, [[1, 2], [3, 4]])
    b = Matrix.from_rows(f, [[0, 1], [1, 0]])
    assert a + b == Matrix.from_rows(f, [[1, 3], [4, 4]])
    assert a * b == Matrix.from_rows(f, [[2, 1], [4, 3]])
    assert 2 * a == Matrix.from_rows(f, [[2, 4], [1, 3]])
    assert a - a == Matrix.zero(f, 2)
    assert a.transpose() == Matrix.from_rows(f, [[1, 3], [2, 4]])
    assert a.trace() == f.element(0)


def test_products_match_naive_triple_loop():
    rng = random.Random(12)
    makers = [(f, rand_matrix) for f in (GF(2), GF(5), GF(101), QQ)]
    makers.append((QQ, lambda f, n, r, cols=None: rand_wide_rational(n, r, cols)))
    for field, make in makers:
        for _ in range(25):
            n, k, m = (rng.randint(0, 5) for _ in range(3))
            a = make(field, n, rng, cols=k)
            b = make(field, k, rng, cols=m)
            got = a * b
            assert got == naive_product(a, b)
            assert_canonical(got)


def test_zero_sized_products():
    for f in (GF(2), GF(101), QQ):
        assert Matrix.zero(f, 3, 0) * Matrix.zero(f, 0, 4) == Matrix.zero(f, 3, 4)
        assert Matrix.zero(f, 0, 3) * Matrix.zero(f, 3, 0) == Matrix.zero(f, 0, 0)
        assert Matrix.zero(f, 0, 2) * Matrix.identity(f, 2) == Matrix.zero(f, 0, 2)


def test_power():
    j = jordan_block(QQ, 3)
    assert (j ** 0) == Matrix.identity(QQ, 3)
    assert (j ** 2) == j * j
    assert (j ** 3).is_zero()


def test_rank_and_kernel_canonical():
    f = GF(3)
    m = Matrix.from_rows(f, [[1, 2, 0], [0, 1, 0]])
    rk, basis = rank_and_kernel(m)
    assert rk == 2
    assert len(basis) == 1
    for v in basis:
        assert (m * v).is_zero()
    # determinism: identical input, identical basis
    assert rank_and_kernel(m)[1] == basis


def test_kernel_matrix_columns_annihilate():
    rng = random.Random(3)
    for f in (QQ, GF(2), GF(5)):
        for _ in range(20):
            n = rng.randint(1, 5)
            m = rand_matrix(f, n, rng, cols=rng.randint(1, 5))
            k = kernel_matrix(m)
            assert rank(m) + k.cols == m.cols
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
    assert d.submatrix(0, 2, 0, 2) == a
    assert d.submatrix(2, 5, 2, 5) == b
    assert d.submatrix(0, 2, 2, 5).is_zero()
    q = block2x2(a, Matrix.zero(f, 2), Matrix.zero(f, 2), a)
    assert q == Matrix.identity(f, 4)


def test_jordan_block_subdiagonal():
    j = jordan_block(QQ, 3, eigenvalue=2)
    assert j == Matrix.from_rows(QQ, [[2, 0, 0], [1, 2, 0], [0, 1, 2]])


def test_permutation_matrix_action():
    f = GF(3)
    perm = [2, 0, 1]
    p = permutation_matrix(f, perm)
    for k, pk in enumerate(perm):
        e = Matrix.column(f, [1 if i == k else 0 for i in range(3)])
        assert p * e == Matrix.column(f, [1 if i == pk else 0 for i in range(3)])
    assert p * p.transpose() == Matrix.identity(f, 3)


def test_similarity_witness_checked():
    f = GF(5)
    t = Matrix.from_rows(f, [[1, 1], [0, 1]])
    with pytest.raises(Singular):
        SimilarityWitness(t, t)  # wrong inverse
    w = SimilarityWitness.from_matrix(t)
    m = Matrix.from_rows(f, [[2, 0], [0, 3]])
    assert w.apply_inverse(w.apply(m)) == m
    assert conjugate(m, w) == t * m * inverse(t)


def test_similarity_preserves_rank_and_trace():
    rng = random.Random(9)
    f = GF(7)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = rand_matrix(f, n, rng)
        w = SimilarityWitness.from_matrix(rand_invertible(f, n, rng))
        c = w.apply(m)
        assert rank(c) == rank(m)
        assert c.trace() == m.trace()
