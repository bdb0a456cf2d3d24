"""Structure theory: nullity sequences, invariant factors, spectral splits,
and nilpotent Jordan reduction, all with verified transforms."""

import os
import random
import subprocess
import sys

import pytest

import quadsum
from quadsum import (GF, QQ, Matrix, MalformedSequence, NotNilpotent,
                     NullitySequence, Polynomial, companion, direct_sum,
                     invariant_factors_with_transform, jordan_block,
                     minimal_polynomial, nilpotent_jordan_with_transform,
                     nullity_sequence, split_spectral)
from conftest import rand_invertible, rand_matrix


def P(field, coeffs):
    return Polynomial.from_coeffs(field, coeffs)


# ---- nullity sequences -----------------------------------------------

def test_nullity_sequence_jordan():
    m = direct_sum(QQ, [jordan_block(QQ, 3), jordan_block(QQ, 1)])
    seq = nullity_sequence(m, 0)
    assert seq.values == (2, 1, 1)
    assert seq.block_sizes() == (3, 1)
    assert seq.total() == 4
    assert nullity_sequence(m, 1).values == ()


def test_nullity_sequence_shifted_eigenvalue():
    m = jordan_block(GF(5), 2, eigenvalue=3)
    assert nullity_sequence(m, 3).values == (1, 1)
    assert nullity_sequence(m, 0).values == ()


def test_nullity_sequence_counts_blocks():
    rng = random.Random(12)
    for _ in range(20):
        sizes = sorted((rng.randint(1, 4) for _ in range(rng.randint(1, 4))),
                       reverse=True)
        m = direct_sum(QQ, [jordan_block(QQ, s) for s in sizes])
        t = rand_invertible(QQ, m.rows, rng)
        from quadsum import inverse
        seq = nullity_sequence(t * m * inverse(t), 0)
        assert seq.block_sizes() == tuple(sizes)


def test_malformed_sequence_rejected():
    with pytest.raises(MalformedSequence):
        NullitySequence(QQ.zero(), (1, 2))


# ---- invariant factors -----------------------------------------------

def test_invariant_factors_companion():
    p = P(QQ, [2, -1, 1])
    factors, witness = invariant_factors_with_transform(companion(p))
    assert list(factors) == [p]
    assert witness.apply_inverse(companion(p)) == companion(p)


def test_invariant_factors_scalar_blocks():
    m = Matrix.diagonal(QQ, [2, 2, 2])
    factors, _ = invariant_factors_with_transform(m)
    assert list(factors) == [P(QQ, [-2, 1])] * 3


def test_invariant_factors_random_frobenius_form():
    """Build a matrix from a known divisibility chain and recover it."""
    rng = random.Random(13)
    for f in (QQ, GF(2), GF(5)):
        for _ in range(15):
            base = P(f, [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))] + [1])
            mult = P(f, [rng.randint(-2, 2) for _ in range(rng.randint(0, 2))] + [1])
            chain = [base, base * mult]
            m = direct_sum(f, [companion(p) for p in chain])
            t = rand_invertible(f, m.rows, rng)
            from quadsum import inverse
            factors, witness = invariant_factors_with_transform(t * m * inverse(t))
            assert list(factors) == chain
            # divisibility and degree-sum are re-checked inside; spot-check here
            q, r = factors.factors[1].divrem(factors.factors[0])
            assert r.is_zero()


def test_invariant_factors_last_is_minimal():
    rng = random.Random(14)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = rand_matrix(GF(3), n, rng)
        factors, _ = invariant_factors_with_transform(m)
        assert factors.minimal() == minimal_polynomial(m)
        assert sum(p.degree for p in factors) == n


def test_invariant_factors_empty_matrix():
    factors, witness = invariant_factors_with_transform(Matrix.zero(QQ, 0, 0))
    assert len(factors) == 0
    assert witness.size == 0


# ---- spectral split at {0, 1} ----------------------------------------

def test_split_spectral_mixed():
    f = QQ
    away = Matrix.diagonal(f, [2, 3])
    at01 = direct_sum(f, [jordan_block(f, 2), jordan_block(f, 1, eigenvalue=1)])
    m = direct_sum(f, [away, at01])
    rng = random.Random(15)
    t = rand_invertible(f, 5, rng)
    from quadsum import inverse
    split = split_spectral(t * m * inverse(t))
    assert split.m1.rows == 2
    assert split.m2.rows == 3
    assert split.p == 2 and split.q == 1
    assert minimal_polynomial(split.m1) == P(f, [6, -5, 1])


def test_split_spectral_pure_cases():
    m = jordan_block(QQ, 3)
    split = split_spectral(m)
    assert split.m1.rows == 0 and split.m2.rows == 3
    m = Matrix.diagonal(QQ, [2, 5])
    split = split_spectral(m)
    assert split.m1.rows == 2 and split.m2.rows == 0


def test_split_spectral_random_consistency():
    rng = random.Random(16)
    for f in (QQ, GF(2), GF(5)):
        for _ in range(15):
            n = rng.randint(0, 5)
            m = rand_matrix(f, n, rng)
            split = split_spectral(m)
            assert split.m1.rows + split.m2.rows == n
            # conjugation identity (also enforced internally)
            got = split.witness.apply(m)
            assert got.submatrix(0, split.m1.rows, 0, split.m1.rows) == split.m1


# ---- nilpotent Jordan reduction --------------------------------------

def test_nilpotent_jordan_recovers_sizes():
    rng = random.Random(17)
    for f in (QQ, GF(2), GF(3)):
        for _ in range(20):
            sizes = sorted((rng.randint(1, 4) for _ in range(rng.randint(1, 3))),
                           reverse=True)
            nil = direct_sum(f, [jordan_block(f, s) for s in sizes])
            t = rand_invertible(f, nil.rows, rng)
            from quadsum import inverse
            got_sizes, witness = nilpotent_jordan_with_transform(t * nil * inverse(t))
            assert got_sizes == tuple(sizes)
            expected = direct_sum(f, [jordan_block(f, s) for s in sizes])
            assert witness.apply_inverse(t * nil * inverse(t)) == expected


def test_nilpotent_jordan_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        nilpotent_jordan_with_transform(Matrix.identity(QQ, 2))


def test_nilpotent_jordan_zero_sized():
    sizes, witness = nilpotent_jordan_with_transform(Matrix.zero(QQ, 0, 0))
    assert sizes == ()
    assert witness.size == 0


# ---- determinism -------------------------------------------------------

def test_matrix_seed_is_the_same_in_every_interpreter():
    """The candidate-vector seed of a rational matrix must not depend on the
    process (``hash(None)`` does on Python 3.11)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(quadsum.__file__)))
    code = ("from quadsum import QQ, Matrix\n"
            "from quadsum.canonical import _matrix_seed\n"
            "print(_matrix_seed(Matrix.from_rows(QQ, [['1/2', '0'], ['3', '-1']])))\n")
    env = dict(os.environ, PYTHONPATH=src)
    seeds = {subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=60).stdout
             for _ in range(2)}
    assert len(seeds) == 1
