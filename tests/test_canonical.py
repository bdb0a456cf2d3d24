"""Structure theory: nullity sequences, invariant factors and the split of
each cyclic block at {0, 1}, all with verified transforms."""

import os
import random
import subprocess
import sys

import pytest

import quadsum
from quadsum import (GF, QQ, Matrix, MalformedSequence, NullitySequence,
                     Polynomial, companion, decide, direct_sum,
                     invariant_factors_with_transform, inverse, jordan_block,
                     minimal_polynomial, nullity_sequence)
from quadsum.canonical import split_cyclic_block, valuations_at_0_1
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


def test_invariant_factors_companion_needs_one_krylov_run(monkeypatch):
    """The standard-basis annihilators that give the minimal polynomial are
    reused for the cyclic vector, not computed a second time."""
    calls = []
    real = quadsum.poly.krylov_annihilator

    def counted(m, v):
        calls.append(tuple(v))
        return real(m, v)

    monkeypatch.setattr(quadsum.poly, "krylov_annihilator", counted)
    monkeypatch.setattr(quadsum.canonical, "krylov_annihilator", counted)
    p = P(QQ, [3, -2, 0, 1])
    factors, _ = invariant_factors_with_transform(companion(p))
    assert list(factors) == [p]
    assert calls == [(1, 0, 0)]


# ---- spectral split at {0, 1}, per cyclic block ----------------------

def _check_block_splits(m):
    """Every Frobenius factor of m splits into C(h) + J_a(0) + J_b(1), with
    its conjugation identity; returns the (a, b, h) of every factor."""
    f = m.field
    factors, _ = invariant_factors_with_transform(m)
    valuations = [valuations_at_0_1(fac) for fac in factors]
    for fac, (a, b, h) in zip(factors, valuations):
        assert h(0) and h(1), (fac, h)
        assert P(f, [0, 1]) ** a * P(f, [-1, 1]) ** b * h == fac
        witness = split_cyclic_block(fac, a, b, h)
        parts = [companion(h)] if h.degree else []
        expected = direct_sum(f, parts + [jordan_block(f, a), jordan_block(f, b, eigenvalue=1)])
        assert witness.apply_inverse(companion(fac)) == expected
    assert sum(h.degree + a + b for a, b, h in valuations) == m.rows
    return valuations


def test_split_spectral_mixed():
    f = QQ
    away = Matrix.diagonal(f, [2, 3])
    at01 = direct_sum(f, [jordan_block(f, 2), jordan_block(f, 1, eigenvalue=1)])
    m = direct_sum(f, [away, at01])
    rng = random.Random(15)
    t = rand_invertible(f, 5, rng)
    valuations = _check_block_splits(t * m * inverse(t))
    assert [(a, b) for a, b, _ in valuations] == [(2, 1)]
    assert [h for _, _, h in valuations] == [P(f, [6, -5, 1])]


def test_split_spectral_pure_cases():
    assert _check_block_splits(jordan_block(QQ, 3)) == [(3, 0, P(QQ, [1]))]
    assert _check_block_splits(Matrix.diagonal(QQ, [2, 5])) == [(0, 0, P(QQ, [10, -7, 1]))]


def test_split_spectral_random_consistency():
    rng = random.Random(16)
    for f in (QQ, GF(2), GF(5)):
        for _ in range(15):
            n = rng.randint(0, 5)
            _check_block_splits(rand_matrix(f, n, rng))


# ---- nilpotent Jordan block sizes, from the valuations ---------------

def test_nilpotent_jordan_recovers_sizes():
    rng = random.Random(17)
    for f in (QQ, GF(2), GF(3)):
        for _ in range(20):
            sizes = sorted((rng.randint(1, 4) for _ in range(rng.randint(1, 3))),
                           reverse=True)
            nil = direct_sum(f, [jordan_block(f, s) for s in sizes])
            t = rand_invertible(f, nil.rows, rng)
            decision = decide(t * nil * inverse(t))
            assert decision.nullity_at_0.block_sizes() == tuple(sizes)
            assert decision.nullity_at_1.block_sizes() == ()


def test_nilpotent_jordan_zero_sized():
    assert decide(Matrix.zero(QQ, 0, 0)).nullity_at_0.block_sizes() == ()


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
