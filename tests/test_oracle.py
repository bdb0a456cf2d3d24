"""Brute-force enumeration oracle: counts, atlas membership, and the
decide-vs-atlas comparison on small spaces."""

import random

import pytest

from quadsum import GF, BudgetExceeded, Matrix, companion, inverse, Polynomial
from quadsum.oracle import (DEFAULT_BUDGET, _raw_idempotents, _raw_square_zero,
                            build_sum_atlas, comparison_to_json, exhaustive_compare,
                            idempotent_count)
from conftest import rand_invertible


def test_idempotents_gf2_n1():
    assert set(_raw_idempotents(2, 1, DEFAULT_BUDGET)) == {(0,), (1,)}


def test_idempotents_gf2_n2_count():
    assert len(_raw_idempotents(2, 2, DEFAULT_BUDGET)) == 8
    assert idempotent_count(2, 2) == 8


def test_idempotents_are_idempotent():
    for p, n in ((2, 3), (3, 2)):
        f = GF(p)
        for raw in _raw_idempotents(p, n, DEFAULT_BUDGET):
            e = Matrix._raw(f, n, n, raw)
            assert e * e == e


def test_square_zero_gf2_n2():
    f = GF(2)
    raw = set(_raw_square_zero(2, 2, DEFAULT_BUDGET))
    assert (0, 0, 0, 0) in raw
    assert (0, 0, 1, 0) in raw  # the shift block
    assert (1, 1, 1, 1) in raw
    for entries in raw:
        b = Matrix._raw(f, 2, 2, entries)
        assert (b * b).is_zero()


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        build_sum_atlas(GF(5), 4, budget=1 << 20)


def test_atlas_contains_zero_and_identity():
    for p, n in ((2, 3), (3, 2)):
        f = GF(p)
        atlas = build_sum_atlas(f, n)
        assert atlas.contains(Matrix.zero(f, n))
        assert atlas.contains(Matrix.identity(f, n))


def test_atlas_membership_companion_example():
    # C(t^2 + t + 1) over GF(2) is a quadratic sum (g = s + 1)
    f = GF(2)
    atlas = build_sum_atlas(f, 2)
    assert atlas.contains(companion(Polynomial.from_coeffs(f, [1, 1, 1])))


def test_atlas_similarity_closure_sampled():
    rng = random.Random(31)
    for p, n in ((2, 3), (3, 2)):
        f = GF(p)
        atlas = build_sum_atlas(f, n)
        members = sorted(atlas.members)
        for _ in range(30):
            raw = rng.choice(members)
            m = Matrix(f, n, n, [f.make(v) for v in raw])
            t = rand_invertible(f, n, rng)
            assert atlas.contains(t * m * inverse(t))


def test_exhaustive_compare_tiny():
    r = exhaustive_compare(GF(2), 2)
    assert r.ok and r.total == 16 and r.atlas_size == 16
    r = exhaustive_compare(GF(3), 2)
    assert r.ok and r.total == 81 and r.decide_yes == r.atlas_size


def test_scaled_atlas_gf3():
    f = GF(3)
    atlas = build_sum_atlas(f, 1, kind="scaled", alpha=1, beta=2)
    # 1*P + 2*Q over P, Q in {0, 1}: values {0, 1, 2, 0} -> everything
    assert len(atlas) == 3


def test_report_and_export_shapes():
    r = exhaustive_compare(GF(2), 1)
    payload = comparison_to_json(r)
    assert payload["pass"] is True
    assert payload["total"] == 2
    assert build_sum_atlas(GF(2), 1).members == {(0,), (1,)}
