"""Brute-force enumeration oracle: counts, atlas membership, and the
decide-vs-atlas comparison on small spaces."""

import inspect
import itertools
import random
import re
import time
from collections import Counter

import pytest

from quadsum.errors import (BadParams, BudgetExceeded, DecisionNo, InternalCheckFailed,
                            NotSplitError, UnsupportedCase)
from quadsum.field import GF
from quadsum.matrix import Matrix, inverse
from quadsum.poly import Polynomial, companion
from quadsum import oracle
from quadsum.oracle import (_matrices_at, _raw_matrices, _raw_squares, build_sum_atlas,
                            exhaustive_compare, idempotent_count, square_zero_count)
from quadsum.serialize import comparison_to_json
from quadsum.sums import (QuadParams, check_necessary_combination, classify_and_reduce,
                          construct, verify_certificate)
from conftest import rand_invertible


def _scanned(p: int, n: int):
    """The scan's two masks, each decoded to its list of matrices."""
    return [_matrices_at(mask, p, n) for mask in _raw_squares(p, n)]


def test_idempotents_gf2_n1():
    assert set(_scanned(2, 1)[0]) == {(0,), (1,)}


def test_idempotents_gf2_n2_count():
    assert len(_scanned(2, 2)[0]) == 8
    assert idempotent_count(2, 2) == 8


def test_idempotents_are_idempotent():
    for p, n in ((2, 3), (3, 2)):
        f = GF(p)
        for raw in _scanned(p, n)[0]:
            e = Matrix._raw(f, n, n, raw)
            assert e * e == e


def test_square_zero_gf2_n2():
    f = GF(2)
    raw = set(_scanned(2, 2)[1])
    assert (0, 0, 0, 0) in raw
    assert (0, 0, 1, 0) in raw  # the shift block
    assert (1, 1, 1, 1) in raw
    for entries in raw:
        b = Matrix._raw(f, 2, 2, entries)
        assert (b * b).is_zero()


def test_one_scan_per_atlas(monkeypatch):
    """Both kinds of atlas run the scan, and build the space's bit planes,
    exactly once, and decode two masks: the square-zero mask and the atlas,
    or, scaled, the idempotent mask and the atlas.  Each matrix of the
    second set redoes only the translates past its first entry that differs
    from the matrix before it: the unscaled atlases of the benchmark take
    1029 translates at GF(2) n = 4 and 296 at GF(3) n = 3, where one per
    nonzero entry of each matrix would be 1984 and 468."""
    calls = Counter()

    def counted(name):
        original = getattr(oracle, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in ("_raw_squares", "_planes", "_matrices_at", "_translate"):
        monkeypatch.setattr(oracle, name, counted(name))
    translates = {(2, 4): 1029, (3, 3): 296}
    for p, n in ((2, 1), (2, 2), (2, 3), (3, 2), (2, 4), (3, 3)):
        for scalars in ({}, {"alpha": 1, "beta": 2}):
            calls.clear()
            build_sum_atlas(GF(p), n, **scalars)
            if not scalars and (p, n) in translates:
                assert calls["_translate"] == translates[p, n], (p, n)
            del calls["_translate"]
            assert calls == {"_raw_squares": 1, "_planes": 1, "_matrices_at": 2}, (p, n, scalars)


def test_one_scan_sorts_the_space_by_its_square():
    """Idempotents and square-zero matrices, decoded in lexicographic order,
    as the test's own scans find them; the zero matrix is in both lists.
    The shapes reach each edge of the budget: n = 0, the largest prime at
    n = 1 and at n = 2, and GF(3) at n = 3."""
    for p, n in ((2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1),
                 (131071, 1), (19, 2), (3, 3)):
        idempotents, square_zero = _scanned(p, n)
        assert idempotents == sorted(idempotents) and square_zero == sorted(square_zero)
        assert idempotents == _quadratics(p, n, 1, 0), (p, n)
        assert square_zero == _quadratics(p, n, 0, 0), (p, n)
        assert (0,) * (n * n) in idempotents and (0,) * (n * n) in square_zero


def test_count_checks_name_the_list_that_failed(monkeypatch):
    """A scan mask with one matrix dropped from either list fails its
    closed-form count check, and the message names the list, p, n and both
    counts; the scan runs both checks, each on its own mask."""
    masks = _raw_squares(3, 2)
    for dropped, (kind, count), message in (
            (0, ("idempotent", 14), "oracle: idempotent scan of the 2x2 matrices over GF(3) "
                                    "found 13, the closed-form count is 14"),
            (1, ("square-zero", 9), "oracle: square-zero scan of the 2x2 matrices over GF(3) "
                                    "found 8, the closed-form count is 9")):
        mask = masks[dropped]
        assert oracle._check_count(kind, mask, count, 3, 2) == mask
        with pytest.raises(InternalCheckFailed, match=f"^{re.escape(message)}$"):
            oracle._check_count(kind, mask & (mask - 1), count, 3, 2)
    checks = []

    def counted(kind, mask, count, p, n):
        checks.append((kind, mask.bit_count(), count, p, n))
        return check_count(kind, mask, count, p, n)

    check_count = oracle._check_count
    monkeypatch.setattr(oracle, "_check_count", counted)
    build_sum_atlas(GF(3), 2)
    assert checks == [("idempotent", 14, 14, 3, 2), ("square-zero", 9, 9, 3, 2)]


def test_square_zero_scan_matches_the_closed_form_count():
    expected = {(2, 1): 1, (2, 2): 4, (2, 3): 22, (2, 4): 316, (3, 1): 1, (3, 2): 9, (3, 3): 105}
    for (p, n), count in expected.items():
        assert square_zero_count(p, n) == count
        assert len(_scanned(p, n)[1]) == count, (p, n)


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        build_sum_atlas(GF(5), 4)


def test_atlas_refuses_a_size_or_budget_that_is_not_an_int():
    for n in (2.0, True, "2"):
        with pytest.raises(BadParams):
            build_sum_atlas(GF(2), n)
        with pytest.raises(BadParams):
            exhaustive_compare(GF(2), n)


def test_atlas_contains_zero_and_identity():
    for p, n in ((2, 3), (3, 2)):
        f = GF(p)
        atlas = build_sum_atlas(f, n)
        assert Matrix.zero(f, n)._e in atlas.members
        assert Matrix.identity(f, n)._e in atlas.members


def test_atlas_membership_companion_example():
    # C(t^2 + t + 1) over GF(2) is a quadratic sum (g = s + 1)
    f = GF(2)
    atlas = build_sum_atlas(f, 2)
    assert companion(Polynomial(f, [1, 1, 1]))._e in atlas.members


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
            assert (t * m * inverse(t))._e in atlas.members


def test_exhaustive_compare_tiny():
    r = exhaustive_compare(GF(2), 2)
    assert r.ok and r.total == 16 and r.atlas_size == 16
    r = exhaustive_compare(GF(3), 2)
    assert r.ok and r.total == 81 and r.decide_yes == r.atlas_size


def test_scaled_atlas_gf3():
    f = GF(3)
    atlas = build_sum_atlas(f, 1, alpha=1, beta=2)
    # 1*P + 2*Q over P, Q in {0, 1}: values {0, 1, 2, 0} -> everything
    assert len(atlas.members) == 3


# ---- atlas sums at the edges -------------------------------------------

#: (p, n, alpha, beta) of the main and the scaled atlas: n = 1 at primes
#: near 2^7, 2^15 and 2^17, the largest prime the budget admits, where the
#: scaled atlas holds the largest sum 2p - 2 and its one digit wraps; n = 2
#: over GF(17), four digits that wrap; n = 0, a space of one index with no
#: digit, at any p.
ATLAS_EDGES = [*[(p, 1, p - 1, p - 1) for p in (127, 131, 32749, 32771, 131071)],
               (17, 2, 3, 5), (2, 0, 1, 1), ((1 << 61) - 1, 0, 3, 5)]


def _reference_atlases(p: int, n: int, alpha: int, beta: int):
    """The main and the scaled atlas as sets of tuples, each sum written
    entry by entry from the scan's lists."""
    idempotents, square_zero = _scanned(p, n)

    def sums(ca, cb, second):
        return {tuple((ca * u + cb * v) % p for u, v in zip(x, y))
                for x in idempotents for y in second}
    return [sums(1, 1, square_zero), sums(alpha, beta, idempotents)]


def _check_packed_sums(p: int, n: int, alpha: int, beta: int):
    atlases = []
    for scalars in ({}, {"alpha": alpha, "beta": beta}):
        members = oracle.build_sum_atlas(GF(p), n, **scalars).members
        assert all(type(m) is tuple and len(m) == n * n
                   and all(type(v) is int and 0 <= v < p for v in m) for m in members)
        atlases.append(members)
    assert atlases == _reference_atlases(p, n, alpha, beta)


@pytest.mark.parametrize("p, n, alpha, beta", ATLAS_EDGES)
def test_packed_sums_at_the_slot_widths(p, n, alpha, beta):
    _check_packed_sums(p, n, alpha, beta)


@pytest.mark.parametrize("p, n, alpha, beta", [e for e in ATLAS_EDGES if e[1] > 0])
def test_packed_sums_check_catches_an_unreduced_sum(monkeypatch, p, n, alpha, beta):
    """With a translate that keeps the indices whose digit stays below p and
    drops those whose digit wraps, a sum that reaches p is never reduced and
    the check above fails: at every edge with a digit."""
    def no_wrap(mask, low, up, down):
        return (mask & low) << up

    monkeypatch.setattr(oracle, "_translate", no_wrap)
    with pytest.raises(AssertionError):
        _check_packed_sums(p, n, alpha, beta)


@pytest.mark.parametrize("cut", ["pass", "del stack[1:]"])
def test_packed_sums_check_catches_a_wrong_prefix_stack(monkeypatch, cut):
    """``build_sum_atlas`` with its stack of prefix translates never cut
    back, so that each matrix is added onto the one before, or cut back to
    the first mask, so that the entries a matrix shares with the one before
    are lost: the check above fails at GF(17) n = 2, whose consecutive
    matrices share nonzero leading entries."""
    source = inspect.getsource(oracle.build_sum_atlas)
    mutant = source.replace("del stack[d + 1:]", cut)
    assert mutant != source
    namespace = dict(vars(oracle))
    exec(mutant, namespace)
    monkeypatch.setattr(oracle, "build_sum_atlas", namespace["build_sum_atlas"])
    with pytest.raises(AssertionError):
        _check_packed_sums(17, 2, 3, 5)


def test_report_and_export_shapes():
    r = exhaustive_compare(GF(2), 1)
    payload = comparison_to_json(r)
    assert payload["pass"] is True
    assert payload["total"] == 2
    assert build_sum_atlas(GF(2), 1).members == {(0,), (1,)}


# ---- every small parameter set against full scans ----------------------

def _quadratics(p: int, n: int, a: int, b: int):
    """Raw entries of every n x n matrix X over GF(p) with X^2 = a X + b I,
    X^2 written from the definition, not with the oracle's product."""
    ident = [int(i == j) for i in range(n) for j in range(n)]
    return [tuple(x) for x in _raw_matrices(p, n)
            if [sum(x[i * n + k] * x[k * n + j] for k in range(n)) % p
                for i in range(n) for j in range(n)]
            == [(a * u + b * e) % p for u, e in zip(x, ident)]]


def test_every_small_parameter_set_against_full_scans():
    """For every (a, b, c, d) in GF(2)^4 and GF(3)^4 and n in {1, 2}, the set
    of sums A + B of an (a, b)- and a (c, d)-quadratic matrix, both found by
    full scan, against the classification, construct and the case-I
    necessary condition."""
    t0 = time.monotonic()
    seen = Counter()
    for p in (2, 3):
        f = GF(p)
        for a, b, c, d in itertools.product(range(p), repeat=4):
            params = QuadParams.of(f, a, b, c, d)
            roots = [[r for r in range(p) if (r * r - x * r - y) % p == 0]
                     for x, y in ((a, b), (c, d))]
            for n in (1, 2):
                matrices = [Matrix._raw(f, n, n, x) for x in _raw_matrices(p, n)]
                if not all(roots):
                    for m in matrices:
                        with pytest.raises(NotSplitError):
                            construct(m, params)
                    seen["not split"] += 1
                    continue
                # a = 2 alpha holds for one root alpha iff for both: iff the root is double
                double = [(x - 2 * r[0]) % p == 0 for x, r in ((a, roots[0]), (c, roots[1]))]
                case = "II" if all(double) else "III" if any(double) else "I"
                sums = {tuple((u + v) % p for u, v in zip(x, y))
                        for x in _quadratics(p, n, a, b) for y in _quadratics(p, n, c, d)}
                for m in matrices:
                    cls, shifted = classify_and_reduce(m, params)
                    assert cls.case == case and cls.alpha.v in roots[0] and cls.beta.v in roots[1]
                    if case == "III" and m._e in sums:
                        assert verify_certificate(m, construct(m, params)).ok
                        seen["certificate"] += 1
                        continue
                    with pytest.raises(DecisionNo if case == "III" else UnsupportedCase):
                        construct(m, params)
                    scales = params.a - 2 * cls.alpha, params.c - 2 * cls.beta
                    if case == "I" and scales[0] != scales[1]:
                        if check_necessary_combination(shifted, *scales).status == "no":
                            assert m._e not in sums
                            seen["necessary no"] += 1
                    seen[case] += 1
    assert min(seen[k] for k in ("not split", "certificate", "III", "II", "I", "necessary no")) > 0
    assert time.monotonic() - t0 < 30
