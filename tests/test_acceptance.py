"""Acceptance suite: the headline exact-equivalence and property checks.

Each test prints a single PASS/FAIL line for its criterion (visible with
pytest -s / in captured output on failure).
"""

import random
import time

from quadsum import (GF, QQ, Matrix, Polynomial, QuadParams, block2x2,
                     companion, construct, decide, decompose_in_t2_minus_t,
                     invariant_factors_with_transform, inverse, is_p_intertwined,
                     jordan_block, minimal_polynomial, pair_blocks,
                     substitute_one_minus_t, verify_certificate)
from quadsum import serialize
from quadsum.canonical import split_cyclic_block, valuations
from quadsum.oracle import build_sum_atlas, exhaustive_compare
from quadsum.sums import check_necessary_combination
from conftest import rand_decomposable, rand_matrix

BANNER = "[acceptance {num}] {status}: {text}"


def report(num, ok, text):
    print()
    print(BANNER.format(num=num, status="PASS" if ok else "FAIL", text=text))
    assert ok


def test_acceptance_1_exhaustive_gf2():
    """All 2^(n^2) matrices over GF(2), n = 1..4: decide == atlas membership."""
    t0 = time.monotonic()
    mismatches = 0
    checked = 0
    for n in range(1, 5):
        r = exhaustive_compare(GF(2), n)
        mismatches += len(r.mismatches)
        checked += r.total
    elapsed = time.monotonic() - t0
    report(1, mismatches == 0 and elapsed < 120,
           f"GF(2) n<=4, {checked} matrices, {mismatches} mismatches, {elapsed:.1f}s")


def test_acceptance_2_exhaustive_gf3():
    """All 3^(n^2) matrices over GF(3), n = 1..3: decide == atlas membership."""
    t0 = time.monotonic()
    mismatches = 0
    checked = 0
    for n in range(1, 4):
        r = exhaustive_compare(GF(3), n)
        mismatches += len(r.mismatches)
        checked += r.total
    elapsed = time.monotonic() - t0
    report(2, mismatches == 0 and elapsed < 60,
           f"GF(3) n<=3, {checked} matrices, {mismatches} mismatches, {elapsed:.1f}s")


def test_acceptance_3_certificate_round_trip():
    """500 random decomposable instances per field: construct + verify exactly."""
    t0 = time.monotonic()
    rng = random.Random(1001)
    failures = 0
    for field in (QQ, GF(2), GF(5)):
        params = QuadParams.of(field)
        for _ in range(500):
            n = rng.randint(1, 8)
            m = rand_decomposable(field, n, rng)
            if not decide(m).yes:
                failures += 1
                continue
            cert = construct(m, params)
            if not verify_certificate(m, cert).ok:
                failures += 1
    elapsed = time.monotonic() - t0
    report(3, failures == 0 and elapsed < 120,
           f"1500 round trips over QQ/GF(2)/GF(5), {failures} failures, {elapsed:.1f}s")


def test_acceptance_4_known_negatives():
    """J_3(0), J_3(1), diag(2,2) and [1/2] over QQ: NO with the right witness,
    as rendered in the decision JSON."""
    cases = [
        (jordan_block(QQ, 3), {"kind": "intertwining", "eigenvalue": 0, "index": 1}),
        (jordan_block(QQ, 3, eigenvalue=1),
         {"kind": "intertwining", "eigenvalue": 1, "index": 1}),
        (Matrix.diagonal(QQ, [2, 2]),
         {"kind": "invariant_factor", "factor": ["-2", "1"]}),
        (Matrix.from_rows(QQ, [["1/2"]]),
         {"kind": "invariant_factor", "factor": ["-1/2", "1"]}),
    ]
    ok = True
    for m, expected in cases:
        d = decide(m)
        failing = serialize.decision_to_json(d)["diagnostics"]["failing_witness"]
        ok = ok and (not d.yes) and failing == expected
    report(4, ok, "four known negatives rejected with expected failing witness")


def test_acceptance_5_block_minimal_polynomial_law():
    """minpoly of [[aI, C(P)], [I, bI]] equals P((t-a)(t-b)), 200 samples."""
    rng = random.Random(1005)
    bad = 0
    for field in (QQ, GF(5)):
        for _ in range(100):
            deg = rng.randint(1, 5)
            if field.p is None:
                coeffs = [rng.randint(-3, 3) for _ in range(deg)] + [1]
                alpha, beta = rng.randint(-3, 3), rng.randint(-3, 3)
            else:
                coeffs = [rng.randrange(5) for _ in range(deg)] + [1]
                alpha, beta = rng.randrange(5), rng.randrange(5)
            p = Polynomial(field, coeffs)
            ident = Matrix.identity(field, deg)
            block = block2x2(field.element(alpha) * ident, companion(p),
                             ident, field.element(beta) * ident)
            inner = Polynomial(field, [alpha, -1]) \
                * Polynomial(field, [beta, -1])  # (t-a)(t-b) = (a-t)(b-t)
            expected = p.compose(inner)
            if minimal_polynomial(block) != expected:
                bad += 1
    report(5, bad == 0, f"200 block minimal-polynomial checks, {bad} mismatches")


def test_acceptance_6_pairing_equivalence():
    """pair_blocks feasibility == 2-intertwining of conjugate sequences, 10^4 pairs."""
    rng = random.Random(1006)

    def conj(sizes):
        if not sizes:
            return ()
        return tuple(sum(1 for s in sizes if s >= k)
                     for k in range(1, max(sizes) + 1))

    disagreements = 0
    for _ in range(10_000):
        a = [rng.randint(1, 9) for _ in range(rng.randint(0, 6))]
        b = [rng.randint(1, 9) for _ in range(rng.randint(0, 6))]
        feasible = pair_blocks(a, b) is not None
        inter = is_p_intertwined(conj(a), conj(b), 2)
        if feasible != inter:
            disagreements += 1
    report(6, disagreements == 0, f"10000 pairings, {disagreements} disagreements")


def test_acceptance_7_substitution_test_face():
    """decompose succeeds iff deg f even and f(1-t) = f(t); 10^3 per field."""
    rng = random.Random(1007)
    bad = 0
    for field in (QQ, GF(2), GF(5)):
        for _ in range(1000):
            deg = rng.randint(0, 8)
            if field.p is None:
                coeffs = [rng.randint(-4, 4) for _ in range(deg)] + [1]
            else:
                coeffs = [rng.randrange(field.p) for _ in range(deg)] + [1]
            f = Polynomial(field, coeffs)
            got = decompose_in_t2_minus_t(f)
            sym = substitute_one_minus_t(f).monic() == f
            expected = (f.degree % 2 == 0) and sym
            if (got is not None) != expected:
                bad += 1
            elif got is not None:
                s = Polynomial(field, [0, -1, 1])
                if got.compose(s) != f:
                    bad += 1
    report(7, bad == 0, f"3000 substitution tests, {bad} mismatches")


def test_acceptance_8_necessary_condition_gf3():
    """Every (1*P + 2*Q) sum of idempotents over GF(3), n <= 3, that satisfies
    the annihilation precondition passes the necessary check."""
    field = GF(3)
    violations = 0
    applicable = 0
    for n in range(1, 4):
        atlas = build_sum_atlas(field, n, alpha=1, beta=2)
        for raw in sorted(atlas.members):
            m = Matrix(field, n, n, [field.make(v) for v in raw])
            rep = check_necessary_combination(m, 1, 2)
            if rep.status == "not_applicable":
                continue
            applicable += 1
            if rep.status == "no":
                violations += 1
    report(8, violations == 0 and applicable > 0,
           f"{applicable} applicable atlas members, {violations} violations")


def test_acceptance_9_structure_suite_validity():
    """Conjugation identities, divisibility chains and degree sums hold on a
    broad random sample of invariant-factor calls and of the split of each
    cyclic block into C(h) + J_a(0) + J_b(1)."""
    rng = random.Random(1009)
    bad = 0
    total = 0
    from quadsum import companion as comp, direct_sum
    for field in (QQ, GF(2), GF(3), GF(5)):
        for _ in range(40):
            n = rng.randint(0, 6)
            m = rand_matrix(field, n, rng)
            total += 1
            factors, t = invariant_factors_with_transform(m)
            frob = direct_sum(field, [comp(p) for p in factors])
            if inverse(t) * m * t != frob:
                bad += 1
            if sum(p.degree for p in factors) != n:
                bad += 1
            for small, big in zip(factors, factors[1:]):
                if not big.divrem(small)[1].is_zero():
                    bad += 1
            for fac in factors:
                a, b, h = valuations(fac, 0, 1)
                blocks = ([comp(h)] if h.degree else []) + [
                    jordan_block(field, a), jordan_block(field, b, eigenvalue=1)]
                s = split_cyclic_block(fac, a, b, h)
                if inverse(s) * comp(fac) * s != direct_sum(field, blocks):
                    bad += 1
    report(9, bad == 0, f"{total} structure calls verified, {bad} violations")
