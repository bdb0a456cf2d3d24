"""Structure theory: the rank oracle for nullity sequences, invariant factors
and the split of each cyclic block at {0, 1}, all with verified transforms."""

import json
import math
import os
import random
import subprocess
import sys

import pytest

import quadsum
from quadsum.canonical import (_chain_matrix, _dual_rows, invariant_factors_with_transform,
                               split_cyclic_block, valuations)
from quadsum.errors import InternalCheckFailed
from quadsum.field import GF, QQ
from quadsum.matrix import (Matrix, _SPAN_PRIME, _rank, direct_sum, inverse, jordan_block,
                            kernel_matrix, rank, solve)
from quadsum.poly import Polynomial, companion, cyclic_vector, minimal_polynomial
from quadsum.sums import decide
from conftest import (WORD_PRIME, conjugate_partition, conjugated_companions, nullity_sequence,
                      rand_decomposable, rand_invertible, rand_matrix)

P = Polynomial


# ---- nullity sequences by the rank oracle ----------------------------

def test_nullity_sequence_jordan():
    m = direct_sum(QQ, [jordan_block(QQ, 3), jordan_block(QQ, 1)])
    assert nullity_sequence(m, 0) == (2, 1, 1) == conjugate_partition((3, 1))
    assert nullity_sequence(m, 1) == ()


def test_nullity_sequence_shifted_eigenvalue():
    m = jordan_block(GF(5), 2, eigenvalue=3)
    assert nullity_sequence(m, 3) == (1, 1)
    assert nullity_sequence(m, 0) == ()


def test_nullity_sequence_counts_blocks():
    rng = random.Random(12)
    for _ in range(20):
        sizes = sorted((rng.randint(1, 4) for _ in range(rng.randint(1, 4))),
                       reverse=True)
        m = direct_sum(QQ, [jordan_block(QQ, s) for s in sizes])
        t = rand_invertible(QQ, m.rows, rng)
        assert nullity_sequence(t * m * inverse(t), 0) == conjugate_partition(sizes)


# ---- invariant factors -----------------------------------------------

def test_invariant_factors_companion():
    p = P(QQ, [2, -1, 1])
    factors, t = invariant_factors_with_transform(companion(p))
    assert list(factors) == [p]
    assert inverse(t) * companion(p) * t == companion(p)


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
            factors, _ = invariant_factors_with_transform(t * m * inverse(t))
            assert list(factors) == chain
            # divisibility and degree-sum are re-checked inside; spot-check here
            q, r = factors[1].divrem(factors[0])
            assert r.is_zero()


def test_invariant_factors_last_is_minimal():
    rng = random.Random(14)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = rand_matrix(GF(3), n, rng)
        factors, _ = invariant_factors_with_transform(m)
        assert factors[-1] == minimal_polynomial(m)
        assert sum(p.degree for p in factors) == n


def test_invariant_factors_empty_matrix():
    factors, t = invariant_factors_with_transform(Matrix.zero(QQ, 0, 0))
    assert len(factors) == 0
    assert t.rows == 0


def test_invariant_factors_companion_needs_one_krylov_run(monkeypatch):
    """The standard-basis annihilator that gives the minimal polynomial is
    the cyclic vector's, not computed a second time.  ``cyclic_vector`` is
    the only caller of the annihilator in the Frobenius decomposition."""
    calls = []
    real = quadsum.poly.krylov_annihilator

    def counted(m, v, *rows):
        calls.append(tuple(v))
        return real(m, v, *rows)

    monkeypatch.setattr(quadsum.poly, "krylov_annihilator", counted)
    p = P(QQ, [3, -2, 0, 1])
    factors, _ = invariant_factors_with_transform(companion(p))
    assert list(factors) == [p]
    assert calls == [(1, 0, 0)]


def test_dual_row_is_solved_when_no_standard_row_pairs():
    """diag(0, 0, 1): the cyclic vector e_0 + e_2 spans a plane on which
    every standard row pairs singularly, so the dual row is the solution of
    w K = e_(d-1)^T, and the Frobenius identity holds on the result."""
    for f in (QQ, GF(2), GF(5)):
        t, t_1 = P(f, [0, 1]), P(f, [-1, 1])
        m = Matrix.diagonal(f, [0, 0, 1])
        mu, chain = cyclic_vector(m)
        k_mat = _chain_matrix(f, chain)
        assert mu == t * t_1 and k_mat.cols == 2
        for i in range(3):
            standard = Matrix.from_rows(f, [Matrix.identity(f, 3).row(i), m.row(i)])
            assert rank(standard * k_mat) < 2
        w_mat = _dual_rows(m, chain)
        assert Matrix.from_rows(f, [w_mat.row(0)]) * k_mat == Matrix.from_rows(f, [[0, 1]])
        assert rank(w_mat * k_mat) == 2
        factors, t_mat = invariant_factors_with_transform(m)
        assert list(factors) == [t, t * t_1]
        assert inverse(t_mat) * m * t_mat == direct_sum(f, [companion(fac) for fac in factors])


def test_frobenius_check_names_stage_and_size(monkeypatch):
    """M T = T F is checked against T F read off T's columns: with F's
    companions transposed there, or the last column of each block taken as
    its first, the check fails with its stage and the matrix size."""
    def transposed(field, cols, factors):
        t_mat = Matrix.from_rows(field, zip(*cols))
        return (t_mat * direct_sum(field, [companion(p).transpose() for p in factors])).raw_cols()

    for name, mutant in (("_times_companions", transposed),
                         ("_combination", lambda field, coeffs, vecs: vecs[0])):
        with monkeypatch.context() as patch:
            patch.setattr(quadsum.canonical, name, mutant)
            with pytest.raises(InternalCheckFailed, match="invariant factors: .* 3x3 matrix"):
                invariant_factors_with_transform(jordan_block(QQ, 3))


def test_corrupted_witness_names_stage_and_size(monkeypatch):
    """A singular T, or factors whose companions T does not conjugate M to,
    fail the M T = T F check of the invariant factors with the stage and
    the matrix size."""
    real = quadsum.canonical._cyclic_decompose
    m = jordan_block(QQ, 3, eigenvalue=2)
    factors, t_cols = real(m)
    transposed = [list(row) for row in zip(*t_cols)]
    assert transposed != t_cols
    for corrupted, what in (((factors, t_cols[:2] + t_cols[:1]), "the witness T is singular"),
                            (([P(QQ, [1, 0, 0, 1])], t_cols), "M T is not T F"),
                            ((factors, transposed), "M T is not T F")):
        monkeypatch.setattr(quadsum.canonical, "_cyclic_decompose", lambda _m, c=corrupted: c)
        with pytest.raises(InternalCheckFailed, match=f"invariant factors: {what}, .* 3x3 matrix"):
            invariant_factors_with_transform(m)
        with pytest.raises(InternalCheckFailed, match=f"invariant factors: {what}"):
            decide(m)


def test_witness_rank_falls_back_to_the_exact_rank(monkeypatch):
    """rank(T) = n is read modulo the span prime q first, on T's columns.
    diag(1, q) over Q has rank 1 modulo q, so the check takes the exact
    rank and passes; a singular T still fails, and a T of full rank modulo
    q needs no exact rank."""
    exact = []
    monkeypatch.setattr(quadsum.canonical, "_rank",
                        lambda f, cols, n: exact.append(cols) or _rank(f, cols, n))
    m = Matrix.identity(QQ, 2)
    one = P(QQ, [-1, 1])
    for diag, ok, fallback in (([1, _SPAN_PRIME], True, True), ([1, 0], False, True),
                               ([1, _SPAN_PRIME + 1], True, False)):
        t_mat = Matrix.diagonal(QQ, diag)
        t_cols = t_mat.raw_rows()  # T is diagonal: its rows are its columns
        monkeypatch.setattr(quadsum.canonical, "_cyclic_decompose", lambda _m: ([one, one], t_cols))
        exact.clear()
        if ok:
            assert invariant_factors_with_transform(m) == ((one, one), t_mat)
        else:
            with pytest.raises(InternalCheckFailed, match="the witness T is singular"):
                invariant_factors_with_transform(m)
        assert exact == ([t_cols] if fallback else [])


def test_planted_frobenius_work_is_pinned(monkeypatch):
    """A timing-free guard on the cyclic-vector scan: the Frobenius
    decomposition of one fixed planted 24x24 matrix over GF(5), a conjugated
    rank-12 idempotent plus a conjugated square-zero matrix of rank 6, runs
    at most the 23 Krylov annihilators that the stopped scan needs (a scan
    of every standard vector at every level runs 54)."""
    calls = []
    real = quadsum.poly.krylov_annihilator
    monkeypatch.setattr(quadsum.poly, "krylov_annihilator",
                        lambda m, v, *rows: calls.append(m.rows) or real(m, v, *rows))
    f, n, rng = GF(5), 24, random.Random(24)
    parts = [Matrix.diagonal(f, [1] * 12 + [0] * 12),
             direct_sum(f, [jordan_block(f, 2)] * 6 + [Matrix.zero(f, 12)])]
    m = Matrix.zero(f, n)
    for part in parts:
        t = rand_invertible(f, n, rng)
        m = m + t * part * inverse(t)
    factors, _ = invariant_factors_with_transform(m)
    assert [fac.degree for fac in factors] == [2] * 5 + [14]
    assert len(calls) <= 23


@pytest.mark.parametrize("k", [4, 8, 16])
def test_equal_factors_take_one_offer_per_level(k, monkeypatch):
    """C(t^2 - t - 1)^(+k) conjugated over GF(101) has k levels, each with
    the factor f = t^2 - t - 1.  Each level but the last two proves mu = f
    from the split of e_0's chain once e_1's annihilator divides it, after
    two Krylov runs, so the whole decomposition runs at most 2k - 1 (a scan
    until the chains span runs 10, 36 and 136 at k = 4, 8 and 16)."""
    calls = []
    real = quadsum.poly.krylov_annihilator
    monkeypatch.setattr(quadsum.poly, "krylov_annihilator",
                        lambda m, v, *rows: calls.append(m.rows) or real(m, v, *rows))
    f = GF(101)
    m = conjugated_companions(f, [-1, -1, 1], k, random.Random(k))
    factors, _ = invariant_factors_with_transform(m)
    assert list(factors) == [P(f, [-1, -1, 1])] * k
    assert len(calls) <= 2 * k - 1


def _offers(monkeypatch):
    """The list, per scan that ``_cyclic_decompose`` drives from now on, of
    the proven flags of the offers it took: [False] for an offer accepted,
    [False, True] for one dropped, [True] for none made."""
    scans = []
    real = quadsum.canonical._cyclic_scan

    def scan(m):
        flags = []
        scans.append(flags)
        for offer in real(m):
            flags.append(offer[2])
            yield offer

    monkeypatch.setattr(quadsum.canonical, "_cyclic_scan", scan)
    return scans


#: name -> (rows, the offer flags of the first scan, the sizes of the levels):
#: an offer taken; one dropped for check (ii), since ker W = <e_1, e_2, e_3>
#: is invariant but R = diag(0, 1, 1) has last factor t(t - 1), which does
#: not divide t, so t(R) is not 0 and the 3x3 level is never entered; one
#: dropped for check (i), since row 0 of M, w M with w = e_0^T, is e_2^T and
#: does not vanish on <e_1, e_2, e_3>.  A scalar level is closed at once, so
#: the 2x2 levels (I_2, and 0_2 under "fails (i)") have no child.
OFFERS = {
    "taken": (direct_sum(QQ, [companion(P(QQ, [-1, -1, 1]))] * 3).raw_rows(),
              [False], [6, 4, 2]),
    "fails (ii)": (Matrix.diagonal(QQ, [0, 0, 1, 1]).raw_rows(), [False, True], [4, 2]),
    "fails (i)": ([[0, 0, 1, 0], [0] * 4, [0] * 4, [0] * 4], [False, True], [4, 2]),
}


@pytest.mark.parametrize("f", [QQ, GF(2), GF(5)])
@pytest.mark.parametrize("name", sorted(OFFERS))
def test_offer_gives_the_scans_split(f, name, monkeypatch):
    """Whether the offer of e_0's chain is taken or dropped, (F, T) is the
    one of the decomposition with every offer switched off, where each
    level's mu comes from the scan alone."""
    rows, flags, sizes = OFFERS[name]
    m = Matrix.from_rows(f, [[int(x) for x in row] for row in rows])
    with monkeypatch.context() as patch:
        real = quadsum.canonical._cyclic_scan
        patch.setattr(quadsum.canonical, "_cyclic_scan",
                      lambda r: (offer for offer in real(r) if offer[2]))
        scanned = invariant_factors_with_transform(m)
    scans = _offers(monkeypatch)
    pairs, _ = _record_levels(monkeypatch)
    assert invariant_factors_with_transform(m) == scanned
    assert scans[0] == flags
    assert [m.rows] + [child.rows for _, _, child in pairs] == sizes


# ---- the restriction to the invariant complement ----------------------

def _restriction_by_solve(m, chain):
    """M restricted to the invariant complement of the cyclic subspace that
    the Krylov ``chain`` spans, as the solve of comp R = M comp: the
    reference for the rows that the decomposition reads it off."""
    comp, _ = kernel_matrix(_dual_rows(m, chain))
    return solve(comp, m * comp)


def _derogatory(f, rng):
    """A conjugated direct sum of two or three companions in a divisibility
    chain, or of Jordan blocks sharing an eigenvalue."""
    if rng.random() < 0.5:
        chain = [P(f, [rng.randint(-2, 2) for _ in range(rng.randint(1, 2))] + [1])]
        for _ in range(rng.randint(1, 2)):
            mult = [rng.randint(-2, 2) for _ in range(rng.randint(0, 2))]
            chain.append(chain[-1] * P(f, mult + [1]))
        m = direct_sum(f, [companion(p) for p in chain])
    else:
        lam = rng.randint(0, 1)
        m = direct_sum(f, [jordan_block(f, rng.randint(1, 3), eigenvalue=lam)
                           for _ in range(rng.randint(2, 3))])
    t = rand_invertible(f, m.rows, rng)
    return t * m * inverse(t)


def _record_levels(monkeypatch):
    """Two lists, filled from now on: (parent, chain, child) of every
    recursion of ``_cyclic_decompose``, and (parent, chain, R, whether
    a(R) = 0) of every check (ii), which evaluates an offer's annihilator a
    at the restriction R, the R of a dropped offer included.  The chain is
    the one whose dual rows the parent built last."""
    pairs, checks, stack = [], [], []
    real, real_dual = quadsum.canonical._cyclic_decompose, quadsum.canonical._dual_rows
    real_call = Polynomial.__call__

    def level(m):
        if stack:
            pairs.append((*stack[-1], m))
        stack.append([m, None])
        try:
            return real(m)
        finally:
            stack.pop()

    def dual(m, chain):
        stack[-1][1] = chain
        return real_dual(m, chain)

    def call(poly, x):
        value = real_call(poly, x)
        if isinstance(x, Matrix) and stack:
            checks.append((*stack[-1], x, value.is_zero()))
        return value

    monkeypatch.setattr(quadsum.canonical, "_cyclic_decompose", level)
    monkeypatch.setattr(quadsum.canonical, "_dual_rows", dual)
    monkeypatch.setattr(Polynomial, "__call__", call)
    return pairs, checks


def test_restriction_is_the_solve_written_down(monkeypatch):
    """Each level reads M restricted to the complement off the complement's
    free rows, with no solve; at every level of every derogatory input that
    equals the solve of comp R = M comp, the R of an offer dropped by check
    (ii) (a(R) is not 0: R's last factor does not divide the offered
    annihilator a) included.  Only a level's last R is recursed on, so a
    dropped offer's R never is.  Each level takes one factor, but the
    deepest takes all k of its own when it is a scalar k x k matrix (a
    conjugated 0_2 has no level below the top)."""
    pairs, checks = _record_levels(monkeypatch)
    rng = random.Random(18)
    checked = dropped = 0
    for f in (QQ, GF(2), GF(3), GF(5)):
        for _ in range(25):
            pairs.clear()
            checks.clear()
            top = _derogatory(f, rng)
            factors, _ = invariant_factors_with_transform(top)
            deepest = pairs[-1][2] if pairs else top
            k = deepest.rows
            scalar = deepest == deepest[0, 0] * Matrix.identity(f, k)
            assert len(pairs) == len(factors) - (k if scalar else 1)
            for m, chain, restricted in pairs + [check[:3] for check in checks]:
                assert restricted == _restriction_by_solve(m, chain)
                checked += 1
            failed = [r for _, _, r, divides in checks if not divides]
            assert not any(child is r for *_, child in pairs for r in failed)
            dropped += len(failed)
    assert checked >= 100 and dropped >= 1


@pytest.mark.parametrize("f", [GF(2), GF(101), QQ])
def test_each_level_recurses_once(f, monkeypatch):
    """I_6 (+) diag(0, 1)^(+6) has 12 invariant factors, and its scans drop
    offers by check (ii); ``_cyclic_decompose`` runs once per level (a
    recursion under each dropped offer made it run 1715 times over GF(101)):
    the top call and one recursion per level below it, six levels of
    t(t - 1) and then I_6, which is closed at once with its six factors
    t - 1."""
    pairs, checks = _record_levels(monkeypatch)
    factors, _ = invariant_factors_with_transform(Matrix.diagonal(f, [1] * 6 + [0, 1] * 6))
    assert len(factors) == 12 and len(pairs) + 1 == 7
    assert pairs[-1][2] == Matrix.identity(f, 6)
    assert not all(divides for *_, divides in checks)


@pytest.mark.parametrize("f", [GF(2), GF(101), QQ])
def test_scalar_matrix_is_closed_in_one_call(f, monkeypatch):
    """lam I_k is closed by one ``_cyclic_decompose`` call with no Krylov
    run: its k factors t - lam, and the anti-identity T, the basis that
    levels taking one dimension each would build."""
    pairs, _ = _record_levels(monkeypatch)
    runs = []
    real = quadsum.poly.krylov_annihilator
    monkeypatch.setattr(quadsum.poly, "krylov_annihilator",
                        lambda m, v, *rows: runs.append(m.rows) or real(m, v, *rows))
    for lam in (0, 1, 2) + (("-3/7",) if f.p is None else ()):
        for k in (1, 2, 5, 13):
            factors, t = invariant_factors_with_transform(Matrix.diagonal(f, [lam] * k))
            assert factors == (P(f, [-f.element(lam), 1]),) * k
            assert t == Matrix.from_rows(f, [[int(i + j == k - 1) for j in range(k)]
                                             for i in range(k)])
    assert pairs == [] and runs == []


def test_decomposition_solves_only_for_the_dual_row(monkeypatch):
    """``_cyclic_decompose`` runs ``solve`` only when no standard row pairs
    invertibly with the chain, for the dual row w K = e_(d-1)^T."""
    callers = []
    real = quadsum.canonical.solve

    def counted(a, b):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(a, b)

    monkeypatch.setattr(quadsum.canonical, "solve", counted)
    invariant_factors_with_transform(direct_sum(QQ, [jordan_block(QQ, 2), jordan_block(QQ, 1)]))
    assert callers == []
    rng = random.Random(19)
    for f in (QQ, GF(2), GF(3), GF(5)):
        for _ in range(10):
            invariant_factors_with_transform(_derogatory(f, rng))
    assert set(callers) <= {"_dual_rows"}
    callers.clear()
    invariant_factors_with_transform(Matrix.diagonal(QQ, [0, 0, 1]))
    assert callers == ["_dual_rows"]


def test_corrupted_restriction_names_stage_and_size(monkeypatch):
    """A restriction that is not M on the complement (here shifted by I)
    fails the M T = T F check, which names its stage and the matrix size."""
    real = quadsum.canonical._cyclic_decompose
    m = _derogatory(QQ, random.Random(20))
    factors, _ = real(m)
    assert len(factors) >= 2
    monkeypatch.setattr(quadsum.canonical, "_cyclic_decompose", lambda r: real(
        r + Matrix.identity(QQ, r.rows) if r.rows < m.rows else r))
    with pytest.raises(InternalCheckFailed,
                       match=f"invariant factors: M T is not T F, .* {m.rows}x{m.rows} matrix"):
        invariant_factors_with_transform(m)


@pytest.mark.parametrize("f", [QQ, GF(5)])
def test_frobenius_check_catches_one_wrong_column_or_coefficient(f, monkeypatch):
    """M T = T F is compared column by column against T's own columns: a T
    with any one column off (still of full rank), or factors with any one
    coefficient wrong (still monic, of the same degrees), fails the check
    with its stage and the matrix size."""
    real = quadsum.canonical._cyclic_decompose
    m = _derogatory(f, random.Random(21))
    factors, t_cols = real(m)
    n = m.rows
    stage = f"invariant factors: M T is not T F, .* {n}x{n} matrix"
    corrupted = []
    for j in range(n):
        cols = [list(c) for c in t_cols]
        cols[j][j] = f.reduce(cols[j][j] + 1)
        if rank(Matrix.from_rows(f, zip(*cols))) == n:
            corrupted.append((factors, cols))
    for i, fac in enumerate(factors):
        for k in range(fac.degree):
            coeffs = list(fac.coeffs)
            coeffs[k] = coeffs[k] + 1
            corrupted.append((factors[:i] + [P(f, coeffs)] + factors[i + 1:], t_cols))
    assert len(corrupted) >= n
    for case in corrupted:
        monkeypatch.setattr(quadsum.canonical, "_cyclic_decompose", lambda _m, c=case: c)
        with pytest.raises(InternalCheckFailed, match=stage):
            invariant_factors_with_transform(m)


# ---- the reduction law -----------------------------------------------

#: Word-size primes of the reduction law: their GF(p) kernels pack their rows
#: from n = 10 on.
REDUCTION_PRIMES = (65521, 1000003, WORD_PRIME)


def _scaled_to_integers(m):
    """c m for c the lcm of the denominators of the rational m's entries."""
    c = math.lcm(*(x.denominator for row in m.raw_rows() for x in row))
    return Matrix.from_rows(QQ, [[x * c for x in row] for row in m.raw_rows()])


def _integer_inputs():
    """21 fixed integer matrices at n = 8, 10, ..., 20: a sparse one, a
    planted one (idempotent plus square-zero) and C(t^2 - t - 1)^(+n/2)
    conjugated, the last two scaled to integers, per size."""
    rng = random.Random("reduction")
    out = []
    for n in range(8, 21, 2):
        out += [Matrix.from_rows(QQ, [[rng.randint(-5, 5) if rng.random() < 0.25 else 0
                                       for _ in range(n)] for _ in range(n)]),
                _scaled_to_integers(rand_decomposable(QQ, n, rng)),
                _scaled_to_integers(conjugated_companions(QQ, [-1, -1, 1], n // 2, rng))]
    return out


def _reduces(factors, m, p):
    """Whether the integer invariant factors ``factors`` of the integer m
    reduce mod p to the invariant factors of m mod p."""
    f = GF(p)
    mod_p, _ = invariant_factors_with_transform(
        Matrix.from_rows(f, [[x.numerator for x in row] for row in m.raw_rows()]))
    return [P(f, [c.numerator for c in fac.coeffs]) for fac in factors] == list(mod_p)


def test_integer_invariant_factors_reduce_mod_p():
    """An integer M has its invariant factors in Z[t] (Gauss's lemma), and
    for all but finitely many primes p they reduce mod p to those of M mod p.
    This compares the fraction-free rational kernels with the packed GF(p)
    kernels at sizes that neither sympy (n <= 10) nor brute force (n <= 4)
    reaches."""
    inputs = _integer_inputs()
    assert len(inputs) == 21
    for m in inputs:
        factors, _ = invariant_factors_with_transform(m)
        assert all(c.denominator == 1 for fac in factors for c in fac.coeffs)
        assert any(_reduces(factors, m, p) for p in REDUCTION_PRIMES), m.rows


def test_reduction_law_catches_a_factor_the_checks_miss(monkeypatch):
    """A cyclic input's rational factor with its constant coefficient moved
    by one, while the M T = T F check is patched to pass: the other internal
    checks (degree sum, rank of T, divisibility) let it through, and its
    reduction differs from the factor mod p at every prime."""
    rng = random.Random("reduction mutant")
    m = Matrix.from_rows(QQ, [[rng.randint(-3, 3) for _ in range(12)] for _ in range(12)])
    real = quadsum.canonical._cyclic_decompose

    def shifted(m_):
        factors, t_cols = real(m_)
        assert len(factors) == 1
        return [P(QQ, [factors[0].coeffs[0] + 1] + list(factors[0].coeffs[1:]))], t_cols

    with monkeypatch.context() as patched:
        patched.setattr(quadsum.canonical, "_cyclic_decompose", shifted)
        patched.setattr(quadsum.canonical, "_products_equal", lambda *args: True)
        factors, _ = invariant_factors_with_transform(m)
    assert factors != invariant_factors_with_transform(m)[0]
    assert all(c.denominator == 1 for fac in factors for c in fac.coeffs)
    assert not any(_reduces(factors, m, p) for p in REDUCTION_PRIMES)


# ---- spectral split at {0, 1}, per cyclic block ----------------------

def _check_block_splits(m):
    """Every Frobenius factor of m splits into C(h) + J_a(0) + J_b(1), with
    its conjugation identity; returns the (a, b, h) of every factor."""
    f = m.field
    factors, _ = invariant_factors_with_transform(m)
    vals = [valuations(fac, 0, 1) for fac in factors]
    for fac, (a, b, h) in zip(factors, vals):
        assert h(0) and h(1), (fac, h)
        assert P(f, [0, 1]) ** a * P(f, [-1, 1]) ** b * h == fac
        s = split_cyclic_block(fac, a, b, h)
        parts = [companion(h)] if h.degree else []
        expected = direct_sum(f, parts + [jordan_block(f, a), jordan_block(f, b, eigenvalue=1)])
        assert inverse(s) * companion(fac) * s == expected
    assert sum(h.degree + a + b for a, b, h in vals) == m.rows
    return vals


def test_split_cyclic_block_mixed():
    f = QQ
    away = Matrix.diagonal(f, [2, 3])
    at01 = direct_sum(f, [jordan_block(f, 2), jordan_block(f, 1, eigenvalue=1)])
    m = direct_sum(f, [away, at01])
    rng = random.Random(15)
    t = rand_invertible(f, 5, rng)
    valuations = _check_block_splits(t * m * inverse(t))
    assert [(a, b) for a, b, _ in valuations] == [(2, 1)]
    assert [h for _, _, h in valuations] == [P(f, [6, -5, 1])]


def test_split_cyclic_block_pure_cases():
    assert _check_block_splits(jordan_block(QQ, 3)) == [(3, 0, P(QQ, [1]))]
    assert _check_block_splits(Matrix.diagonal(QQ, [2, 5])) == [(0, 0, P(QQ, [10, -7, 1]))]


def test_split_check_names_stage_and_size(monkeypatch):
    """The split of a cyclic block is checked as rank(S) = deg f and
    C(f) S = S E: a singular S that still satisfies the second identity (the
    zero matrix) fails the first, and a wrong block sum E (here J_1(0)
    replaced by I, as S E is read off S's columns) fails the second."""
    fac = P(QQ, [0, -1, 1])  # t (t - 1)
    a, b, h = valuations(fac, 0, 1)
    assert rank(split_cyclic_block(fac, a, b, h)) == 2
    stage = r"cyclic block split: 2x2 block of .* is not C\(h\) \+ J_1\(0\) \+ J_1\(1\)"
    with monkeypatch.context() as patch:
        patch.setattr(quadsum.canonical, "_chain_matrix",
                      lambda f, chain: Matrix.zero(f, len(chain[0]), len(chain)))
        with pytest.raises(InternalCheckFailed, match=stage):
            split_cyclic_block(fac, a, b, h)
    monkeypatch.setattr(quadsum.canonical, "_combination", lambda f, coeffs, vecs: vecs[0])
    with pytest.raises(InternalCheckFailed, match=stage):
        split_cyclic_block(fac, a, b, h)


@pytest.mark.parametrize("f", [QQ, GF(5)])
def test_split_check_catches_shifted_jordan_columns(f, monkeypatch):
    """C(f) S = S E is read off S's columns: an S whose J_b(1) columns are
    rotated by one keeps full rank but fails the check, which names its
    stage and sizes."""
    h = P(f, [2, -1, 1])  # t^2 - t + 2, with h(0) = h(1) = 2
    fac = P(f, [0, 1]) * P(f, [-1, 1]) ** 2 * h
    a, b, h = valuations(fac, 0, 1)
    assert (a, b, h.degree) == (1, 2, 2)
    real = quadsum.canonical._chain_matrix
    shifted = []

    def rotated(field, chain):
        shifted.append(real(field, chain[:-b] + chain[-b + 1:] + chain[-b:-b + 1]))
        return shifted[-1]

    split_cyclic_block(fac, a, b, h)
    monkeypatch.setattr(quadsum.canonical, "_chain_matrix", rotated)
    with pytest.raises(InternalCheckFailed,
                       match=r"cyclic block split: 5x5 block of .* is not C\(h\) \+ J_1\(0\) "
                             r"\+ J_2\(1\)"):
        split_cyclic_block(fac, a, b, h)
    assert rank(shifted[0]) == 5


def test_split_cyclic_block_random_consistency():
    rng = random.Random(16)
    for f in (QQ, GF(2), GF(5)):
        for _ in range(15):
            n = rng.randint(0, 5)
            _check_block_splits(rand_matrix(f, n, rng))


# ---- nilpotent Jordan block sizes, from the valuations ---------------

def test_decide_nullities_recover_nilpotent_jordan_sizes():
    rng = random.Random(17)
    for f in (QQ, GF(2), GF(3)):
        for _ in range(20):
            sizes = sorted((rng.randint(1, 4) for _ in range(rng.randint(1, 3))),
                           reverse=True)
            nil = direct_sum(f, [jordan_block(f, s) for s in sizes])
            t = rand_invertible(f, nil.rows, rng)
            decision = decide(t * nil * inverse(t))
            assert decision.nullity_at_0 == conjugate_partition(sizes)
            assert decision.nullity_at_1 == ()


def test_decide_nullities_of_the_empty_matrix():
    assert decide(Matrix.zero(QQ, 0, 0)).nullity_at_0 == ()


# ---- determinism -------------------------------------------------------

def test_construct_is_the_same_in_every_interpreter(tmp_path):
    """No basis choice may depend on the process: ``quadsum construct`` on a
    rational job that takes both constructions (the merged cyclic vector and
    the solved dual row, see the tests above) prints the same bytes in two
    interpreters with different hash seeds."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(quadsum.__file__)))
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"field": "Q", "matrix": [["0", "0", "0"], ["0", "0", "0"],
                                                        ["0", "0", "1"]]}))
    argv = [sys.executable, "-m", "quadsum.cli", "construct", "--input", str(job)]
    outputs = {subprocess.run(argv, env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                              capture_output=True, text=True, check=True, timeout=60).stdout
               for seed in ("1", "2")}
    assert len(outputs) == 1
    assert json.loads(outputs.pop())["decision"] == "yes"
