"""Polynomial arithmetic, companion matrices, minimal polynomials, cyclic
vectors, and the t^2 - t substitution test."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import quadsum
from quadsum.errors import DimensionMismatch, InternalCheckFailed, NotMonic
from quadsum.field import GF, QQ
from quadsum.matrix import Matrix, direct_sum, inverse, jordan_block, rank, solve
from quadsum.poly import (Polynomial, _coprime_split, companion, cyclic_vector,
                          decompose_in_t2_minus_t, krylov_annihilator, lcm,
                          minimal_polynomial, substitute_one_minus_t)
from conftest import (WIDE_PRIMES, WORD_PRIME, coprime_denominators, count_packs, monic_gcd,
                      rand_decomposable, rand_invertible, rand_matrix, rand_wide_rational)

P = Polynomial


def test_canonical_form():
    p = P(QQ, [1, 2, 0, 0])
    assert p.degree == 1
    assert Polynomial.zero(QQ).degree is None
    assert str(P(QQ, [0, -1, 1])) == "t^2 + -1*t"


def test_divrem_examples():
    t3 = P(QQ, [0, 0, 0, 1])
    t2 = P(QQ, [0, 0, 1])
    q, r = t3.divrem(t2)
    assert q == P(QQ, [0, 1]) and r.is_zero()
    q, r = P(QQ, [1, 0, 1]).divrem(P(QQ, [1, 1]))
    assert P(QQ, [1, 1]) * q + r == P(QQ, [1, 0, 1])


def test_gcd_examples():
    assert monic_gcd(P(QQ, [-1, 0, 1]), P(QQ, [-1, 1])) == P(QQ, [-1, 1])
    a = P(GF(5), [1, 2, 1])
    assert monic_gcd(a, P(GF(5), [1, 1])) == P(GF(5), [1, 1])
    assert lcm(P(QQ, [0, 1]), P(QQ, [-1, 1])) == P(QQ, [0, -1, 1])


def test_lcm_of_polynomials_that_are_not_monic():
    """lcm scales the quotient before the product; the result equals the
    monic product of the quotient and b, coefficient types included."""
    rng = random.Random(17)
    for f in (QQ, GF(2), GF(5), GF(101)):
        for _ in range(60):
            a, b = (P(f, [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))] + [rng.randint(2, 9)])
                    for _ in range(2))
            if a.is_zero() or b.is_zero():
                continue
            got = lcm(a, b)
            want = (a.divrem(monic_gcd(a, b))[0] * b).monic()
            assert got == want and [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
            assert got.is_monic() and got.divrem(a)[1].is_zero() and got.divrem(b)[1].is_zero()


def test_compose_example():
    # (s + 1) evaluated at s = t^2 - t
    outer = P(QQ, [1, 1])
    inner = P(QQ, [0, -1, 1])
    assert outer.compose(inner) == P(QQ, [1, -1, 1])


def test_eval_scalar_and_matrix():
    """p(M) is the sum of c_k M^k, for the zero polynomial, constants and
    polynomials up to degree 4, monic or not, at n = 3 and at n = 12, where
    M's columns are packed over GF(5)."""
    p = P(QQ, [-1, 0, 1])  # t^2 - 1
    assert p(3) == QQ.element(8)
    m = Matrix.diagonal(QQ, [1, 2])
    assert p(m) == Matrix.diagonal(QQ, [0, 3])
    rng = random.Random(11)
    for f in (QQ, GF(5)):
        for n in (3, 12):
            m = rand_matrix(f, n, rng)
            for degree in range(-1, 5):
                p = P(f, [rng.randint(-3, 3) for _ in range(degree)] + [rng.randint(1, 4)]
                      if degree >= 0 else [])
                powers = [Matrix.identity(f, n)]
                for _ in p.coeffs[1:]:
                    powers.append(powers[-1] * m)
                assert p(m) == sum((x * f.make(c) for c, x in zip(p.coeffs, powers)),
                                   Matrix.zero(f, n))


def test_companion_convention():
    # t^2 - t - 1 -> [[0, 1], [1, 1]]
    c = companion(P(QQ, [-1, -1, 1]))
    assert c == Matrix.from_rows(QQ, [[0, 1], [1, 1]])
    with pytest.raises(NotMonic):
        companion(P(QQ, [1, 2]))


def test_companion_has_its_polynomial_as_minimal():
    rng = random.Random(5)
    for f in (QQ, GF(3)):
        for _ in range(25):
            deg = rng.randint(1, 6)
            p = P(f, [rng.randint(-3, 3) for _ in range(deg)] + [1])
            assert minimal_polynomial(companion(p)) == p


def test_minimal_polynomial_annihilates():
    rng = random.Random(6)
    for f in (QQ, GF(2), GF(5)):
        for _ in range(30):
            n = rng.randint(0, 6)
            m = rand_matrix(f, n, rng)
            mu = minimal_polynomial(m)
            assert mu.is_monic() or n == 0
            assert mu.degree <= max(n, 0) if n else mu == Polynomial.one(f)
            assert mu(m).is_zero()


def test_minimal_polynomial_jordan():
    m = jordan_block(QQ, 4)
    assert minimal_polynomial(m) == P(QQ, [0, 0, 0, 0, 1])


def test_krylov_annihilator_chain():
    f = GF(5)
    m = companion(P(f, [2, 0, 1]))
    ann, chain = krylov_annihilator(m, [1, 0])
    assert ann == P(f, [2, 0, 1])
    assert len(chain) == 2


def test_krylov_annihilator_reduces_the_first_vector():
    """The chain starts with v itself in canonical form: residues in [0, p)
    over GF(p), and over Q ints for the integer chain of an integer v
    under an integer matrix, however v was written."""
    m = companion(P(GF(5), [2, 0, 1]))
    assert krylov_annihilator(m, [-1, 7]) == (P(GF(5), [2, 0, 1]), [[4, 2], [1, 4]])
    _, chain = krylov_annihilator(companion(P(QQ, [2, 0, 1])), [-1, 7])
    assert chain == [[-1, 7], [-14, -1]]
    assert all(type(x) is int for v in chain for x in v)


def naive_krylov(m, v):
    """Annihilator and chain of v by FieldElement triple loops and elimination."""
    f = m.field
    n = m.rows

    def columns(vs):
        return Matrix.from_rows(f, [[v[i, 0] for v in vs] for i in range(n)])

    chain = [Matrix(f, n, 1, v)]
    while len(chain) <= n and rank(columns(chain)) == len(chain):
        w = chain[-1]
        chain.append(Matrix(f, n, 1, [sum((m[i, t] * w[t, 0] for t in range(n)), f.element(0))
                                      for i in range(n)]))
    top = chain.pop()
    coeffs = solve(columns(chain), top) if chain else Matrix.zero(f, 0, 1)
    ann = Polynomial(f, [-coeffs[i, 0] for i in range(len(chain))] + [f.element(1)])
    return ann, chain


def _conjugated_block_sum(f, rng, count=(1, 3)):
    """A random conjugate of a direct sum of Jordan blocks at 0, 1 and 2 and
    companions of powers of one polynomial: repeated eigenvalues and
    repeated factors, so Krylov chains stop before n.  ``count`` bounds the
    number of blocks of each kind."""
    blocks = [jordan_block(f, rng.randint(1, 3), rng.choice([0, 1, 2]))
              for _ in range(rng.randint(*count))]
    g = P(f, rng.choice([[1, 0, 1], [-1, 1], [2, 1, 1]]))
    blocks += [companion(g ** rng.randint(1, 2)) for _ in range(rng.randint(count[0] - 1,
                                                                           count[1] - 1))]
    d = direct_sum(f, blocks)
    t = rand_invertible(f, d.rows, rng)
    return t * d * inverse(t), t


def test_krylov_annihilator_matches_naive():
    """Over GF(p) the cases include sizes on both sides of the packing gate
    (up to 30), the largest prime that packs at size 28, primes too wide to
    pack, and vectors of all p - 1, also under matrices of all p - 1, whose
    products fill every slot with n (p - 1)^2."""
    rng = random.Random(14)
    cases = []
    for f in [GF(p) for p in (2, 5, 101, WORD_PRIME) + WIDE_PRIMES]:
        for k in range(18):
            n = rng.randint(1, 6) if k < 12 else rng.randint(8, 28)
            cases.append((rand_matrix(f, n, rng), [rng.randrange(f.p) for _ in range(n)]))
        for n in (9, 10, 28):
            cases.append((rand_matrix(f, n, rng), [-1] * n))
        for n in (28, 29, 30):
            cases.append((Matrix(f, n, n, [-1] * (n * n)), [-1] * n))
        m, t = _conjugated_block_sum(f, rng, count=(4, 7))
        cases.append((m, [-1] * m.rows))
        cases.append((m, list(t._e[:: m.rows])))
    for _ in range(15):
        n = rng.randint(1, 6)
        ints = [rng.randint(-3, 3) for _ in range(n)]
        cases.append((rand_matrix(QQ, n, rng), ints))
        cases.append((rand_wide_rational(n, rng), ints))
        dens = coprime_denominators(n, 30, rng)
        wide = [Fraction(rng.randint(-10 ** 30, 10 ** 30), d) for d in dens]
        cases.append((rand_wide_rational(n, rng), wide))
        cases.append((rand_matrix(QQ, n, rng), wide))
        cases.append((rand_wide_rational(n, rng, digits=10), wide[:1] + [0] * (n - 1)))
        cases.append((rand_wide_rational(n, rng), [0] * n))
    for f in (QQ, GF(2), GF(5), GF(101)):
        for _ in range(8):
            m, t = _conjugated_block_sum(f, rng)
            n = m.rows
            cases.append((m, [rng.randint(-3, 3) for _ in range(n)]))
            cases.append((m, [int(i == 0) for i in range(n)]))
            cases.append((m, list(t._e[::n])))  # in the first block's invariant subspace
    short = 0
    for m, v in cases:
        ann, chain = krylov_annihilator(m, v)
        want_ann, want_chain = naive_krylov(m, v)
        assert ann == want_ann
        assert len(chain) == len(want_chain)
        for got, want in zip(chain, want_chain):
            assert Matrix(m.field, m.rows, 1, got) == want
        short += 1 < len(chain) < m.rows
    assert short >= 40


def test_krylov_annihilator_packs_up_to_the_word_bound(monkeypatch):
    """At the word-bound prime a Krylov chain under a 29 x 29 matrix packs
    the rows of its elimination, the Krylov vectors extended by their
    combinations, and agrees with the naive annihilator."""
    f = GF(WORD_PRIME)
    rng = random.Random(29)
    made = count_packs(monkeypatch)
    for m, v in ((rand_matrix(f, 29, rng), [rng.randrange(f.p) for _ in range(29)]),
                 (Matrix(f, 29, 29, [-1] * (29 * 29)), [-1] * 29)):
        made.clear()
        ann, chain = krylov_annihilator(m, v)
        assert any(len(row) > 29 for row in made)
        want_ann, want_chain = naive_krylov(m, v)
        assert ann == want_ann
        assert [Matrix(f, 29, 1, w) for w in chain] == want_chain


def test_krylov_annihilator_checks_shapes():
    """A vector of the wrong length and a matrix that is not square are
    refused before any product, not answered or failed on an index."""
    cyc = Matrix.from_rows(QQ, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert krylov_annihilator(cyc, [1, 0, 0])[0] == P(QQ, [-1, 0, 0, 1])
    wide = Matrix.from_rows(GF(5), [[1, 2, 0], [0, 1, 3]])
    for m, v in ((cyc, [1, 0]), (cyc, [1, 0, 0, 5]), (wide, [1, 0]), (wide, [1, 0, 0])):
        with pytest.raises(DimensionMismatch, match="krylov annihilator"):
            krylov_annihilator(m, v)


@pytest.mark.parametrize("call", ["Polynomial.one(QQ) ** -1",
                                  "valuations(Polynomial.zero(QQ), 0, 1)"])
def test_calls_with_no_answer_raise_fast(call):
    """A negative power of a polynomial and the valuations of the zero
    polynomial raise ValueError.  Each call runs in a child process with a
    timeout, so a missing guard fails the test instead of hanging the
    suite; the polynomials are constant, so an endless loop allocates
    nothing."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(quadsum.__file__)))
    code = ("from quadsum import QQ, Polynomial\n"
            "from quadsum.canonical import valuations\n"
            "try:\n"
            f"    {call}\n"
            "except ValueError:\n"
            "    print('refused')\n")
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=20)
    assert (run.returncode, run.stdout) == (0, "refused\n"), run.stderr


# ---- cyclic vectors ------------------------------------------------------

def test_cyclic_vector_merges_standard_vectors(monkeypatch):
    """diag(0, 1): e_0 has annihilator t and e_1 has t - 1, so no standard
    vector reaches the minimal polynomial t (t - 1), and the merge builds
    one that does."""
    merged = []
    real = quadsum.poly._merge

    def counted(m, m_rows, first, second):
        merged.append((first[0], second[0]))
        return real(m, m_rows, first, second)

    monkeypatch.setattr(quadsum.poly, "_merge", counted)
    for f in (QQ, GF(2), GF(5)):
        t, t_1 = P(f, [0, 1]), P(f, [-1, 1])
        m = Matrix.diagonal(f, [0, 1])
        assert [krylov_annihilator(m, e)[0] for e in ([1, 0], [0, 1])] == [t, t_1]
        merged.clear()
        mu, chain = cyclic_vector(m)
        assert mu == t * t_1 == minimal_polynomial(m)
        assert (t, t_1) in merged
        assert all(chain[0])  # not a standard vector
        assert krylov_annihilator(m, chain[0]) == (mu, chain)


def test_cyclic_vector_merge_runs_one_chain_per_new_factor(monkeypatch):
    """A pair whose annihilator divides the other's is dropped without a
    Krylov run: diag(0, 1, 1) (annihilators t, t - 1, t - 1) and
    0 + J_2(0) + 1 (t, t^2, t, t - 1) each need one run beyond the scan."""
    calls = []
    real = quadsum.poly.krylov_annihilator
    monkeypatch.setattr(quadsum.poly, "krylov_annihilator",
                        lambda m, v, *rows: calls.append(v) or real(m, v, *rows))
    for f in (QQ, GF(2), GF(5)):
        rows = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        for m, mu in ((Matrix.diagonal(f, [0, 1, 1]), P(f, [0, -1, 1])),
                      (Matrix.from_rows(f, rows), P(f, [0, 0, -1, 1]))):
            calls.clear()
            assert cyclic_vector(m)[0] == mu and len(calls) == m.rows + 1


def test_cyclic_vector_merge_checks_its_annihilator(monkeypatch):
    """e_0 has annihilator t (t - 1) and e_1 has t^2.  A split that is not
    coprime, (t (t - 1), t^2), makes the merged annihilator fall short of
    a b; the check names the stage and the matrix size."""
    m = Matrix.from_rows(QQ, [[1, 0, 0], [0, 0, 0], [-1, 1, 0]])
    assert cyclic_vector(m)[0] == P(QQ, [0, 0, -1, 1])
    monkeypatch.setattr(quadsum.poly, "_coprime_split", lambda p, q: (p.coeffs, q.coeffs))
    with pytest.raises(InternalCheckFailed, match="cyclic vector merge: .* 3x3 matrix"):
        cyclic_vector(m)


def full_scan_cyclic_vector(m):
    """The scan without the early stop, as the reference: run every e_i
    (stopping only at one of degree n), then return the first whose
    annihilator is the lcm of them all, else merge all of them."""
    n = m.rows
    mu = P.one(m.field)
    m_rows = quadsum.matrix._columns(m.field, m.raw_rows())
    tried = []
    for i in range(n):
        ann, chain = krylov_annihilator(m, [int(i == j) for j in range(n)], m_rows)
        if ann.degree == n:
            return ann, chain
        tried.append((ann, chain))
        if mu.degree < n:
            mu = lcm(mu, ann)
    for pair in tried:
        if pair[0] == mu:
            return pair
    merged = tried[0] if tried else (mu, [])
    for pair in tried[1:]:
        merged = quadsum.poly._merge(m, m_rows, merged, pair)
    return merged


def traced_cyclic_vector(monkeypatch, m):
    """``(cyclic_vector(m), exit)``, where exit names how the scan ended:
    "full" when the chains did not span k^n before the last vector, "merge"
    after a merge, and otherwise "run" when the vector returned had been run
    before the chains spanned k^n, "spanning" when it was the run that made
    them span it and "later" when it was run after."""
    runs, merged = [], []
    real_run, real_merge = quadsum.poly.krylov_annihilator, quadsum.poly._merge
    real_span = quadsum.poly._span_rank

    def span_rank(field, ech, vecs, n):
        rank = real_span(field, ech, vecs, n)
        if rank == n:
            runs[-1] = True
        return rank

    monkeypatch.setattr(quadsum.poly, "krylov_annihilator",
                        lambda *a: runs.append(False) or real_run(*a))
    monkeypatch.setattr(quadsum.poly, "_span_rank", span_rank)
    monkeypatch.setattr(quadsum.poly, "_merge", lambda *a: merged.append(1) or real_merge(*a))
    try:
        mu, chain = cyclic_vector(m)
    finally:
        monkeypatch.undo()
    if merged:
        return (mu, chain), "merge"
    if True not in runs:
        return (mu, chain), "full"
    spanned, returned = runs.index(True), chain[0].index(1)
    kind = "run" if returned < spanned else "spanning" if returned == spanned else "later"
    return (mu, chain), kind


def test_cyclic_vector_stops_as_the_full_scan_would(monkeypatch):
    """Stopping the scan once the chains span k^n returns the full scan's
    (mu, chain) on every 3x3 matrix over GF(2), a sample over GF(3), and
    random, planted and derogatory inputs over GF(5) and Q up to n = 12;
    each exit of the stopped scan is taken: a vector already run, one run
    after the chains spanned k^n, and the merge (diag(0, 1) reaches it
    without spanning, J_2(0) + J_2(1) after)."""
    rng = random.Random(47)
    inputs = [Matrix(GF(2), 3, 3, [(k >> b) & 1 for b in range(9)]) for k in range(512)]
    inputs += [rand_matrix(GF(3), rng.randint(1, 4), rng) for _ in range(150)]
    for f in (GF(5), QQ):
        inputs += [Matrix.diagonal(f, [0, 1]),
                   direct_sum(f, [jordan_block(f, 2), jordan_block(f, 2, eigenvalue=1)])]
        for n in range(1, 13):
            t = rand_invertible(f, n, rng)
            inputs += [rand_matrix(f, n, rng), rand_decomposable(f, n, rng),
                       t * Matrix.diagonal(f, [rng.randint(0, 2) for _ in range(n)]) * inverse(t)]
    exits = set()
    for m in inputs:
        pair, kind = traced_cyclic_vector(monkeypatch, m)
        assert pair == full_scan_cyclic_vector(m), m
        exits.add(kind)
    assert {"run", "later", "merge"} <= exits, exits


def test_cyclic_vector_stops_once_the_chains_span(monkeypatch):
    """C(f) + C(f) with deg f = 3: e_0's annihilator is f, the minimal
    polynomial, and the chains of e_0 and e_3 span k^6, so the scan runs
    e_0, ..., e_3, four of the six."""
    calls = []
    real = quadsum.poly.krylov_annihilator
    monkeypatch.setattr(quadsum.poly, "krylov_annihilator",
                        lambda m, v, *rows: calls.append(v) or real(m, v, *rows))
    for f in (QQ, GF(2), GF(5)):
        g = P(f, [1, 1, 0, 1])
        m = direct_sum(f, [companion(g), companion(g)])
        calls.clear()
        mu, chain = cyclic_vector(m)
        assert (mu, chain[0]) == (g, [1, 0, 0, 0, 0, 0])
        assert len(calls) == 4 < m.rows


def test_cyclic_vector_extends_the_span_after_scanned_runs_only(monkeypatch):
    """With deg f = 3, the scan extends its span echelon after each run
    that can still stop it: never for C(f), whose e_0 is cyclic; after each
    of the four runs of C(f) + C(f); and once in the three runs for
    diag(0, 1), as neither the last standard vector nor the merge's check
    run extends it."""
    runs, spans = [], []
    real_run, real_span = quadsum.poly.krylov_annihilator, quadsum.poly._span_rank
    monkeypatch.setattr(quadsum.poly, "krylov_annihilator",
                        lambda *a: runs.append(1) or real_run(*a))
    monkeypatch.setattr(quadsum.poly, "_span_rank", lambda *a: spans.append(1) or real_span(*a))
    for f in (QQ, GF(2), GF(5)):
        g = P(f, [1, 1, 0, 1])
        cases = ((companion(g), 1, 0), (direct_sum(f, [companion(g), companion(g)]), 4, 4),
                 (Matrix.diagonal(f, [0, 1]), 3, 1))
        for m, want_runs, want_spans in cases:
            runs.clear()
            spans.clear()
            cyclic_vector(m)
            assert (len(runs), len(spans)) == (want_runs, want_spans), (f, m)


#: Monic irreducibles over QQ and over GF(2) and GF(3), by characteristic.
_IRREDUCIBLES = {0: ([0, 1], [-1, 1], [2, 1], [1, 0, 1], [-2, 0, 1]),
                 2: ([0, 1], [1, 1], [1, 1, 1], [1, 1, 0, 1]),
                 3: ([0, 1], [1, 1], [1, 0, 1], [2, 1, 1])}


@settings(max_examples=200, deadline=None)
@given(char=st.sampled_from([0, 2, 3]), data=st.data())
def test_coprime_split_is_a_coprime_factorisation_of_the_lcm(char, data):
    f = QQ if char == 0 else GF(char)
    irreducibles = [P(f, c) for c in _IRREDUCIBLES[char]]
    powers = st.lists(st.integers(0, 3), min_size=len(irreducibles), max_size=len(irreducibles))
    p, q = Polynomial.one(f), Polynomial.one(f)
    for factor, e_p, e_q in zip(irreducibles, data.draw(powers), data.draw(powers)):
        p, q = p * factor ** e_p, q * factor ** e_q
    a, b = (Polynomial._raw(f, c) for c in _coprime_split(p, q))
    assert p.divrem(a)[1].is_zero() and q.divrem(b)[1].is_zero()
    assert monic_gcd(a, b) == Polynomial.one(f)
    assert a * b == lcm(p, q)


# ---- the substitution test -------------------------------------------

def _is_even_and_symmetric(p):
    return p.degree % 2 == 0 and substitute_one_minus_t(p).monic() == p


def test_decompose_examples():
    f = QQ
    s_plus_1 = decompose_in_t2_minus_t(P(f, [1, -1, 1]))  # t^2 - t + 1
    assert s_plus_1 == P(f, [1, 1])
    assert decompose_in_t2_minus_t(P(f, [0, 1])) is None  # t: odd degree
    assert decompose_in_t2_minus_t(P(f, ["-1/2", 1])) is None  # t - 1/2
    g = decompose_in_t2_minus_t(P(f, [0, 2, -1, -2, 1]))  # (t^2-t)^2 - 2(t^2-t)
    assert g == P(f, [0, -2, 1])


def test_decompose_reconstructs():
    rng = random.Random(8)
    s = P(QQ, [0, -1, 1])
    for f in (QQ, GF(2), GF(5)):
        s = P(f, [0, -1, 1])
        for _ in range(50):
            g = P(f, [rng.randint(-3, 3) for _ in range(rng.randint(0, 4))] + [1])
            composed = g.compose(s)
            assert decompose_in_t2_minus_t(composed) == g


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=0, max_size=8),
       st.sampled_from([0, 2, 5]))
def test_decompose_iff_even_and_symmetric(coeffs, char):
    """decompose_in_t2_minus_t succeeds iff deg f is even and f(1-t) = f(t)."""
    f = QQ if char == 0 else GF(char)
    p = P(f, coeffs + [1])
    got = decompose_in_t2_minus_t(p)
    assert (got is not None) == _is_even_and_symmetric(p)
    if got is not None:
        assert got.compose(P(f, [0, -1, 1])) == p
