"""Classification, decision, construction and verification of quadratic sums."""

import itertools
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import quadsum
from quadsum import (GF, QQ, BadParams, Certificate, DecisionNo, DimensionMismatch,
                     InternalCheckFailed, Matrix, NotSplitError, Polynomial,
                     QuadParams, UnsupportedCase, block2x2, check_necessary_combination,
                     classify_and_reduce, companion, construct, decide,
                     direct_sum, inverse, is_p_intertwined, jordan_block,
                     krylov_annihilator, nullity_sequence, pair_blocks, rank, serialize,
                     solve, verify_certificate)
from quadsum.canonical import _chain_matrix, valuations
from quadsum.sums import _away_idempotent
from quadsum.cli import main
from conftest import (conjugate_partition, rand_decomposable, rand_element, rand_idempotent,
                      rand_invertible, rand_matrix, rand_square_zero)


def P(field, coeffs):
    return Polynomial.from_coeffs(field, coeffs)


MAIN = QuadParams.of(QQ)


# ---- intertwining and pairing ----------------------------------------

def test_is_p_intertwined_basics():
    assert is_p_intertwined((2, 1), (1, 1), 2)
    assert is_p_intertwined((), (1, 1), 2)
    assert not is_p_intertwined((1, 1, 1), (), 2)  # J_3(0) alone
    assert is_p_intertwined((1, 1), (1,), 1)
    assert not is_p_intertwined((2, 2), (1,), 1)


def test_is_p_intertwined_validation():
    with pytest.raises(BadParams):
        is_p_intertwined((1,), (1,), 0)
    from quadsum import MalformedSequence
    with pytest.raises(MalformedSequence):
        is_p_intertwined((1, 2), (1,), 2)


def test_pair_blocks_feasible():
    """Units (size at 1, size at 0), largest first, 0 for a block without a
    partner; the certificate JSON lists them as pairs and singletons."""
    units = pair_blocks([1, 3], [2])
    assert units == ((3, 2), (1, 0))
    assert serialize.pairing_to_json(units) == {"pairs": [[3, 2]], "singletons": [[1, 1]]}
    assert pair_blocks([], [2, 1]) == ((0, 2), (0, 1))
    assert serialize.pairing_to_json(((0, 2), (0, 1))) == {"pairs": [],
                                                           "singletons": [[0, 2], [0, 1]]}


def test_pair_blocks_infeasible():
    assert pair_blocks([3], []) is None
    assert pair_blocks([5], [2]) is None
    assert pair_blocks([4, 4], [4, 1]) is None


def test_pairing_iff_two_intertwined_random():
    rng = random.Random(21)
    for _ in range(2000):
        a = [rng.randint(1, 9) for _ in range(rng.randint(0, 6))]
        b = [rng.randint(1, 9) for _ in range(rng.randint(0, 6))]
        feasible = pair_blocks(a, b) is not None
        inter = is_p_intertwined(conjugate_partition(a), conjugate_partition(b), 2)
        assert feasible == inter, (a, b)


# ---- classification --------------------------------------------------

def test_classify_case_iii_default_params():
    cls, reduced = classify_and_reduce(Matrix.diagonal(QQ, [1, 0]), MAIN)
    assert cls.case == "III"
    assert cls.alpha == QQ.element(0) and cls.beta == QQ.element(0)
    assert cls.scale == QQ.element(1) and not cls.swapped


def test_classify_case_iii_shifted():
    # (a,b,c,d) = (3,-2,2,-1): roots 1,2 and 1,1 -> shift 2, scale 1
    params = QuadParams.of(QQ, 3, -2, 2, -1)
    m = Matrix.diagonal(QQ, [3, 2])
    cls, reduced = classify_and_reduce(m, params)
    assert cls.case == "III"
    assert cls.shift == QQ.element(2)
    assert reduced == Matrix.diagonal(QQ, [1, 0])


def test_classify_case_ii():
    params = QuadParams.of(QQ, 2, -1, 0, 0)  # (t-1)^2 and t^2
    cls, _ = classify_and_reduce(Matrix.identity(QQ, 2), params)
    assert cls.case == "II"


def test_classify_case_i():
    params = QuadParams.of(QQ, 1, 0, 3, -2)  # both reduced coefficients nonzero
    cls, _ = classify_and_reduce(Matrix.identity(QQ, 2), params)
    assert cls.case == "I"


def test_classify_swapped():
    # first quadratic square-zero-like, second idempotent-like
    params = QuadParams.of(QQ, 0, 0, 1, 0)
    cls, _ = classify_and_reduce(Matrix.diagonal(QQ, [1, 0]), params)
    assert cls.case == "III" and cls.swapped


def test_classify_not_split():
    with pytest.raises(NotSplitError):
        classify_and_reduce(Matrix.identity(QQ, 1), QuadParams.of(QQ, 0, 2, 1, 0))
    with pytest.raises(NotSplitError):
        classify_and_reduce(Matrix.identity(GF(2), 1), QuadParams.of(GF(2), 1, 1, 1, 0))


# ---- decision --------------------------------------------------------

def test_decide_known_negatives():
    d = decide(jordan_block(QQ, 3))
    assert not d.yes and d.failing == {"kind": "intertwining", "eigenvalue": 0, "index": 1}
    d = decide(jordan_block(QQ, 3, eigenvalue=1))
    assert not d.yes and d.failing == {"kind": "intertwining", "eigenvalue": 1, "index": 1}
    d = decide(Matrix.diagonal(QQ, [2, 2]))
    assert not d.yes and d.failing["kind"] == "invariant_factor"
    d = decide(Matrix.from_rows(QQ, [["1/2"]]))
    assert not d.yes and serialize.decision_to_json(d)["diagnostics"]["failing_witness"] == \
        {"kind": "invariant_factor", "factor": ["-1/2", "1"]}


def test_decide_known_positives():
    # companion of (t^2 - t) - 1: a polynomial in t^2 - t
    assert decide(companion(P(QQ, [-1, -1, 1]))).yes
    assert decide(Matrix.diagonal(QQ, [1, 0])).yes
    assert decide(Matrix.zero(QQ, 3)).yes
    assert decide(Matrix.identity(QQ, 3)).yes
    assert decide(jordan_block(QQ, 2)).yes
    assert decide(Matrix.zero(QQ, 0, 0)).yes


def test_decide_half_eigenvalue_even_multiplicity():
    # [1/2] fails, but a 2x2 block with minimal polynomial (t - 1/2)^2 passes
    m = jordan_block(QQ, 2, eigenvalue="1/2")
    d = decide(m)
    assert d.yes
    assert [str(g) for g in d.g_factors] == ["t + 1/4"]


def test_decide_similarity_invariant():
    rng = random.Random(22)
    for f in (QQ, GF(2), GF(5)):
        for _ in range(25):
            n = rng.randint(1, 5)
            m = rand_matrix(f, n, rng)
            t = rand_invertible(f, n, rng)
            assert decide(m).yes == decide(t * m * inverse(t)).yes


def test_decide_closed_under_direct_sum():
    rng = random.Random(23)
    for f in (QQ, GF(3)):
        for _ in range(15):
            m1 = rand_decomposable(f, rng.randint(1, 4), rng)
            m2 = rand_decomposable(f, rng.randint(1, 4), rng)
            assert decide(m1).yes and decide(m2).yes
            assert decide(direct_sum(f, [m1, m2])).yes


def test_decide_cross_checks_valuations_against_ranks():
    """Nullities read off the invariant-factor valuations must equal those
    from ranks of powers; a mismatch names the stage, eigenvalue, size and
    both sequences."""
    with pytest.raises(InternalCheckFailed, match=r"decide: nullity sequence at eigenvalue 0 "
                       r"of the 3x3 matrix is \(1, 1, 1\) by ranks but \(1, 1\) by"):
        quadsum.sums._nullities(jordan_block(QQ, 3), 0, [2], "decide")


def test_decide_cross_checks_pairing_against_intertwining(monkeypatch):
    """decide reads the Jordan pairing once; when the pairing and the
    2-intertwining test disagree, it names its stage and the matrix size."""
    message = r"decide: the Jordan block pairing .* disagree on the {0}x{0} matrix"
    monkeypatch.setattr(quadsum.sums, "_first_violation", lambda u, v, p: None)
    with pytest.raises(InternalCheckFailed, match=message.format(3)):
        decide(jordan_block(QQ, 3))  # J_3(0) alone cannot be paired
    monkeypatch.setattr(quadsum.sums, "_first_violation",
                        lambda u, v, p: {"side": "first", "index": 1})
    with pytest.raises(InternalCheckFailed, match=message.format(2)):
        decide(Matrix.diagonal(QQ, [1, 0]))


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([None, 2, 3, 5]), data=st.data())
def test_valuations_divide_out_planted_factors(p, data):
    """valuations(fac, alpha, beta) recovers a, b and h from a planted
    fac = (t - alpha)^a (t - beta)^b h with h(alpha) h(beta) != 0."""
    f = QQ if p is None else GF(p)
    scalar = (st.fractions(min_value=-3, max_value=3, max_denominator=4) if p is None
              else st.integers(0, p - 1))
    alpha, beta = data.draw(scalar), data.draw(scalar)
    assume(f.element(alpha) != f.element(beta))
    a, b = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    h = P(f, data.draw(st.lists(scalar, max_size=3)) + [1])
    assume(h(alpha) and h(beta))
    fac = P(f, [-alpha, 1]) ** a * P(f, [-beta, 1]) ** b * h
    assert valuations(fac, alpha, beta) == (a, b, h)


# ---- construction ----------------------------------------------------

def _check_idem_sqzero(m, a, b):
    assert a + b == m
    assert a * a == a
    assert (b * b).is_zero()


# case a: the part with no eigenvalue in {0, 1}; case b: Jordan blocks at 0 and 1

def _construct_idem_sqzero(m):
    cert = construct(m, QuadParams.of(m.field))
    _check_idem_sqzero(m, cert.a_part, cert.b_part)


def test_construct_case_a_direct():
    f = QQ
    m1 = companion(P(f, [-1, -1, 1]))  # no eigenvalue in {0, 1}
    _construct_idem_sqzero(m1)


def test_construct_case_a_multiple_factors():
    f = GF(5)
    g1 = P(f, [2, 1])
    g2 = g1 * P(f, [1, 1])
    s = P(f, [0, -1, 1])
    m1 = direct_sum(f, [companion(g1.compose(s)), companion(g2.compose(s))])
    rng = random.Random(24)
    t = rand_invertible(f, m1.rows, rng)
    m1 = t * m1 * inverse(t)
    _construct_idem_sqzero(m1)


def test_construct_case_b_all_small_pairs():
    """Every feasible (size at 1, size at 0) unit, including singletons."""
    for f in (QQ, GF(2), GF(3)):
        for s1 in range(0, 5):
            for s0 in range(0, 5):
                if s1 + s0 == 0 or abs(s1 - s0) > 2:
                    continue
                blocks = []
                if s1:
                    blocks.append(jordan_block(f, s1, eigenvalue=1))
                if s0:
                    blocks.append(jordan_block(f, s0))
                _construct_idem_sqzero(direct_sum(f, blocks))


def test_construct_case_b_conjugated_mixture():
    rng = random.Random(25)
    for f in (QQ, GF(2), GF(5)):
        for _ in range(10):
            blocks = []
            for _ in range(rng.randint(1, 3)):
                s1 = rng.randint(0, 3)
                s0 = max(0, min(3, s1 + rng.randint(-2, 2)))
                if s1:
                    blocks.append(jordan_block(f, s1, eigenvalue=1))
                if s0:
                    blocks.append(jordan_block(f, s0))
            if not blocks:
                continue
            m2 = direct_sum(f, blocks)
            t = rand_invertible(f, m2.rows, rng)
            m2 = t * m2 * inverse(t)
            if not decide(m2).yes:
                continue  # random shuffle may break global pairing
            _construct_idem_sqzero(m2)


def test_construct_one_factor_with_all_three_parts():
    """f = t^2 (t - 1)(t^2 - t - 1) is one cyclic block holding a part away
    from {0, 1}, a Jordan block at 0 and one at 1."""
    rng = random.Random(30)
    for f in (QQ, GF(5)):
        fac = P(f, [0, 1]) ** 2 * P(f, [-1, 1]) * P(f, [-1, -1, 1])
        for _ in range(5):
            t = rand_invertible(f, 5, rng)
            m = t * companion(fac) * inverse(t)
            decision = decide(m)
            assert decision.yes and list(decision.frobenius) == [fac]
            assert decision.valuations == ((2, 1, P(f, [-1, -1, 1])),)
            cert = construct(m, QuadParams.of(f))
            assert verify_certificate(m, cert).ok
            _check_idem_sqzero(m, cert.a_part, cert.b_part)


def test_construct_runs_one_frobenius_decomposition(monkeypatch):
    """decide and construct share one invariant-factor computation, on the
    reduced matrix."""
    args = []
    real = quadsum.canonical.invariant_factors_with_transform

    def counted(m):
        args.append(m)
        return real(m)

    monkeypatch.setattr(quadsum.canonical, "invariant_factors_with_transform", counted)
    monkeypatch.setattr(quadsum.sums, "invariant_factors_with_transform", counted)
    rng = random.Random(31)
    params = QuadParams.of(QQ, 3, -2, 2, -1)
    s = P(QQ, [0, -1, 1])
    core = direct_sum(QQ, [companion(P(QQ, [2, 1]).compose(s)), jordan_block(QQ, 2),
                           jordan_block(QQ, 1, eigenvalue=1)])
    t = rand_invertible(QQ, core.rows, rng)
    m = t * core * inverse(t) + 2 * Matrix.identity(QQ, core.rows)
    _, reduced = classify_and_reduce(m, params)
    construct(m, params)
    assert args == [reduced]


def test_decide_and_construct_invert_no_n_by_n_matrix(monkeypatch):
    """decide checks its witness as M T = T F with T of full rank, construct
    solves A T' = T' A_model for A and writes the unit idempotents down, so
    neither inverts a matrix."""
    calls = []
    real = quadsum.matrix.inverse

    def counted(m):
        calls.append(m.rows)
        return real(m)

    monkeypatch.setattr(quadsum.matrix, "inverse", counted)
    rng = random.Random(33)
    for f in (QQ, GF(5)):
        s = P(f, [0, -1, 1])
        core = direct_sum(f, [companion(P(f, [2, 1]).compose(s)), jordan_block(f, 3),
                              jordan_block(f, 2, eigenvalue=1), jordan_block(f, 1)])
        t = rand_invertible(f, core.rows, rng)
        m = t * core * real(t)
        calls.clear()
        assert decide(m).yes and calls == []
        assert verify_certificate(m, construct(m, QuadParams.of(f))).ok and calls == []


def _unit_by_inverses(f, a, b):
    """The idempotent of one unit (J_a(1), J_b(0)) computed rather than
    written down: with N, N' the nilpotent parts, B1 = (I + 2N)^-1 N (I + N),
    B4 = (I - 2N')^-1 N' (I - N'), B3 = -(I + 2N)^-2 (I + N)^2 X S and
    B2 = S Y, A is the model (I + N) (+) N' minus [[B1, B3], [B2, B4]]."""
    if a == 0:
        return Matrix.zero(f, b)
    if b == 0:
        return Matrix.identity(f, a)
    n1, n0 = jordan_block(f, a), jordan_block(f, b)
    i1, i0 = Matrix.identity(f, a), Matrix.identity(f, b)
    if a >= b:
        x_ones = [(i + 2, i) for i in range(min(b, a - 2))]
        y_ones = [(i, i) for i in range(b)]
    else:
        x_ones = [(i, i) for i in range(a)]
        y_ones = [(i + 2, i) for i in range(min(a, b - 2))]
    x_map = Matrix.from_rows(f, [[int((i, j) in x_ones) for j in range(b)] for i in range(a)])
    y_map = Matrix.from_rows(f, [[int((i, j) in y_ones) for j in range(a)] for i in range(b)])
    sign = Matrix.diagonal(f, [(-1) ** i for i in range(b)])
    inv_plus, inv_minus = inverse(i1 + 2 * n1), inverse(i0 - 2 * n0)
    b1 = inv_plus * n1 * (i1 + n1)
    b4 = inv_minus * n0 * (i0 - n0)
    b3 = -(inv_plus * inv_plus) * (i1 + n1) * (i1 + n1) * x_map * sign
    return direct_sum(f, [i1 + n1, n0]) - block2x2(b1, b3, sign * y_map, b4)


def test_unit_decomposition_is_the_inverse_formula_written_down():
    """The closed form of each unit idempotent equals the one computed with
    inverses, for every unit with sizes up to 11 over Q, GF(2), GF(3), GF(5)
    and GF(101), and splits the model into an idempotent and a square-zero
    part."""
    cases = 0
    for f in (QQ, GF(2), GF(3), GF(5), GF(101)):
        for a, b in itertools.product(range(12), repeat=2):
            if abs(a - b) > 2 or a == b == 0:
                continue
            unit = quadsum.sums._unit_decomposition(f, a, b)
            assert unit == _unit_by_inverses(f, a, b), (f, a, b)
            rest = direct_sum(f, [jordan_block(f, a, eigenvalue=1), jordan_block(f, b)]) - unit
            assert unit * unit == unit and (rest * rest).is_zero()
            cases += 1
    assert cases == 265


def _away_by_krylov(h, g):
    """The idempotent of C(h), h = g(t^2 - t), computed rather than written
    down: U = [[I, C(g)], [I, 0]] = [[I, 0], [I, 0]] + [[0, C(g)], [0, 0]] is
    conjugated onto C(h) through the Krylov basis K of e_0, checked as
    rank(K) = deg h and U K = K C(h), and K^-1 [[I, 0], [I, 0]] K is solved
    for."""
    f, size = h.field, h.degree
    ident, zero = Matrix.identity(f, g.degree), Matrix.zero(f, g.degree)
    model = block2x2(ident, companion(g), ident, zero)
    ann, chain = krylov_annihilator(model, [1] + [0] * (size - 1))
    k_mat = _chain_matrix(f, chain)
    assert ann == h and rank(k_mat) == size and model * k_mat == k_mat * companion(h)
    return solve(k_mat, block2x2(ident, zero, ident, zero) * k_mat)


def test_away_idempotent_is_the_krylov_model_written_down():
    """The closed-form idempotent W of C(h), h = g(t^2 - t), equals the one
    computed through a Krylov basis for every monic g of degree 1 to 3 over
    GF(2), GF(3) and GF(5) and for 160 random g over Q of degree 1 to 8, and
    C(h) - W is square-zero; W is idempotent at every even size up to 16."""
    rng = random.Random(12)
    gs = [P(f, list(low) + [1]) for f in (GF(2), GF(3), GF(5)) for deg in (1, 2, 3)
          for low in itertools.product(range(f.p), repeat=deg)]
    gs += [P(QQ, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(rng.randint(1, 8))] + [1]) for _ in range(160)]
    for g in gs:
        h = g.compose(P(g.field, [0, -1, 1]))
        w = _away_idempotent(g.field, h.degree)
        rest = companion(h) - w
        assert w == _away_by_krylov(h, g) and (rest * rest).is_zero(), g
    assert len(gs) == 368
    for f in (QQ, GF(2), GF(3)):
        for size in range(0, 17, 2):
            w = _away_idempotent(f, size)
            assert w * w == w, (f, size)


def test_construct_runs_no_krylov_chain_beyond_decide(monkeypatch):
    """Every Krylov annihilator that construct computes is one of decide's on
    the reduced matrix: the split of the blocks runs none."""
    real = quadsum.poly.krylov_annihilator
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].rows)
        return real(*args, **kwargs)

    for module in [mod for name, mod in sys.modules.items() if name.split(".")[0] == "quadsum"]:
        for name, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, name, counted)
    rng = random.Random(35)
    for f in (QQ, GF(5)):
        params = QuadParams.of(f, 3, -2, 2, -1)
        s = P(f, [0, -1, 1])
        core = direct_sum(f, [companion(P(f, [2, 1]).compose(s)),
                              companion(P(f, [3, 0, 1]).compose(s)),
                              jordan_block(f, 3), jordan_block(f, 2, eigenvalue=1)])
        t = rand_invertible(f, core.rows, rng)
        m = t * core * inverse(t) + 2 * Matrix.identity(f, core.rows)
        calls.clear()
        assert verify_certificate(m, construct(m, params)).ok
        in_construct = len(calls)
        calls.clear()
        decide(classify_and_reduce(m, params)[1])
        assert in_construct == len(calls) > 0, f


def test_construct_checks_name_stage_and_size(monkeypatch):
    """A wrong per-block idempotent is caught by the one verification in
    construct, which names the stage, the input size and the identity that
    fails."""
    s = P(QQ, [0, -1, 1])
    h = P(QQ, [2, 1]).compose(s)
    m = direct_sum(QQ, [companion(h), Matrix.identity(QQ, 1)])
    assert verify_certificate(m, construct(m, MAIN)).ok
    real = quadsum.sums._unit_decomposition
    with monkeypatch.context() as patch:
        patch.setattr(quadsum.sums, "_unit_decomposition",
                      lambda f, one, zero: 2 * real(f, one, zero))
        with pytest.raises(InternalCheckFailed,
                           match=r"^construct: 3x3 certificate fails: .*first_quadratic_ok=False"):
            construct(m, MAIN)
    monkeypatch.setattr(quadsum.sums, "_away_idempotent", lambda f, size: Matrix.zero(f, size))
    with pytest.raises(InternalCheckFailed, match=r"^construct: 3x3 certificate fails: "
                       r"VerificationReport\(sum_ok=True, first_quadratic_ok=True, "
                       r"second_quadratic_ok=False\)$"):
        construct(m, MAIN)


def test_verify_rejects_certificate_of_the_wrong_shape():
    """Rows and columns of A and B are both compared with M, so a 2x3 A
    fails as a certificate of the wrong size, not inside a product; a 2x3 M
    with 2x3 A and B is refused as non-square before any product."""
    m = Matrix.diagonal(QQ, [1, 0])
    cert = construct(m, MAIN)
    for wide in (Certificate(Matrix.zero(QQ, 2, 3), cert.b_part, MAIN),
                 Certificate(cert.a_part, Matrix.zero(QQ, 2, 3), MAIN)):
        with pytest.raises(DimensionMismatch, match="certificate dimensions do not match"):
            verify_certificate(m, wide)
    wide = Matrix.zero(QQ, 2, 3)
    with pytest.raises(DimensionMismatch, match="^certificate check needs a square matrix$"):
        verify_certificate(wide, Certificate(wide, wide, MAIN))


def test_construct_full_pipeline_round_trip():
    rng = random.Random(26)
    for f in (QQ, GF(2), GF(5)):
        for _ in range(20):
            n = rng.randint(1, 6)
            m = rand_decomposable(f, n, rng)
            cert = construct(m, QuadParams.of(f))
            assert verify_certificate(m, cert).ok
            assert cert.classification.case == "III"


def test_construct_shifted_scaled_params():
    # (3,-2,2,-1): A is (3,-2)-quadratic, B is (2,-1)-quadratic
    rng = random.Random(27)
    params = QuadParams.of(QQ, 3, -2, 2, -1)
    for _ in range(10):
        n = rng.randint(1, 5)
        core = rand_decomposable(QQ, n, rng)
        m = core + 2 * Matrix.identity(QQ, n)  # shift = alpha + beta = 2
        cert = construct(m, params)
        rep = verify_certificate(m, cert)
        assert rep.ok
        a = cert.a_part
        assert a * a == 3 * a - 2 * Matrix.identity(QQ, n)


def test_construct_swapped_params():
    rng = random.Random(28)
    params = QuadParams.of(GF(5), 0, 0, 1, 0)  # square-zero first
    for _ in range(10):
        n = rng.randint(1, 5)
        m = rand_decomposable(GF(5), n, rng)
        cert = construct(m, params)
        assert verify_certificate(m, cert).ok
        a = cert.a_part
        assert (a * a).is_zero()  # the (0,0)-quadratic summand comes first now


def test_construct_decision_no():
    with pytest.raises(DecisionNo) as exc:
        construct(jordan_block(QQ, 3), MAIN)
    assert exc.value.decision.failing["kind"] == "intertwining"


def test_construct_unsupported_cases(tmp_path, capsys, monkeypatch):
    """Cases I and II are refused straight after classification: with the
    Frobenius decomposition and the necessary check made to raise, construct
    still raises UnsupportedCase with the classification, and quadsum
    construct on a case-I job exits 3 with nothing on stdout."""
    def refuse(*_):
        raise AssertionError("cases I and II need no decomposition")

    monkeypatch.setattr(quadsum.sums, "check_necessary_combination", refuse)
    monkeypatch.setattr(quadsum.sums, "invariant_factors_with_transform", refuse)
    m = Matrix.diagonal(QQ, [1, 2])
    for params, case in ((QuadParams.of(QQ, 2, -1, 0, 0), "II"),
                         (QuadParams.of(QQ, 1, 0, 3, -2), "I")):
        with pytest.raises(UnsupportedCase) as exc:
            construct(m, params)
        assert exc.value.classification == classify_and_reduce(m, params)[0]
        assert exc.value.classification.case == case
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"field": "Q", "matrix": [["1", "0"], ["0", "2"]],
                               "params": {"a": "1", "b": "0", "c": "3", "d": "-2"}}))
    assert main(["construct", "--input", str(job)]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err == "unsupported_case I\n"


def test_verify_rejects_tampering():
    m = Matrix.diagonal(QQ, [1, 0])
    cert = construct(m, MAIN)
    bad = Certificate(cert.a_part + Matrix.identity(QQ, 2), cert.b_part, MAIN)
    rep = verify_certificate(m, bad)
    assert not rep.ok and not rep.sum_ok


def _rand_quadratic(f, n, rng):
    """A random quadratic matrix X with its (a, b), X^2 = a X + b I: at
    roots r != s it is s I + (r - s) E for an idempotent E, at a double root
    r it is r I + N for a square-zero N."""
    r, s = rand_element(f, rng), rand_element(f, rng)
    if rng.random() < 0.3:
        s = r
    ident = Matrix.identity(f, n)
    if r == s:
        x = r * ident + rand_square_zero(f, n, rng)
    else:
        x = s * ident + (r - s) * rand_idempotent(f, n, rng)
    return x, r + s, -(r * s)


def _checks_with_probe(m, cert):
    """The certificate checks computed here, with the probe the verifier
    once ran: A and B commute with P = (A + B)((a + c) I - (A + B))."""
    a_mat, b_mat, prm = cert.a_part, cert.b_part, cert.params
    ident = Matrix.identity(m.field, m.rows)
    probe = (a_mat + b_mat) * ((prm.a + prm.c) * ident - (a_mat + b_mat))
    return (a_mat + b_mat == m,
            a_mat * a_mat == prm.a * a_mat + prm.b * ident,
            b_mat * b_mat == prm.c * b_mat + prm.d * ident,
            a_mat * probe == probe * a_mat and b_mat * probe == probe * b_mat)


def test_commutation_probe_law():
    """Independent (a,b)- and (c,d)-quadratic A, B over Q, GF(2), GF(3) and
    GF(5), at distinct and at double roots, always pass the probe, so it
    can never change a verdict.  On tampered certificates (one entry of A or
    B bumped, with or without M, or one parameter bumped) ``ok`` equals the
    four-way conjunction with the probe."""
    rng = random.Random(29)
    seen = set()
    for f in (QQ, GF(2), GF(3), GF(5)):
        for _ in range(50):
            n = rng.randint(1, 5)
            a_mat, a, b = _rand_quadratic(f, n, rng)
            b_mat, c, d = _rand_quadratic(f, n, rng)
            m, cert = a_mat + b_mat, Certificate(a_mat, b_mat, QuadParams(a, b, c, d))
            assert _checks_with_probe(m, cert) == (True,) * 4
            assert verify_certificate(m, cert).ok
            one = f.element(rng.choice([1, -1] if f.p is None else range(1, f.p)))
            k = rng.randrange(n * n)
            bump = Matrix(f, n, n, [one if i == k else 0 for i in range(n * n)])
            kind = rng.randrange(5)
            if kind < 4:
                a_mat, b_mat = (a_mat + bump, b_mat) if kind % 2 else (a_mat, b_mat + bump)
                m = m + bump if kind < 2 else m
                cert = Certificate(a_mat, b_mat, cert.params)
            else:
                prm = [a, b, c, d]
                prm[rng.randrange(4)] += one
                cert = Certificate(a_mat, b_mat, QuadParams(*prm))
            sum_ok, first_ok, second_ok, probe_ok = _checks_with_probe(m, cert)
            rep = verify_certificate(m, cert)
            assert (rep.sum_ok, rep.first_quadratic_ok, rep.second_quadratic_ok) == \
                (sum_ok, first_ok, second_ok)
            assert rep.ok == (sum_ok and first_ok and second_ok and probe_ok)
            seen.add((sum_ok, first_ok, second_ok, probe_ok))
    assert {(True, False, True), (True, True, False), (False, True, True)} <= \
        {checks[:3] for checks in seen}
    assert any(not checks[3] for checks in seen)


# ---- necessary condition for alpha P + beta Q ------------------------

def test_necessary_applies_and_passes():
    # diag(1, 2) = 1*diag(1,0) + 2*diag(0,1): spectrum inside {1, 2}
    m = Matrix.diagonal(QQ, [1, 2])
    rep = check_necessary_combination(m, 1, 2)
    assert rep.status == "inconclusive"
    assert rep.seq_alpha.values == (1,) and rep.seq_beta.values == (1,)


def test_necessary_rejects():
    # J_2(1) over GF(3): nullities at 1 are (1,1), at 2 are (); 1-intertwining fails
    m = jordan_block(GF(3), 2, eigenvalue=1)
    rep = check_necessary_combination(m, 1, 2)
    assert rep.status == "no"
    assert rep.violation == {"side": "first", "index": 1}


def test_necessary_not_applicable():
    m = Matrix.diagonal(QQ, [5])
    assert check_necessary_combination(m, 1, 2).status == "not_applicable"


def _necessary_by_powers(m, alpha, beta):
    """The reference criterion: applicable iff (M - alpha I)^n (M - beta I)^n
    = 0, with both nullity sequences from ranks of powers."""
    n = m.rows
    ident = Matrix.identity(m.field, n)
    if not (((m - alpha * ident) ** n) * ((m - beta * ident) ** n)).is_zero():
        return "not_applicable", None, None
    seq_a = nullity_sequence(m, alpha).values
    seq_b = nullity_sequence(m, beta).values
    return ("inconclusive" if is_p_intertwined(seq_a, seq_b, 1) else "no"), seq_a, seq_b


def test_necessary_matches_matrix_power_criterion():
    """Every GF(3) matrix with n <= 2, both orders of (alpha, beta), and 1000
    random 3x3 GF(3) matrices: the status and both sequences read off the
    invariant factors equal those of the reference criterion."""
    f = GF(3)
    rng = random.Random(32)
    cases = [(Matrix(f, n, n, list(ent)), alpha, beta)
             for n in range(3) for ent in itertools.product(range(3), repeat=n * n)
             for alpha, beta in ((1, 2), (2, 1))]
    cases += [(rand_matrix(f, 3, rng), 1, 2) for _ in range(1000)]
    statuses = set()
    for m, alpha, beta in cases:
        rep = check_necessary_combination(m, alpha, beta)
        got = (rep.status,) + tuple(None if s is None else s.values
                                    for s in (rep.seq_alpha, rep.seq_beta))
        assert got == _necessary_by_powers(m, f.element(alpha), f.element(beta)), m
        statuses.add(rep.status)
    assert statuses == {"no", "inconclusive", "not_applicable"}


def test_necessary_bad_params():
    with pytest.raises(BadParams):
        check_necessary_combination(Matrix.identity(QQ, 1), 1, 1)
    with pytest.raises(BadParams):
        check_necessary_combination(Matrix.identity(QQ, 1), 0, 1)
