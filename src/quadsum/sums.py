"""Decision and construction for sums of two split-quadratic matrices.

A matrix A is (a,b)-quadratic when A^2 = a A + b I.  Deciding whether
M = A + B is possible for an (a,b)-quadratic A and a (c,d)-quadratic B
reduces, by shifting with a root of each quadratic and rescaling, to the
idempotent-plus-square-zero question, which is settled by two checks:

* every invariant factor of the part of M with no eigenvalue in {0, 1}
  must be a polynomial in t^2 - t, and
* the nullity sequences at 0 and at 1 of the remaining part must be
  2-intertwined.

Both are read off one Frobenius decomposition of M: each invariant factor
f_i = t^a_i (t - 1)^b_i h_i gives the factor h_i of the part away from
{0, 1} and a Jordan block of size a_i at 0 and b_i at 1.  When the answer
is yes, the same decomposition, split per cyclic block, carries an explicit
certificate (A, B).  No block idempotent is computed: the one of each
C(h_i) depends only on deg h_i and the one of each Jordan unit only on its
two sizes, and both are written down.  A comes from one solve that carries
them back to M, B is M - A, and the pair is verified once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from .canonical import (NullitySequence, invariant_factors_with_transform, nullity_sequence,
                        split_cyclic_block, valuations)
from .errors import (BadParams, DecisionNo, DimensionMismatch, InternalCheckFailed,
                     MalformedSequence, NotSplitError, UnsupportedCase)
from .field import Field, FieldElement, quadratic_roots
from .matrix import Matrix, direct_sum, solve
from .poly import decompose_in_t2_minus_t


@dataclass(frozen=True)
class QuadParams:
    """The four scalars (a, b, c, d) defining the two quadratics."""

    a: FieldElement
    b: FieldElement
    c: FieldElement
    d: FieldElement

    @classmethod
    def of(cls, field: Field, a=1, b=0, c=0, d=0) -> "QuadParams":
        return cls(field.element(a), field.element(b), field.element(c), field.element(d))

    @property
    def field(self) -> Field:
        return self.a.field


@dataclass(frozen=True)
class CaseClassification:
    """Outcome of the shift/scale reduction.

    case III is the idempotent + square-zero situation this tool decides
    and constructs for; cases I (two nonzero-scaled idempotents) and II
    (two square-zero matrices) are classified but not constructed.
    """

    case: str  # "I", "II" or "III"
    alpha: FieldElement
    beta: FieldElement
    shift: FieldElement
    scale: FieldElement | None  # nonzero reduced coefficient, case III only
    swapped: bool  # idempotent role landed on the (c, d) side


@dataclass(frozen=True)
class Decision:
    """Yes/no answer for the idempotent + square-zero case, with diagnostics.

    ``frobenius`` is the tuple of invariant factors f_i of M and ``witness``
    the basis T, of full rank, with M T = T F for the direct sum F of their
    companions; ``valuations`` holds (a_i, b_i, h_i) with f_i = t^a_i
    (t - 1)^b_i h_i.  ``invariant_factors`` is the tuple of the nonconstant
    h_i, those of the part of M away from {0, 1}.  ``pairing`` holds the
    Jordan units of :func:`pair_blocks`, or None when the blocks cannot be
    paired.  A ``failing`` invariant factor is held as its polynomial.
    """

    yes: bool
    frobenius: tuple
    witness: Matrix
    valuations: tuple
    invariant_factors: tuple
    g_factors: tuple
    nullity_at_0: NullitySequence
    nullity_at_1: NullitySequence
    pairing: tuple | None
    failing: dict | None


@dataclass(frozen=True)
class Certificate:
    """An explicit decomposition M = A + B with its claimed parameters."""

    a_part: Matrix
    b_part: Matrix
    params: QuadParams
    classification: CaseClassification | None = None
    decision: Decision | None = None


@dataclass(frozen=True)
class VerificationReport:
    sum_ok: bool
    first_quadratic_ok: bool
    second_quadratic_ok: bool

    @property
    def ok(self) -> bool:
        return self.sum_ok and self.first_quadratic_ok and self.second_quadratic_ok


@dataclass(frozen=True)
class NecessaryReport:
    """Result of the necessary condition for alpha*P + beta*Q decompositions."""

    status: str  # "no", "inconclusive" or "not_applicable"
    seq_alpha: NullitySequence | None
    seq_beta: NullitySequence | None
    violation: dict | None


# ---- intertwined sequences and block pairing -------------------------

def _check_sequence(u):
    u = tuple(u)
    if any(x < 0 for x in u) or any(u[i] < u[i + 1] for i in range(len(u) - 1)):
        raise MalformedSequence(f"not a non-increasing non-negative sequence: {u}")
    return u


def _first_violation(u, v, p: int):
    """First index where the p-intertwining inequalities fail, or None."""
    def at(seq, k):
        return seq[k - 1] if 1 <= k <= len(seq) else 0

    for n in range(1, max(len(u), len(v)) + 1):
        if at(u, n + p) > at(v, n):
            return {"side": "first", "index": n}
        if at(v, n + p) > at(u, n):
            return {"side": "second", "index": n}
    return None


def is_p_intertwined(u, v, p: int) -> bool:
    """Whether u_{n+p} <= v_n and v_{n+p} <= u_n for all n >= 1."""
    if p < 1:
        raise BadParams("p must be a positive integer")
    u = _check_sequence(u)
    v = _check_sequence(v)
    return _first_violation(u, v, p) is None


def pair_blocks(sizes_at_1, sizes_at_0):
    """Align the two Jordan size lists for blockwise construction.

    Sort both lists descending, pad with zeros and match index-wise into
    units (size_at_1, size_at_0), 0 marking a block without a partner.
    Feasible iff each unit's sizes differ by at most 2, which is equivalent
    to the 2-intertwining of the corresponding nullity sequences.  Returns
    the units, largest first, or None when infeasible (decision NO).
    """
    s1 = sorted(sizes_at_1, reverse=True)
    s0 = sorted(sizes_at_0, reverse=True)
    if any(s <= 0 for s in s1 + s0):
        raise MalformedSequence("block sizes must be positive")
    length = max(len(s1), len(s0))
    units = tuple(zip(s1 + [0] * (length - len(s1)), s0 + [0] * (length - len(s0))))
    return None if any(abs(a - b) > 2 for a, b in units) else units


# ---- classification --------------------------------------------------

def classify_and_reduce(m: Matrix, params: QuadParams):
    """Shift by (alpha + beta) and rescale so the decision runs on the
    idempotent + square-zero normal form.

    Returns ``(classification, reduced)`` where ``reduced`` is the matrix
    handed to :func:`decide` in case III (shifted and divided by the scale),
    and just the shifted matrix in cases I and II.
    """
    if not m.is_square:
        raise DimensionMismatch("classification needs a square matrix")
    f = m.field
    roots_first = quadratic_roots(f, params.a, params.b)
    if roots_first is None:
        raise NotSplitError("t^2 - a t - b does not split over the base field")
    roots_second = quadratic_roots(f, params.c, params.d)
    if roots_second is None:
        raise NotSplitError("t^2 - c t - d does not split over the base field")
    alpha = roots_first[0]
    beta = roots_second[0]
    shift = alpha + beta
    shifted = m - shift * Matrix.identity(f, m.rows)
    a_red = params.a - 2 * alpha
    c_red = params.c - 2 * beta
    if a_red and c_red:
        cls = CaseClassification("I", alpha, beta, shift, None, False)
        return cls, shifted
    if not a_red and not c_red:
        cls = CaseClassification("II", alpha, beta, shift, None, False)
        return cls, shifted
    swapped = not a_red
    scale = c_red if swapped else a_red
    cls = CaseClassification("III", alpha, beta, shift, scale, swapped)
    return cls, shifted * scale.inverse()


# ---- decision --------------------------------------------------------

def _nullities(m: Matrix, eigenvalue, exponents, stage: str) -> NullitySequence:
    """Nullity sequence at an eigenvalue read off the invariant-factor
    valuations, n_k = #{i : exponent_i >= k}, cross-checked against ranks of
    powers."""
    top = max(exponents, default=0)
    seq = NullitySequence(m.field.element(eigenvalue),
                          tuple(sum(1 for e in exponents if e >= k) for k in range(1, top + 1)))
    by_rank = nullity_sequence(m, eigenvalue).values
    if by_rank != seq.values:
        raise InternalCheckFailed(
            f"{stage}: nullity sequence at eigenvalue {eigenvalue} of the {m.rows}x{m.rows} "
            f"matrix is {by_rank} by ranks but {seq.values} by invariant-factor valuations")
    return seq


def decide(m: Matrix) -> Decision:
    """Decide whether M is the sum of an idempotent and a square-zero matrix."""
    frobenius, witness = invariant_factors_with_transform(m)
    vals = tuple(valuations(fac, 0, 1) for fac in frobenius)
    factors = tuple(h for _, _, h in vals if h.degree)
    g_factors = []
    failing = None
    for fac in factors:
        g = decompose_in_t2_minus_t(fac)
        if g is None:
            failing = {"kind": "invariant_factor", "factor": fac}
            break
        g_factors.append(g)
    seq0 = _nullities(m, 0, [a for a, _, _ in vals], "decide")
    seq1 = _nullities(m, 1, [b for _, b, _ in vals], "decide")
    pairing = pair_blocks([b for _, b, _ in vals if b], [a for a, _, _ in vals if a])
    viol = _first_violation(seq0.values, seq1.values, 2)
    if (pairing is None) != (viol is not None):
        raise InternalCheckFailed(
            f"decide: the Jordan block pairing and the 2-intertwining of the nullity "
            f"sequences disagree on the {m.rows}x{m.rows} matrix")
    if failing is None and viol is not None:
        failing = {"kind": "intertwining", "eigenvalue": 0 if viol["side"] == "first" else 1,
                   "index": viol["index"]}
    return Decision(
        yes=failing is None,
        frobenius=frobenius,
        witness=witness,
        valuations=vals,
        invariant_factors=factors,
        g_factors=tuple(g_factors),
        nullity_at_0=seq0,
        nullity_at_1=seq1,
        pairing=pairing,
        failing=failing,
    )


# ---- construction: part with no eigenvalue in {0, 1} -----------------

def _away_idempotent(f: Field, size: int) -> Matrix:
    """Idempotent W of an idempotent + square-zero split of C(h), for every
    h = g(t^2 - t) of degree ``size``; the square-zero part is C(h) - W.

    With s = t^2 - t, k[t]/(h) is free over k[s]/(g) on 1, t.  The map
    x + y t -> (x + y) t is idempotent, and t minus it sends x + y t to y s,
    whose square is 0.  As t^i = x_i + y_i t with x_i + y_i = z_i(s), where
    z_0 = z_1 = 1 and z_(i+1) = z_i + s z_(i-1), column i of W is the
    coefficient vector of t z_i(t^2 - t).  That has degree at most size - 1,
    so W depends on neither g nor h, only on the size.
    """
    cols, prev, col = [], [], [0, 1]  # t z_(i-1)(t^2 - t) and t z_i(t^2 - t)
    for _ in range(size):
        cols.append((col + [0] * size)[:size])
        prev, col = col, [x + u - v for x, u, v
                          in zip_longest(col, [0, 0] + prev, [0] + prev, fillvalue=0)]
    return Matrix._raw(f, size, size, [f.reduce(c[r]) for r in range(size) for c in cols])


# ---- construction: Jordan blocks at 0 and 1 ---------------------------

def _unit_decomposition(f: Field, a: int, b: int) -> Matrix:
    """Idempotent A of an idempotent + square-zero split A + B of the model
    (I + N) (+) N' for one paired unit, N (a x a) and N' (b x b) being
    subdiagonal nilpotent Jordan blocks and |a - b| <= 2; B is the model
    minus A.

    A = [[P(N), Q(N) X S], [-S Y, R(N')]], with the series P = (1 + t)^2 /
    (1 + 2t), Q = (1 + t)^2 / (1 + 2t)^2 and R = -t^2 / (1 - 2t) written out
    coefficient by coefficient, S = diag(1, -1, 1, ...) of size b, and the
    intertwiners X (a x b) and Y (b x a), with N^2 = X Y, N'^2 = Y X, N X =
    X N' and Y N = N' Y: the larger side receives a shift by two, the smaller
    a plain truncation.  A block without a partner (a = 0 or b = 0) gets 0 or I.
    """
    shift = 2 if a >= b else 0  # X: column c in row c + shift; Y: row i at column i + shift - 2
    p = [1, 0] + [(-2) ** (k - 2) for k in range(2, a)]
    q = [1, -2] + [(k + 3) * (-2) ** (k - 2) for k in range(2, a)]
    r = [0, 0] + [-(2 ** (k - 2)) for k in range(2, b)]
    n = a + b
    ent = [0] * (n * n)
    for i in range(a):
        ent[i * n : i * n + i + 1] = p[i::-1]
        for c in range(min(b, i - shift + 1)):
            ent[i * n + a + c] = (-1) ** c * q[i - c - shift]
    for i in range(b):
        if 0 <= i + shift - 2 < a:
            ent[(a + i) * n + i + shift - 2] = -((-1) ** i)
        ent[(a + i) * n + a : (a + i) * n + a + i + 1] = r[i::-1]
    return Matrix._raw(f, n, n, [f.reduce(x) for x in ent])


# ---- full pipeline ---------------------------------------------------

def _idempotent_plus_square_zero(m: Matrix, decision: Decision) -> Matrix:
    """Idempotent A with M - A square-zero, for a YES decision on M.

    The Frobenius basis of M, split per cyclic block, T' = T (S_1 (+) ...
    (+) S_r), brings M to the direct sum of the C(h_i), J_a_i(0) and
    J_b_i(1).  The idempotent of each C(h_i) is :func:`_away_idempotent` of
    its degree; the Jordan blocks at 1 and at 0 are taken unit by unit from
    ``decision.pairing``, equal sizes in factor order, and their idempotents
    are :func:`_unit_decomposition` of the unit's sizes.  Each is written
    into A_model at the coordinates its blocks occupy in T', and A solves
    T'^T A^T = (T' A_model)^T, so nothing is inverted.  :func:`construct`
    verifies the result.
    """
    f, n = m.field, m.rows
    model = [f.reduce(0)] * (n * n)

    def place(part: Matrix, coords):
        for ci, row in zip(coords, part.raw_rows()):
            for cj, x in zip(coords, row):
                model[ci * n + cj] = x

    blocks = []
    at_0, at_1 = {}, {}  # block size -> coordinate ranges in T', in factor order
    off = 0
    for fac, (a, b, h) in zip(decision.frobenius, decision.valuations):
        blocks.append(split_cyclic_block(fac, a, b, h))
        place(_away_idempotent(f, h.degree), range(off, off + h.degree))
        off += h.degree
        for ranges, size in ((at_0, a), (at_1, b)):
            ranges.setdefault(size, []).append(range(off, off + size))
            off += size
    for one, zero in decision.pairing:
        place(_unit_decomposition(f, one, zero),
              [k for ranges, size in ((at_1, one), (at_0, zero)) if size
               for k in ranges[size].pop(0)])
    basis = decision.witness * direct_sum(f, blocks)
    rhs = (basis * Matrix._raw(f, n, n, model)).transpose()
    return solve(basis.transpose(), rhs).transpose()


def construct(m: Matrix, params: QuadParams) -> Certificate:
    """Decide and, on yes, build a verified certificate for M = A + B with
    A being (a,b)-quadratic and B being (c,d)-quadratic.

    Raises UnsupportedCase for the two-idempotent / two-square-zero cases
    as soon as they are classified, DecisionNo when the answer is no,
    NotSplitError when a quadratic has no root in the base field.
    """
    cls, reduced = classify_and_reduce(m, params)
    if cls.case != "III":
        raise UnsupportedCase(cls)
    decision = decide(reduced)
    if not decision.yes:
        raise DecisionNo(decision)
    # alpha I + s A_red (beta I + s A_red when swapped) is the idempotent side
    # and M minus it the other, since M = (alpha + beta) I + s (A_red + B_red)
    root = cls.beta if cls.swapped else cls.alpha
    a_red = _idempotent_plus_square_zero(reduced, decision)
    idem = root * Matrix.identity(m.field, m.rows) + cls.scale * a_red
    a_part, b_part = (m - idem, idem) if cls.swapped else (idem, m - idem)
    cert = Certificate(a_part, b_part, params, cls, decision)
    # The one check of the construction.  It covers A_red idempotent and
    # B_red square-zero: with the scale s != 0 and alpha a root of
    # t^2 - a t - b, A = alpha I + s A_red gives A^2 - a A - b I =
    # s (2 alpha - a) A_red + s^2 A_red^2 = s^2 (A_red^2 - A_red), since
    # a - 2 alpha = s; and B = beta I + s B_red gives B^2 - c B - d I =
    # s^2 B_red^2, since c - 2 beta = 0 (the roles swap when swapped).
    report = verify_certificate(m, cert)
    if not report.ok:
        raise InternalCheckFailed(f"construct: {m.rows}x{m.rows} certificate fails: {report}")
    return cert


def verify_certificate(m: Matrix, cert: Certificate) -> VerificationReport:
    """Exact check of A + B = M, A^2 = a A + b I and B^2 = c B + d I, which
    is what a certificate claims, and nothing else.

    A probe such as A P = P A for P = (A + B)((a + c) I - (A + B)) would add
    nothing: the two identities imply it, since both A P and P A equal
    ac A + bc I - (b + d) A - b B - A B A (and likewise for B).
    """
    if not m.is_square:
        raise DimensionMismatch("certificate check needs a square matrix")
    a_mat, b_mat = cert.a_part, cert.b_part
    shape = (m.rows, m.cols)
    if (a_mat.rows, a_mat.cols) != shape or (b_mat.rows, b_mat.cols) != shape:
        raise DimensionMismatch("certificate dimensions do not match the matrix")
    params = cert.params
    ident = Matrix.identity(m.field, m.rows)
    sum_ok = a_mat + b_mat == m
    first_ok = a_mat * a_mat == params.a * a_mat + params.b * ident
    second_ok = b_mat * b_mat == params.c * b_mat + params.d * ident
    return VerificationReport(sum_ok, first_ok, second_ok)


def check_necessary_combination(m: Matrix, alpha, beta) -> NecessaryReport:
    """Necessary condition for M = alpha*P + beta*Q with P, Q idempotent:
    the nullity sequences at alpha and beta must be 1-intertwined.

    Only applies when every invariant factor of M is (t - alpha)^a (t - beta)^b,
    that is when (M - alpha I)^n (M - beta I)^n = 0; a NO certifies
    non-decomposability, a YES is inconclusive.
    """
    f = m.field
    alpha = f.element(alpha)
    beta = f.element(beta)
    if alpha == beta or not alpha or not beta:
        raise BadParams("needs distinct nonzero alpha, beta")
    vals = [valuations(fac, alpha, beta) for fac in invariant_factors_with_transform(m)[0]]
    if any(h.degree for _, _, h in vals):
        return NecessaryReport("not_applicable", None, None, None)
    seq_a = _nullities(m, alpha, [a for a, _, _ in vals], "necessary")
    seq_b = _nullities(m, beta, [b for _, b, _ in vals], "necessary")
    viol = _first_violation(seq_a.values, seq_b.values, 1)
    status = "no" if viol else "inconclusive"
    return NecessaryReport(status, seq_a, seq_b, viol)
