"""Dense exact matrices: arithmetic, rank/kernel, inverses, block composition.

Matrices are immutable, store a flat row-major tuple of field elements, and
allow 0-sized dimensions (empty direct summands show up naturally when a
cyclic block is split at {0, 1}).  The elimination kernels work on unwrapped
raw values for speed and rewrap results, so everything stays exact.

Every product of raw vectors in the package (matrix products, Krylov steps,
dual rows and pairings) goes through one kernel, :func:`_raw_products`.  Over
GF(p) it reduces each integer dot product once.  Over the rationals each
vector is first brought to integers over a common denominator, the lcm of
its entries' denominators (:func:`_integral`), so the inner loop adds plain
ints and each entry of the result costs one reduced ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .errors import DimensionMismatch, MixedFields, Singular
from .field import Field, FieldElement


class Matrix:
    __slots__ = ("field", "rows", "cols", "_e")

    def __init__(self, field: Field, rows: int, cols: int, entries):
        entries = tuple(entries)
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        self.field = field
        self.rows = rows
        self.cols = cols
        self._e = entries

    # ---- constructors ------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Matrix":
        rows = list(rows)
        r = len(rows)
        c = len(rows[0]) if rows else 0
        entries = []
        for row in rows:
            if len(row) != c:
                raise DimensionMismatch("ragged rows")
            entries.extend(field.element(x) for x in row)
        return cls(field, r, c, entries)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return cls(field, n, n, [o if i == j else z for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int | None = None) -> "Matrix":
        if cols is None:
            cols = rows
        z = field.zero()
        return cls(field, rows, cols, [z] * (rows * cols))

    @classmethod
    def column(cls, field: Field, values) -> "Matrix":
        vals = [field.element(x) for x in values]
        return cls(field, len(vals), 1, vals)

    @classmethod
    def diagonal(cls, field: Field, values) -> "Matrix":
        vals = [field.element(x) for x in values]
        n = len(vals)
        z = field.zero()
        return cls(field, n, n, [vals[i] if i == j else z for i in range(n) for j in range(n)])

    # ---- access ------------------------------------------------------

    def __getitem__(self, ij) -> FieldElement:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self._e[i * self.cols + j]

    def row(self, i) -> list[FieldElement]:
        return list(self._e[i * self.cols : (i + 1) * self.cols])

    def col(self, j) -> list[FieldElement]:
        return [self._e[i * self.cols + j] for i in range(self.rows)]

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def raw_rows(self):
        """Rows of raw scalar values (internal; used by the raw-value kernels)."""
        c = self.cols
        e = self._e
        return [[x.v for x in e[i * c : (i + 1) * c]] for i in range(self.rows)]

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        ent = []
        for i in range(r0, r1):
            ent.extend(self._e[i * self.cols + c0 : i * self.cols + c1])
        return Matrix(self.field, r1 - r0, c1 - c0, ent)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(self._e)

    # ---- arithmetic --------------------------------------------------

    def _check_same_field(self, other: "Matrix"):
        if other.field != self.field:
            raise MixedFields(f"{self.field!r} vs {other.field!r}")

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("add: shapes differ")
        return Matrix(self.field, self.rows, self.cols,
                      [x + y for x, y in zip(self._e, other._e)])

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("sub: shapes differ")
        return Matrix(self.field, self.rows, self.cols,
                      [x - y for x, y in zip(self._e, other._e)])

    def __neg__(self):
        return Matrix(self.field, self.rows, self.cols, [-x for x in self._e])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self._matmul(other)
        if isinstance(other, (FieldElement, int)):
            c = self.field.element(other)
            return Matrix(self.field, self.rows, self.cols, [c * x for x in self._e])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return self.__mul__(other)
        return NotImplemented

    def _matmul(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"mul: {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        f = self.field
        k, m = self.cols, other.cols
        a = [x.v for x in self._e]
        b = [x.v for x in other._e]
        rows = _integral(f, [a[i * k : (i + 1) * k] for i in range(self.rows)])
        cols = _integral(f, [b[j::m] for j in range(m)])
        make = f.make
        return Matrix(f, self.rows, m,
                      [make(x) for row in _raw_products(f, rows, cols) for x in row])

    def __pow__(self, k: int) -> "Matrix":
        if not self.is_square:
            raise DimensionMismatch("power of a non-square matrix")
        if k < 0:
            return inverse(self) ** (-k)
        result = Matrix.identity(self.field, self.rows)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows,
                      [self._e[i * self.cols + j]
                       for j in range(self.cols) for i in range(self.rows)])

    def trace(self) -> FieldElement:
        t = self.field.zero()
        for i in range(self.rows):
            t = t + self._e[i * self.cols + i]
        return t

    # ---- equality / hashing -----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.rows == other.rows
                and self.cols == other.cols and self._e == other._e)

    def __hash__(self):
        return hash((self.field.p, self.rows, self.cols, tuple(x.v for x in self._e)))

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols} over {self.field!r}: [{body}])"


# ---- the product kernel (raw values) ---------------------------------

def _integral(field: Field, vecs):
    """Raw vectors as ``(integers, denominator)`` pairs, the operands of
    :func:`_raw_products`.

    Over the rationals each vector is scaled by the lcm of its entries'
    denominators (plain ints have denominator 1); GF(p) residues are already
    integers over 1.
    """
    if field.p is not None:
        return [(v, 1) for v in vecs]
    out = []
    for v in vecs:
        dens = [x.denominator for x in v]
        d = lcm(*dens)
        out.append(([x.numerator * (d // e) for x, e in zip(v, dens)], d))
    return out


def _raw_products(field: Field, rows, cols):
    """The reduced raw dot product of every row with every column.

    ``rows`` and ``cols`` come from :func:`_integral`; entry ``[i][j]`` of
    the result is row i times column j, a residue in [0, p) or a reduced
    Fraction.
    """
    p = field.p
    if p is not None:
        return [[sum(map(mul, r, c)) % p for c, _ in cols] for r, _ in rows]
    return [[Fraction(sum(map(mul, r, c)), dr * dc) for c, dc in cols] for r, dr in rows]


# ---- elimination kernels (raw values) --------------------------------

def _rref(field: Field, rows, ncols: int):
    """In-place reduced row echelon form on raw rows; returns pivot columns."""
    p = field.p
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv_raw(rows[r][c])
        if p is None:
            rows[r] = [x * inv for x in rows[r]]
        else:
            rows[r] = [x * inv % p for x in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                fac = rows[i][c]
                if p is None:
                    rows[i] = [x - fac * y for x, y in zip(rows[i], prow)]
                else:
                    rows[i] = [(x - fac * y) % p for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rank(m: Matrix) -> int:
    rows = m.raw_rows()
    return len(_rref(m.field, rows, m.cols))


def rank_and_kernel(m: Matrix):
    """Rank and a canonical kernel basis (list of column matrices).

    The basis comes from the reduced echelon form with free coordinates set
    to 1 one at a time, so identical inputs always give identical bases.
    """
    f = m.field
    rows = m.raw_rows()
    pivots = _rref(f, rows, m.cols)
    rk = len(pivots)
    pivset = set(pivots)
    basis = []
    for j in range(m.cols):
        if j in pivset:
            continue
        v = [0] * m.cols
        v[j] = 1
        for i, pc in enumerate(pivots):
            if rows[i][j]:
                v[pc] = f.reduce(-rows[i][j])
        basis.append(Matrix(f, m.cols, 1, [f.make(f.reduce(x)) for x in v]))
    return rk, basis


def kernel_matrix(m: Matrix) -> Matrix:
    """Kernel basis assembled as the columns of a single cols x nullity matrix."""
    _, basis = rank_and_kernel(m)
    return hstack(m.field, basis) if basis else Matrix.zero(m.field, m.cols, 0)


def inverse(m: Matrix) -> Matrix:
    if not m.is_square:
        raise DimensionMismatch("inverse of a non-square matrix")
    f = m.field
    n = m.rows
    rows = m.raw_rows()
    for i in range(n):
        rows[i] = rows[i] + [1 if j == i else 0 for j in range(n)]
    pivots = _rref(f, rows, n)
    if len(pivots) < n:
        raise Singular("matrix is singular")
    ent = []
    for i in range(n):
        ent.extend(f.make(f.reduce(x)) for x in rows[i][n:])
    return Matrix(f, n, n, ent)


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve a * X = b exactly (free variables set to zero).

    Raises Singular when the system is inconsistent.
    """
    a._check_same_field(b)
    if a.rows != b.rows:
        raise DimensionMismatch("solve: row counts differ")
    f = a.field
    k, c = a.cols, b.cols
    arows = a.raw_rows()
    brows = b.raw_rows()
    rows = [arows[i] + brows[i] for i in range(a.rows)]
    pivots = _rref(f, rows, k + c)
    if any(pc >= k for pc in pivots):
        raise Singular("inconsistent linear system")
    x = [[0] * c for _ in range(k)]
    for i, pc in enumerate(pivots):
        x[pc] = rows[i][k:]
    ent = []
    for i in range(k):
        ent.extend(f.make(f.reduce(v)) for v in x[i])
    return Matrix(f, k, c, ent)


# ---- block composition -----------------------------------------------

def direct_sum(field: Field, blocks) -> Matrix:
    """Block-diagonal assembly of square blocks; the empty sum is 0x0."""
    blocks = list(blocks)
    for blk in blocks:
        if blk.field != field:
            raise MixedFields("direct_sum: block field differs")
        if not blk.is_square:
            raise DimensionMismatch("direct_sum: blocks must be square")
    n = sum(blk.rows for blk in blocks)
    z = field.zero()
    ent = [z] * (n * n)
    off = 0
    for blk in blocks:
        for i in range(blk.rows):
            base = (off + i) * n + off
            ent[base : base + blk.cols] = blk._e[i * blk.cols : (i + 1) * blk.cols]
        off += blk.rows
    return Matrix(field, n, n, ent)


def block2x2(tl: Matrix, tr: Matrix, bl: Matrix, br: Matrix) -> Matrix:
    if tl.rows != tr.rows or bl.rows != br.rows:
        raise DimensionMismatch("block2x2: row heights differ")
    if tl.cols != bl.cols or tr.cols != br.cols:
        raise DimensionMismatch("block2x2: column widths differ")
    f = tl.field
    for m in (tr, bl, br):
        if m.field != f:
            raise MixedFields("block2x2: mixed fields")
    top = [tl.row(i) + tr.row(i) for i in range(tl.rows)]
    bot = [bl.row(i) + br.row(i) for i in range(bl.rows)]
    return Matrix(f, tl.rows + bl.rows, tl.cols + tr.cols,
                  [x for row in top + bot for x in row])


def hstack(field: Field, mats) -> Matrix:
    mats = list(mats)
    if not mats:
        return Matrix.zero(field, 0, 0)
    r = mats[0].rows
    for m in mats:
        if m.rows != r:
            raise DimensionMismatch("hstack: row counts differ")
        if m.field != field:
            raise MixedFields("hstack: mixed fields")
    ent = []
    for i in range(r):
        for m in mats:
            ent.extend(m._e[i * m.cols : (i + 1) * m.cols])
    return Matrix(field, r, sum(m.cols for m in mats), ent)


def jordan_block(field: Field, size: int, eigenvalue=0) -> Matrix:
    """Jordan block with ones on the subdiagonal (matching the companion
    convention used throughout: the block for t^k is C(t^k))."""
    lam = field.element(eigenvalue)
    z, o = field.zero(), field.one()
    ent = []
    for i in range(size):
        for j in range(size):
            if i == j:
                ent.append(lam)
            elif i == j + 1:
                ent.append(o)
            else:
                ent.append(z)
    return Matrix(field, size, size, ent)


def permutation_matrix(field: Field, perm) -> Matrix:
    """Matrix P with P e_k = e_{perm[k]}."""
    perm = list(perm)
    n = len(perm)
    z, o = field.zero(), field.one()
    ent = [z] * (n * n)
    for k, pk in enumerate(perm):
        ent[pk * n + k] = o
    return Matrix(field, n, n, ent)


class SimilarityWitness:
    """An invertible matrix stored together with its inverse.

    ``apply(M)`` returns T M T^-1 and ``apply_inverse(M)`` returns T^-1 M T;
    the defining identity T T^-1 = I = T^-1 T is checked at construction.
    """

    __slots__ = ("t", "t_inv")

    def __init__(self, t: Matrix, t_inv: Matrix):
        if not (t.is_square and t_inv.is_square and t.rows == t_inv.rows):
            raise DimensionMismatch("witness matrices must be square, same size")
        ident = Matrix.identity(t.field, t.rows)
        if t * t_inv != ident or t_inv * t != ident:
            raise Singular("witness inverse does not check out")
        self.t = t
        self.t_inv = t_inv

    @classmethod
    def from_matrix(cls, t: Matrix) -> "SimilarityWitness":
        return cls(t, inverse(t))

    @classmethod
    def identity(cls, field: Field, n: int) -> "SimilarityWitness":
        ident = Matrix.identity(field, n)
        return cls(ident, ident)

    @property
    def size(self) -> int:
        return self.t.rows

    def apply(self, m: Matrix) -> Matrix:
        return self.t * m * self.t_inv

    def apply_inverse(self, m: Matrix) -> Matrix:
        return self.t_inv * m * self.t

