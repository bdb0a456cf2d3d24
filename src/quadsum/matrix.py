"""Dense exact matrices: arithmetic, rank, kernel, solve, block composition.

Matrices are immutable and allow 0-sized dimensions (empty direct summands
show up naturally when a cyclic block is split at {0, 1}).  A matrix stores
a flat row-major tuple of raw canonical values (``int`` residues in [0, p);
over Q an ``int`` when integral, else a reduced ``Fraction``), never
``FieldElement`` wrappers.  The public constructors (``Matrix(...)``,
``from_rows``, ``diagonal``) coerce through ``Field.value``; indexing,
``row`` and ``to_rows`` wrap what they return.  The kernels work on raw
values, canonicalise with ``Field.reduce``, write 0 and 1 as the ints
themselves and build with :meth:`Matrix._raw`; no kernel wraps a scalar in a
``FieldElement`` only to unwrap it.  Only this module knows
how a kernel holds a row (integers over a denominator, residues in a list,
or 64-bit words in one int): its kernels take raw rows and give back raw
canonical values.

Every product of raw vectors that the package keeps (matrix products, Krylov
steps, dual rows, pairings and linear combinations, :func:`_combination`)
goes through one kernel, :func:`_raw_products`.
Over GF(p) it reduces each integer dot product once.  Over the rationals each
vector is first brought to integers over a common denominator, the lcm of
its entries' denominators (:func:`_integral`), so the inner loop adds plain
ints, and each entry of the result is one :func:`quadsum.field._rational`: a
``Fraction`` only when it is not an integer.

A product that is only compared builds no ``Fraction``.  Every identity
check (M T = T F, C(f) S = S E and a certificate's A^2 = a A + b I) is one
call of :func:`_products_equal`, which compares rows times columns with
expected columns: over GF(p) as one :func:`_raw_products` call against the
expected entries, over the rationals entry by entry as cross-multiplied
integer dot products.  A shift M + c I touches the diagonal only
(:meth:`Matrix._plus_identity`).  An early exit that returns what the
general path returns stays only where it was measured to pay, as
:meth:`Matrix._scaled`'s for c in {0, 1}; CHANGES.md records the numbers of
each exit kept or taken out.  No rank of a power is taken anywhere: the
nullity sequences are read off checked invariant-factor valuations
(:func:`quadsum.sums._checked_valuations`).

Square blocks are placed by one kernel, :func:`_placed`, which writes each
block's entry (i, j) at (coords[i], coords[j]) of a zero matrix:
:func:`direct_sum` places its blocks at consecutive ranges, and the
constructor places the closed-form idempotents at their blocks'
coordinates in the split Frobenius basis.  A matrix given by its columns,
such as a Frobenius basis T, is written from them, not stacked from blocks.

Every row operation in the package (rank, kernel, solve, the Krylov
annihilators and the span kernel; an inverse is one solve) is one call of
:func:`_reduce`, which reduces a row against an ordered list of pivot rows.
Over GF(p) a narrow row is a list and a step takes one ``% p`` per entry.
Over the rationals the rows are brought to integers the same way and the
elimination is fraction-free: rows are cleared by cross-multiplying and kept
primitive by dividing out their content.  Rank is the length of the forward
elimination (:func:`_echelon`, which picks the row format); :func:`_rref`
back-substitutes that echelon and divides only the rows it returns by their
pivots.  A Krylov annihilator is the first relation among its vectors,
found by the same reduction in one loop, :func:`_krylov_relation`, that
also steps the chain with :func:`_raw_products` and so computes no vector
past the relation.

The span kernel, :func:`_span_rank`, extends an echelon that its caller
keeps with raw n-vectors and returns the rank: exactly over GF(p), and over
the rationals modulo one word-size prime (``_SPAN_PRIME``), where a rank of
n is a rank of n over Q and a smaller one says nothing.  It and
:func:`_echelon` grow an echelon through one loop, :func:`_extend_echelon`,
which reduces no row once the rank equals the width.  The cyclic-vector
scan (:func:`quadsum.poly.cyclic_vector`) keeps one across its Krylov
chains, and the Frobenius witness check reads rank(T) = n from it before
any exact rank.

Over GF(p), from ``_PACK_MIN`` = 10 on, rows are packed (Kronecker
substitution): one int holds a row, entry j in the 64-bit little-endian word
from bit 64 j up, converted by one ``array('Q')`` call in C.  A reduction
step is one multiply-add of ints, r <- r + (p - a) r_piv; the slots stay
non-negative and unreduced, and a row is read back and reduced mod p once,
when it becomes a pivot row or leaves the kernel.  A slot of a row reduced
in s steps holds less than s p^2, and a dot product of k entries less
than k p^2, so a kernel packs only when that bound is below 2^64
(:func:`_packs`, the one gate); wider primes take the list rows, with the
same results.
A product packs its columns by coordinate once (:class:`_PackedColumns`;
per cyclic vector or dual-row run, not per step), and a row times all the
columns is one ``sum(map(mul))`` of ints.  ``_PACK_MIN`` sits where packing
starts to pay: below it the fixed cost of packing exceeds the saving, and a
Frobenius decomposition of a random n x n matrix over GF(2), GF(5) and
GF(101) ran up to 13 % slower packed at n = 8 and no slower from n = 10 on.
"""

from __future__ import annotations

from array import array
from functools import partialmethod
from math import gcd, lcm
from operator import add, mul, sub
from sys import byteorder

from .errors import BudgetExceeded, DimensionMismatch, MixedFields, Singular
from .field import Field, FieldElement, _is_int, _rational


class Matrix:
    __slots__ = ("field", "rows", "cols", "_e")

    def __init__(self, field: Field, rows: int, cols: int, entries):
        entries = tuple(map(field.value, entries))
        _check_shape(rows, cols)
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        self.field = field
        self.rows = rows
        self.cols = cols
        self._e = entries

    @classmethod
    def _raw(cls, field: Field, rows: int, cols: int, entries) -> "Matrix":
        """The kernels' constructor: ``entries`` are canonical raw values,
        row-major, and are stored as they are."""
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m._e = tuple(entries)
        return m

    # ---- constructors ------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Matrix":
        rows = list(rows)
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise DimensionMismatch("ragged rows")
        return cls(field, len(rows), c, [x for row in rows for x in row])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls.zero(field, n)._plus_identity(1)

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int | None = None) -> "Matrix":
        if cols is None:
            cols = rows
        _check_shape(rows, cols)
        return cls._raw(field, rows, cols, [0] * (rows * cols))

    @classmethod
    def diagonal(cls, field: Field, values) -> "Matrix":
        vals = [field.value(x) for x in values]
        n = len(vals)
        return cls._raw(field, n, n, [vals[i] if i == j else 0 for i in range(n) for j in range(n)])

    # ---- access ------------------------------------------------------

    def __getitem__(self, ij) -> FieldElement:
        i, j = ij
        _check_index(ij, (self.rows, self.cols))
        return self.field.make(self._e[i * self.cols + j])

    def row(self, i) -> list[FieldElement]:
        _check_index((i,), (self.rows,))
        make = self.field.make
        return [make(x) for x in self._e[i * self.cols : (i + 1) * self.cols]]

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def raw_rows(self):
        """Rows of raw scalar values, as fresh lists the kernels may mutate."""
        c = self.cols
        e = self._e
        return [list(e[i * c : (i + 1) * c]) for i in range(self.rows)]

    def raw_cols(self):
        """Columns of raw scalar values, as tuples."""
        return [self._e[j::self.cols] for j in range(self.cols)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(self._e)

    # ---- arithmetic --------------------------------------------------

    def _check_same_field(self, other: "Matrix"):
        if other.field != self.field:
            raise MixedFields(f"{self.field!r} vs {other.field!r}")

    def _entrywise(self, op, other):
        """The one body of ``+`` and ``-``: ``op`` entry by entry with a
        matrix of the same field and shape."""
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"{op.__name__}: shapes differ")
        return Matrix._raw(self.field, self.rows, self.cols,
                           _canonical(self.field, map(op, self._e, other._e)))

    __add__ = partialmethod(_entrywise, add)
    __sub__ = partialmethod(_entrywise, sub)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self._matmul(other)
        if isinstance(other, (FieldElement, int)):
            return self._scaled(self.field.value(other))
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def _scaled(self, c) -> "Matrix":
        """c times self, for a raw canonical scalar c."""
        if c == 1:
            return self
        if not c:
            return Matrix.zero(self.field, self.rows, self.cols)
        return Matrix._raw(self.field, self.rows, self.cols,
                           _canonical(self.field, [c * x for x in self._e]))

    def _plus_identity(self, c) -> "Matrix":
        """self + c I for a square self and a raw canonical scalar c: only the
        n diagonal entries are touched."""
        reduce = self.field.reduce
        e = list(self._e)
        for i in range(0, len(e), self.cols + 1):
            e[i] = reduce(e[i] + c)
        return Matrix._raw(self.field, self.rows, self.cols, e)

    def _matmul(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"mul: {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        f = self.field
        cols = _columns(f, other.raw_cols())
        return Matrix._raw(f, self.rows, other.cols,
                           [x for row in _raw_products(f, self.raw_rows(), cols) for x in row])

    def transpose(self) -> "Matrix":
        return Matrix._raw(self.field, self.cols, self.rows,
                           [self._e[i * self.cols + j]
                            for j in range(self.cols) for i in range(self.rows)])

    # ---- equality / hashing -----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.rows == other.rows
                and self.cols == other.cols and self._e == other._e)

    def __hash__(self):
        return hash((self.field.p, self.rows, self.cols, self._e))

    def __repr__(self):
        c = self.cols
        body = "; ".join(", ".join(str(x) for x in self._e[i * c : (i + 1) * c])
                         for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols} over {self.field!r}: [{body}])"


def _check_shape(rows: int, cols: int):
    """Refuse a dimension that is not a non-negative int (a bool or a float
    is none), naming it: the shape check of ``Matrix(...)``, ``zero``,
    ``identity`` and :func:`jordan_block`."""
    for what, size in (("rows", rows), ("cols", cols)):
        if not _is_int(size) or size < 0:
            raise DimensionMismatch(f"matrix {what} must be a non-negative int, got {size!r}")


def _check_index(index: tuple, shape: tuple):
    """The one index check of ``m[i, j]`` and ``m.row(i)``: refuse, naming
    it, an index whose entries are not each an int (a bool or a float is
    none) in [0, size) for the size at its place in ``shape``."""
    if not all(_is_int(i) and 0 <= i < size for i, size in zip(index, shape)):
        raise IndexError(index)


def _canonical(field: Field, values) -> list:
    """Raw intermediates made canonical: one inline ``% p`` each over GF(p),
    ``Field.reduce`` each over the rationals."""
    p = field.p
    return [x % p for x in values] if p is not None else list(map(field.reduce, values))


# ---- the product kernel (raw values) ---------------------------------

def _integral(vecs):
    """Rational raw vectors as ``(integers, denominator)`` pairs, scaled by the
    lcm of their entries' denominators (plain ints have denominator 1)."""
    out = []
    for v in vecs:
        dens = [x.denominator for x in v]
        d = lcm(*dens)
        out.append(([x.numerator * (d // e) for x, e in zip(v, dens)], d))
    return out


#: The bits of a 4300-digit number, the longest integer Python writes as text.
_HEIGHT_BUDGET = 14285

#: The largest n of a job over GF(p) and over the rationals.  A conjugated
#: nilpotent Jordan block J_n(0), dense and with a nullity sequence of length
#: n, decides in 0.28 s over GF(2) and 0.48 s over GF(101) at n = 256, and in
#: 3.0 s over the rationals at n = 48.  Over GF(p) the time grows with the
#: number of invariant factors and with p above 2^28, where the kernels stop
#: packing: a conjugated diag(0, 1)^(+128), 128 factors at n = 256, decides in
#: 6.78 s over GF(101) and in 98.2 s at p = 2^61 - 1 (single runs on a shared
#: 2-core machine).
_GFP_SIZE_BUDGET, _QQ_SIZE_BUDGET = 256, 48


def _check_bounds(m: Matrix):
    """Refuse an n x n job matrix whose work has no bound, before any Krylov
    run: n above ``_GFP_SIZE_BUDGET`` or ``_QQ_SIZE_BUDGET``, or, over the
    rationals, invariant factors that may hold numbers too long to print.
    Its height bound n (h + bits(n)), in the style of Hadamard's bound, must
    be at most ``_HEIGHT_BUDGET``; h is the most bits of an entry of a row
    brought to integers over its common denominator (:func:`_integral`), the
    denominator included."""
    n, rational = m.rows, m.field.p is None
    if n > (size := _QQ_SIZE_BUDGET if rational else _GFP_SIZE_BUDGET):
        raise BudgetExceeded(f"{n}x{n} matrix over {m.field!r} exceeds the size budget of {size}")
    if rational:
        h = max((abs(x).bit_length() for v, d in _integral(m.raw_rows()) for x in v + [d]),
                default=0)
        if (bound := n * (h + n.bit_length())) > _HEIGHT_BUDGET:
            raise BudgetExceeded(f"rational matrix of height bound {bound} bits "
                                 f"exceeds the budget of {_HEIGHT_BUDGET}")


def _columns(field: Field, cols):
    """The right operand of :func:`_raw_products`, from raw ``cols``: packed
    (:class:`_PackedColumns`) when :func:`_packs` admits k terms for k
    entries, else GF(p) columns as they are and rational ones integral."""
    k = len(cols[0]) if cols else 0
    if _packs(field.p, min(len(cols), k), k):
        return _PackedColumns(cols)
    return cols if field.p is not None else _integral(cols)


def _raw_products(field: Field, rows, cols):
    """The reduced raw dot product of every raw row with every column.

    ``cols`` come from :func:`_columns`; entry ``[i][j]`` of the result is
    row i times column j, a residue in [0, p) or a canonical rational.
    """
    p = field.p
    if isinstance(cols, _PackedColumns):
        ints, count = cols.ints, cols.count
        return [_residues(p, sum(map(mul, r, ints)), count) for r in rows]
    if p is not None:
        return [[sum(map(mul, r, c)) % p for c in cols] for r in rows]
    return [[_rational(sum(map(mul, r, c)), dr * dc) for c, dc in cols]
            for r, dr in _integral(rows)]


def _products_equal(field: Field, rows, cols, expected) -> bool:
    """Whether every raw row times every raw column is the raw expected
    entry, ``expected`` given as columns (``expected[j][i]`` for row i and
    column j).

    Over GF(p) the products are one :func:`_raw_products` call, packed when
    :func:`_packs` admits them, compared with the transpose of ``expected``.
    Over the rationals no ``Fraction`` is built: with rows and columns as
    integers over d_row and d_col (:func:`_integral`), row times column is e
    when dot den(e) = num(e) d_row d_col, and the check stops at the first
    entry that differs.  Every caller compares square products.
    """
    if field.p is not None:
        products = _raw_products(field, rows, _columns(field, cols))
        return products == [list(r) for r in zip(*expected)]
    cols = _integral(cols)
    for i, (r, dr) in enumerate(_integral(rows)):
        for (c, dc), e in zip(cols, expected):
            x = e[i]
            if sum(map(mul, r, c)) * x.denominator != x.numerator * dr * dc:
                return False
    return True


def _combination(field: Field, coeffs, vecs) -> list:
    """The raw vector c_0 v_0 + c_1 v_1 + ... of raw vectors v_k, for raw
    scalars c_k that need not be canonical: the coefficient row times the
    columns (v_0[j], v_1[j], ...), one :func:`_raw_products` call.  The
    coefficients are made canonical first, since a packed product takes
    residues in [0, p)."""
    return _raw_products(field, [_canonical(field, coeffs)], _columns(field, list(zip(*vecs))))[0]


# ---- packed GF(p) rows ------------------------------------------------

#: The least size at which the GF(p) kernels pack their rows: an elimination
#: whose rank can reach it (fewer rows or pivot columns pack nothing), a
#: Krylov chain under a matrix this large, and a product with this many
#: columns of at least this many entries.  Measured crossover: see the
#: module docstring.
_PACK_MIN = 10


#: One packed slot: a 64-bit word.
_MASK = (1 << 64) - 1


def _packs(p, size: int, terms: int) -> bool:
    """Whether a kernel of ``size`` packs its rows: over GF(p), from
    ``_PACK_MIN`` on, when a 64-bit slot holds ``terms`` products of two
    residues, terms p^2 < 2^64, and the machine is little-endian (the order
    :func:`_residues` reads words in).  A reduction with s steps adds at most
    s (p - 1)^2 to a residue, and (p - 1) + s (p - 1)^2 < s p^2, so it takes
    terms = s; a dot product of k entries takes terms = k."""
    return (p is not None and size >= _PACK_MIN and terms * p * p <= _MASK
            and byteorder == "little")


def _pack(row) -> int:
    """The int of a row of non-negative entries below 2^64, entry j in slot j."""
    return int.from_bytes(array("Q", row).tobytes(), "little")


def _residues(p: int, packed: int, count: int) -> list:
    """The first ``count`` slots of a packed row, reduced mod p."""
    return [x % p for x in memoryview(packed.to_bytes(8 * count, "little")).cast("Q").tolist()]


class _PackedColumns:
    """The columns of a GF(p) product packed by coordinate: int t holds
    entry t of every column, column j in slot j.  A row r times all the
    columns is then one sum of r_t times int t, computed in C."""

    __slots__ = ("ints", "count")

    def __init__(self, cols):
        self.ints = [_pack(entries) for entries in zip(*cols)]
        self.count = len(cols)


# ---- elimination kernels (raw values) --------------------------------

def _primitive(row):
    """The integer row divided by its content, the gcd of its entries."""
    g = gcd(*row)
    return row if g < 2 else [x // g for x in row]


def _reduce(row, ech, p, packed):
    """The raw row reduced against the (pivot column, pivot row) pairs of
    ``ech``, in order: each step clears the row's entry a in the pivot
    column.

    Over GF(p) (``p`` an int) the pivot rows have pivot 1 and each step is
    r <- r - a r_piv, one ``% p`` per entry.  With ``packed`` the pivot rows
    are packed ints (:func:`_pack`), and so is the row for the steps: a step
    is r <- r + (p - a) r_piv, one multiply-add of ints, with a the pivot
    column's slot mod p; the slots stay non-negative and unreduced, and the
    row is read back and reduced mod p once, at the end.
    Over the rationals (``p`` None) the rows are integers, and a step with
    pivot q is r <- (q/g) r - (a/g) r_piv for g = gcd(q, a), after which the
    row is made primitive.  Entries past the end of a shorter pivot row
    count as 0 there: they are kept over GF(p) and multiplied by q/g over
    the rationals.
    """
    if packed:
        r = _pack(row)
        for c, prow in ech:
            a = (r >> 64 * c & _MASK) % p
            if a:
                r += (p - a) * prow
        return _residues(p, r, len(row))
    for c, prow in ech:
        a = row[c]
        if not a:
            continue
        k = len(prow)
        if p is not None:
            row = [(x - a * y) % p for x, y in zip(row, prow)] + row[k:]
            continue
        q = prow[c]
        g = gcd(q, a)
        q, a = q // g, a // g
        row = _primitive([q * x - a * y for x, y in zip(row, prow)] + [q * x for x in row[k:]])
    return row


def _pivot(row, ncols: int, p, packed):
    """The (pivot column, pivot row) pair of a reduced row, or None when its
    first ``ncols`` entries are 0.  Over GF(p) the row is scaled to pivot 1,
    and packed with ``packed``; over the rationals it is made primitive."""
    for c in range(ncols):
        if row[c]:
            if p is None:
                return c, _primitive(row)
            inv = pow(row[c], p - 2, p)
            row = [x * inv % p for x in row]
            return c, _pack(row) if packed else row
    return None


def _extend_echelon(ech: list, rows, ncols: int, p, packed):
    """Extend the echelon ``ech`` (a list of (pivot column, pivot row) pairs)
    by raw rows, in order: each row is reduced against the pivot rows before
    it and kept as a pivot row when it is nonzero in its first ``ncols``
    entries.  No row is reduced once the rank is ``ncols``, since every later
    row would reduce to 0 there.  This is the one loop of :func:`_echelon`
    and :func:`_span_rank`."""
    for row in rows:
        if len(ech) == ncols:
            return
        piv = _pivot(_reduce(row, ech, p, packed), ncols, p, packed)
        if piv:
            ech.append(piv)


def _echelon(field: Field, rows, ncols: int):
    """Forward elimination of raw rows (:func:`_extend_echelon` from an
    empty echelon): ``(ech, packed)``, the (pivot column, pivot row) pairs,
    and whether the pivot rows are packed (a row takes at most as many steps
    as the rank can reach).  Every pivot row is 0 before its pivot column."""
    p = field.p
    if p is None:
        rows = [v for v, _ in _integral(rows)]
    bound = min(len(rows), ncols)
    packed = _packs(p, bound, bound)
    ech = []
    _extend_echelon(ech, rows, ncols, p, packed)
    return ech, packed


def _krylov_relation(field: Field, m_rows, v, n: int):
    """The first linear relation among the Krylov vectors v, M v, M^2 v, ...
    of a raw canonical n-vector v (a list) under an n x n matrix M whose
    rows are ``m_rows``, as :func:`_columns` gives them: ``(coeffs, chain)``
    with raw c_0, ..., c_k, c_k = 1 and c_0 v + ... + c_k M^k v = 0, and the
    chain v, ..., M^(k-1) v.  No vector past M^k v is computed; ``coeffs`` is
    None only when n + 1 vectors reduce to no relation.

    M^k v, as integers over its common denominator d (over GF(p), residues
    with d = 1), is extended to the row [M^k v | d e_k], reduced in at most
    n steps against the pivot rows of the vectors before it and kept as a
    pivot row when its vector part is nonzero, as in :func:`_echelon`; the
    next vector is then one :func:`_raw_products` step.  Once the vector
    part vanishes the rest is a relation: over GF(p) its entry at k is
    still 1, and over the rationals it is divided by that entry.
    """
    p = field.p
    packed = _packs(p, n, n)
    ech, chain = [], []
    for k in range(n + 1):
        w, d = _integral([v])[0] if p is None else (v, 1)
        row = _reduce(w + [0] * k + [d], ech, p, packed)
        piv = _pivot(row, n, p, packed)
        if piv is None:
            return (row[n:] if p is not None else [_rational(x, row[-1]) for x in row[n:]]), chain
        ech.append(piv)
        chain.append(v)
        v = _raw_products(field, [v], m_rows)[0]
    return None, chain


#: The prime modulo which :func:`_span_rank` follows the span of rational
#: vectors: the largest p with 29 p^2 < 2^64, so that up to n = 29 the
#: span's rows pack.
_SPAN_PRIME = 797555399


def _span_rank(field: Field, ech: list, vecs, n: int) -> int:
    """Extend ``ech``, an echelon of n-vectors that the caller keeps (a list,
    empty at first, whose length is its rank), by the raw n-vectors ``vecs``
    and return its rank.

    Over GF(p) the rank is exact.  Over the rationals each vector's integer
    row (:func:`_integral`) is taken modulo the word-size prime q =
    ``_SPAN_PRIME``: scaling a vector keeps its span and Z -> GF(q) is a
    ring map, so a rank of n modulo q is a rank of n over the rationals,
    while a rank short of n says nothing.  Like every kernel here it picks
    its own row format, packed under :func:`_packs` (q, n, n); the echelon
    grows by :func:`_extend_echelon`, which reduces no vector once the rank
    is n.
    """
    p = field.p
    q = _SPAN_PRIME if p is None else p
    if p is None:
        vecs = ([x % q for x in v] for v, _ in _integral(vecs))
    _extend_echelon(ech, vecs, n, q, _packs(q, n, n))
    return len(ech)


def _rref(field: Field, rows, ncols: int):
    """In-place reduced row echelon form on raw rows; returns pivot columns.

    The first ``rank`` rows come out as the canonical pivot rows, the rest
    as zero rows.  The echelon of :func:`_echelon`, sorted by pivot column,
    is back-substituted: each pivot row is reduced against the pivot rows
    after it.  Over the rationals both passes run on integers, and each
    pivot row is divided by its pivot only here (:func:`quadsum.field._rational`).
    """
    p = field.p
    width = len(rows[0]) if rows else 0
    ech, packed = _echelon(field, rows, ncols)
    ech.sort(key=lambda piv: piv[0])
    for i in range(len(ech) - 1, -1, -1):
        c, row = ech[i]
        if packed:
            row = _residues(p, row, width)
        row = _reduce(row, ech[i + 1:], p, packed)
        ech[i] = c, _pack(row) if packed else row
        rows[i] = row if p is not None else [_rational(x, row[c]) for x in row]
    for i in range(len(ech), len(rows)):
        rows[i] = [0] * len(rows[i])
    return [c for c, _ in ech]


def _rank(field: Field, rows, ncols: int) -> int:
    """Rank of raw rows, by forward elimination alone; over the rationals
    no ``Fraction`` is built."""
    return len(_echelon(field, rows, ncols)[0])


def rank(m: Matrix) -> int:
    return _rank(m.field, m.raw_rows(), m.cols)


def kernel_matrix(m: Matrix):
    """``(K, free)``: the canonical kernel basis as the columns of a cols x
    nullity matrix K, and the free coordinates of the reduced echelon form.

    Column j of K sets free coordinate ``free[j]`` to 1 and the others to 0,
    so K is the identity at its free rows and identical inputs give
    identical bases.
    """
    f = m.field
    rows = m.raw_rows()
    pivots = _rref(f, rows, m.cols)
    pivset = set(pivots)
    free = [j for j in range(m.cols) if j not in pivset]
    k = len(free)
    ent = [0] * (m.cols * k)
    for c, j in enumerate(free):
        ent[j * k + c] = 1
        for i, pc in enumerate(pivots):
            ent[pc * k + c] = f.reduce(-rows[i][j])
    return Matrix._raw(f, m.cols, k, ent), free


def inverse(m: Matrix) -> Matrix:
    if not m.is_square:
        raise DimensionMismatch("inverse of a non-square matrix")
    return solve(m, Matrix.identity(m.field, m.rows))


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve a * X = b exactly (free variables set to zero).

    Raises Singular when the system is inconsistent.
    """
    a._check_same_field(b)
    if a.rows != b.rows:
        raise DimensionMismatch("solve: row counts differ")
    f = a.field
    k, c = a.cols, b.cols
    rows = [ar + br for ar, br in zip(a.raw_rows(), b.raw_rows())]
    pivots = _rref(f, rows, k + c)
    if any(pc >= k for pc in pivots):
        raise Singular("inconsistent linear system")
    x = [[0] * c for _ in range(k)]
    for i, pc in enumerate(pivots):
        x[pc] = rows[i][k:]
    return Matrix._raw(f, k, c, [v for row in x for v in row])


# ---- block composition -----------------------------------------------

def _placed(field: Field, n: int, placements) -> Matrix:
    """The one block-placement kernel: the n x n zero matrix with square
    blocks written in, for each ``(block, coords)`` pair entry (i, j) of the
    block at (coords[i], coords[j])."""
    ent = [0] * (n * n)
    for blk, coords in placements:
        for k, x in zip([ci * n + cj for ci in coords for cj in coords], blk._e):
            ent[k] = x
    return Matrix._raw(field, n, n, ent)


def direct_sum(field: Field, blocks) -> Matrix:
    """Block-diagonal assembly of square blocks, each placed at the next
    range of coordinates; the empty sum is 0x0."""
    placements, off = [], 0
    for blk in blocks:
        if blk.field != field:
            raise MixedFields("direct_sum: block field differs")
        if not blk.is_square:
            raise DimensionMismatch("direct_sum: blocks must be square")
        placements.append((blk, range(off, off + blk.rows)))
        off += blk.rows
    return _placed(field, off, placements)


def block2x2(tl: Matrix, tr: Matrix, bl: Matrix, br: Matrix) -> Matrix:
    if tl.rows != tr.rows or bl.rows != br.rows:
        raise DimensionMismatch("block2x2: row heights differ")
    if tl.cols != bl.cols or tr.cols != br.cols:
        raise DimensionMismatch("block2x2: column widths differ")
    f = tl.field
    for m in (tr, bl, br):
        if m.field != f:
            raise MixedFields("block2x2: mixed fields")
    ent = [x for left, right in ((tl, tr), (bl, br))
           for a, b in zip(left.raw_rows(), right.raw_rows()) for x in a + b]
    return Matrix._raw(f, tl.rows + bl.rows, tl.cols + tr.cols, ent)


def jordan_block(field: Field, size: int, eigenvalue=0) -> Matrix:
    """Jordan block with ones on the subdiagonal (matching the companion
    convention used throughout: the block for t^k is C(t^k))."""
    _check_shape(size, size)
    ones = Matrix._raw(field, size, size,
                       [int(i == j + 1) for i in range(size) for j in range(size)])
    return ones._plus_identity(field.value(eigenvalue))

