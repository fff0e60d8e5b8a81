"""Exact linear algebra: one elimination routine and the helpers built on it.

Matrices are stored dense and row-major over a field from
:mod:`critlocus.scalars`, but the kernels below cost per nonzero entry, not
per entry.  Every scan of a stored row goes through :func:`_support`, which
skips the field's shared zero (``field.zero``) by identity at C speed and
truth-tests every other entry.  Producers that write ``field.zero`` into
empty entries (``DenseMatrix.zero``, compiled evaluation, the Koszul
oracle, ``rref`` itself) get the fast path; any other zero object is still
found by the truth test, so no result depends on it.

``_eliminate`` is the only elimination loop in the package.  It turns each
nonzero row into a sparse row ``{col: int}``: over QQ cleared to integers
and kept primitive, so no rational gcd work happens inside it, over GF(p)
reduced mod p.  Columns are taken in increasing order with the sparsest row
holding the column as pivot, and each update touches only the nonzeros of
the two rows involved.  The reduced echelon form is unique, so the pivot
choice never shows in the output.  It has two readers:

* :func:`rref` clears every other row at each pivot (one Gauss-Jordan pass)
  and normalizes the pivot rows at the end, densifying only them and
  building a Fraction only for their nonzero entries.  Kernel bases,
  solving and row spaces are read off it.
* :func:`pivot_columns` clears only the rows below each pivot and returns
  the pivot list of ``rref`` without building any Fraction.  Ranks are read
  off it, and so are homology representatives: a numeric complex keeps the
  ``rref`` of each differential, a cycle of ``kernel_basis`` is fixed by its
  free coordinates (the non-pivot columns of that rref), and
  ``complexes.homology_representatives`` eliminates only the image of the
  previous differential on those coordinates.

:func:`_product_entries` is the one product kernel beside it, and it also
has two readers.  It lists each column of the right factor once by its
nonzero rows, their values and a scale: over QQ the values are cleared to
integers by the lcm of their denominators (the same clearing ``rref``
starts from), over GF(p) the scale is 1.  It skips zero rows of the left
factor and all-zero columns of the right one, clears only the nonzero
entries of each left row, takes each entry as one integer dot product over
the column's nonzero rows, and yields the nonzero
entries in row-major order, building one Fraction per nonzero QQ entry and
reducing each GF(p) dot product once.

* :meth:`DenseMatrix.matmul` scatters those entries into a zero matrix.
* :func:`product_first_nonzero` returns the first of them, or None, without
  building the product.  A numeric ``d . d = 0`` check reads it; a zero
  product still has every entry computed.

Both are exact, so every ``d . d = 0`` check and chain-map square is
decided without rational arithmetic inside the sums.

The list-matrix helpers at the end (``mat_mul`` and friends) act on plain
nested lists with any ring entries, such as the SuperPoly matrices of the
symbolic models or the Fraction matrices of classical points.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm
from operator import is_not, mul
from typing import Optional

from .scalars import QQ, RationalField


class DenseMatrix:
    """A rows x cols matrix over an exact field."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows: int, cols: int, data):
        if len(data) != rows:
            raise ValueError("row count mismatch")
        for row in data:
            if len(row) != cols:
                raise ValueError("column count mismatch")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = [list(row) for row in data]

    @classmethod
    def from_rows(cls, rows, field=QQ) -> "DenseMatrix":
        data = [[field.of(x) for x in row] for row in rows]
        r = len(data)
        c = len(data[0]) if data else 0
        return cls(field, r, c, data)

    @classmethod
    def zero(cls, rows: int, cols: int, field=QQ) -> "DenseMatrix":
        z = field.zero
        return cls(field, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int, field=QQ) -> "DenseMatrix":
        m = cls.zero(n, n, field)
        for i in range(n):
            m.data[i][i] = field.one
        return m

    def __eq__(self, other):
        return (
            isinstance(other, DenseMatrix)
            and self.field == other.field
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.data == other.data
        )

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols} over {self.field})"

    def entry(self, i: int, j: int):
        return self.data[i][j]

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(
            self.field,
            self.cols,
            self.rows,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def matmul(self, other: "DenseMatrix") -> "DenseMatrix":
        """The exact product: the entries of :func:`_product_entries`
        scattered into a zero matrix."""
        data = [[self.field.zero] * other.cols for _ in range(self.rows)]
        for i, j, x in _product_entries(self, other):
            data[i][j] = x
        return DenseMatrix(self.field, self.rows, other.cols, data)

    def add(self, other: "DenseMatrix") -> "DenseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        f = self.field
        return DenseMatrix(
            self.field,
            self.rows,
            self.cols,
            [
                [f.add(self.data[i][j], other.data[i][j]) for j in range(self.cols)]
                for i in range(self.rows)
            ],
        )

    def scale(self, c) -> "DenseMatrix":
        f = self.field
        c = f.of(c)
        return DenseMatrix(
            self.field,
            self.rows,
            self.cols,
            [[f.mul(c, x) for x in row] for row in self.data],
        )

    def apply_vector(self, v):
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        f = self.field
        out = []
        for i in range(self.rows):
            acc = f.zero
            row = self.data[i]
            for j in range(self.cols):
                acc = f.add(acc, f.mul(row[j], v[j]))
            out.append(acc)
        return out

    def is_zero(self) -> bool:
        f = self.field
        return all(f.is_zero(x) for row in self.data for x in row)

    def rank(self) -> int:
        return len(pivot_columns(self))


def rref(m: DenseMatrix):
    """Reduced row echelon form.  Returns (new matrix, pivot column list).

    One Gauss-Jordan pass of :func:`_eliminate`, clearing every other row at
    each pivot.  Only the pivot rows are densified; every other entry is the
    field's shared zero.  Fractions are built only for the nonzero entries
    of the pivot rows.
    """
    f = m.field
    zero = f.zero
    rows, pivots = _eliminate(m, full=True)
    rational = isinstance(f, RationalField)
    a = []
    for row, pc in zip(rows, pivots):
        dense = [zero] * m.cols
        pv = row[pc]
        for j, x in row.items():
            dense[j] = Fraction(x, pv) if rational else x
        a.append(dense)
    a += [[zero] * m.cols for _ in range(m.rows - len(pivots))]
    return DenseMatrix(f, m.rows, m.cols, a), pivots


def pivot_columns(m: DenseMatrix):
    """The pivot columns of ``rref(m)``, by forward elimination alone.

    A column is a pivot exactly when it is not in the span of the columns
    before it, and clearing the rows below each pivot already decides that,
    so this pass touches no row above a pivot and builds no Fraction.
    """
    return _eliminate(m, full=False)[1]


def _support(row, zero):
    """The indices of the nonzero entries of ``row``.

    Entries that are the field's shared ``zero`` object are skipped by
    identity at C speed; every other entry is truth-tested, so a zero that
    is another object (``Fraction(0, 7)``) is still dropped.  The result is
    exact for any input; only its cost depends on producers using
    ``field.zero``.  Over GF(p) an unreduced multiple of p is kept, and the
    callers reduce it.
    """
    if zero.__class__ is int:  # GF(p): truth-testing an int runs at C speed
        return list(compress(range(len(row)), row))
    return [j for j in compress(range(len(row)), map(is_not, row, repeat(zero))) if row[j]]


def _eliminate(m: DenseMatrix, full: bool):
    """The one elimination loop.  Returns (pivot rows, pivot columns).

    Each nonzero input row becomes a sparse row ``{col: int}``: over QQ its
    nonzero entries are cleared to integers and made primitive (divided by
    the gcd of its entries), over GF(p) they are reduced mod p; all-zero rows
    are dropped.  Columns are taken in increasing order.  Every row not yet
    chosen as a pivot has its first entry at or after the current column,
    so the rows holding the column are those that start there, and the
    sparsest of them is the pivot (over GF(p) scaled to 1).  The others, and
    with ``full`` the earlier pivot rows, are cleared at the column, each
    update touching only the nonzeros of the two rows.  This leaves the
    reduced echelon form up to the scale of each row, and since that form is
    unique the pivot choice does not change the result.  The pivot rows are
    returned in pivot order.
    """
    f = m.field
    zero = f.zero
    p = None if isinstance(f, RationalField) else f.p
    starts = {}  # first column -> the unchosen rows that start there
    for row in m.data:
        js = _support(row, zero)
        if p is None:
            if not js:
                continue
            ints, _ = _integer_row([row[j] for j in js])
            g = gcd(*ints)
            srow = dict(zip(js, ints if g == 1 else [x // g for x in ints]))
        else:
            srow = {j: v for j in js if (v := row[j] % p)}
            if not srow:
                continue
        starts.setdefault(min(srow), []).append(srow)
    prows, pivots = [], []
    for col in range(m.cols):
        if not starts:
            break
        group = starts.pop(col, None)
        if group is None:
            continue
        prow = min(group, key=len)
        below = [r for r in group if r is not prow]
        if p is not None and prow[col] != 1:
            inv = pow(prow[col], -1, p)
            prow = {j: x * inv % p for j, x in prow.items()}
        for r in below:
            _clear(r, prow, col, p)
            if r:
                starts.setdefault(min(r), []).append(r)
        if full:
            for r in prows:
                if col in r:
                    _clear(r, prow, col, p)
        prows.append(prow)
        pivots.append(col)
    return prows, pivots


def _clear(row, prow, col, p):
    """Clear ``row`` at ``col`` in place with the pivot row ``prow``:
    ``row <- pv * row - c * prow`` made primitive over QQ (p is None),
    ``row <- row - c * prow`` mod p over GF(p), where the pivot entry is 1."""
    c = row[col]
    if p is None:
        pv = prow[col]
        g = gcd(pv, c)
        pv, c = pv // g, c // g
        if pv != 1:
            for j in row:
                row[j] *= pv
        for j, y in prow.items():
            v = row.get(j, 0) - c * y
            if v:
                row[j] = v
            else:
                del row[j]
        if row:
            g = gcd(*row.values())
            if g > 1:
                for j in row:
                    row[j] //= g
    else:
        for j, y in prow.items():
            v = (row.get(j, 0) - c * y) % p
            if v:
                row[j] = v
            else:
                del row[j]


def _integer_row(values):
    """Nonzero rationals times the lcm of their denominators, and that lcm;
    row spaces are unchanged."""
    dens = [x.denominator for x in values]
    den = lcm(*dens)
    if den == 1:
        return [x.numerator for x in values], 1
    return [x.numerator * (den // d) for x, d in zip(values, dens)], den


def product_first_nonzero(a: DenseMatrix, b: DenseMatrix):
    """The first nonzero entry of ``a . b`` in row-major order, as
    (row, col, value), or None when the product is zero.  The product is
    not built; a zero product still has every entry computed."""
    return next(_product_entries(a, b), None)


def _product_entries(a: DenseMatrix, b: DenseMatrix):
    """Yield (i, j, value) for each nonzero entry of ``a . b``, row by row.

    A column of ``b`` is (j, nonzero rows, their values cleared to integers,
    scale), and an entry is one dot product over those rows (see the module
    docstring).  A left row is read through its support: only its nonzero
    entries are cleared, into an integer row that is 0 elsewhere.
    """
    if a.cols != b.rows:
        raise ValueError("shape mismatch in matmul")
    rational = isinstance(a.field, RationalField)
    zero = a.field.zero
    columns = []
    for j, col in enumerate(zip(*b.data)):
        ks = _support(col, zero)
        if ks:
            vs = [col[k] for k in ks]
            columns.append((j, ks, *(_integer_row(vs) if rational else (vs, 1))))
    if not columns:
        return
    p = None if rational else a.field.p
    for i, row in enumerate(a.data):
        js = _support(row, zero)
        if not js:
            continue
        vals = [row[j] for j in js]
        if rational:
            vals, ascale = _integer_row(vals)
        irow = [0] * a.cols
        for j, v in zip(js, vals):
            irow[j] = v
        get = irow.__getitem__
        for j, ks, vs, bscale in columns:
            s = sum(map(mul, map(get, ks), vs))
            if p is not None:
                s %= p
            if s:
                yield i, j, Fraction(s, ascale * bscale) if rational else s


def kernel_basis(m: DenseMatrix, reduction=None):
    """Basis of the right kernel, as a list of column vectors.

    The returned vectors are linearly independent, each is annihilated by m,
    and there are exactly cols - rank(m) of them.  ``reduction`` is
    ``rref(m)`` when the caller already has it.
    """
    f = m.field
    red, pivots = reduction if reduction is not None else rref(m)
    pivot_set = set(pivots)
    free_cols = [j for j in range(m.cols) if j not in pivot_set]
    basis = {}
    for j in free_cols:
        v = basis[j] = [f.zero] * m.cols
        v[j] = f.one
    for pc, row in zip(pivots, red.data):
        for j in _support(row, f.zero):
            if j != pc:
                basis[j][pc] = f.neg(row[j])
    return list(basis.values())


def solve(m: DenseMatrix, b) -> Optional[list]:
    """One exact solution of m x = b, or None if the system is inconsistent."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    f = m.field
    aug = DenseMatrix(
        f, m.rows, m.cols + 1, [m.data[i] + [f.of(b[i])] for i in range(m.rows)]
    )
    red, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [f.zero] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = red.data[r][m.cols]
    return x


def row_space_basis(m: DenseMatrix):
    red, pivots = rref(m)
    return [red.data[r][:] for r in range(len(pivots))]


# -- list-matrix helpers ---------------------------------------------------------


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(p):
            acc = None
            for k in range(m):
                term = a[i][k] * b[k][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_transpose(a):
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]
