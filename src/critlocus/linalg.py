"""Exact linear algebra: one elimination routine and one product kernel.

A :class:`DenseMatrix` is a rows x cols matrix over a field from
:mod:`critlocus.scalars`, stored as sparse rows: one ``{col: value}`` dict
per row holding only its nonzero entries.  Every constructor drops zeros,
and every producer below writes only nonzero entries, so the kernels cost
per nonzero entry and never scan a dense row.  ``DenseMatrix.data`` is a
dense row-major copy, filled with the field's ``zero``, for readers that
want one.  Over GF(p) the public constructors and ``set`` reduce each entry
into ``range(p)``, so a multiple of p is dropped as a zero.  A kernel basis
vector or a homology representative is a ``{col: value}`` sparse row too,
ready for ``from_sparse``, which refuses a column outside the matrix.

``_eliminate`` is the only elimination loop in the package.  It turns each
nonzero row into a sparse row ``{col: int}``: over QQ cleared to integers
and kept primitive, so no rational gcd work happens inside it, over GF(p)
a copy of the stored residues.  Columns are taken in increasing order with
the sparsest row holding the column as pivot, and each update touches only
the nonzeros of the two rows involved.  The reduced echelon form is unique,
so the pivot choice never shows in the output.  It has two readers:

* :func:`rref` clears every other row at each pivot (one Gauss-Jordan pass)
  and normalizes the pivot rows at the end, building a Fraction only for
  their nonzero entries.  Kernel bases, solving and row spaces are read off
  it.
* :func:`pivot_columns` clears only the rows below each pivot and returns
  the pivot list of ``rref`` without building any Fraction.  Ranks are read
  off it, and so are homology representatives: a numeric complex keeps the
  ``rref`` of each differential, a cycle of ``kernel_basis`` is fixed by its
  free coordinates (the non-pivot columns of that rref), and
  ``complexes.homology_representatives`` eliminates only the image of the
  previous differential on those coordinates.

:func:`_product_rows` is the one product kernel beside it, and it also has
two readers.  It computes row i of ``a . b`` row-wise (Gustavson, ACM TOMS
1978): the sum, over the nonzero a_ik, of a_ik times row k of b.  Each
nonzero row of b is cleared once, over QQ to integers times a scale (the
lcm of its denominators, the same clearing ``rref`` starts from), over
GF(p) with scale 1.  Each left row becomes integer multipliers: over QQ the
numerator of a_ik times L // (den a_ik * scale_k), where L is the lcm of
those products over the row, so the sum is an integer row over L.  It
yields the nonzero rows in order, with their columns ascending, building
one Fraction per nonzero QQ entry and reducing each GF(p) entry once.

* :meth:`DenseMatrix.matmul` keeps the rows it yields.
* :func:`product_first_nonzero` returns the first entry of the first row,
  or None, without building the rest of the product.  A numeric
  ``d . d = 0`` check reads it; a zero product still has every row
  computed.

Both are exact, so every ``d . d = 0`` check and chain-map square is
decided without rational arithmetic inside the sums.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .scalars import QQ, RationalField


class DenseMatrix:
    """A rows x cols matrix over an exact field, stored as sparse rows."""

    __slots__ = ("field", "rows", "cols", "sparse_rows")

    def __init__(self, field, rows: int, cols: int, data):
        """From dense row-major ``data``; its zero entries are dropped."""
        if len(data) != rows:
            raise ValueError("row count mismatch")
        for row in data:
            if len(row) != cols:
                raise ValueError("column count mismatch")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.sparse_rows = [_nonzero(field, enumerate(row)) for row in data]

    @classmethod
    def from_sparse(cls, field, rows: int, cols: int, sparse_rows) -> "DenseMatrix":
        """From one ``{col: value}`` dict per row.  Over QQ a row is taken
        over (not copied) unless it holds a zero, which is dropped; over
        GF(p) it is reduced.  A column outside the matrix raises ValueError."""
        if len(sparse_rows) != rows:
            raise ValueError("row count mismatch")
        used = set().union(*sparse_rows)
        if used and (min(used) < 0 or max(used) >= cols):
            i = next(i for i, row in enumerate(sparse_rows) if row and (min(row) < 0 or max(row) >= cols))
            raise ValueError(f"row {i} has a column outside range({cols})")
        rational = isinstance(field, RationalField)
        out = [row if rational and all(row.values()) else _nonzero(field, row.items()) for row in sparse_rows]
        return _matrix(field, rows, cols, out)

    @classmethod
    def from_rows(cls, rows, field=QQ) -> "DenseMatrix":
        data = [[field.of(x) for x in row] for row in rows]
        r = len(data)
        c = len(data[0]) if data else 0
        return cls(field, r, c, data)

    @classmethod
    def zero(cls, rows: int, cols: int, field=QQ) -> "DenseMatrix":
        return _matrix(field, rows, cols, [{} for _ in range(rows)])

    @classmethod
    def identity(cls, n: int, field=QQ) -> "DenseMatrix":
        return _matrix(field, n, n, [{i: field.one} for i in range(n)])

    @property
    def data(self):
        """A dense row-major copy, with the field's zero in empty entries.
        Writing to it does not change the matrix; ``set`` does."""
        zero = self.field.zero
        out = []
        for row in self.sparse_rows:
            dense = [zero] * self.cols
            for j, x in row.items():
                dense[j] = x
            out.append(dense)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, DenseMatrix)
            and self.field == other.field
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.sparse_rows == other.sparse_rows
        )

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols} over {self.field})"

    def entry(self, i: int, j: int):
        return self.sparse_rows[i].get(j, self.field.zero)

    def set(self, i: int, j: int, x):
        """Set entry (i, j) to ``x``; a zero ``x`` clears it."""
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.rows}x{self.cols} matrix")
        row = self.sparse_rows[i]
        row.pop(j, None)
        row.update(_nonzero(self.field, [(j, x)]))

    def transpose(self) -> "DenseMatrix":
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.sparse_rows):
            for j, x in row.items():
                out[j][i] = x
        return _matrix(self.field, self.cols, self.rows, out)

    def matmul(self, other: "DenseMatrix") -> "DenseMatrix":
        """The exact product: the rows of :func:`_product_rows`."""
        out = [{} for _ in range(self.rows)]
        for i, row in _product_rows(self, other):
            out[i] = row
        return _matrix(self.field, self.rows, other.cols, out)

    def add(self, other: "DenseMatrix") -> "DenseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        f = self.field
        zero = f.zero
        out = []
        for r, s in zip(self.sparse_rows, other.sparse_rows):
            out.append({j: v for j in r | s if (v := f.add(r.get(j, zero), s.get(j, zero)))})
        return _matrix(f, self.rows, self.cols, out)

    def scale(self, c) -> "DenseMatrix":
        f = self.field
        c = f.of(c)
        out = [{j: v for j, x in row.items() if (v := f.mul(c, x))} for row in self.sparse_rows]
        return _matrix(f, self.rows, self.cols, out)

    def apply_vector(self, v):
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        f = self.field
        out = []
        for row in self.sparse_rows:
            acc = f.zero
            for j, x in row.items():
                acc = f.add(acc, f.mul(x, v[j]))
            out.append(acc)
        return out

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def rank(self) -> int:
        return len(pivot_columns(self))


def _nonzero(field, items) -> dict:
    """The (col, value) pairs ``items`` as a sparse row of the nonzero
    values, over GF(p) reduced into ``range(p)`` first."""
    if isinstance(field, RationalField):
        return {j: x for j, x in items if x}
    p, of = field.p, field.of
    return {j: v for j, x in items if (v := x % p if type(x) is int else of(x))}


def _matrix(field, rows: int, cols: int, sparse_rows) -> DenseMatrix:
    """A matrix on ``sparse_rows`` as they are: for producers whose rows
    hold only nonzero entries (residues over GF(p)) inside the matrix by
    construction."""
    m = DenseMatrix.__new__(DenseMatrix)
    m.field = field
    m.rows = rows
    m.cols = cols
    m.sparse_rows = sparse_rows
    return m


def rref(m: DenseMatrix):
    """Reduced row echelon form.  Returns (new matrix, pivot column list).

    One Gauss-Jordan pass of :func:`_eliminate`, clearing every other row at
    each pivot.  The pivot rows come first and the zero rows after them;
    Fractions are built only for the nonzero entries of the pivot rows.
    """
    f = m.field
    rows, pivots = _eliminate(m, full=True)
    if isinstance(f, RationalField):
        normalized = []
        for row, pc in zip(rows, pivots):
            pv = row[pc]
            normalized.append({j: Fraction(x, pv) for j, x in row.items()})
        rows = normalized
    rows += [{} for _ in range(m.rows - len(pivots))]
    return _matrix(f, m.rows, m.cols, rows), pivots


def pivot_columns(m: DenseMatrix):
    """The pivot columns of ``rref(m)``, by forward elimination alone.

    A column is a pivot exactly when it is not in the span of the columns
    before it, and clearing the rows below each pivot already decides that,
    so this pass touches no row above a pivot and builds no Fraction.
    """
    return _eliminate(m, full=False)[1]


def _eliminate(m: DenseMatrix, full: bool):
    """The one elimination loop.  Returns (pivot rows, pivot columns).

    Each nonzero stored row becomes a sparse row ``{col: int}``: over QQ its
    entries are cleared to integers and made primitive (divided by the gcd
    of its entries), over GF(p) they are copied, being residues already.
    Columns are taken in increasing order.  Every row not yet chosen as a
    pivot has its first entry at or after the current column, so the rows
    holding the column are those that start there, and the sparsest of them
    is the pivot (over GF(p) scaled to 1).  The others, and with ``full``
    the earlier pivot rows, are cleared at the column, each update touching
    only the nonzeros of the two rows.  This leaves the reduced echelon
    form up to the scale of each row, and since that form is unique the
    pivot choice does not change the result.  The pivot rows are returned
    in pivot order.
    """
    p = None if isinstance(m.field, RationalField) else m.field.p
    starts = {}  # first column -> the unchosen rows that start there
    for row in m.sparse_rows:
        if not row:
            continue
        if p is None:
            srow, _ = _integer_row(row)
            g = gcd(*srow.values())
            if g != 1:
                srow = {j: x // g for j, x in srow.items()}
        else:
            srow = dict(row)  # a copy, since the rows are cleared in place
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


def _integer_row(row):
    """A sparse row of rationals times the lcm of their denominators, as
    ``{col: int}``, and that lcm; row spaces are unchanged."""
    ratios = [x.as_integer_ratio() for x in row.values()]
    den = lcm(*[d for _, d in ratios])
    if den == 1:
        return dict(zip(row, [n for n, _ in ratios])), 1
    return dict(zip(row, [n * (den // d) for n, d in ratios])), den


def product_first_nonzero(a: DenseMatrix, b: DenseMatrix):
    """The first nonzero entry of ``a . b`` in row-major order, as
    (row, col, value), or None when the product is zero.  Rows after the
    first nonzero one are not computed; a zero product still has every row
    computed."""
    for i, row in _product_rows(a, b):
        j = next(iter(row))
        return i, j, row[j]
    return None


def _product_rows(a: DenseMatrix, b: DenseMatrix):
    """Yield (i, row) for each nonzero row of ``a . b``, in row order, each
    row a ``{col: value}`` dict of its nonzero entries with the columns
    ascending (see the module docstring)."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch in matmul")
    rational = isinstance(a.field, RationalField)
    if rational:
        # the rows of b that some a_ik meets, cleared once each
        brows, scales = {}, {}
        for k in set().union(*a.sparse_rows):
            if b.sparse_rows[k]:
                brows[k], scales[k] = _integer_row(b.sparse_rows[k])
    else:
        brows = {k: row for k, row in enumerate(b.sparse_rows) if row}
        p = a.field.p
    for i, arow in enumerate(a.sparse_rows):
        ks = [k for k in arow if k in brows]
        if not ks:
            continue
        if rational:
            ratios = [arow[k].as_integer_ratio() for k in ks]
            dens = [d * scales[k] for k, (_, d) in zip(ks, ratios)]
            den = lcm(*dens)
            if den == 1:
                mults = [n for n, _ in ratios]
            else:
                mults = [n * (den // d) for (n, _), d in zip(ratios, dens)]
        else:
            mults = [arow[k] for k in ks]
        terms = zip(ks, mults)
        k, c = next(terms)
        acc = {j: c * y for j, y in brows[k].items()}
        get = acc.get
        for k, c in terms:
            for j, y in brows[k].items():
                acc[j] = get(j, 0) + c * y
        if rational:
            js = sorted(j for j, v in acc.items() if v)
            if js:
                if den == 1:
                    yield i, {j: Fraction(acc[j]) for j in js}
                else:
                    yield i, {j: Fraction(acc[j], den) for j in js}
        else:
            reduced = {j: r for j, v in acc.items() if (r := v % p)}
            if reduced:
                yield i, dict(sorted(reduced.items()))


def kernel_basis(m: DenseMatrix, reduction=None):
    """Basis of the right kernel, as sparse rows ``{col: value}``: for each
    non-pivot column j of ``rref(m)``, one at j and minus column j of the
    rref at the pivot columns.  ``reduction`` is ``rref(m)`` when the
    caller already has it.
    """
    f = m.field
    red, pivots = reduction if reduction is not None else rref(m)
    pivot_set = set(pivots)
    basis = {j: {j: f.one} for j in range(m.cols) if j not in pivot_set}
    for pc, row in zip(pivots, red.sparse_rows):
        for j, x in row.items():
            if j != pc:
                basis[j][pc] = f.neg(x)
    return list(basis.values())


def solve(m: DenseMatrix, b) -> Optional[list]:
    """One exact solution of m x = b, or None if the system is inconsistent."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    f = m.field
    aug = [{**row, m.cols: f.of(x)} for row, x in zip(m.sparse_rows, b)]
    red, pivots = rref(DenseMatrix.from_sparse(f, m.rows, m.cols + 1, aug))
    if m.cols in pivots:
        return None
    x = [f.zero] * m.cols
    for row, pc in zip(red.sparse_rows, pivots):
        x[pc] = row.get(m.cols, f.zero)
    return x


def row_space_basis(m: DenseMatrix):
    red, pivots = rref(m)
    return _matrix(m.field, len(pivots), m.cols, red.sparse_rows[: len(pivots)]).data

