"""Exact linear algebra: one elimination routine and one product kernel.

A :class:`DenseMatrix` is a rows x cols matrix over a field from
:mod:`critlocus.scalars`, stored as sparse rows of ints: one ``{col: int}``
dict per row holding only its nonzero entries, and one positive int
``den``.  Over QQ entry (i, j) is ``sparse_rows[i][j] / den``: the ints are
numerators over that one denominator, which need not be reduced, so two
equal matrices may be stored over different dens.  Over GF(p) the ints are
residues in ``range(p)`` and ``den`` is 1.  The stored rows are private to
this module; a value leaves it as a field element (a Fraction over QQ)
through ``entry``, ``data``, ``solve`` and ``product_first_nonzero``.
``DenseMatrix.data`` is a dense row-major copy, filled with the field's
``zero``.  Every constructor drops zeros and every producer below writes
only nonzero entries, so the kernels cost per nonzero entry and never scan
a dense row.  A kernel basis vector or a homology representative is a
``{col: value}`` sparse row, ready for ``from_sparse``, which clears it to
ints and refuses a column outside the matrix; over QQ it is a primitive
integer vector (a multiple of a basis vector is as good a basis vector),
over GF(p) a row of residues.  ``from_integers`` builds a matrix from int
values over one denominator, as point evaluation computes them.

:func:`eliminate` is the only elimination loop in the package.  It copies
each nonzero stored row, over QQ made primitive (divided by the gcd of its
entries; the den does not change a row space), so no rational arithmetic
happens inside it.  Its forward pass takes the columns in increasing order
with the sparsest row holding the column as pivot, and each update
``r <- a * r - c * prow`` touches only the nonzeros of the two rows.  Over
QQ a row is made primitive again when it becomes a pivot, not after each
update (Bareiss, Math. Comp. 1968, removes content only where it pays too);
a row updated so often that its factors pass a bound on their bits is
made primitive before that.  It returns the echelon form it leaves, the
pivot columns and the pivot rows, the rows of the input that pivot, which
are independent and span its row space.  :func:`back_substitute` is the
second pass: on a copy of that echelon it clears each pivot column from
the last pivot up, to the reduced echelon form.  That form is unique, so
the pivot choice never shows in it.

* :func:`rref` runs both passes and takes the reduced form, scaled to one
  den, the lcm of the pivot entries, so each pivot entry reads 1.  Kernel
  bases, solving and row spaces are read off it.
* :func:`pivot_columns` and ``DenseMatrix.rank`` read the forward pass.
* ``complexes.FreeComplex`` keeps the forward pass of each differential
  d^k, on the coordinates of C^k outside the pivot rows of d^(k-1), which
  complement the image of d^(k-1), read in place through the column list
  of :func:`eliminate`: homology dimensions are read off its pivots, and
  representatives off the kernel of its back-substitution.

:func:`_product_rows` is the one product kernel beside it, and it also has
two readers.  It computes row i of ``a . b`` row-wise (Gustavson, ACM TOMS
1978): the sum, over the nonzero a_ik, of a_ik times row k of b.  A row of
``a`` with one nonzero c at k gives c times row k of b, sorted by column
(stored rows need not be column-ascending), with no sums.  Any other row
sums in a dict; the sums are int sums over both fields, over GF(p) each is
reduced once at the end, and a row whose sums are all zero is dropped
before it is sorted, as every row of a passing ``d . d = 0`` check is.
The product's den is ``a.den * b.den``.  It yields the nonzero rows in
order, with their columns ascending.

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
    """A rows x cols matrix over an exact field, stored as sparse int rows
    over one denominator (see the module docstring)."""

    __slots__ = ("field", "rows", "cols", "sparse_rows", "den")

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
        self.sparse_rows, self.den = _cleared(field, [enumerate(row) for row in data])

    @classmethod
    def from_sparse(cls, field, rows: int, cols: int, sparse_rows) -> "DenseMatrix":
        """From one ``{col: value}`` dict of field values per row; zeros are
        dropped.  A column outside the matrix raises ValueError."""
        if len(sparse_rows) != rows:
            raise ValueError("row count mismatch")
        used = set().union(*sparse_rows)
        if used and (min(used) < 0 or max(used) >= cols):
            i = next(i for i, row in enumerate(sparse_rows) if row and (min(row) < 0 or max(row) >= cols))
            raise ValueError(f"row {i} has a column outside range({cols})")
        return _matrix(field, rows, cols, *_cleared(field, [row.items() for row in sparse_rows]))

    @classmethod
    def from_integers(cls, field, rows: int, cols: int, entries, den: int) -> "DenseMatrix":
        """The matrix with value v / den at each (i, j, v) of ``entries``,
        v a nonzero int, den a positive int, no (i, j) twice.

        Over QQ the ints are stored as they are, over ``den``.  Over GF(p)
        den is written p^a * m once, and v is stored as (v / p^a) * m^-1
        mod p; a v that p^a does not divide has a reduced denominator
        divisible by p and raises ZeroDivisionError, as ``PrimeField.of``
        does.  Values that vanish mod p are dropped.
        """
        if den < 1:
            raise ValueError(f"den {den} is not positive")
        out = [{} for _ in range(rows)]
        if isinstance(field, RationalField):
            for i, j, v in entries:
                out[i][j] = v
            return _matrix(field, rows, cols, out, den)
        p = field.p
        pa = 1
        while den % p == 0:
            den //= p
            pa *= p
        inv = pow(den, -1, p)
        for i, j, v in entries:
            if v % pa:
                raise ZeroDivisionError(f"denominator divisible by {p}")
            x = v // pa * inv % p
            if x:
                out[i][j] = x
        return _matrix(field, rows, cols, out)

    @classmethod
    def from_blocks(cls, blocks) -> "DenseMatrix":
        """The block matrix of ``blocks``, a list of block rows over one
        field: the blocks of a block row have one height, and those of a
        block column one width.  Each block's ints are brought to the lcm of
        the blocks' dens; no block row, or an empty one, raises ValueError."""
        if not blocks or not all(blocks):
            raise ValueError("blocks do not fit")
        field = blocks[0][0].field
        widths = [b.cols for b in blocks[0]]
        offsets = [sum(widths[:c]) for c in range(len(widths))]
        den = lcm(*(b.den for row in blocks for b in row))
        out = []
        for row in blocks:
            height = row[0].rows
            if [b.cols for b in row] != widths or any(b.rows != height or b.field != field for b in row):
                raise ValueError("blocks do not fit")
            for i in range(height):
                acc = {}
                for off, b in zip(offsets, row):
                    k = den // b.den
                    for j, x in b.sparse_rows[i].items():
                        acc[off + j] = x * k
                out.append(acc)
        return _matrix(field, len(out), sum(widths), out, den)

    @classmethod
    def from_rows(cls, rows, field=QQ) -> "DenseMatrix":
        return cls(field, len(rows), len(rows[0]) if rows else 0, rows)

    @classmethod
    def zero(cls, rows: int, cols: int, field=QQ) -> "DenseMatrix":
        return _matrix(field, rows, cols, [{} for _ in range(rows)])

    @classmethod
    def identity(cls, n: int, field=QQ) -> "DenseMatrix":
        return _matrix(field, n, n, [{i: 1} for i in range(n)])

    @property
    def data(self):
        """A dense row-major copy, with the field's zero in empty entries.
        Writing to it does not change the matrix; ``set`` does."""
        zero, value = self.field.zero, self._value
        out = []
        for row in self.sparse_rows:
            dense = [zero] * self.cols
            for j, x in row.items():
                dense[j] = value(x)
            out.append(dense)
        return out

    def _value(self, x: int):
        return _element(self.field, self.den, x)

    def __eq__(self, other):
        if not (
            isinstance(other, DenseMatrix)
            and self.field == other.field
            and (self.rows, self.cols) == (other.rows, other.cols)
        ):
            return False
        da, db = self.den, other.den
        if da == db:
            return self.sparse_rows == other.sparse_rows
        for r, s in zip(self.sparse_rows, other.sparse_rows):
            if r.keys() != s.keys() or any(x * db != s[j] * da for j, x in r.items()):
                return False
        return True

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols} over {self.field})"

    def entry(self, i: int, j: int):
        """Entry (i, j); an index outside the matrix raises IndexError."""
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.rows}x{self.cols} matrix")
        x = self.sparse_rows[i].get(j)
        return self.field.zero if x is None else self._value(x)

    def first_nonzero(self):
        """(row, col, value) of the first nonzero entry in row-major order,
        or None."""
        for i, row in enumerate(self.sparse_rows):
            if row:
                j = min(row)
                return i, j, self._value(row[j])
        return None

    def set(self, i: int, j: int, x):
        """Set entry (i, j) to ``x``; a zero ``x`` clears it.  Over QQ a
        denominator that does not divide ``den`` moves the matrix to the lcm
        of the two."""
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.rows}x{self.cols} matrix")
        (row,), den = _cleared(self.field, [[(j, x)]])
        if den != 1 and self.den % den:
            new = lcm(self.den, den)
            k = new // self.den
            self.sparse_rows = [{c: v * k for c, v in r.items()} for r in self.sparse_rows]
            self.den = new
        self.sparse_rows[i].pop(j, None)
        for c, v in row.items():
            self.sparse_rows[i][c] = v * (self.den // den)

    def transpose(self) -> "DenseMatrix":
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.sparse_rows):
            for j, x in row.items():
                out[j][i] = x
        return _matrix(self.field, self.cols, self.rows, out, self.den)

    def submatrix(self, rows, cols) -> "DenseMatrix":
        """Rows ``rows`` of the matrix, in that order, on the columns
        ``cols``, column ``cols[c]`` becoming column c.  Each is a range or a
        list; an index outside the matrix raises IndexError naming it, and a
        repeated column ValueError naming it."""
        _check_indices(rows, self.rows, "row")
        pos = _positions(cols, self.cols)
        out = [{pos[j]: x for j, x in self.sparse_rows[i].items() if j in pos} for i in rows]
        return _matrix(self.field, len(out), len(pos), out, self.den)

    def matmul(self, other: "DenseMatrix") -> "DenseMatrix":
        """The exact product: the rows of :func:`_product_rows`."""
        out = [{} for _ in range(self.rows)]
        for i, row in _product_rows(self, other):
            out[i] = row
        return _matrix(self.field, self.rows, other.cols, out, self.den * other.den)

    def add(self, other: "DenseMatrix") -> "DenseMatrix":
        """The sum, over the lcm of the two dens."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        p = _modulus(self.field)
        den = lcm(self.den, other.den)
        ka, kb = den // self.den, den // other.den
        out = []
        for r, s in zip(self.sparse_rows, other.sparse_rows):
            sums = {j: r.get(j, 0) * ka + s.get(j, 0) * kb for j in r | s}
            if p is not None:
                sums = {j: v % p for j, v in sums.items()}
            out.append({j: v for j, v in sums.items() if v})
        return _matrix(self.field, self.rows, self.cols, out, den)

    def scale(self, c) -> "DenseMatrix":
        f = self.field
        c = f.of(c)
        if not c:
            return DenseMatrix.zero(self.rows, self.cols, f)
        if isinstance(f, RationalField):
            n = c.numerator
            out = [{j: x * n for j, x in row.items()} for row in self.sparse_rows]
            return _matrix(f, self.rows, self.cols, out, self.den * c.denominator)
        out = [{j: x * c % f.p for j, x in row.items()} for row in self.sparse_rows]
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
            out.append(acc if self.den == 1 else f.div(acc, self.den))
        return out

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def rank(self) -> int:
        return len(pivot_columns(self))

    def reduced_mod(self, field) -> "DenseMatrix":
        """This matrix over QQ read over the prime field ``field``, as
        ``from_integers`` reads its stored ints and den."""
        entries = ((i, j, x) for i, row in enumerate(self.sparse_rows) for j, x in row.items())
        return DenseMatrix.from_integers(field, self.rows, self.cols, entries, self.den)


def _check_indices(indices, size: int, what: str):
    """Raise IndexError naming an end of ``indices`` outside range(size)."""
    if not indices:
        return
    for k in (indices[0], indices[-1]) if isinstance(indices, range) else (min(indices), max(indices)):
        if not 0 <= k < size:
            raise IndexError(f"{what} {k} outside range({size})")


def _positions(cols, size: int) -> dict:
    """``{cols[c]: c}`` for a range or list of distinct columns in
    range(size); a column outside it raises IndexError naming it, and a
    repeated column ValueError naming it."""
    _check_indices(cols, size, "column")
    pos = {j: c for c, j in enumerate(cols)}
    if len(pos) != len(cols):
        # pos keeps the last place of a column, so its first place differs
        raise ValueError(f"column {next(j for c, j in enumerate(cols) if pos[j] != c)} repeated")
    return pos


def _element(field, den: int, x: int):
    """The field element of a stored int ``x`` over ``den``: x / den over
    QQ, the residue of x over GF(p)."""
    if isinstance(field, RationalField):
        return Fraction(x, den) if den != 1 else Fraction(x)
    return x % field.p


def _modulus(field):
    """p over GF(p), None over QQ."""
    return None if isinstance(field, RationalField) else field.p


def _cleared(field, rows):
    """Rows of (col, value) pairs as sparse int rows and their den.  Over QQ
    each value is read by ``QQ.of`` (an int is kept) and multiplied by the
    lcm of the denominators; over GF(p) it is reduced into ``range(p)``, over
    den 1.  Zeros are dropped."""
    if not isinstance(field, RationalField):
        p, of = field.p, field.of
        return [{j: v for j, x in items if (v := x % p if type(x) is int else of(x))} for items in rows], 1
    of = QQ.of
    out = [{j: y for j, x in items if (y := x if type(x) is int else of(x))} for items in rows]
    dens = {x.denominator for row in out for x in row.values() if type(x) is not int}
    if not dens:
        return out, 1
    den = lcm(*dens)
    if den == 1:
        return [{j: int(x) for j, x in row.items()} for row in out], 1
    return [{j: x.numerator * (den // x.denominator) for j, x in row.items()} for row in out], den


def _matrix(field, rows: int, cols: int, sparse_rows, den: int = 1) -> DenseMatrix:
    """A matrix on ``sparse_rows`` as they are: for producers whose rows
    hold only nonzero ints (residues over GF(p)) inside the matrix by
    construction."""
    m = DenseMatrix.__new__(DenseMatrix)
    m.field = field
    m.rows = rows
    m.cols = cols
    m.sparse_rows = sparse_rows
    m.den = den
    return m


def rref(m: DenseMatrix):
    """Reduced row echelon form.  Returns (new matrix, pivot column list):
    :func:`eliminate` followed by :func:`back_substitute`."""
    echelon, pivots, _ = eliminate(m)
    return back_substitute(echelon, pivots), pivots


def pivot_columns(m: DenseMatrix):
    """The pivot columns of ``rref(m)``, by the forward pass alone.

    A column is a pivot exactly when it is not in the span of the columns
    before it, and clearing the rows below each pivot already decides that,
    so this pass touches no row above a pivot.
    """
    return eliminate(m)[1]


def eliminate(m: DenseMatrix, cols=None):
    """The forward pass.  Returns (echelon, pivot columns, pivot rows): the
    echelon holds one row per pivot, in pivot order, then zero rows, over
    den 1, and spans the row space of ``m``; pivot row t is the index in
    ``m`` of the row that pivots at the t-th pivot column.  With ``cols``,
    a range or list of distinct columns, it is the forward pass of
    ``m.submatrix(range(m.rows), cols)``, each row read on ``cols`` as it
    is copied, so the pivot columns are positions in ``cols``.

    Each nonzero stored row is copied, over QQ made primitive (divided by
    the gcd of its entries), over GF(p) as it is, being residues already.
    The forward pass takes the columns in increasing order.  Every row not
    yet chosen as a pivot has its first entry at or after the current
    column, so the rows holding the column are those that start there, and
    the sparsest of them is the pivot: over QQ made primitive if it was
    updated since it was copied, over GF(p) scaled to 1.  The others are
    cleared at the column by :func:`_clear`, each update touching only the
    nonzeros of the two rows.  Over QQ an updated row is not made primitive
    again until it becomes a pivot, or until the factors it was multiplied
    by add up to more than ``_GROWTH_BITS`` bits.  Each row stays a
    positive multiple of the row that a gcd after every update would leave,
    with the same support, so neither the pivot choice nor the primitive
    pivot rows depend on when the gcds are taken.  A row is only ever
    changed by adding multiples of pivot rows, so the rows of ``m`` picked
    as pivots are independent and every other row of ``m`` is a combination
    of them.
    """
    p = _modulus(m.field)
    pos = None if cols is None else _positions(cols, m.cols)
    starts = {}  # first column -> the unchosen (index, row) pairs that start there
    for i, row in enumerate(m.sparse_rows):
        if not row:
            continue
        # a copy, since the rows are cleared in place
        if pos is None:
            row = dict(row)
        else:
            row = {pos[j]: x for j, x in row.items() if j in pos}
            if not row:
                continue
        if p is None:
            if len(row) == 1:
                # the primitive form of a one-entry row is its sign
                ((j, x),) = row.items()
                row[j] = 1 if x > 0 else -1
            else:
                _make_primitive(row)
        starts.setdefault(min(row), []).append((i, row))
    # over QQ, input index of a row updated since it was copied -> the bits of
    # the factors a it was multiplied by since it was last made primitive
    grown = {}
    prows, pivots, origins = [], [], []
    width = m.cols if cols is None else len(cols)
    for col in range(width):
        if not starts:
            break
        group = starts.pop(col, None)
        if group is None:
            continue
        chosen = group[0] if len(group) == 1 else min(group, key=lambda pair: len(pair[1]))
        i, prow = chosen
        if p is None:
            if i in grown:
                _make_primitive(prow)
        elif prow[col] != 1:
            inv = pow(prow[col], -1, p)
            prow = {j: x * inv % p for j, x in prow.items()}
        prows.append(prow)
        pivots.append(col)
        origins.append(i)
        if len(group) == 1:
            continue
        pv = prow[col]
        rest = [(j, y) for j, y in prow.items() if j != col]
        for pair in group:
            if pair is chosen:
                continue
            r = pair[1]
            a = _clear(r, col, pv, rest, p)
            if p is None:
                bits = grown.get(pair[0], 0) + abs(a).bit_length()
                if bits > _GROWTH_BITS:
                    _make_primitive(r)
                    bits = 0
                grown[pair[0]] = bits
            if r:
                starts.setdefault(min(r), []).append(pair)
    prows += [{} for _ in range(m.rows - len(pivots))]
    return _matrix(m.field, m.rows, width, prows), pivots, origins


def back_substitute(echelon: DenseMatrix, pivots):
    """The matrix of ``rref(m)`` from ``eliminate(m)``'s echelon and pivot
    columns, which are not changed.

    Each pivot column is cleared in the pivot rows above it, from the last
    pivot back, with the update of :func:`_clear`: a pivot row is used only
    once the later pivots have cleared it, so clearing with it fills in no
    later pivot column, and over QQ it is made primitive just before it is
    used.  That leaves the reduced echelon form up to the scale of each
    row.  Over QQ each primitive pivot row is then multiplied by den / (its
    pivot entry), den being the lcm of the pivot entries, so every pivot
    entry is den and reads 1; no Fraction is built.  The rows keep the
    echelon's order.
    """
    p = _modulus(echelon.field)
    prows = [dict(row) for row in echelon.sparse_rows[: len(pivots)]]
    for t in range(len(prows) - 1, -1, -1):
        prow, col = prows[t], pivots[t]
        if p is None:
            _make_primitive(prow)
        rest = [(j, y) for j, y in prow.items() if j != col]
        for r in prows[:t]:
            if col in r:
                _clear(r, col, prow[col], rest, p)
    den = 1
    if p is None and prows:
        den = lcm(*(row[pc] for row, pc in zip(prows, pivots)))
        for row, pc in zip(prows, pivots):
            k = den // row[pc]
            if k != 1:
                for j in row:
                    row[j] *= k
    prows += [{} for _ in range(echelon.rows - len(pivots))]
    return _matrix(echelon.field, echelon.rows, echelon.cols, prows, den)


# Over QQ a row not yet chosen as a pivot is made primitive again once the
# factors a it was multiplied by, since it last was, add up to more bits
# than this; otherwise the content of a row that many pivots update grows
# with every update.  On the 243 x 171 differentials of four n = 9
# conjugated points (2-core Xeon, Python 3.11) the forward pass took 2.6 s
# with a gcd after every update, 3.3 s with none before the pivot, and
# 1.7 s with this bound, the best of 32 to 1024 bits.
_GROWTH_BITS = 512


def _clear(row, col, pv, rest, p):
    """Clear ``row`` at ``col`` in place with a pivot row whose entry at
    ``col`` is ``pv`` and whose other entries are the (col, int) pairs
    ``rest``: ``row <- a * row - c * prow`` over QQ (p is None), a and c
    being pv and row's entry divided by their gcd, and ``row <- row - c *
    prow`` mod p over GF(p), where pv is 1.  The entry at ``col`` always
    clears, so it is popped; the result is not made primitive.  Returns a,
    1 over GF(p)."""
    c = row.pop(col)
    if p is None:
        g = gcd(pv, c)
        a, c = pv // g, c // g
        if a != 1:
            for j in row:
                row[j] *= a
        for j, y in rest:
            v = row.get(j, 0) - c * y
            if v:
                row[j] = v
            else:
                del row[j]
        return a
    for j, y in rest:
        v = (row.get(j, 0) - c * y) % p
        if v:
            row[j] = v
        else:
            del row[j]
    return 1


def _make_primitive(row):
    """Divide the ints of ``row`` in place by their gcd."""
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g


def product_first_nonzero(a: DenseMatrix, b: DenseMatrix):
    """The first nonzero entry of ``a . b`` in row-major order, as
    (row, col, value), or None when the product is zero.  Rows after the
    first nonzero one are not computed; a zero product still has every row
    computed."""
    for i, row in _product_rows(a, b):
        j = next(iter(row))
        return i, j, _element(a.field, a.den * b.den, row[j])
    return None


def _product_rows(a: DenseMatrix, b: DenseMatrix):
    """Yield (i, row) for each nonzero row of ``a . b``, in row order, each
    row a ``{col: int}`` dict of its nonzero entries, over ``a.den * b.den``,
    with the columns ascending (see the module docstring)."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch in matmul")
    p = _modulus(a.field)
    brows = b.sparse_rows
    for i, arow in enumerate(a.sparse_rows):
        if len(arow) == 1:
            ((k, c),) = arow.items()
            brow = brows[k]
            if brow:
                # c * y is nonzero, mod p too, c and y being nonzero residues
                if p is None:
                    yield i, {j: c * brow[j] for j in sorted(brow)}
                else:
                    yield i, {j: c * brow[j] % p for j in sorted(brow)}
            continue
        acc = {}
        get = acc.get
        for k, c in arow.items():
            for j, y in brows[k].items():
                acc[j] = get(j, 0) + c * y
        if p is None:
            if any(acc.values()):
                yield i, {j: acc[j] for j in sorted(acc) if acc[j]}
        else:
            acc = {j: r for j, v in acc.items() if (r := v % p)}
            if acc:
                yield i, {j: acc[j] for j in sorted(acc)}


def kernel_basis(m: DenseMatrix, reduction=None):
    """Basis of the right kernel, as sparse rows ``{col: value}``: for each
    non-pivot column j of ``rref(m)``, the vector that is 1 at j and minus
    column j of the rref at the pivot columns.  Over QQ it is returned as
    its primitive integer multiple, positive at j: den at j and minus the
    stored ints of column j, divided by their gcd.  ``reduction`` is
    ``rref(m)`` when the caller already has it.
    """
    p = _modulus(m.field)
    red, pivots = reduction if reduction is not None else rref(m)
    pivot_set = set(pivots)
    basis = {j: {j: red.den} for j in range(m.cols) if j not in pivot_set}
    for pc, row in zip(pivots, red.sparse_rows):
        for j, x in row.items():
            if j != pc:
                basis[j][pc] = -x if p is None else -x % p
    if p is None:
        for v in basis.values():
            g = gcd(*v.values())
            if g > 1:
                for j in v:
                    v[j] //= g
    return list(basis.values())


def solve(m: DenseMatrix, b) -> Optional[list]:
    """One exact solution of m x = b, or None if the system is inconsistent."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    f = m.field
    rhs = DenseMatrix(f, m.rows, 1, [[x] for x in b])
    red, pivots = rref(DenseMatrix.from_blocks([[m, rhs]]))
    if m.cols in pivots:
        return None
    x = [f.zero] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = red.entry(r, m.cols)
    return x
