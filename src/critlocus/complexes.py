"""Bounded complexes of finite free modules, symbolic and numeric.

A :class:`FreeComplex` stores a rank per degree and, for each consecutive
pair of degrees, a differential matrix.  Entries are SuperPoly elements
(symbolic complex over a generator table) or field scalars (numeric
complex).  Matrices act on column vectors: the entry at (row, col) is the
coefficient of target basis vector ``row`` in the image of source basis
vector ``col``.

Both matrix types are stored as sparse rows.  A :class:`SymMatrix` keeps
one ``{col: SuperPoly}`` dict of nonzero polynomials per row, as
:class:`~critlocus.linalg.DenseMatrix` keeps nonzero scalars, and like it
is written once: a builder fills row dicts (``add_entry`` adds to one) and
hands them to ``from_sparse``.  Its producers write only nonzero entries,
its readers visit only those, and its product is row-wise, row i being the
sum of a_ik times row k of the right factor, with a constant alone in its
row applied as a scaling.  A product, sum, complex or chain map that mixes
generator tables raises ValueError.  Its ``data`` is a dense copy for
readers outside the package.

Complexes arising as generator-degree presentations of dg modules also
carry *twist* components: matrices from degree k to degree l >= k+2 whose
entries have negative cohomological degree.  For those, the structural
identity is not the bare matrix equation d . d = 0 but the flatness
equation of the twisted differential,

    d(D[a->c]) + sum_b (-1)^((a+1-b)(b+2-c)) D[b->c] . D[a->b]  =  0,

where d differentiates the entries.  ``check_d_squared`` tests the bare
matrix equation (which holds for honest complexes, e.g. anything numeric
or the Koszul presentation of the potential); ``check_flatness`` tests the
twisted identity of a symbolic complex, summing it into one term dict per
entry.  A :class:`ChainMap` joins two symbolic complexes and checks its
squares symbolically, comparing the two sides of each, or at a point.
Setting every negative-degree generator to zero kills the twist
components, so evaluation at a classical point of the critical locus
always produces an honest numeric complex.  Evaluation takes one kind of
point, a ``_Point`` cleared over the matrix's own table, as
``MatrixCdga.point`` makes it.  A matrix that reads no generator evaluates
to the same matrix at every point, so its compiled form builds that matrix
once per field.
"""

from __future__ import annotations

import json
from math import lcm
from typing import Optional

from .linalg import DenseMatrix, back_substitute, eliminate, kernel_basis, product_first_nonzero
from .scalars import QQ, accumulate
from .superpoly import ONE_MONOMIAL, Derivation, GeneratorTable, SuperPoly, add_product, poly_to_text


class SymMatrix:
    """A rows x cols matrix with SuperPoly entries over one generator table,
    stored as sparse rows (see the module docstring).  It is written once
    and then only read, so its compiled form lives as long as it does."""

    __slots__ = ("table", "rows", "cols", "sparse_rows", "_compiled")

    def __init__(self, table: GeneratorTable, rows: int, cols: int, data=None):
        """The zero matrix, or the matrix of dense row-major ``data``, whose
        rows are read as ``from_sparse`` reads them."""
        if data is not None and any(len(r) != cols for r in data):
            raise ValueError("shape mismatch")
        sparse = [{} for _ in range(rows)] if data is None else [dict(enumerate(r)) for r in data]
        self.table, self.rows, self.cols, self.sparse_rows = table, rows, cols, _checked(table, rows, cols, sparse)
        self._compiled = None

    @classmethod
    def from_sparse(cls, table: GeneratorTable, rows: int, cols: int, sparse_rows) -> "SymMatrix":
        """From one ``{col: SuperPoly}`` dict per row; zero polynomials are
        dropped.  A wrong row count, a column outside the matrix or an entry
        over another table raises ValueError."""
        return _sym(table, rows, cols, _checked(table, rows, cols, [dict(row) for row in sparse_rows]))

    @classmethod
    def identity(cls, table, n):
        one = SuperPoly.one(table)
        return _sym(table, n, n, [{i: one} for i in range(n)])

    @property
    def data(self):
        """A dense row-major copy, with a zero polynomial in empty entries."""
        zero = SuperPoly.zero(self.table)
        out = []
        for row in self.sparse_rows:
            dense = [zero] * self.cols
            for j, p in row.items():
                dense[j] = p
            out.append(dense)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SymMatrix)
            and self.table is other.table
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.sparse_rows == other.sparse_rows
        )

    def entry(self, i, j) -> SuperPoly:
        return self.sparse_rows[i].get(j) or SuperPoly.zero(self.table)

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def first_nonzero(self):
        """(row, col, entry) of the first nonzero entry in row-major order,
        or None."""
        for i, row in enumerate(self.sparse_rows):
            if row:
                j = min(row)
                return i, j, row[j]
        return None

    def matmul(self, other: "SymMatrix") -> "SymMatrix":
        """Row-wise: row i is the sum, over the nonzero a_ik, of a_ik times
        row k of ``other``.

        A constant met alone in its row is not multiplied out, as
        ``linalg._product_rows`` treats a one-entry row: a row of ``self``
        whose one entry is a constant c gives c times row k of ``other``
        (its polynomials themselves at c = 1), and a row k of ``other``
        whose one entry is a constant c adds c times a_ik, kept as it is in
        a column that gets no other contribution.  Every other pair of
        entries goes through ``add_product``."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matmul")
        _over(self.table, {other.table})
        out = [{} for _ in range(self.rows)]
        brows = other.sparse_rows
        for row, acc in zip(self.sparse_rows, out):
            if len(row) == 1:
                ((k, a),) = row.items()
                c = _constant(a)
                if c is not None:
                    acc.update(brows[k] if c == 1 else {j: b.scale(c) for j, b in brows[k].items()})
                    continue
            sums, scaled = {}, []
            for k, a in row.items():
                brow = brows[k]
                if len(brow) == 1:
                    ((j, b),) = brow.items()
                    c = _constant(b)
                    if c is not None:
                        scaled.append((j, c, a))
                        continue
                for j, b in brow.items():
                    add_product(sums.setdefault(j, {}), a.terms, b.terms)
            for j, c, a in scaled:
                terms = sums.get(j)
                if terms is None:
                    if j not in acc:
                        acc[j] = a if c == 1 else a.scale(c)
                        continue
                    terms = sums[j] = dict(acc.pop(j).terms)
                accumulate(terms, a.terms.items() if c == 1 else ((m, x * c) for m, x in a.terms.items()))
            for j, terms in sums.items():
                if terms:
                    acc[j] = SuperPoly._of_terms(self.table, terms)
        return _sym(self.table, self.rows, other.cols, out)

    def add(self, other: "SymMatrix") -> "SymMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        _over(self.table, {other.table})
        out = [dict(row) for row in self.sparse_rows]
        for row, acc in zip(other.sparse_rows, out):
            for j, p in row.items():
                add_entry(acc, j, p)
        return _sym(self.table, self.rows, self.cols, out)

    def scale(self, c) -> "SymMatrix":
        return self.map_entries(lambda p: p.scale(c))

    def transpose(self) -> "SymMatrix":
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.sparse_rows):
            for j, p in row.items():
                out[j][i] = p
        return _sym(self.table, self.cols, self.rows, out)

    def map_entries(self, fn) -> "SymMatrix":
        """``fn`` applied to each nonzero entry, zero results dropped.  ``fn``
        must send zero to zero, as a linear map such as
        ``Derivation.apply`` does, since empty entries are not visited."""
        out = [{} for _ in range(self.rows)]
        for row, acc in zip(self.sparse_rows, out):
            for j, p in row.items():
                q = fn(p)
                if q.terms:
                    acc[j] = q
        return _sym(self.table, self.rows, self.cols, out)

    def compiled(self) -> "CompiledMatrix":
        """The compiled form, built on the first call and kept."""
        if self._compiled is None:
            self._compiled = CompiledMatrix(self)
        return self._compiled

    def evaluate(self, point: "_Point", field=QQ) -> DenseMatrix:
        """The numeric matrix at a point cleared over this matrix's table,
        as ``FreeComplex.evaluate_at`` sets it."""
        return self.compiled().evaluate(_point_over(self.table, point), field)


def _sym(table, rows: int, cols: int, sparse_rows) -> SymMatrix:
    """A matrix on rows that hold only nonzero polynomials over ``table``."""
    m = SymMatrix.__new__(SymMatrix)
    m.table, m.rows, m.cols, m.sparse_rows, m._compiled = table, rows, cols, sparse_rows, None
    return m


def _checked(table, rows: int, cols: int, sparse: list) -> list:
    """``sparse`` with its zeros dropped, once ``from_sparse`` accepts it."""
    if len(sparse) != rows:
        raise ValueError("row count mismatch")
    # the table of each entry, None standing for a zero one
    tables = {p.table if p.terms else None for row in sparse for p in row.values()}
    if None in tables:
        tables.discard(None)
        sparse = [{j: p for j, p in row.items() if p.terms} for row in sparse]
    used = set().union(*sparse)
    if used and (min(used) < 0 or max(used) >= cols):
        raise ValueError(f"a column outside range({cols})")
    _over(table, tables)
    return sparse


def _over(table, tables: set):
    """Raise ValueError unless every table in ``tables`` is ``table``."""
    if not tables <= {table}:
        raise ValueError("operands built over different generator tables")


def add_entry(row: dict, j, p: SuperPoly):
    """Add ``p`` to entry ``j`` of the sparse row ``row``: a first
    contribution is stored as it is, a later one added, and a sum that
    cancels clears the entry."""
    q = row.get(j)
    if q is None:
        if p.terms:
            row[j] = p
    elif (s := q + p).terms:
        row[j] = s
    else:
        del row[j]


class CompiledMatrix:
    """The part of a SymMatrix that can be nonzero at a point, in integers.

    A point sets the degree-0 generators to rationals and every other
    generator to zero.  Compiling keeps exactly the monomials that
    ``SuperPoly.evaluate`` does not kill: those with no odd part whose
    generators all have cdeg and fdeg 0.  ``entries`` lists
    (row, col, terms) for the entries with such a monomial, in row-major
    order.  The coefficients are scaled to ints by the lcm ``scale`` of
    their denominators, and ``degree`` is the largest term degree E; a
    term is (coefficient, generators, E - e) for a term of degree e, each
    generator repeated by its exponent.

    At a point cleared to numerators N over one denominator D (see
    ``_Point``), a term contributes c * prod N * D^(E - e), so an entry's
    value is V / (scale * D^E) with V an int, whatever the degrees of its
    terms.  A term vanishes unless its first generator is nonzero, so
    ``by_gen`` lists, per generator, the entries with a term led by it, and
    ``constant`` those with a constant term: a point visits only those
    lists for its nonzero generators, and the constant entries.  With
    ``by_gen`` empty the matrix has degree 0 and does not depend on the
    point: ``fixed`` keeps its value per field, and ``ranks`` the rank of
    that value once ``rank_of`` has decided it, both as long as the matrix
    lives.
    """

    __slots__ = ("rows", "cols", "entries", "scale", "degree", "by_gen", "constant", "fixed", "ranks")

    def __init__(self, m: SymMatrix):
        live = [g.cdeg == 0 and g.fdeg == 0 for g in m.table.gens]
        self.rows = m.rows
        self.cols = m.cols
        # one walk over the terms: the live ones, their denominators and degree
        dens, degree, found = set(), 0, []
        for i, row in enumerate(m.sparse_rows):
            for j in sorted(row):
                terms = []
                for (e, o), c in row[j].terms.items():
                    if o:
                        continue
                    if len(e) == 1:
                        ((k, exp),) = e
                        if not live[k]:
                            continue
                        gens = (k,) * exp
                    elif all(live[k] for k, _ in e):
                        gens = tuple(k for k, exp in e for _ in range(exp))
                    else:
                        continue
                    terms.append((c, gens))
                    if type(c) is not int:
                        dens.add(c.denominator)
                    if len(gens) > degree:
                        degree = len(gens)
                if terms:
                    found.append((i, j, terms))
        self.scale, self.degree = lcm(*dens), degree
        self.entries, self.by_gen, self.constant = [], {}, []
        for n, (i, j, terms) in enumerate(found):
            if not all(gens for _, gens in terms):
                self.constant.append(n)
            for k in {gens[0] for _, gens in terms if gens}:
                self.by_gen.setdefault(k, []).append(n)
            self.entries.append(
                (i, j, tuple((c.numerator * (self.scale // c.denominator), gens, degree - len(gens)) for c, gens in terms))
            )
        self.fixed, self.ranks = {}, {}

    def values(self, point: "_Point"):
        """(row, col, V) of each entry that is nonzero at ``point``, in
        entry order, its value being V / (scale * D^E)."""
        visit = set(self.constant)
        by_gen = self.by_gen
        for k in point.nonzero:
            hit = by_gen.get(k)
            if hit:
                visit.update(hit)
        nums = point.nums
        dpow = [1]
        for _ in range(self.degree):
            dpow.append(dpow[-1] * point.den)
        entries = self.entries
        for n in sorted(visit):
            i, j, terms = entries[n]
            v = 0
            for c, gens, s in terms:
                for k in gens:
                    c *= nums[k]
                if c:
                    v += c * dpow[s]
            if v:
                yield i, j, v

    def evaluate(self, point: "_Point", field) -> DenseMatrix:
        """The matrix over ``field`` at ``point``: the values V over the one
        denominator ``scale * D^E``, handed to ``DenseMatrix.from_integers``
        as they are (over GF(p) a denominator divisible by p raises
        ZeroDivisionError there).  A matrix that reads no generator has
        the same value over ``scale`` at every point: it is built on the
        first call per field and kept in ``fixed``."""
        if self.by_gen:
            den = self.scale * point.den**self.degree
            return DenseMatrix.from_integers(field, self.rows, self.cols, self.values(point), den)
        m = self.fixed.get(field)
        if m is None:
            m = self.fixed[field] = DenseMatrix.from_integers(field, self.rows, self.cols, self.values(point), self.scale)
        return m

    def rank_of(self, value: DenseMatrix) -> int:
        """The rank of ``value``, a matrix that ``evaluate`` returned.  The
        rank of a kept value (see ``evaluate``) is decided once per field."""
        if self.fixed.get(value.field) is not value:
            return value.rank()
        r = self.ranks.get(value.field)
        if r is None:
            r = self.ranks[value.field] = value.rank()
        return r


class FreeComplex:
    """Cohomologically indexed complex of free modules.

    ``ranks``: dict degree -> rank (sparse; missing degrees are rank 0).
    ``diff``:  dict degree k -> matrix for d^k : C^k -> C^(k+1).
    ``twist``: dict (k, l) with l >= k+2 -> matrix of the extra dg-module
               components (empty for honest complexes).
    ``base``:  a GeneratorTable for symbolic complexes, or a scalar field.

    A numeric complex keeps the outcome of its d^2 check and, per degree,
    the forward pass of its differential on a coordinate complement of the
    image (see ``_reduce``), so its homology dimensions and representatives
    eliminate each differential once and multiply differentials only for
    that one check.
    """

    def __init__(self, base, ranks: dict, diff: dict, twist: Optional[dict] = None):
        self.base = base
        self.ranks = {int(k): r for k, r in ranks.items() if _rank(k, r)}
        self.diff = dict(diff)
        self.twist = dict(twist) if twist else {}
        self.symbolic = isinstance(base, GeneratorTable)
        self._steps = {}
        self._d_squared_failures = None
        self._check_shapes()

    def _check_shapes(self):
        for k, r in self.ranks.items():
            if r < 0:
                raise ValueError(f"negative rank {r} at degree {k}")
        for k, m in self.diff.items():
            if m.cols != self.ranks.get(k, 0) or m.rows != self.ranks.get(k + 1, 0):
                raise ValueError(f"differential at degree {k} has wrong shape")
        for (k, l), m in self.twist.items():
            if l < k + 2:
                raise ValueError("twist components must jump at least 2 degrees")
            if m.cols != self.ranks.get(k, 0) or m.rows != self.ranks.get(l, 0):
                raise ValueError(f"twist component {k}->{l} has wrong shape")
        if self.symbolic:
            _over(self.base, {m.table for m in (*self.diff.values(), *self.twist.values())})

    def degrees(self):
        return sorted(self.ranks)

    def rank(self, k: int) -> int:
        return self.ranks.get(k, 0)

    def differential(self, k: int):
        return self.component(k, k + 1)

    def component(self, k: int, l: int):
        """Full differential component from degree k to degree l."""
        m = self.diff.get(k) if l == k + 1 else self.twist.get((k, l))
        if m is not None:
            return m
        if self.symbolic:
            return SymMatrix(self.base, self.rank(l), self.rank(k))
        return DenseMatrix.zero(self.rank(l), self.rank(k), self.base)

    # -- structural checks ---------------------------------------------------

    def check_d_squared(self):
        """Bare matrix check: each composite of consecutive differentials is 0.

        Returns (ok, failures) where failures lists (degree, row, col, entry)
        for the first offending entry of each nonzero composite.  A numeric
        composite is searched by ``product_first_nonzero`` without being
        built.
        """
        failures = []
        degs = self.degrees()
        for k in degs:
            if self.rank(k) and self.rank(k + 1) and self.rank(k + 2):
                a, b = self.differential(k + 1), self.differential(k)
                if self.symbolic:
                    bad = a.matmul(b).first_nonzero()
                else:
                    bad = product_first_nonzero(a, b)
                if bad is not None:
                    failures.append((k, *bad))
        return (not failures), failures

    def check_flatness(self, derivation: Optional[Derivation] = None):
        """Twisted flatness of a symbolic complex: d(D[a->c]) + sum_b
        +-(D[b->c] D[a->b]) = 0.  A numeric complex raises ValueError: its
        check is ``check_d_squared``, to which this reduces for closed
        entries and no twist.  ``derivation`` is the differential of the
        base cdga acting on entries; omit it for closed entries.  The route
        through degree b carries the Koszul sign (-1)^((a+1-b)(b+2-c)) from
        moving entries past each other.

        Each (a, c) sums its identity straight into one term dict per entry
        (i, j), no product or difference matrix being built: every route's
        products through ``add_product``, with the sign folded into the
        left factor, and d of each entry of D[a->c] through
        ``accumulate``.  Returns (ok, failures), failures listing
        (a, c, row, col) for the first nonzero entry of each (a, c) in
        row-major order.
        """
        if not self.symbolic:
            raise ValueError("a numeric complex is checked by check_d_squared, not check_flatness")
        failures = []
        degs = self.degrees()
        for a in degs:
            for c in (c for c in degs if c > a):
                sums = [{} for _ in range(self.rank(c))]
                for b in (b for b in degs if a < b < c):
                    negate = ((a + 1 - b) * (b + 2 - c)) & 1
                    right = self.component(a, b).sparse_rows
                    for row, acc in zip(self.component(b, c).sparse_rows, sums):
                        for k, p in row.items():
                            left = {m: -x for m, x in p.terms.items()} if negate else p.terms
                            for j, q in right[k].items():
                                add_product(acc.setdefault(j, {}), left, q.terms)
                if derivation is not None:
                    for row, acc in zip(self.component(a, c).sparse_rows, sums):
                        for j, p in row.items():
                            accumulate(acc.setdefault(j, {}), derivation.apply(p).terms.items())
                for i, acc in enumerate(sums):
                    bad = [j for j, terms in acc.items() if terms]
                    if bad:
                        failures.append((a, c, i, min(bad)))
                        break
        return (not failures), failures

    # -- evaluation ------------------------------------------------------------

    def evaluate_at(self, point: "_Point", field=QQ) -> "FreeComplex":
        """Set degree-0 generators to scalars, all others to zero.

        ``point`` is a ``_Point`` cleared over this complex's table, as
        ``MatrixCdga.point`` makes it; anything else raises ValueError.
        Every matrix reads its integer numerators through the compiled form
        it keeps (see ``CompiledMatrix``).  Twist components have strictly
        negative entry degrees, so they evaluate to zero and are dropped;
        this is asserted.
        """
        if not self.symbolic:
            raise ValueError("complex is already numeric")
        point = _point_over(self.base, point)
        diff = {k: m.compiled().evaluate(point, field) for k, m in self.diff.items()}
        for m in self.twist.values():
            if next(m.compiled().values(point), None) is not None:
                raise AssertionError("twist component survived evaluation")
        return FreeComplex(field, dict(self.ranks), diff)

    def reduced_mod(self, field) -> "FreeComplex":
        """This numeric complex over QQ read over the prime field ``field``,
        one ``DenseMatrix.reduced_mod`` per differential.  For a complex
        that ``evaluate_at`` built, this is ``evaluate_at`` over ``field``
        at the same point, ZeroDivisionError included, with no second
        evaluation."""
        return FreeComplex(field, dict(self.ranks), {k: m.reduced_mod(field) for k, m in self.diff.items()})

    # -- homology ----------------------------------------------------------------

    def _reduce(self, k: int):
        """(kept, echelon, pivot columns, pivot rows) of degree k, kept
        per complex.

        ``kept`` lists the columns of C^k outside the pivot rows of
        d^(k-1), and d^k is eliminated by ``linalg.eliminate`` on those
        columns alone: the forward echelon (None with no C^(k+1)), its pivot
        columns (positions in ``kept``) and its pivot rows (degree k+1
        coordinates).  The pivot rows J of d^(k-1) are independent rows
        spanning its row space, so an image vector that vanishes on J
        vanishes, and C^k is the image of d^(k-1) plus the coordinates
        outside J.  Given d^2 = 0, d^k on ``kept`` then has the rank of
        d^k and its kernel is a basis of H^k.  Degree k-1 is reduced first.
        """
        step = self._steps.get(k)
        if step is None:
            image = set(self._reduce(k - 1)[3]) if self.rank(k - 1) else ()
            kept = [j for j in range(self.rank(k)) if j not in image]
            if self.rank(k + 1):
                step = (kept, *eliminate(self.differential(k), kept))
            else:
                step = (kept, None, [], [])
            self._steps[k] = step
        return step

    def _require_numeric_complex(self):
        """Raise ValueError unless this is a numeric complex with d^2 = 0;
        ``check_d_squared`` runs on the first call only."""
        if self.symbolic:
            raise ValueError("homology over a polynomial base is out of scope")
        if self._d_squared_failures is None:
            self._d_squared_failures = self.check_d_squared()[1]
        if self._d_squared_failures:
            raise ValueError(f"d^2 != 0 at {self._d_squared_failures[0][:2]}")

    def homology_dims(self) -> dict:
        """dim H^k of a numeric complex: the kept columns of C^k less the
        pivots of the forward pass of d^k on them (see ``_reduce``)."""
        self._require_numeric_complex()
        dims = {}
        for k in self.degrees():
            kept, _, pivots, _ = self._reduce(k)
            dims[k] = len(kept) - len(pivots)
        return dims

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * r for k, r in self.ranks.items())

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> str:
        if not self.symbolic:
            raise ValueError("serialization is for symbolic complexes")
        obj = {
            "degrees": self.degrees()[:1] + self.degrees()[-1:],
            "ranks": {str(k): r for k, r in sorted(self.ranks.items())},
            "differentials": {
                str(k): _matrix_entries(m) for k, m in sorted(self.diff.items())
            },
            "twists": {
                f"{k},{l}": _matrix_entries(m)
                for (k, l), m in sorted(self.twist.items())
            },
        }
        return json.dumps(obj, sort_keys=True)


def homology_representatives(cx: FreeComplex, k: int):
    """Cycle representatives of a basis of H^k of a numeric complex, each a
    sparse row ``{col: value}`` of its nonzero coordinates in C^k.

    They are ``kernel_basis`` of d^k on the kept columns of C^k, the
    coordinates outside the pivot rows of d^(k-1), placed back on C^k (see
    ``FreeComplex._reduce``); with no differential out of degree k they are
    the unit vectors of the kept columns.  Over QQ each is a primitive
    integer vector.  Raises ValueError unless the complex is numeric with
    d^2 = 0, at every degree.
    """
    cx._require_numeric_complex()
    if cx.rank(k) == 0:
        return []
    kept, echelon, pivots, _ = cx._reduce(k)
    if echelon is None:
        return [{j: 1} for j in kept]
    red = back_substitute(echelon, pivots)
    # a reduced echelon form has the kernel of the matrix it reduces
    return [{kept[c]: x for c, x in v.items()} for v in kernel_basis(red, (red, pivots))]


class _Point:
    """A point with its denominators cleared: the degree-0 generators take
    the values ``nums[k] / den``, where ``den`` is the lcm of their
    denominators, and every other generator is 0.  ``nums`` holds one int
    per generator of ``table`` and ``nonzero`` the indices where it is not
    0."""

    __slots__ = ("table", "den", "nums", "nonzero")

    def __init__(self, table: GeneratorTable, values: dict):
        """``values`` maps the index of every degree-0 generator to a Fraction."""
        self.table = table
        self.den = lcm(*(x.denominator for x in values.values()))
        self.nums = [0] * len(table)
        for k, x in values.items():
            self.nums[k] = x.numerator * (self.den // x.denominator)
        self.nonzero = [k for k, n in enumerate(self.nums) if n]


def _point_over(table: GeneratorTable, point) -> _Point:
    """``point`` if it is a ``_Point`` cleared over ``table``, else ValueError."""
    if not (isinstance(point, _Point) and point.table is table):
        raise ValueError("evaluation takes a _Point cleared over the same generator table")
    return point


def _constant(p: SuperPoly):
    """The coefficient of ``p`` if it is a nonzero constant, else None."""
    t = p.terms
    return t.get(ONE_MONOMIAL) if len(t) == 1 else None


def _rank(degree, r) -> int:
    """``r`` if it is an int; anything else, a bool included, raises
    ValueError naming the degree rather than being read as an int."""
    if isinstance(r, bool) or not isinstance(r, int):
        raise ValueError(f"rank {r!r} at degree {degree} is not an integer")
    return r


def _matrix_entries(m: SymMatrix) -> dict:
    return {f"{i},{j}": poly_to_text(p) for i, row in enumerate(m.sparse_rows) for j, p in row.items()}


class ChainMap:
    """A degree-0 map of symbolic complexes, one SymMatrix per degree over
    the source's table; a numeric source or target, or a block over another
    table, raises ValueError.

    ``check_symbolic`` compares the two sides of each square, twist
    components included, and ``check_at_point`` evaluates everything at a
    point.  A block that reads no generator, as the signed permutations of
    the comparison map do, is evaluated and its rank decided once per
    field, through the compiled form it keeps."""

    def __init__(self, source: FreeComplex, target: FreeComplex, blocks: dict):
        if not (source.symbolic and target.symbolic):
            raise ValueError("a chain map is between symbolic complexes")
        self.source = source
        self.target = target
        self.blocks = dict(blocks)
        for k, m in self.blocks.items():
            if m.cols != source.rank(k) or m.rows != target.rank(k):
                raise ValueError(f"block at degree {k} has wrong shape")
        _over(source.base, {m.table for m in self.blocks.values()})

    def block(self, k: int):
        b = self.blocks.get(k)
        if b is not None:
            return b
        return SymMatrix(self.source.base, self.target.rank(k), self.source.rank(k))

    def check_symbolic(self) -> dict:
        """All squares commute, including twist components: for a < c,
        F[c] D_src[a->c] = D_tgt[a->c] F[a].  The two sides are compared as
        they are; a failure names the first (row, col) in row-major order
        where they differ, the first nonzero entry of their difference."""
        report = {"ok": True, "failures": []}
        for a in self.source.degrees():
            for c in (c for c in self.target.degrees() if c > a):
                lhs = self.block(c).matmul(self.source.component(a, c))
                rhs = self.target.component(a, c).matmul(self.block(a))
                if lhs != rhs:
                    i, x, y = next((i, x, y) for i, (x, y) in enumerate(zip(lhs.sparse_rows, rhs.sparse_rows)) if x != y)
                    j = min(j for j in x.keys() | y.keys() if x.get(j) != y.get(j))
                    report["ok"] = False
                    report["failures"].append((a, c, i, j))
        return report

    def check_at_point(self, point: _Point, field=QQ) -> dict:
        """Evaluate both complexes and the blocks, check squares and invertibility.

        ``point`` is a ``_Point`` cleared over the source's table, as for
        ``FreeComplex.evaluate_at``.  Both complexes and every block are
        evaluated at it, each through the compiled form its matrix keeps.
        """
        src = self.source.evaluate_at(point, field)
        tgt = self.target.evaluate_at(point, field)
        report = {"ok": True, "failures": [], "invertible": {}}
        blocks = {}
        for k in set(src.degrees()) | set(tgt.degrees()):
            compiled = self.block(k).compiled()
            blocks[k] = compiled.evaluate(point, field)
            if src.rank(k) == tgt.rank(k) and src.rank(k):
                report["invertible"][k] = compiled.rank_of(blocks[k]) == src.rank(k)
        for k in sorted(blocks):
            if not (src.rank(k) and tgt.rank(k + 1)):
                continue
            lhs = blocks[k + 1].matmul(src.differential(k))
            rhs = tgt.differential(k).matmul(blocks[k])
            if lhs != rhs:
                report["ok"] = False
                report["failures"].append(k)
        report["all_invertible"] = all(report["invertible"].values()) if report["invertible"] else False
        return report
