"""Bounded complexes of finite free modules, symbolic and numeric.

A :class:`FreeComplex` stores a rank per degree and, for each consecutive
pair of degrees, a differential matrix.  Entries are SuperPoly elements
(symbolic complex over a generator table) or field scalars (numeric
complex).  Matrices act on column vectors: the entry at (row, col) is the
coefficient of target basis vector ``row`` in the image of source basis
vector ``col``.

Both matrix types are stored as sparse rows.  A :class:`SymMatrix` keeps
one ``{col: SuperPoly}`` dict of nonzero polynomials per row, as
:class:`~critlocus.linalg.DenseMatrix` keeps nonzero scalars; its producers
write only nonzero entries, its readers visit only those, and its product
is row-wise, row i being the sum of a_ik times row k of the right factor.
Its ``data`` is a dense copy for readers outside the package.

Complexes arising as generator-degree presentations of dg modules also
carry *twist* components: matrices from degree k to degree l >= k+2 whose
entries have negative cohomological degree.  For those, the structural
identity is not the bare matrix equation d . d = 0 but the flatness
equation of the twisted differential,

    d(D[a->c]) + sum_b (-1)^((a+1-b)(b+2-c)) D[b->c] . D[a->b]  =  0,

where d differentiates the entries.  ``check_d_squared`` tests the bare
matrix equation (which holds for honest complexes, e.g. anything numeric
or the Koszul presentation of the potential); ``check_flatness`` tests the
twisted identity.  Setting every negative-degree generator to zero kills
the twist components, so evaluation at a classical point of the critical
locus always produces an honest numeric complex.
"""

from __future__ import annotations

import json
from math import lcm
from typing import Optional

from .linalg import DenseMatrix, back_substitute, eliminate, kernel_basis, product_first_nonzero
from .scalars import QQ
from .superpoly import Derivation, GeneratorTable, SuperPoly, add_product, poly_to_text


class SymMatrix:
    """A rows x cols matrix with SuperPoly entries over one generator table,
    stored as sparse rows: one ``{col: SuperPoly}`` dict per row holding
    only its nonzero entries, as ``DenseMatrix`` stores scalars.  Entries
    are changed through ``set`` only, which drops the compiled form."""

    __slots__ = ("table", "rows", "cols", "sparse_rows", "_compiled")

    def __init__(self, table: GeneratorTable, rows: int, cols: int, data=None):
        """The zero matrix, or the matrix of dense row-major ``data`` with its
        zero polynomials dropped."""
        self.table = table
        self.rows = rows
        self.cols = cols
        self._compiled = None
        if data is None:
            self.sparse_rows = [{} for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("shape mismatch")
            self.sparse_rows = [{j: p for j, p in enumerate(r) if p.terms} for r in data]

    @classmethod
    def zero(cls, table, rows, cols):
        return cls(table, rows, cols)

    @classmethod
    def identity(cls, table, n):
        out = cls(table, n, n)
        one = SuperPoly.one(table)
        for i, row in enumerate(out.sparse_rows):
            row[i] = one
        return out

    @property
    def data(self):
        """A dense row-major copy, with a zero polynomial in empty entries.
        Writing to it does not change the matrix; ``set`` does."""
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

    def set(self, i, j, p: SuperPoly):
        """Set entry (i, j) to ``p``; a zero ``p`` clears it."""
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.rows}x{self.cols} matrix")
        self._compiled = None
        if p.terms:
            self.sparse_rows[i][j] = p
        else:
            self.sparse_rows[i].pop(j, None)

    def add_to(self, i, j, p: SuperPoly):
        """Add ``p`` to entry (i, j); a sum that cancels clears it."""
        q = self.sparse_rows[i].get(j)
        self.set(i, j, p if q is None else q + p)

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
        row k of ``other``."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matmul")
        out = SymMatrix(self.table, self.rows, other.cols)
        for row, acc in zip(self.sparse_rows, out.sparse_rows):
            sums = {}
            for k, a in row.items():
                for j, b in other.sparse_rows[k].items():
                    add_product(sums.setdefault(j, {}), a.terms, b.terms)
            for j, terms in sums.items():
                if terms:
                    acc[j] = SuperPoly._of_terms(self.table, terms)
        return out

    def add(self, other: "SymMatrix") -> "SymMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        out = SymMatrix(self.table, self.rows, self.cols)
        out.sparse_rows = [dict(row) for row in self.sparse_rows]
        for i, row in enumerate(other.sparse_rows):
            for j, p in row.items():
                out.add_to(i, j, p)
        return out

    def scale(self, c) -> "SymMatrix":
        return self.map_entries(lambda p: p.scale(c))

    def transpose(self) -> "SymMatrix":
        out = SymMatrix(self.table, self.cols, self.rows)
        for i, row in enumerate(self.sparse_rows):
            for j, p in row.items():
                out.sparse_rows[j][i] = p
        return out

    def map_entries(self, fn) -> "SymMatrix":
        """``fn`` applied to each nonzero entry, zero results dropped.  ``fn``
        must send zero to zero, as a linear map such as
        ``Derivation.apply`` does, since empty entries are not visited."""
        out = SymMatrix(self.table, self.rows, self.cols)
        for row, acc in zip(self.sparse_rows, out.sparse_rows):
            for j, p in row.items():
                q = fn(p)
                if q.terms:
                    acc[j] = q
        return out

    def compiled(self) -> "CompiledMatrix":
        """The compiled form, built on the first call and kept until ``set``."""
        if self._compiled is None:
            self._compiled = CompiledMatrix(self)
        return self._compiled

    def evaluate(self, assignment, field=QQ) -> DenseMatrix:
        """The numeric matrix at a point, as ``FreeComplex.evaluate_at`` sets it."""
        return self.compiled().evaluate(_point_values(self.table, assignment), field)


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
    lists for its nonzero generators, and the constant entries.
    """

    __slots__ = ("rows", "cols", "entries", "scale", "degree", "by_gen", "constant")

    def __init__(self, m: SymMatrix):
        live = [g.cdeg == 0 and g.fdeg == 0 for g in m.table.gens]

        def live_terms(p):
            for (e, o), c in p.terms.items():
                if not o and all(live[k] for k, _ in e):
                    yield c, tuple(k for k, exp in e for _ in range(exp))

        self.rows = m.rows
        self.cols = m.cols
        self.scale = 1
        self.degree = 0
        for row in m.sparse_rows:
            for p in row.values():
                for c, gens in live_terms(p):
                    self.scale = lcm(self.scale, c.denominator)
                    self.degree = max(self.degree, len(gens))
        self.entries = []
        self.by_gen = {}
        self.constant = []
        for i, row in enumerate(m.sparse_rows):
            for j in sorted(row):
                terms = tuple(
                    (c.numerator * (self.scale // c.denominator), gens, self.degree - len(gens))
                    for c, gens in live_terms(row[j])
                )
                if not terms:
                    continue
                n = len(self.entries)
                if not all(gens for _, gens, _ in terms):
                    self.constant.append(n)
                for k in {gens[0] for _, gens, _ in terms if gens}:
                    self.by_gen.setdefault(k, []).append(n)
                self.entries.append((i, j, terms))

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
        ZeroDivisionError there)."""
        den = self.scale * point.den**self.degree
        return DenseMatrix.from_integers(field, self.rows, self.cols, self.values(point), den)


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
        return _zero_matrix(self.base, self.rank(l), self.rank(k))

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
        """Twisted flatness: d(D[a->c]) + sum_b +-(D[b->c] D[a->b]) = 0.

        For numeric complexes, or symbolic ones with closed entries and no
        twist, this reduces to check_d_squared.  ``derivation`` is the
        differential of the base cdga acting on entries; omit it for
        numeric bases.  The route through degree b carries the Koszul sign
        (-1)^((a+1-b)(b+2-c)) from moving entries past each other.
        """
        failures = []
        degs = self.degrees()
        for a in degs:
            for c in (c for c in degs if c > a):
                total = None
                for b in (b for b in degs if a < b < c):
                    prod = self.component(b, c).matmul(self.component(a, b))
                    if ((a + 1 - b) * (b + 2 - c)) & 1:
                        prod = prod.scale(-1)
                    total = prod if total is None else total.add(prod)
                if derivation is not None:
                    dD = self.component(a, c).map_entries(derivation.apply)
                    total = dD if total is None else total.add(dD)
                if total is not None:
                    bad = total.first_nonzero()
                    if bad is not None:
                        failures.append((a, c, bad[0], bad[1]))
        return (not failures), failures

    # -- evaluation ------------------------------------------------------------

    def evaluate_at(self, assignment: dict, field=QQ) -> "FreeComplex":
        """Set degree-0 generators to scalars, all others to zero.

        ``assignment`` maps generator index (or name) to a rational, or is a
        point already cleared by ``_point_values`` or ``MatrixCdga.point``.
        The point's denominators are cleared once, and every matrix reads
        the same integer numerators through the compiled form it keeps (see
        ``CompiledMatrix``).  Twist components have strictly negative entry
        degrees, so they evaluate to zero and are dropped; this is asserted.
        """
        if not self.symbolic:
            raise ValueError("complex is already numeric")
        point = _point_values(self.base, assignment)
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


def _zero_matrix(base, rows: int, cols: int):
    """The zero matrix over a generator table (symbolic) or a scalar field."""
    if isinstance(base, GeneratorTable):
        return SymMatrix.zero(base, rows, cols)
    return DenseMatrix.zero(rows, cols, base)


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


def _point_values(table: GeneratorTable, assignment) -> _Point:
    """``assignment``, keyed by generator name or index, cleared to a
    ``_Point`` over ``table``; a ``_Point`` over ``table`` is returned as it
    is.  Every degree-0 generator must have an exact value.  A key that
    ``GeneratorTable.idx`` refuses raises KeyError naming it; values for
    the other generators are checked to be exact but never enter the
    point."""
    if isinstance(assignment, _Point):
        if assignment.table is not table:
            raise ValueError("point was cleared over another generator table")
        return assignment
    given = {table.idx(k): QQ.of(v) for k, v in assignment.items()}
    values = {}
    for k, g in enumerate(table.gens):
        if g.cdeg == 0 and g.fdeg == 0:
            if k not in given:
                raise KeyError(f"missing assignment for degree-0 generator {g.name}")
            values[k] = given[k]
    return _Point(table, values)


def _rank(degree, r) -> int:
    """``r`` if it is an int; anything else, a bool included, raises
    ValueError naming the degree rather than being read as an int."""
    if isinstance(r, bool) or not isinstance(r, int):
        raise ValueError(f"rank {r!r} at degree {degree} is not an integer")
    return r


def _matrix_entries(m: SymMatrix) -> dict:
    return {f"{i},{j}": poly_to_text(p) for i, row in enumerate(m.sparse_rows) for j, p in row.items()}


class ChainMap:
    """A degree-0 map of complexes, one matrix per degree."""

    def __init__(self, source: FreeComplex, target: FreeComplex, blocks: dict):
        self.source = source
        self.target = target
        self.blocks = dict(blocks)
        for k, m in self.blocks.items():
            if m.cols != source.rank(k) or m.rows != target.rank(k):
                raise ValueError(f"block at degree {k} has wrong shape")

    def block(self, k: int):
        b = self.blocks.get(k)
        if b is not None:
            return b
        return _zero_matrix(self.source.base, self.target.rank(k), self.source.rank(k))

    def check_symbolic(self) -> dict:
        """All squares commute, including twist components."""
        report = {"ok": True, "failures": []}
        for a in self.source.degrees():
            for c in (c for c in self.target.degrees() if c > a):
                lhs = self.block(c).matmul(self.source.component(a, c))
                rhs = self.target.component(a, c).matmul(self.block(a))
                diff = lhs.add(rhs.scale(-1))
                bad = diff.first_nonzero()
                if bad is not None:
                    report["ok"] = False
                    report["failures"].append((a, c, *bad[:2]))
        return report

    def check_at_point(self, assignment: dict, field=QQ) -> dict:
        """Evaluate both complexes and the blocks, check squares and invertibility.

        The point's denominators are cleared once, and both complexes and
        every block are evaluated at that one cleared point, each through
        the compiled form its matrix keeps.
        """
        if self.source.symbolic:
            assignment = _point_values(self.source.base, assignment)
        src = self.source.evaluate_at(assignment, field)
        tgt = self.target.evaluate_at(assignment, field)
        report = {"ok": True, "failures": [], "invertible": {}}
        blocks = {}
        for k in set(src.degrees()) | set(tgt.degrees()):
            b = self.block(k)
            if isinstance(b, SymMatrix):
                b = b.compiled().evaluate(assignment, field)
            blocks[k] = b
            if src.rank(k) == tgt.rank(k) and src.rank(k):
                report["invertible"][k] = b.rank() == src.rank(k)
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
