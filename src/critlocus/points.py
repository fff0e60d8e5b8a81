"""Classical points: matrix triples, cyclicity, plane partitions, oracles.

A point is a triple of n x n rational matrices with an optional marked
vector.  Cyclicity (the stability condition for the Hilbert-scheme chart)
is decided by Krylov saturation; criticality is pairwise commutation
(``MatrixPoint.is_commuting``).

Plane partitions, the finite downward-closed subsets of N^3, index the
torus-fixed points and generate the standard test corpus via multiplication
operators on the monomial basis.  Two independent enumeration strategies
are provided; their agreement is one of the acceptance checks.

``koszul_ext_oracle`` computes Ext dimensions from scratch using the Koszul
complex of the three commuting adjoint operators on End(V), a code path
sharing nothing with the endomorphism model beyond the matrix kernels.  Its
differentials (``_koszul_differentials``) are written straight from
[m, E] = m E - E m, one pass each, over the triple cleared once to int
numerators over one denominator.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

from .complexes import FreeComplex, homology_representatives
from .linalg import DenseMatrix, rref
from .scalars import QQ, RationalField


class MatrixPoint:
    """A triple (X, Y, Z) of n x n matrices with an optional vector v, its
    entries read by ``QQ.of`` (a float or a bool raises TypeError naming
    it).  A point is not changed after it is made."""

    def __init__(self, X, Y, Z, v=None, provenance="manual"):
        self.n = len(X)
        self.X = [[QQ.of(x) for x in row] for row in X]
        self.Y = [[QQ.of(x) for x in row] for row in Y]
        self.Z = [[QQ.of(x) for x in row] for row in Z]
        if self.n == 0:
            raise ValueError("matrices must be at least 1 x 1")
        for m in (self.X, self.Y, self.Z):
            if len(m) != self.n or any(len(row) != self.n for row in m):
                raise ValueError("matrices must be square of equal size")
        self.v = [QQ.of(x) for x in v] if v is not None else None
        if self.v is not None and len(self.v) != self.n:
            raise ValueError("vector length mismatch")
        self.provenance = provenance
        self._commuting = None

    def matrices(self):
        return self.X, self.Y, self.Z

    def is_commuting(self) -> bool:
        """Whether X, Y and Z commute pairwise.  The products run on the
        first call only; later calls read the kept verdict."""
        if self._commuting is None:
            pairs = ((self.X, self.Y), (self.Y, self.Z), (self.Z, self.X))
            self._commuting = all(_commutes(a, b) for a, b in pairs)
        return self._commuting

    def conjugate(self, g) -> "MatrixPoint":
        """The point g X g^-1, g Y g^-1, g Z g^-1 with vector g v, g^-1
        computed from ``g``.  A ``g`` that is not n x n raises ValueError
        naming both shapes, and a singular one ValueError."""
        n = self.n
        check_square("g", g, n)
        g_inv = _invert(g)
        if g_inv is None:
            raise ValueError("conjugating matrix is singular")
        left, right = DenseMatrix.from_rows(g), DenseMatrix.from_rows(g_inv)

        def conj(m):
            c = left.matmul(DenseMatrix(QQ, n, n, m)).matmul(right)
            return [[c.entry(i, j) for j in range(n)] for i in range(n)]

        v = _apply(g, self.v) if self.v is not None else None
        return MatrixPoint(
            conj(self.X), conj(self.Y), conj(self.Z), v, provenance="random-conjugate"
        )

    def to_record(self) -> dict:
        enc = lambda m: [[str(x) for x in row] for row in m]
        rec = {
            "n": self.n,
            "X": enc(self.X),
            "Y": enc(self.Y),
            "Z": enc(self.Z),
            "provenance": self.provenance,
        }
        if self.v is not None:
            rec["v"] = [str(x) for x in self.v]
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "MatrixPoint":
        """The point of a corpus record.  Entries must be exact: rational
        strings or integers, never JSON floats or booleans.  ``n``, when
        present, must be the size of the matrices."""
        dec = lambda m: [[_exact_entry(x) for x in row] for row in m]
        pt = cls(
            dec(rec["X"]),
            dec(rec["Y"]),
            dec(rec["Z"]),
            [_exact_entry(x) for x in rec["v"]] if "v" in rec else None,
            rec.get("provenance", "manual"),
        )
        n = rec.get("n", pt.n)
        if type(n) is not int or n != pt.n:
            raise ValueError(f"n is {n!r} but the matrices are {pt.n} x {pt.n}")
        return pt


def check_square(name: str, m, n: int):
    """Raise ValueError naming both shapes unless the list of rows ``m``
    is n x n."""
    if len(m) != n or any(len(row) != n for row in m):
        cols = "/".join(str(c) for c in sorted({len(row) for row in m})) or "0"
        raise ValueError(f"{name} is {len(m)}x{cols}, expected {n}x{n}")


def _exact_entry(x) -> Fraction:
    """A corpus entry as a Fraction: a rational string or an integer."""
    if type(x) is not int and not isinstance(x, str):
        raise TypeError(f"entry {x!r} is not a rational string or an integer")
    return Fraction(x)


def _commutes(a, b):
    n = len(a)
    a, b = DenseMatrix(QQ, n, n, a), DenseMatrix(QQ, n, n, b)
    return a.matmul(b) == b.matmul(a)


def _apply(m, v):
    n = len(m)
    return [sum(m[i][j] * v[j] for j in range(n)) for i in range(n)]


def _invert(g):
    """Inverse of g read off rref([g | I]), or None when g is singular."""
    n = len(g)
    aug = DenseMatrix.from_rows([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(g)])
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [[red.entry(i, n + j) for j in range(n)] for i in range(n)]


def save_corpus(points, path):
    with open(path, "w") as fh:
        json.dump([p.to_record() for p in points], fh, indent=1, sort_keys=True)


def load_corpus(path):
    """The points of a corpus file; a malformed record raises ValueError
    naming its index."""
    with open(path) as fh:
        records = json.load(fh)
    points = []
    for idx, rec in enumerate(records):
        try:
            points.append(MatrixPoint.from_record(rec))
        except (TypeError, ValueError, KeyError, ZeroDivisionError) as exc:
            raise ValueError(f"point {idx}: {exc!r}") from None
    return points


# -- cyclicity ----------------------------------------------------------------------


def is_cyclic(pt: MatrixPoint) -> bool:
    """Krylov saturation: grow span{v} by X, Y, Z until stable.  The span is
    kept as the pivot rows of an rref, and a row vector r grows by r M^T."""
    if pt.v is None:
        raise ValueError("cyclicity needs a marked vector")
    transposed = [DenseMatrix.from_rows(m).transpose() for m in pt.matrices()]
    span, dim = DenseMatrix.from_rows([pt.v]), 0
    while True:
        red, pivots = rref(span)
        if len(pivots) in (dim, pt.n):
            return len(pivots) == pt.n
        dim = len(pivots)
        basis = red.submatrix(range(dim), range(pt.n))
        span = DenseMatrix.from_blocks([[basis]] + [[basis.matmul(m)] for m in transposed])


# -- plane partitions ---------------------------------------------------------------


def _below(cell):
    """The cells one step below ``cell`` along each axis, inside N^3."""
    a, b, c = cell
    return [p for p in ((a - 1, b, c), (a, b - 1, c), (a, b, c - 1)) if -1 not in p]


class PlanePartition:
    """A finite nonempty downward-closed subset of N^3: every cell one step
    below a cell is a cell."""

    def __init__(self, cells):
        self.cells = frozenset(tuple(c) for c in cells)
        if not self.cells:
            raise ValueError("a plane partition has at least one cell")
        for c in self.cells:
            if len(c) != 3 or any(type(x) is not int or x < 0 for x in c):
                raise ValueError(f"cell {c!r} is not in N^3")
        if not all(self.cells.issuperset(_below(c)) for c in self.cells):
            raise ValueError("cell set is not downward closed")

    def __len__(self):
        return len(self.cells)

    def __eq__(self, other):
        return isinstance(other, PlanePartition) and self.cells == other.cells

    def __hash__(self):
        return hash(self.cells)

    def sorted_cells(self):
        return sorted(self.cells)


def enumerate_partitions(n: int):
    """All plane partitions of size n, by growing along addable cells."""
    if n < 1:
        raise ValueError("size must be positive")
    level = {frozenset({(0, 0, 0)})}
    for _ in range(n - 1):
        level = {s | {c} for s in level for c in _addable_cells(s)}
    return [PlanePartition(s) for s in sorted(level, key=sorted)]


def _addable_cells(s):
    """The cells outside ``s`` whose cells below all lie in ``s``."""
    above = {q for a, b, c in s for q in ((a + 1, b, c), (a, b + 1, c), (a, b, c + 1))}
    return {c for c in above - s if s.issuperset(_below(c))}


def enumerate_partitions_by_heights(n: int):
    """Independent strategy: a plane partition is a height matrix h(a, b),
    weakly decreasing along rows and columns, with total sum n.  Row a is
    a nonempty weakly decreasing row entrywise under row a - 1; each
    partition is built once from its cells, and the list is sorted by
    cells as ``enumerate_partitions`` sorts it."""
    if n < 1:
        raise ValueError("size must be positive")
    parts = []

    def place(cells, a, row, left, above):
        # ``row`` holds the heights of row a so far, ``above`` those of
        # row a - 1 (None for the first row), ``left`` the boxes still due
        if row:
            if not left:
                parts.append(PlanePartition(cells))
                return
            place(cells, a + 1, (), left, row)
        b = len(row)
        cap = min(left, row[-1]) if row else left
        if above is not None:
            cap = min(cap, above[b] if b < len(above) else 0)
        for h in range(1, cap + 1):
            place(cells + [(a, b, c) for c in range(h)], a, row + (h,), left - h, above)

    place([], 0, (), n, None)
    return sorted(parts, key=PlanePartition.sorted_cells)


def point_from_partition(pp: PlanePartition) -> MatrixPoint:
    """Multiplication by x, y, z on the monomial basis of the partition,
    truncated to zero outside; the marked vector is the monomial 1."""
    basis = pp.sorted_cells()
    index = {cell: k for k, cell in enumerate(basis)}
    n = len(basis)

    def mult_op(axis):
        m = [[Fraction(0)] * n for _ in range(n)]
        for cell, k in index.items():
            target = list(cell)
            target[axis] += 1
            tk = index.get(tuple(target))
            if tk is not None:
                m[tk][k] = Fraction(1)
        return m

    v = [Fraction(0)] * n
    v[index[(0, 0, 0)]] = Fraction(1)
    return MatrixPoint(mult_op(0), mult_op(1), mult_op(2), v, provenance="partition")


def nilpotent_regular_point(n: int) -> MatrixPoint:
    """The single-row partition point: X the nilpotent shift, Y = Z = 0."""
    if n < 1:
        raise ValueError("size must be positive")
    pp = PlanePartition({(a, 0, 0) for a in range(n)})
    return point_from_partition(pp)


# -- samplers ------------------------------------------------------------------------


def random_invertible(n, rng):
    while True:
        g = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if DenseMatrix.from_rows(g).rank() == n:
            return g


def random_conjugate_points(n, count, rng):
    """Commuting cyclic points: partition points conjugated by random
    invertible small-integer matrices, plus diagonal points with distinct
    joint eigenvalues."""
    parts = enumerate_partitions(n)
    out = []
    while len(out) < count:
        if rng.random() < 0.25:
            # diagonal triple with distinct eigenvalue triples is cyclic
            triples = set()
            while len(triples) < n:
                triples.add(
                    (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
                )
            triples = sorted(triples)
            diag = lambda vals: [
                [Fraction(vals[i]) if i == j else Fraction(0) for j in range(n)]
                for i in range(n)
            ]
            base = MatrixPoint(
                diag([t[0] for t in triples]),
                diag([t[1] for t in triples]),
                diag([t[2] for t in triples]),
                [Fraction(1)] * n,
                provenance="manual",
            )
        else:
            base = point_from_partition(parts[rng.randrange(len(parts))])
        out.append(base.conjugate(random_invertible(n, rng)))
    return out


# -- the independent Koszul oracle -----------------------------------------------------


def _koszul_differentials(pt: MatrixPoint, field):
    """(d0, d1, d2) of the Koszul complex of ad_X, ad_Y, ad_Z on End(V):
    d0 = [adX; adY; adZ], d1 = [[0, -adZ, adY], [adZ, 0, -adX], [-adY,
    adX, 0]] and d2 = [adX adY adZ], each written in one pass."""
    return _commutator_blocks(pt.matrices(), field, _KOSZUL_LAYOUTS)


# the blocks (a, b, sign, k) of d0, d1 and d2, k indexing (X, Y, Z)
_KOSZUL_LAYOUTS = (
    [(0, 0, 1, 0), (1, 0, 1, 1), (2, 0, 1, 2)],
    [(0, 1, -1, 2), (0, 2, 1, 1), (1, 0, 1, 2), (1, 2, -1, 0), (2, 0, -1, 1), (2, 1, 1, 0)],
    [(0, 0, 1, 0), (0, 1, 1, 1), (0, 2, 1, 2)],
)


def _commutator_blocks(matrices, field, layouts):
    """For each layout, the block matrix whose block (a, b) is ``sign``
    times the matrix of ``[matrices[k], -]`` for each (a, b, sign, k) of the
    layout, the other blocks zero, every block n^2 x n^2.

    The matrices are cleared once to int numerators over the lcm of their
    denominators, so each block matrix is one ``DenseMatrix.from_integers``
    over it; over GF(p) an lcm divisible by p raises ZeroDivisionError, as
    ``PrimeField.of`` does on the entry whose denominator p divides.  The
    rows of [m, -] come from the definition: with E_rs at index r*n + s,
    (m E - E m)_pq is the sum of m_pr E_rq less the sum of E_ps m_sq, so
    row p*n + q holds m_pr at r*n + q and -m_sq at p*n + s, the two meeting
    at p*n + q as m_pp - m_qq."""
    n = len(matrices[0])
    nn = n * n
    den = lcm(*(x.denominator for m in matrices for row in m for x in row))
    if not isinstance(field, RationalField) and den % field.p == 0:
        raise ZeroDivisionError(f"denominator divisible by {field.p}")
    adjoints = []
    for m in matrices:
        ints = [[x.numerator * (den // x.denominator) for x in row] for row in m]
        columns = [[(s, ints[s][q]) for s in range(n) if ints[s][q]] for q in range(n)]
        rows = []
        for p in range(n):
            left = [(r * n, v) for r, v in enumerate(ints[p]) if v]
            for q in range(n):
                row = {rn + q: v for rn, v in left}
                for s, v in columns[q]:
                    j = p * n + s
                    w = row.get(j, 0) - v
                    if w:
                        row[j] = w
                    else:
                        del row[j]
                rows.append(row)
        adjoints.append(rows)
    out = []
    for layout in layouts:
        entries = [
            (a * nn + i, b * nn + j, sign * v)
            for a, b, sign, k in layout
            for i, row in enumerate(adjoints[k])
            for j, v in row.items()
        ]
        shape = [nn * (1 + max(block[t] for block in layout)) for t in (0, 1)]
        out.append(DenseMatrix.from_integers(field, *shape, entries, den))
    return tuple(out)


def koszul_ext_oracle(pt: MatrixPoint, field=QQ) -> dict:
    """Ext dimensions from the Koszul complex of ad_X, ad_Y, ad_Z on End(V),
    with the composition-trace pairing.  Independent of the endomorphism
    model; shares only the dense matrix kernels.
    """
    if not pt.is_commuting():
        raise ValueError("oracle needs a commuting triple")
    n = pt.n
    nn = n * n
    cx = FreeComplex(field, {0: nn, 1: 3 * nn, 2: 3 * nn, 3: nn}, dict(enumerate(_koszul_differentials(pt, field))))
    dims = cx.homology_dims()
    reps = {k: homology_representatives(cx, k) for k in range(4)}
    pair01 = tuple(
        _trace_pairing_rank(reps[k], reps[3 - k], slots, n, field)
        for k, slots in ((0, 1), (1, 3))
    )
    perfect = (
        dims[0] == dims[3]
        and dims[1] == dims[2]
        and pair01[0] == dims[0]
        and pair01[1] == dims[1]
    )
    return {
        "dims": dims,
        "euler": dims[0] - dims[1] + dims[2] - dims[3],
        "pairing_ranks": pair01,
        "pairing_perfect": perfect,
    }


def _trace_pairing_rank(ra, rb, slots, n, field):
    """Rank of the composition-trace pairing between two lists of
    representatives, sparse rows ``{label: value}`` as
    ``homology_representatives`` returns: slot s of one degree pairs with
    slot s of the complementary degree by tr(a b).

    tr(a b) pairs label (p, q) of a slot with label (q, p) of the same slot,
    so the pairing matrix is ra times rb with each slot's labels transposed.
    """
    nn = n * n
    transposed = [s * nn + q * n + p for s in range(slots) for p in range(n) for q in range(n)]
    moved = [{transposed[c]: x for c, x in b.items()} for b in rb]
    m = DenseMatrix.from_sparse(field, len(ra), len(transposed), ra).matmul(
        DenseMatrix.from_sparse(field, len(rb), len(transposed), moved).transpose()
    )
    return m.rank()
