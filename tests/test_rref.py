"""The shared elimination kernel, checked against independent references.

The endomorphism model and the Koszul oracle both reduce through
``linalg.eliminate``, so their agreement cannot expose a fault in it.  These
tests compare ``rref`` and ``pivot_columns`` with a textbook Gauss-Jordan on
Fractions (or on ints mod p), check the pivot rows ``eliminate`` returns
against the same reference, and check ``homology_representatives`` against
the definition of a homology basis (exact cycles, as many as dim H^k,
independent modulo the image by an incremental span), on small random
complexes and on the Ext complexes of both sides.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import apply_vector, densify, primitive
from critlocus import points
from critlocus.complexes import FreeComplex, homology_representatives
from critlocus.family import endomorphism_model
from critlocus.linalg import DenseMatrix, eliminate, kernel_basis, pivot_columns, product_first_nonzero, rref
from critlocus.points import (
    enumerate_partitions,
    koszul_ext_oracle,
    point_from_partition,
    random_conjugate_points,
)
from critlocus.scalars import DEFAULT_PRIME, GF, QQ
from test_linalg import first_nonzero, naive_matmul, qq_matrices

P = 1048583  # the smallest prime a PrimeField accepts

SETTINGS = settings(max_examples=150, deadline=None)


def naive_rref(rows, ncols, p=None):
    """Textbook Gauss-Jordan: normalize each pivot row, clear its column."""
    if p is None:
        a = [[Fraction(x) for x in row] for row in rows]
        norm, inv = (lambda x: x), (lambda x: 1 / x)
    else:
        a = [[x % p for x in row] for row in rows]
        norm, inv = (lambda x: x % p), (lambda x: pow(x, -1, p))
    pivots = []
    r = 0
    for col in range(ncols):
        for i in range(r, len(a)):
            if a[i][col] != 0:
                break
        else:
            continue
        a[r], a[i] = a[i], a[r]
        s = inv(a[r][col])
        a[r] = [norm(x * s) for x in a[r]]
        for j in range(len(a)):
            if j != r:
                c = a[j][col]
                a[j] = [norm(x - c * y) for x, y in zip(a[j], a[r])]
        pivots.append(col)
        r += 1
    return a, pivots


class GreedySpan:
    """Incremental row-echelon span: ``add`` keeps a vector iff it is new."""

    def __init__(self, field):
        self.field = field
        self.rows = []  # (pivot index, normalized vector)

    def add(self, vec) -> bool:
        f = self.field
        v = list(vec)
        for piv, row in self.rows:
            if not f.is_zero(v[piv]):
                c = v[piv]
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        for i, x in enumerate(v):
            if not f.is_zero(x):
                inv = f.inv(x)
                self.rows.append((i, [f.mul(inv, y) for y in v]))
                self.rows.sort(key=lambda r: r[0])
                return True
        return False


def check_representatives(cx, dims):
    """The representatives of each degree are cycles (exactly), ``dims[k]``
    of them, zero on the pivot rows of d^(k-1), and independent modulo the
    image: a span offered the image columns, then the representatives,
    accepts every representative."""
    f = cx.base
    for k in cx.degrees():
        reps = homology_representatives(cx, k)
        assert len(reps) == dims[k]
        dense = [densify(v, cx.rank(k), f) for v in reps]
        d = cx.differential(k)
        assert all(f.is_zero(x) for v in dense for x in apply_vector(d, v))
        span = GreedySpan(f)
        if cx.rank(k - 1):
            image = set(cx._reduce(k - 1)[3])
            assert not any(j in image for v in reps for j in v)
            b = cx.differential(k - 1).data
            for j in range(cx.rank(k - 1)):
                span.add([row[j] for row in b])
        assert all(span.add(v) for v in dense)


def matrices(entries, max_rows=6, max_cols=7):
    shape = st.tuples(st.integers(0, max_rows), st.integers(0, max_cols))
    return shape.flatmap(
        lambda rc: st.lists(
            st.lists(entries, min_size=rc[1], max_size=rc[1]), min_size=rc[0], max_size=rc[0]
        ).map(lambda rows: (rows, rc[1]))
    )


rationals = st.one_of(st.just(Fraction(0)), st.fractions(-9, 9, max_denominator=6))
# small residues written with unreduced representatives, so rank-deficient
# matrices are common and every entry must be reduced on the way in
unreduced = st.tuples(st.integers(-3, 3), st.integers(-2, 2)).map(lambda t: t[0] + t[1] * P)
small_ints = st.integers(-9, 9)


@SETTINGS
@given(matrices(rationals))
def test_rref_matches_naive_over_qq(mat):
    rows, ncols = mat
    red, pivots = rref(DenseMatrix(QQ, len(rows), ncols, rows))
    ref, ref_pivots = naive_rref(rows, ncols)
    assert pivots == ref_pivots
    assert red.data == ref
    assert all(isinstance(x, Fraction) for row in red.data for x in row)
    assert DenseMatrix(QQ, len(rows), ncols, rows).rank() == len(ref_pivots)


@SETTINGS
@given(matrices(unreduced))
def test_rref_matches_naive_over_gf_p_unreduced_entries(mat):
    rows, ncols = mat
    field = GF(P)
    red, pivots = rref(DenseMatrix(field, len(rows), ncols, rows))
    ref, ref_pivots = naive_rref(rows, ncols, P)
    assert pivots == ref_pivots
    assert red.data == ref
    assert DenseMatrix(field, len(rows), ncols, rows).rank() == len(ref_pivots)


@SETTINGS
@given(matrices(rationals))
def test_pivot_columns_match_naive_over_qq(mat):
    rows, ncols = mat
    assert pivot_columns(DenseMatrix(QQ, len(rows), ncols, rows)) == naive_rref(rows, ncols)[1]


@SETTINGS
@given(matrices(unreduced))
def test_pivot_columns_match_naive_over_gf_p_unreduced_entries(mat):
    rows, ncols = mat
    pivots = pivot_columns(DenseMatrix(GF(P), len(rows), ncols, rows))
    assert pivots == naive_rref(rows, ncols, P)[1]


def check_pivot_rows(m, rows, ncols, p=None):
    """``eliminate`` returns as many distinct pivot rows as pivots, those
    rows of ``m`` have the rank of ``m`` by the reference, and ``rref``,
    which back-substitutes the same pass, keeps its pivot columns."""
    rank = len(naive_rref(rows, ncols, p)[1])
    _, pivots, prows = eliminate(m)
    assert len(set(prows)) == len(prows) == len(pivots) == rank
    assert len(naive_rref([rows[i] for i in prows], ncols, p)[1]) == rank
    assert rref(m)[1] == pivots


@SETTINGS
@given(qq_matrices())
def test_pivot_rows_have_the_rank_over_qq_unreduced_dens(m):
    r, c, rows, a = m
    check_pivot_rows(a, rows, c)


@SETTINGS
@given(matrices(unreduced))
def test_pivot_rows_have_the_rank_over_gf_p_unreduced_entries(mat):
    rows, ncols = mat
    check_pivot_rows(DenseMatrix(GF(P), len(rows), ncols, rows), rows, ncols, P)


def test_multiples_of_p_are_zero():
    field = GF(P)
    m = DenseMatrix(field, 1, 2, [[P, 2 * P]])
    assert m.rank() == 0
    red, pivots = rref(m)
    assert pivots == [] and red.data == [[0, 0]]
    m = DenseMatrix(field, 2, 2, [[P + 1, 3 * P], [2, -P]])
    assert m.rank() == 1
    assert rref(m)[0].data == [[1, 0], [0, 0]]


@SETTINGS
@given(matrices(small_ints))
def test_rref_qq_reduces_to_rref_gf_p(mat):
    # entries |x| <= 9 in at most 6 rows bound every minor by Hadamard's
    # 9^6 * 6^3 < DEFAULT_PRIME, so no pivot minor vanishes mod p and the
    # rational RREF reduces entrywise to the RREF over GF(p)
    rows, ncols = mat
    field = GF(DEFAULT_PRIME)
    red_q, piv_q = rref(DenseMatrix.from_rows(rows) if rows else DenseMatrix(QQ, 0, ncols, []))
    red_p, piv_p = rref(DenseMatrix(field, len(rows), ncols, rows))
    assert piv_q == piv_p
    assert [[field.of(x) for x in row] for row in red_q.data] == red_p.data


def random_complex(rng, field):
    """A numeric complex C^0 -> C^1 -> C^2 with d1 . d0 = 0 by construction:
    d0 factors through a matrix B and d1 through the left annihilator of B."""
    c0, c1, c2, s = (rng.randint(1, 5) for _ in range(4))
    s = min(s, c1)
    entry = lambda: rng.choice([0, 0, 1, -1, 2, -3])
    B = [[entry() for _ in range(s)] for _ in range(c1)]
    R = [[entry() for _ in range(c0)] for _ in range(s)]
    d0 = DenseMatrix.from_rows(B, field).matmul(DenseMatrix.from_rows(R, field))
    left = [densify(v, c1, field) for v in kernel_basis(DenseMatrix.from_rows(B, field).transpose())]
    if left:
        M = [[entry() for _ in range(len(left))] for _ in range(c2)]
        d1 = DenseMatrix.from_rows(M, field).matmul(DenseMatrix.from_rows(left, field))
    else:
        d1 = DenseMatrix.zero(c2, c1, field)
    return FreeComplex(field, {0: c0, 1: c1, 2: c2}, {0: d0, 1: d1})


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_homology_representatives_are_a_homology_basis(seed, over_gf):
    # the dims first: the representatives back-substitute the echelons they leave
    field = GF(P) if over_gf else QQ
    cx = random_complex(random.Random(seed), field)
    check_representatives(cx, cx.homology_dims())


@pytest.mark.parametrize("over_gf", [False, True])
def test_homology_representatives_are_a_homology_basis_on_ext_complexes(over_gf, monkeypatch):
    # the model's and the Koszul oracle's complexes at n=3 (ranks 9, 27, 27,
    # 9), at every partition point and two seeded conjugated points
    field = GF(DEFAULT_PRIME) if over_gf else QQ
    model = endomorphism_model(3)
    pts = [point_from_partition(p) for p in enumerate_partitions(3)]
    pts += random_conjugate_points(3, 2, random.Random(11))
    oracle = []

    def capturing(cx, k):
        if not oracle or oracle[-1] is not cx:
            oracle.append(cx)
        return homology_representatives(cx, k)

    monkeypatch.setattr(points, "homology_representatives", capturing)
    for pt in pts:
        koszul_ext_oracle(pt, field)
    assert len(oracle) == len(pts)
    for cx in [model.evaluate_at(pt.X, pt.Y, pt.Z, field) for pt in pts] + oracle:
        check_representatives(cx, cx.homology_dims())
        for k in range(3):
            # d^k on the coordinates outside the pivot rows of d^(k-1) keeps its rank
            d = cx.differential(k)
            kept = cx._reduce(k)[0]
            assert len(pivot_columns(d.submatrix(range(d.rows), kept))) == len(pivot_columns(d))


@pytest.mark.parametrize("side", ["model", "oracle"])
def test_dims_and_representatives_in_either_order_eliminate_once(side, rref_calls, monkeypatch):
    # dims then representatives, and representatives then dims, on fresh
    # copies of one n=3 complex: each runs one forward pass and one
    # back-substitution per differential (ranks 9, 27, 27, 9), and both
    # orders give the same dims and representatives
    pt = point_from_partition(enumerate_partitions(3)[0])
    if side == "model":
        cx = endomorphism_model(3).evaluate_at(pt.X, pt.Y, pt.Z)
    else:
        oracle = []
        monkeypatch.setattr(points, "homology_representatives", lambda c, k: oracle.append(c) or [])
        koszul_ext_oracle(pt)
        cx = oracle[0]
    r0, r1 = cx.differential(0).rank(), cx.differential(1).rank()
    shapes = [(27, 9), (27, 27 - r0), (9, 27 - r1)]
    results = []
    for dims_first in (True, False):
        fresh = FreeComplex(cx.base, cx.ranks, cx.diff)
        rref_calls.clear()
        if dims_first:
            dims = fresh.homology_dims()
            reps = [homology_representatives(fresh, k) for k in range(4)]
        else:
            reps = [homology_representatives(fresh, k) for k in range(4)]
            dims = fresh.homology_dims()
        assert [(r, c) for kind, r, c in rref_calls if kind == "forward"] == shapes
        assert [(r, c) for kind, r, c in rref_calls if kind == "back"] == shapes
        results.append((dims, reps))
    assert results[0] == results[1]


@pytest.mark.parametrize("over_gf", [False, True])
def test_representatives_are_sparse_rows_without_zeros(over_gf):
    # every degree of the model at the partition points of n=2 (the top
    # degree, with no differential out of it, included) and of random complexes
    field = GF(P) if over_gf else QQ
    model = endomorphism_model(2)
    pts = [point_from_partition(p) for p in enumerate_partitions(2)]
    cxs = [model.evaluate_at(pt.X, pt.Y, pt.Z, field) for pt in pts]
    cxs += [random_complex(random.Random(seed), field) for seed in range(10)]
    kept = 0
    for cx in cxs:
        for k in cx.degrees():
            for v in homology_representatives(cx, k):
                assert type(v) is dict and v
                assert all(0 <= j < cx.rank(k) for j in v)
                if over_gf:
                    assert all(type(x) is int and 0 < x < P for x in v.values())
                else:
                    assert all(type(x) is int and x != 0 for x in v.values())
                kept += 1
    assert kept


# -- zeros of every kind and the pivot choice -------------------------------------------

# Zeros of three kinds: the field's shared zero and fresh zero objects, all
# of which the sparse-row constructor must drop.
mixed_zeros = st.sampled_from(["shared", "fresh", "negated"]).map(
    lambda kind: {"shared": QQ.zero, "fresh": Fraction(0, 7), "negated": -Fraction(0)}[kind]
)
qq_cells = st.one_of(mixed_zeros, mixed_zeros, st.fractions(-9, 9, max_denominator=6))
# 0, unreduced multiples of p and unreduced small residues
gf_cells = st.one_of(
    st.just(0), st.integers(-2, 2).map(lambda t: t * P), unreduced
)


def naive_kernel(rows, ncols, p=None):
    ref, pivots = naive_rref(rows, ncols, p)
    basis = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(int(t == j)) if p is None else int(t == j) for t in range(ncols)]
        for r, pc in enumerate(pivots):
            v[pc] = -ref[r][j] if p is None else -ref[r][j] % p
        basis.append(v)
    return basis


def fast_path_pairs(cells):
    return st.tuples(matrices(cells), st.integers(0, 6)).flatmap(
        lambda t: st.tuples(
            st.just(t[0]),
            st.lists(st.lists(cells, min_size=t[1], max_size=t[1]), min_size=t[0][1], max_size=t[0][1]),
        )
    )


@SETTINGS
@given(fast_path_pairs(qq_cells))
def test_shared_zero_fast_path_never_decides_a_result_over_qq(pair):
    (rows, ncols), right = pair
    m = DenseMatrix(QQ, len(rows), ncols, rows)
    red, pivots = rref(m)
    ref, ref_pivots = naive_rref(rows, ncols)
    assert (red.data, pivots) == (ref, ref_pivots)
    assert pivot_columns(m) == ref_pivots
    assert [densify(v, ncols) for v in kernel_basis(m)] == [primitive(v) for v in naive_kernel(rows, ncols)]
    cols = len(right[0]) if right else 0
    b = DenseMatrix(QQ, ncols, cols, right) if right else DenseMatrix.zero(ncols, cols)
    expected = naive_matmul(rows, b.data, len(rows), ncols, cols)
    assert m.matmul(b).data == expected
    assert product_first_nonzero(m, b) == first_nonzero(expected)


@SETTINGS
@given(fast_path_pairs(gf_cells))
def test_shared_zero_fast_path_never_decides_a_result_over_gf_p(pair):
    (rows, ncols), right = pair
    field = GF(P)
    m = DenseMatrix(field, len(rows), ncols, rows)
    red, pivots = rref(m)
    ref, ref_pivots = naive_rref(rows, ncols, P)
    assert (red.data, pivots) == (ref, ref_pivots)
    assert pivot_columns(m) == ref_pivots
    assert [densify(v, ncols, field) for v in kernel_basis(m)] == naive_kernel(rows, ncols, P)
    cols = len(right[0]) if right else 0
    b = DenseMatrix(field, ncols, cols, right) if right else DenseMatrix.zero(ncols, cols, field)
    expected = naive_matmul(rows, b.data, len(rows), ncols, cols, P)
    assert m.matmul(b).data == expected
    assert product_first_nonzero(m, b) == first_nonzero(expected)


@SETTINGS
@given(matrices(rationals, max_rows=7), st.randoms(use_true_random=False), st.booleans())
def test_row_order_does_not_change_rref(mat, rng, over_gf):
    # the pivot at each column is the sparsest row holding it, so a row
    # permutation changes which rows pivot but not the unique reduced form
    rows, ncols = mat
    field = GF(P) if over_gf else QQ
    rows = [[field.of(x) for x in row] for row in rows]
    shuffled = rows[:]
    rng.shuffle(shuffled)
    a = DenseMatrix(field, len(rows), ncols, rows)
    b = DenseMatrix(field, len(rows), ncols, shuffled)
    assert rref(a) == rref(b)
    assert pivot_columns(a) == pivot_columns(b) == rref(a)[1]


@pytest.mark.parametrize("field", [QQ, GF(P)], ids=["QQ", "GF(p)"])
def test_sparsest_pivot_row_gives_the_first_rows_rref(field):
    # the second row is the sparser one holding column 0, so it pivots there
    rows = [[1, 1, 1], [2, 0, 0], [0, 3, 3]]
    red, pivots = rref(DenseMatrix.from_rows(rows, field))
    assert pivots == [0, 1]
    assert red == DenseMatrix.from_rows([[1, 0, 0], [0, 1, 1], [0, 0, 0]], field)
    assert red.data[2][0] is field.zero
