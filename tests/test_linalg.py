import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import densify, primitive
from critlocus.linalg import (
    DenseMatrix,
    back_substitute,
    eliminate,
    kernel_basis,
    product_first_nonzero,
    rref,
    solve,
)
from critlocus.scalars import DEFAULT_PRIME, GF, QQ


def test_rank_zero_matrix():
    assert DenseMatrix.zero(3, 3).rank() == 0


def test_rank_identity():
    for n in (1, 2, 5):
        assert DenseMatrix.identity(n).rank() == n


def test_rank_dependent_rows():
    # second row is twice the first, hand row-reduction gives rank 1
    m = DenseMatrix.from_rows([[1, 2], [2, 4]])
    assert m.rank() == 1


def test_rank_rational_entries():
    m = DenseMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])
    assert m.rank() == 1


def test_kernel_identity_empty():
    assert kernel_basis(DenseMatrix.identity(2)) == []


def test_kernel_zero_full():
    basis = kernel_basis(DenseMatrix.zero(2, 3))
    assert len(basis) == 3


def test_kernel_one_equation():
    (v,) = kernel_basis(DenseMatrix.from_rows([[1, 1]]))
    # proportional to (1, -1)
    assert v[0] == -v[1] != 0


def test_kernel_members_annihilated():
    rng = random.Random(7)
    for _ in range(20):
        m = DenseMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(5)] for _ in range(3)]
        )
        for v in kernel_basis(m):
            assert all(x == 0 for x in m.apply_vector(densify(v, 5)))
        assert len(kernel_basis(m)) == 5 - m.rank()


def test_solve_identity():
    m = DenseMatrix.identity(3)
    assert solve(m, [1, 2, 3]) == [1, 2, 3]


def test_solve_inconsistent():
    m = DenseMatrix.zero(2, 2)
    assert solve(m, [1, 0]) is None


def test_solve_scalar_division():
    assert solve(DenseMatrix.from_rows([[2]]), [3]) == [Fraction(3, 2)]


def test_solve_roundtrip_random():
    rng = random.Random(11)
    for _ in range(20):
        m = DenseMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(4)] for _ in range(3)]
        )
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)]
        b = m.apply_vector(x)
        x2 = solve(m, b)
        assert x2 is not None
        assert m.apply_vector(x2) == b


def test_rank_agrees_mod_p():
    # rank over QQ equals rank over F_p for all but finitely many p
    rng = random.Random(5)
    primes = [DEFAULT_PRIME, 1048583, 2097169]
    fields = [GF(p) for p in primes]
    agree = 0
    total = 200
    for _ in range(total):
        rows = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(6)]
        rq = DenseMatrix.from_rows(rows).rank()
        if all(DenseMatrix.from_rows(rows, f).rank() == rq for f in fields):
            agree += 1
    assert agree >= 198


def test_kernel_plus_row_space_spans():
    rng = random.Random(3)
    for _ in range(10):
        m = DenseMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)]
        )
        ker = [densify(v, 5) for v in kernel_basis(m)]
        red, pivots = rref(m)
        rows = [[red.entry(i, j) for j in range(5)] for i in range(len(pivots))]
        stacked = DenseMatrix.from_rows(ker + rows) if ker or rows else None
        assert stacked is not None
        assert stacked.rank() == 5


def test_prime_field_arithmetic():
    f = GF(DEFAULT_PRIME)
    a = f.of(Fraction(2, 3))
    assert f.mul(a, f.of(3)) == f.of(2)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_bad_prime_rejected():
    with pytest.raises(ValueError):
        GF(1048576)  # not prime
    with pytest.raises(ValueError):
        GF(97)  # too small


# -- the product kernel ------------------------------------------------------------

P = 1048583  # the smallest prime a PrimeField accepts


def naive_matmul(a, b, rows, inner, cols, p=None):
    """Textbook triple loop on Fractions (or on ints, reduced mod p at the end)."""
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = Fraction(0) if p is None else 0
            for k in range(inner):
                acc += a[i][k] * b[k][j]
            row.append(acc if p is None else acc % p)
        out.append(row)
    return out


def factor_pairs(entries):
    """(shape, left rows, right rows) for a rows x inner times inner x cols product."""

    def grid(r, c):
        return st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)

    shapes = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
    return shapes.flatmap(lambda d: st.tuples(st.just(d), grid(d[0], d[1]), grid(d[1], d[2])))


# mixed denominators, so rows and columns clear to integers by different scales
mixed_rationals = st.one_of(st.just(Fraction(0)), st.fractions(-9, 9, max_denominator=12))
# unreduced and negative representatives of small residues
unreduced_ints = st.tuples(st.integers(-4, 4), st.integers(-2, 2)).map(lambda t: t[0] + t[1] * P)


@settings(max_examples=150, deadline=None)
@given(factor_pairs(mixed_rationals))
def test_matmul_matches_triple_loop_over_qq(pair):
    (r, k, c), a, b = pair
    prod = DenseMatrix(QQ, r, k, a).matmul(DenseMatrix(QQ, k, c, b))
    assert (prod.rows, prod.cols) == (r, c)
    assert prod.data == naive_matmul(a, b, r, k, c)
    assert all(isinstance(x, Fraction) for row in prod.data for x in row)


@settings(max_examples=150, deadline=None)
@given(factor_pairs(unreduced_ints))
def test_matmul_matches_triple_loop_over_gf_p(pair):
    (r, k, c), a, b = pair
    field = GF(P)
    prod = DenseMatrix(field, r, k, a).matmul(DenseMatrix(field, k, c, b))
    assert (prod.rows, prod.cols) == (r, c)
    assert prod.data == naive_matmul(a, b, r, k, c, P)
    assert all(0 <= x < P for row in prod.data for x in row)


@pytest.mark.parametrize("field", [QQ, GF(P)], ids=["QQ", "GF(p)"])
@pytest.mark.parametrize("r,k,c", [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (3, 0, 0)])
def test_matmul_empty_shapes(field, r, k, c):
    a = DenseMatrix(field, r, k, [[field.one] * k for _ in range(r)])
    b = DenseMatrix(field, k, c, [[field.one] * c for _ in range(k)])
    assert a.matmul(b) == DenseMatrix.zero(r, c, field)


def first_nonzero(rows):
    return next(((i, j, x) for i, row in enumerate(rows) for j, x in enumerate(row) if x), None)


def sparse_pairs(entries, zero):
    """Mostly-zero factor pairs, with whole zero rows of the left factor and
    whole zero columns of the right one; dimensions may be 0."""

    def grid(r, c):
        cells = st.one_of(st.just(zero), st.just(zero), st.just(zero), entries)
        return st.lists(st.lists(cells, min_size=c, max_size=c), min_size=r, max_size=r)

    def blank(d):
        (r, k, c), a, b = d
        return st.tuples(st.sets(st.integers(0, max(r - 1, 0))), st.sets(st.integers(0, max(c - 1, 0)))).map(
            lambda z: (
                (r, k, c),
                [[zero] * k if i in z[0] else row for i, row in enumerate(a)],
                [[zero if j in z[1] else x for j, x in enumerate(row)] for row in b],
            )
        )

    shapes = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
    return shapes.flatmap(lambda d: st.tuples(st.just(d), grid(d[0], d[1]), grid(d[1], d[2]))).flatmap(blank)


@settings(max_examples=200, deadline=None)
@given(sparse_pairs(mixed_rationals, Fraction(0)))
def test_product_first_nonzero_matches_triple_loop_over_qq(pair):
    (r, k, c), a, b = pair
    expected = naive_matmul(a, b, r, k, c)
    got = product_first_nonzero(DenseMatrix(QQ, r, k, a), DenseMatrix(QQ, k, c, b))
    assert got == first_nonzero(expected)
    assert got is None or isinstance(got[2], Fraction)
    assert DenseMatrix(QQ, r, k, a).matmul(DenseMatrix(QQ, k, c, b)).data == expected


@settings(max_examples=200, deadline=None)
@given(sparse_pairs(unreduced_ints, 0))
def test_product_first_nonzero_matches_triple_loop_over_gf_p(pair):
    (r, k, c), a, b = pair
    field = GF(P)
    expected = naive_matmul(a, b, r, k, c, P)
    got = product_first_nonzero(DenseMatrix(field, r, k, a), DenseMatrix(field, k, c, b))
    assert got == first_nonzero(expected)
    assert got is None or 0 < got[2] < P
    assert DenseMatrix(field, r, k, a).matmul(DenseMatrix(field, k, c, b)).data == expected


@pytest.mark.parametrize("field", [QQ, GF(P)], ids=["QQ", "GF(p)"])
def test_product_first_nonzero_rejects_shape_mismatch(field):
    with pytest.raises(ValueError, match="shape mismatch"):
        product_first_nonzero(DenseMatrix.zero(2, 3, field), DenseMatrix.zero(2, 3, field))


def test_matrix_equality_compares_shape():
    assert DenseMatrix.zero(0, 3) != DenseMatrix.zero(0, 5)
    assert DenseMatrix.zero(3, 0) != DenseMatrix.zero(5, 0)
    assert DenseMatrix.zero(0, 3) == DenseMatrix.zero(0, 3)
    assert DenseMatrix.zero(2, 2) != DenseMatrix.zero(2, 2, GF(P))


@settings(max_examples=100, deadline=None)
@given(sparse_pairs(mixed_rationals, Fraction(0)))
def test_kernel_basis_reads_the_negated_rref_columns(pair):
    (r, k, _), a, _ = pair
    m = DenseMatrix(QQ, r, k, a)
    red, pivots = rref(m)
    free = [j for j in range(k) if j not in pivots]
    basis = kernel_basis(m)
    assert len(basis) == len(free)
    for j, v in zip(free, basis):
        expected = [Fraction(int(t == j)) for t in range(k)]
        for row, pc in enumerate(pivots):
            expected[pc] = -red.data[row][j]
        assert densify(v, k) == primitive(expected)
        assert v[j] > 0 and all(type(x) is int for x in v.values())


@pytest.mark.parametrize("field", [QQ, GF(P)], ids=["QQ", "GF(p)"])
@pytest.mark.parametrize("x", [2.7, 0.1, 1.0, -0.0, True, False])
def test_fields_refuse_floats_and_bools(field, x):
    with pytest.raises(TypeError, match=repr(x)):
        field.of(x)
    with pytest.raises(TypeError, match=repr(x)):
        DenseMatrix.from_rows([[x, 1]], field)


def test_fields_take_exact_inputs_as_before():
    assert QQ.of(3) == Fraction(3) and QQ.of("-2/6") == Fraction(-1, 3)
    half = Fraction(1, 2)
    assert QQ.of(half) is half
    f = GF(P)
    assert (f.of(-1), f.of(P + 5), f.of("7"), f.of(Fraction(1, 2))) == (P - 1, 5, 7, (P + 1) // 2)


def test_prime_field_reads_rational_strings_as_qq_does():
    f = GF(P)
    half = (P + 1) // 2
    assert f.of("1/2") == half == f.of(Fraction(1, 2))
    assert f.of("-2/6") == f.of(QQ.of("-2/6")) == f.neg(f.div(1, 3))
    assert f.of(" 7 ") == 7 and f.of("3/1") == 3
    with pytest.raises(ZeroDivisionError, match=str(P)):
        f.of(f"1/{P}")
    with pytest.raises(ZeroDivisionError, match=str(P)):
        f.of(f"5/{3 * P}")
    with pytest.raises(ValueError):
        f.of("1/x")


def test_from_rows_reads_rational_strings_over_gf_p():
    f = GF(P)
    rows = [["1/2", "-3/4", "0"], ["1", "-3/2", "0"], ["0", "5/3", "7"]]
    m = DenseMatrix.from_rows(rows, f)
    assert m.data == [[f.of(Fraction(x)) for x in row] for row in rows]
    assert m.rank() == DenseMatrix.from_rows(rows).rank() == 2
    with pytest.raises(ZeroDivisionError):
        DenseMatrix.from_rows([["1", f"2/{P}"]], f)


# -- sparse-row storage ---------------------------------------------------------------

# the zeros a caller may pass: the shared zero, other Fraction zeros, an int
any_zero = st.sampled_from([QQ.zero, Fraction(0, 7), -Fraction(0), 0])


def grids(cells):
    shapes = st.tuples(st.integers(0, 5), st.integers(0, 5))
    return shapes.flatmap(
        lambda d: st.tuples(
            st.just(d), st.lists(st.lists(cells, min_size=d[1], max_size=d[1]), min_size=d[0], max_size=d[0])
        )
    )


def stores_no_zero(m):
    return all(not m.field.is_zero(x) for row in m.sparse_rows for x in row.values())


@settings(max_examples=150, deadline=None)
@given(grids(st.one_of(any_zero, st.fractions(-9, 9, max_denominator=6))))
def test_dense_input_round_trips_without_its_zeros_over_qq(grid):
    (r, c), rows = grid
    m = DenseMatrix(QQ, r, c, rows)
    assert m.data == rows
    assert stores_no_zero(m)
    assert sum(map(len, m.sparse_rows)) == sum(1 for row in rows for x in row if x != 0)


@settings(max_examples=150, deadline=None)
@given(grids(st.one_of(any_zero, st.integers(1, P - 1))))
def test_dense_input_round_trips_without_its_zeros_over_gf_p(grid):
    (r, c), rows = grid
    m = DenseMatrix(GF(P), r, c, rows)
    assert m.data == rows
    assert stores_no_zero(m)
    assert sum(map(len, m.sparse_rows)) == sum(1 for row in rows for x in row if x != 0)


@pytest.mark.parametrize("field", [QQ, GF(P)], ids=["QQ", "GF(p)"])
def test_setter_stores_nonzero_entries_only(field):
    m = DenseMatrix.zero(2, 3, field)
    m.set(1, 2, field.of(5))
    m.set(0, 0, field.of(3))
    m.set(0, 0, Fraction(0, 7))
    assert m.data == [[0, 0, 0], [0, 0, 5]] and [len(row) for row in m.sparse_rows] == [0, 1]
    assert m.entry(1, 2) == 5 and m.entry(0, 0) is field.zero
    for i, j in ((0, 3), (2, 0), (-1, 0), (0, -1)):
        with pytest.raises(IndexError):
            m.set(i, j, field.one)


@pytest.mark.parametrize("field", [QQ, GF(P)], ids=["QQ", "GF(p)"])
def test_no_producer_stores_a_zero(field):
    from critlocus.family import endomorphism_model
    from critlocus.points import _adjoint_matrix

    # evaluation: the entries [X, -] takes from X = diag(P, 0) are +-P, which
    # vanish mod P, while those from Y do not
    cx = endomorphism_model(2).evaluate_at([[P, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 0], [0, 0]], field)
    assert all(stores_no_zero(d) for d in cx.diff.values())
    stored = [sum(map(len, d.sparse_rows)) for _, d in sorted(cx.diff.items())]
    assert stored == ([4, 8, 4] if field == QQ else [2, 4, 2])
    # the commutator with a scalar matrix cancels everywhere
    for m in ([[2, 0], [0, 2]], [[Fraction(P), 1], [0, Fraction(1, 3)]]):
        for sign in (1, -1):
            assert stores_no_zero(_adjoint_matrix(m, field).scale(sign))
    assert _adjoint_matrix([[2, 0], [0, 2]], field) == DenseMatrix.zero(4, 4, field)
    # dependent rows leave zero rows in rref; cancelling terms in a product
    a = DenseMatrix.from_rows([[1, 2, 0], [2, 4, 0], [1, 1, 0]], field)
    red, pivots = rref(a)
    assert pivots == [0, 1] and stores_no_zero(red) and red.sparse_rows[2] == {}
    b = DenseMatrix.from_rows([[2], [-1], [7]], field)
    prod = a.matmul(b)
    assert stores_no_zero(prod) and prod.data == [[0], [0], [1]]
    t = a.transpose()
    assert stores_no_zero(t) and t.data == [list(col) for col in zip(*a.data)]


@pytest.mark.parametrize("field", [QQ, GF(P)], ids=["QQ", "GF(p)"])
def test_from_sparse_refuses_a_column_outside_the_matrix(field):
    for row in ({5: 1}, {2: 1}, {-1: 1}, {0: 1, 7: 2}):
        with pytest.raises(ValueError, match="row 1"):
            DenseMatrix.from_sparse(field, 2, 2, [{0: 1}, row])
    m = DenseMatrix.from_sparse(field, 2, 2, [{}, {1: 1}])
    assert m.rank() == 1 and m.data == [[0, 0], [0, 1]]


@pytest.mark.parametrize("field", [QQ, GF(P)], ids=["QQ", "GF(p)"])
def test_from_integers_refuses_a_den_below_one(field):
    # over GF(p) den 0 looped forever; over QQ it built a matrix of rank 1
    # whose data divided by zero
    for den in (0, -2):
        with pytest.raises(ValueError, match=f"den {den} "):
            DenseMatrix.from_integers(field, 1, 1, [(0, 0, 1)], den)


@pytest.mark.parametrize("field", [QQ, GF(P)], ids=["QQ", "GF(p)"])
def test_readers_refuse_indices_outside_the_matrix(field):
    m = DenseMatrix.identity(3, field)
    for i, j in ((-1, 2), (0, 7), (3, 0), (0, -1)):
        with pytest.raises(IndexError, match=f"entry \\({i}, {j}\\)"):
            m.entry(i, j)
    for rows, cols, bad in (
        ([0, 1], [0, 5], "column 5"),
        ([-1], [0], "row -1"),
        (range(4), range(3), "row 3"),
        (range(3), range(-1, 2), "column -1"),
        (range(2, -2, -1), [0], "row -1"),
    ):
        with pytest.raises(IndexError, match=bad):
            m.submatrix(rows, cols)
    assert m.submatrix(range(2, -1, -1), [2, 0]).data == [[1, 0], [0, 0], [0, 1]]
    assert m.submatrix([], range(3)).rows == 0 and m.submatrix(range(3), []).cols == 0
    for blocks in ([], [[]], [[m], []]):
        with pytest.raises(ValueError, match="blocks do not fit"):
            DenseMatrix.from_blocks(blocks)


# -- GF(p) entries are stored reduced --------------------------------------------------


def test_gf_p_multiple_of_p_is_the_zero_matrix():
    f = GF(P)
    m = DenseMatrix(f, 1, 1, [[P]])
    assert m == DenseMatrix.zero(1, 1, f)
    assert m.is_zero() and m.rank() == 0
    assert DenseMatrix.from_sparse(f, 1, 2, [{0: -P, 1: 3 * P}]) == DenseMatrix.zero(1, 2, f)


def test_gf_p_unreduced_one_is_the_identity():
    f = GF(P)
    one = DenseMatrix(f, 1, 1, [[P + 1]])
    ident = DenseMatrix.identity(1, f)
    assert one == ident and one.matmul(ident) == ident
    m = DenseMatrix.zero(2, 2, f)
    m.set(0, 0, P + 1)
    m.set(1, 1, Fraction(2 * P + 2, 2))
    assert m == DenseMatrix.identity(2, f)
    m.set(1, 1, 5 * P)
    assert m.data == [[1, 0], [0, 0]] and [len(row) for row in m.sparse_rows] == [1, 0]


def test_gf_p_fraction_entry_is_stored_as_its_residue():
    f = GF(P)
    half = DenseMatrix(f, 1, 1, [[Fraction(1, 2)]])
    assert half.rank() == 1 and half.entry(0, 0) == f.of(Fraction(1, 2)) == (P + 1) // 2
    assert half.matmul(DenseMatrix(f, 1, 1, [[2]])) == DenseMatrix.identity(1, f)


# -- QQ matrices against a list-of-Fraction reference ----------------------------------
#
# A QQ matrix stores int numerators over one den that need not be reduced.
# Each operation is checked against plain lists of Fractions, with every
# input stored over k times the lcm of its denominators for a drawn k, so
# equal inputs reach the kernels over different, unreduced dens.


def stored_over(rows, r, c, k):
    """``rows`` as an r x c QQ matrix over k times the lcm of their denominators."""
    den = lcm(*(x.denominator for row in rows for x in row)) * k
    entries = [(i, j, x.numerator * (den // x.denominator)) for i, row in enumerate(rows) for j, x in enumerate(row) if x]
    return DenseMatrix.from_integers(QQ, r, c, entries, den)


def rational_grid(r, c):
    return st.lists(st.lists(mixed_rationals, min_size=c, max_size=c), min_size=r, max_size=r)


@st.composite
def qq_matrices(draw, r=None, c=None):
    """(r, c, rows, matrix) with the matrix stored over an unreduced den."""
    r = draw(st.integers(0, 5)) if r is None else r
    c = draw(st.integers(0, 5)) if c is None else c
    rows = draw(rational_grid(r, c))
    return r, c, rows, stored_over(rows, r, c, draw(st.integers(1, 6)))


def reference_rref(rows, c):
    """Gauss-Jordan on lists of Fractions: (rref rows, pivot columns)."""
    m = [list(row) for row in rows]
    pivots = []
    for col in range(c):
        top = len(pivots)
        hit = next((i for i in range(top, len(m)) if m[i][col]), None)
        if hit is None:
            continue
        m[top], m[hit] = m[hit], m[top]
        pv = m[top][col]
        m[top] = [x / pv for x in m[top]]
        for i in range(len(m)):
            if i != top and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[top])]
        pivots.append(col)
    return m, pivots


def all_fractions(rows):
    return all(isinstance(x, Fraction) for row in rows for x in row)


@settings(max_examples=100, deadline=None)
@given(qq_matrices())
def test_qq_entry_and_data_read_the_reference(m):
    r, c, rows, a = m
    assert a.data == rows and all_fractions(a.data)
    assert all(a.entry(i, j) == rows[i][j] and isinstance(a.entry(i, j), Fraction) for i in range(r) for j in range(c))


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda d: st.tuples(qq_matrices(d[0], d[1]), qq_matrices(d[1], d[2]))))
def test_qq_matmul_matches_the_reference(pair):
    (r, k, a_rows, a), (_, c, b_rows, b) = pair
    prod = a.matmul(b)
    assert prod.data == naive_matmul(a_rows, b_rows, r, k, c) and all_fractions(prod.data)


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda d: st.tuples(qq_matrices(*d), qq_matrices(*d))))
def test_qq_add_matches_the_reference(pair):
    (_, _, a_rows, a), (_, _, b_rows, b) = pair
    total = a.add(b)
    assert total.data == [[x + y for x, y in zip(r, s)] for r, s in zip(a_rows, b_rows)]
    assert all_fractions(total.data)


@settings(max_examples=100, deadline=None)
@given(qq_matrices(), mixed_rationals)
def test_qq_scale_and_transpose_match_the_reference(m, c):
    r, cols, rows, a = m
    assert a.scale(c).data == [[c * x for x in row] for row in rows]
    assert a.transpose().data == [[rows[i][j] for i in range(r)] for j in range(cols)]


@settings(max_examples=100, deadline=None)
@given(qq_matrices())
def test_qq_rank_rref_and_kernel_match_the_reference(m):
    r, c, rows, a = m
    want, pivots = reference_rref(rows, c)
    red, got_pivots = rref(a)
    assert got_pivots == pivots and a.rank() == len(pivots)
    assert red.data == want and all_fractions(red.data)
    free = [j for j in range(c) if j not in pivots]
    kernel = []
    for j in free:
        v = [Fraction(int(t == j)) for t in range(c)]
        for row, pc in zip(want, pivots):
            v[pc] = -row[j]
        kernel.append(v)
    got = kernel_basis(a)
    assert [densify(v, c) for v in got] == [primitive(v) for v in kernel]
    assert all(type(x) is int for v in got for x in v.values())


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda d: st.tuples(qq_matrices(*d), st.lists(mixed_rationals, min_size=d[0], max_size=d[0]),
                        st.lists(mixed_rationals, min_size=d[1], max_size=d[1]))))
def test_qq_solve_matches_the_reference(case):
    (r, c, rows, a), b, x0 = case
    # an arbitrary right-hand side, and one in the image
    for rhs in (b, [sum((x * y for x, y in zip(row, x0)), Fraction(0)) for row in rows]):
        want, pivots = reference_rref([row + [y] for row, y in zip(rows, rhs)], c + 1)
        got = solve(a, rhs)
        if c in pivots:
            assert got is None
            continue
        x = [Fraction(0)] * c
        for row, pc in zip(want, pivots):
            x[pc] = row[c]
        assert got == x and all(isinstance(v, Fraction) for v in got)


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda d: st.tuples(
            qq_matrices(*d),
            st.lists(st.tuples(st.integers(0, d[0] - 1), st.integers(0, d[1] - 1), mixed_rationals), max_size=6),
        )
    )
)
def test_qq_set_matches_the_reference(case):
    (r, c, rows, a), writes = case
    rows = [list(row) for row in rows]
    for i, j, x in writes:
        a.set(i, j, x)
        rows[i][j] = x
        assert a.data == rows
    assert a == DenseMatrix(QQ, r, c, rows)


@settings(max_examples=100, deadline=None)
@given(qq_matrices(), st.integers(1, 6), st.integers(1, 6))
def test_qq_equality_across_unreduced_dens(m, k1, k2):
    r, c, rows, _ = m
    a, b = stored_over(rows, r, c, k1), stored_over(rows, r, c, k2)
    assert a == b and b == a
    if k1 != k2:
        assert a.den != b.den
    # one entry changed, by a value with a new denominator or by 1
    for i in range(r):
        for j in range(c):
            for delta in (Fraction(1, 7), Fraction(1)):
                other = [list(row) for row in rows]
                other[i][j] += delta
                assert stored_over(other, r, c, k2) != a


def test_from_sparse_over_qq_reads_ints_fraction_ints_and_halves_alike():
    ints = [{0: 3, 2: -4}, {}, {1: 5}]
    whole = [{j: Fraction(x) for j, x in row.items()} for row in ints]
    halves = [{j: Fraction(x, 2) for j, x in row.items()} for row in ints]
    a, b, c = (DenseMatrix.from_sparse(QQ, 3, 3, rows) for rows in (ints, whole, halves))
    dense = [[3, 0, -4], [0, 0, 0], [0, 5, 0]]
    assert a == b == DenseMatrix.from_rows(dense)
    assert c == DenseMatrix.from_rows([[Fraction(x, 2) for x in row] for row in dense]) == a.scale(Fraction(1, 2))
    for m in (a, b):
        assert m.den == 1 and m.sparse_rows == ints
        assert all(type(x) is int for row in m.sparse_rows for x in row.values())
    assert c.den == 2 and c.sparse_rows == ints


# -- elimination and products: invariants of the kernels ---------------------------


def eliminated(m):
    """Both passes' outputs: the forward echelon's stored rows, each signed
    so that its pivot entry is positive, the pivot columns, the pivot rows
    and the back-substituted reduction as (den, stored rows).  Checks that
    the echelon is over den 1 and that back-substitution leaves it as it
    was."""
    echelon, pivots, rows = eliminate(m)
    before = [dict(row) for row in echelon.sparse_rows]
    red = back_substitute(echelon, pivots)
    assert echelon.den == 1 and echelon.sparse_rows == before
    signed = [
        {j: -x for j, x in row.items()} if row[pc] < 0 else row for row, pc in zip(before, pivots)
    ]
    return signed, pivots, rows, (red.den, red.sparse_rows)


@st.composite
def scaled_qq_pairs(draw):
    """An r x c QQ matrix over an unreduced den and the same matrix with each
    row multiplied by a nonzero int of absolute value 2..30."""
    r, c = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    rows = draw(rational_grid(r, c))
    ks = draw(st.lists(st.integers(2, 30).flatmap(lambda k: st.sampled_from([k, -k])), min_size=r, max_size=r))
    scaled = [[x * k for x in row] for row, k in zip(rows, ks)]
    return (stored_over(rows, r, c, draw(st.integers(1, 6))), stored_over(scaled, r, c, draw(st.integers(1, 6))))


@settings(max_examples=200, deadline=None)
@given(scaled_qq_pairs())
def test_eliminate_ignores_row_scaling_over_qq(pair):
    # scaling a row changes neither its support nor its row space, so the
    # pivot choice, the pivot rows, the echelon up to the sign of each row
    # and the unique reduced form all stay
    a, b = pair
    assert eliminated(a) == eliminated(b)


@st.composite
def scaled_gf_p_pairs(draw):
    (r, c), rows = draw(grids(st.one_of(st.just(0), st.just(0), unreduced_ints)))
    units = draw(st.lists(st.integers(1, P - 1), min_size=r, max_size=r))
    scaled = [[x * u for x in row] for row, u in zip(rows, units)]
    return DenseMatrix(GF(P), r, c, rows), DenseMatrix(GF(P), r, c, scaled)


@settings(max_examples=200, deadline=None)
@given(scaled_gf_p_pairs())
def test_eliminate_ignores_row_scaling_over_gf_p(pair):
    a, b = pair
    assert eliminated(a) == eliminated(b)


def stored(m):
    """Shape, den and stored rows of ``m``, each row's items in stored order."""
    return m.rows, m.cols, m.den, [list(row.items()) for row in m.sparse_rows]


def increasing_columns(c):
    return st.lists(st.integers(0, c - 1), unique=True, max_size=c).map(sorted) if c else st.just([])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_eliminate_on_kept_columns_matches_the_submatrix_over_qq(data):
    # inputs over unreduced dens; the columns kept are an increasing subset
    _, c, _, m = data.draw(qq_matrices(c=data.draw(st.integers(0, 7))))
    cols = data.draw(increasing_columns(c))
    echelon, pivots, rows = eliminate(m, cols)
    want, want_pivots, want_rows = eliminate(m.submatrix(range(m.rows), cols))
    assert stored(echelon) == stored(want) and (pivots, rows) == (want_pivots, want_rows)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_eliminate_on_kept_columns_matches_the_submatrix_over_gf_p(data):
    (r, c), rows = data.draw(grids(st.one_of(st.just(0), unreduced_ints)))
    m = DenseMatrix(GF(P), r, c, rows)
    cols = data.draw(increasing_columns(c))
    echelon, pivots, prows = eliminate(m, cols)
    want, want_pivots, want_rows = eliminate(m.submatrix(range(r), cols))
    assert stored(echelon) == stored(want) and (pivots, prows) == (want_pivots, want_rows)


@pytest.mark.parametrize("field", [QQ, GF(P)], ids=["QQ", "GF(p)"])
def test_a_repeated_or_outside_column_is_refused(field):
    # a repeated column used to collapse: [1, 1, 0] gave a 2 x 2 matrix with
    # an entry in column 2, whose data raised IndexError
    m = DenseMatrix.identity(3, field)
    for cols, bad in (([1, 1, 0], "column 1"), ([2, 0, 1, 0], "column 0")):
        with pytest.raises(ValueError, match=f"{bad} repeated"):
            m.submatrix([0, 1], cols)
        with pytest.raises(ValueError, match=f"{bad} repeated"):
            eliminate(m, cols)
    with pytest.raises(IndexError, match="column 3"):
        eliminate(m, [0, 3])
    assert eliminate(m, range(1, 3))[1] == eliminate(m, [1, 2])[1] == [0, 1]
    assert m.submatrix([0, 0], [2, 0]).data == [[0, 1], [0, 1]]


@st.composite
def products_on_descending_rows(draw, nonzero):
    """(a rows, b rows) as lists, a with rows of exactly one nonzero entry
    as well as rows of several."""
    r, k, c = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    a = []
    for _ in range(r):
        count = draw(st.sampled_from([1, min(2, k), k]))
        cols = draw(st.lists(st.integers(0, k - 1), min_size=count, max_size=count, unique=True))
        a.append([draw(nonzero) if j in cols else 0 for j in range(k)])
    b = draw(st.lists(st.lists(st.one_of(st.just(0), nonzero), min_size=c, max_size=c), min_size=k, max_size=k))
    return a, b


def descending_matrix(field, rows):
    """``rows`` as a matrix whose stored rows were written by ``set`` from
    the last column to the first."""
    m = DenseMatrix.zero(len(rows), len(rows[0]), field)
    for i, row in enumerate(rows):
        for j in reversed(range(len(row))):
            m.set(i, j, row[j])
    return m


@pytest.mark.parametrize("field", [QQ, GF(P)], ids=["QQ", "GF(p)"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_products_of_descending_rows_come_out_column_ascending(field, data):
    # nonzero values; over GF(p) unreduced representatives of nonzero residues
    if field == QQ:
        nonzero = st.fractions(-9, 9, max_denominator=12).filter(bool)
    else:
        nonzero = st.tuples(st.integers(1, P - 1), st.integers(-2, 2)).map(lambda t: t[0] + t[1] * P)
    a_rows, b_rows = data.draw(products_on_descending_rows(nonzero))
    r, k, c = len(a_rows), len(b_rows), len(b_rows[0])
    a = DenseMatrix(field, r, k, a_rows)
    b = descending_matrix(field, b_rows)
    assert all(list(row) == sorted(row, reverse=True) for row in b.sparse_rows)
    assert b.data == DenseMatrix(field, k, c, b_rows).data
    expected = naive_matmul(a_rows, b_rows, r, k, c, None if field == QQ else P)
    prod = a.matmul(b)
    assert prod.data == expected
    assert all(list(row) == sorted(row) for row in prod.sparse_rows)
    assert product_first_nonzero(a, b) == first_nonzero(expected)
