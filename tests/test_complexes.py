import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import densify, point_values
from critlocus import complexes
from critlocus.complexes import ChainMap, FreeComplex, SymMatrix
from critlocus.family import (
    EndomorphismModel,
    build_comparison_map,
    build_universal_family,
    endomorphism_model,
)
from critlocus.linalg import DenseMatrix
from critlocus.points import enumerate_partitions, point_from_partition, random_conjugate_points
from critlocus.potential import MatrixCdga
from critlocus.scalars import DEFAULT_PRIME, GF, QQ
from critlocus.superpoly import Generator, GeneratorTable, SuperPoly


def sym_identity(table, n):
    return SymMatrix.identity(table, n)


def test_two_term_complex_trivially_square_zero():
    t = GeneratorTable.canonical(1)
    c = FreeComplex(t, {0: 2, 1: 2}, {0: sym_identity(t, 2)})
    ok, failures = c.check_d_squared()
    assert ok and failures == []


def test_three_term_identity_fails_at_first_entry():
    t = GeneratorTable.canonical(1)
    c = FreeComplex(
        t, {0: 1, 1: 1, 2: 1}, {0: sym_identity(t, 1), 1: sym_identity(t, 1)}
    )
    ok, failures = c.check_d_squared()
    assert not ok
    deg, row, col, entry = failures[0]
    assert (deg, row, col) == (0, 0, 0)
    assert entry == SuperPoly.one(t)


@pytest.mark.parametrize("field", [QQ, GF(DEFAULT_PRIME)], ids=["QQ", "GF(p)"])
def test_numeric_d_squared_failures_are_first_entries_of_the_dense_products(field):
    # sparse random differentials: some composites vanish, most do not,
    # and a failure must name the first nonzero entry of d^(k+1) . d^k
    rng = random.Random(5)
    entry = lambda: field.of(Fraction(rng.choice([0, 0, 0, 0, 1, -1, 3]), rng.randint(1, 3)))
    for _ in range(40):
        ranks = {k: rng.randint(0, 4) for k in range(5)}
        diff = {
            k: DenseMatrix(field, ranks[k + 1], ranks[k], [[entry() for _ in range(ranks[k])] for _ in range(ranks[k + 1])])
            for k in range(4)
        }
        expected = []
        for k in range(3):
            if ranks[k] and ranks[k + 1] and ranks[k + 2]:
                dense = diff[k + 1].matmul(diff[k]).data
                bad = next(((i, j, x) for i, row in enumerate(dense) for j, x in enumerate(row) if x), None)
                if bad is not None:
                    expected.append((k, *bad))
        assert FreeComplex(field, ranks, diff).check_d_squared() == (not expected, expected)


def test_evaluate_zero_differential():
    cdga = MatrixCdga(1)
    t = cdga.table
    c = FreeComplex(t, {0: 2, 1: 3}, {0: SymMatrix(t, 3, 2)})
    ev = c.evaluate_at(cdga.point([[1]], [[2]], [[3]]))
    assert ev.differential(0).is_zero()


def test_homology_identity_complex_acyclic():
    d = DenseMatrix.identity(1)
    c = FreeComplex(QQ, {0: 1, 1: 1}, {0: d})
    assert c.homology_dims() == {0: 0, 1: 0}


def test_homology_zero_differentials_gives_ranks():
    c = FreeComplex(
        QQ,
        {0: 1, 1: 3, 2: 3, 3: 1},
        {k: DenseMatrix.zero(r, s) for k, (s, r) in enumerate([(1, 3), (3, 3), (3, 1)])},
    )
    assert c.homology_dims() == {0: 1, 1: 3, 2: 3, 3: 1}


def test_homology_rejects_non_complex():
    d = DenseMatrix.identity(1)
    c = FreeComplex(QQ, {0: 1, 1: 1, 2: 1}, {0: d, 1: d})
    with pytest.raises(ValueError):
        c.homology_dims()


def test_homology_representatives_reject_non_complex_checking_d_squared_once(matmul_calls):
    # representatives are read off free coordinates, which needs the image
    # of d^(k-1) inside ker d^k; the d^2 check behind that runs once per
    # complex and is shared with homology_dims
    d = DenseMatrix.identity(1)
    c = FreeComplex(QQ, {0: 1, 1: 1, 2: 1}, {0: d, 1: d})
    for k in (0, 1, 2):
        with pytest.raises(ValueError, match=r"d\^2 != 0"):
            complexes.homology_representatives(c, k)
    with pytest.raises(ValueError, match=r"d\^2 != 0"):
        c.homology_dims()
    assert len(matmul_calls) == 1
    ok = FreeComplex(
        QQ, {0: 1, 1: 2, 2: 1}, {0: DenseMatrix.from_rows([[1], [0]]), 1: DenseMatrix.from_rows([[0, 1]])}
    )
    assert ok.homology_dims() == {0: 0, 1: 0, 2: 0}
    assert [complexes.homology_representatives(ok, k) for k in (0, 1, 2)] == [[], [], []]
    assert len(matmul_calls) == 2


def test_homology_representatives_refuse_a_symbolic_complex_at_every_degree():
    # degrees of rank 0 included: the complex is checked before its ranks
    cx = endomorphism_model(1).complex
    for k in (-1, 0, 1, 3, 4, 7):
        with pytest.raises(ValueError, match="polynomial base"):
            complexes.homology_representatives(cx, k)


def test_euler_characteristic_matches_homology():
    import random

    rng = random.Random(31)
    for _ in range(10):
        # random two-step complex d1 d0 = 0 built from a kernel factor
        a = DenseMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(4)] for _ in range(3)]
        )
        from critlocus.linalg import kernel_basis

        ker = [densify(v, 4) for v in kernel_basis(a)]
        if not ker:
            continue
        b = DenseMatrix.from_rows([[v[i] for v in ker] for i in range(4)])
        c = FreeComplex(QQ, {0: len(ker), 1: 4, 2: 3}, {0: b, 1: a})
        ok, _ = c.check_d_squared()
        assert ok
        dims = c.homology_dims()
        assert sum((-1) ** k * d for k, d in dims.items()) == c.euler_characteristic()


def test_homology_dims_agree_mod_p_default_prime():
    from critlocus.scalars import DEFAULT_PRIME

    cdga = MatrixCdga(2)
    from critlocus.family import endomorphism_model
    from critlocus.points import nilpotent_regular_point

    model = endomorphism_model(2)
    pt = nilpotent_regular_point(2)
    over_q = model.evaluate_at(pt.X, pt.Y, pt.Z).homology_dims()
    over_p = model.evaluate_at(pt.X, pt.Y, pt.Z, GF(DEFAULT_PRIME)).homology_dims()
    assert over_q == over_p


def test_identity_chain_map_commutes():
    t = GeneratorTable.canonical(1)
    d = SymMatrix(t, 1, 1, [[SuperPoly.gen(t, "X0(1,1)")]])
    c = FreeComplex(t, {0: 1, 1: 1}, {0: d})
    cm = ChainMap(c, c, {0: sym_identity(t, 1), 1: sym_identity(t, 1)})
    assert cm.check_symbolic()["ok"]


@pytest.mark.parametrize("field", [QQ, GF(DEFAULT_PRIME)], ids=["QQ", "GF(p)"])
def test_flatness_refuses_a_numeric_complex(field):
    # a numeric complex has no twist and no base differential: its flatness
    # is d^2 = 0, which check_d_squared decides
    cx = FreeComplex(field, {0: 1, 1: 1}, {0: DenseMatrix.identity(1, field)})
    with pytest.raises(ValueError, match="check_d_squared"):
        cx.check_flatness()
    assert cx.check_d_squared() == (True, [])


def test_chain_map_refuses_a_numeric_complex():
    t = GeneratorTable.canonical(1)
    sym = FreeComplex(t, {0: 1}, {})
    num = FreeComplex(QQ, {0: 1}, {})
    for source, target in ((num, num), (num, sym), (sym, num)):
        with pytest.raises(ValueError, match="symbolic complexes"):
            ChainMap(source, target, {0: DenseMatrix.identity(1)})


def test_evaluation_is_a_chain_functor():
    # wherever the symbolic composite vanishes identically, every
    # evaluation is again a complex, commuting triple or not
    import random

    cdga = MatrixCdga(2)
    disp = cdga.koszul_display()
    rng = random.Random(5)
    for _ in range(10):
        mats = [
            [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            for _ in range(3)
        ]
        ev = disp.evaluate_at(cdga.point(*mats))
        ok, failures = ev.check_d_squared()
        assert ok, failures


# -- the compiled evaluator ------------------------------------------------------

# rank 1 with form symbols: odd, negative-degree and form generators beside
# the three degree-0 ones, which few values make likely to coincide
EVAL_TABLE = GeneratorTable.canonical(1).extend_with_forms()
DEGREE_ZERO = [k for k, g in enumerate(EVAL_TABLE.gens) if g.cdeg == 0 and g.fdeg == 0]
POINT_VALUES = [Fraction(v) for v in (0, 1, -1, 2, "1/2", "-2/3")]


@st.composite
def entries(draw):
    """Sums of rational coefficients times generator words.  Words lean to
    the degree-0 generators and may repeat them; a term may come with a
    partner that differs in one degree-0 generator and has the opposite
    coefficient, so the two cancel wherever those generators agree."""
    t = EVAL_TABLE
    gens = st.one_of(st.sampled_from(DEGREE_ZERO), st.integers(0, len(t) - 1))
    p = SuperPoly.zero(t)
    for _ in range(draw(st.integers(0, 3))):
        c = draw(st.fractions(-9, 9, max_denominator=7))
        word = draw(st.lists(gens, max_size=4))
        p = p + _word(t, c, word)
        if word and draw(st.booleans()):
            swapped = list(word)
            swapped[draw(st.integers(0, len(word) - 1))] = draw(st.sampled_from(DEGREE_ZERO))
            p = p - _word(t, c, swapped)
    return p


def _word(t, c, word):
    term = SuperPoly.scalar(t, c)
    for k in word:
        term = term * SuperPoly.gen(t, k)
    return term


@st.composite
def sym_matrices(draw, rows=None, cols=None):
    rows = draw(st.integers(0, 3)) if rows is None else rows
    cols = draw(st.integers(0, 3)) if cols is None else cols
    return SymMatrix(EVAL_TABLE, rows, cols, [[draw(entries()) for _ in range(cols)] for _ in range(rows)])


points = st.fixed_dictionaries({k: st.sampled_from(POINT_VALUES) for k in DEGREE_ZERO})

# values over the default prime, and multiples of it that can cancel them,
# so some entries have a reduced denominator divisible by p and some do not
P = DEFAULT_PRIME
PRIME_VALUES = POINT_VALUES + [Fraction(1, P), Fraction(-2, P), Fraction(P), Fraction(-3 * P)]


@settings(max_examples=200, deadline=None)
@given(
    sym_matrices(),
    st.one_of(
        points,
        st.fixed_dictionaries({k: st.sampled_from(PRIME_VALUES) for k in DEGREE_ZERO}),
        st.just({k: Fraction(0) for k in DEGREE_ZERO}),
    ),
)
def test_compiled_evaluation_matches_entrywise(m, point):
    cleared = complexes._Point(EVAL_TABLE, point)
    for field in (QQ, GF(DEFAULT_PRIME)):
        try:
            want = [[field.of(p.evaluate(point)) for p in row] for row in m.data]
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError, match=f"denominator divisible by {P}"):
                m.evaluate(cleared, field)
            continue
        got = m.evaluate(cleared, field)
        assert (got.rows, got.cols) == (m.rows, m.cols)
        assert got.data == want
        assert all(x for row in got.sparse_rows for x in row.values())
        if field is QQ:
            assert all(isinstance(x, Fraction) for row in got.data for x in row)


def test_generator_keys_outside_the_table_raise():
    # evaluation reads only a point cleared over the evaluated table: a
    # dict of values, keyed by index or by name, and a point cleared over
    # another table are refused by every evaluator
    cdga = MatrixCdga(1)
    t = cdga.table
    point = cdga.point([[1]], [[2]], [[3]])
    m = SymMatrix(t, 1, 1, [[SuperPoly.gen(t, "X0(1,1)")]])
    c = FreeComplex(t, {0: 1, 1: 1}, {0: m})
    cm = ChainMap(c, c, {0: sym_identity(t, 1), 1: sym_identity(t, 1)})
    refused = [point_values(point), {"X0(1,1)": 1, "Y0(1,1)": 2, "Z0(1,1)": 3}, MatrixCdga(1).point([[1]], [[2]], [[3]])]
    for bad in refused:
        for evaluate in (m.evaluate, c.evaluate_at, cm.check_at_point):
            with pytest.raises(ValueError, match="takes a _Point cleared over the same generator table"):
                evaluate(bad)
    assert m.evaluate(point).data == [[1]]
    assert c.evaluate_at(point).differential(0) == m.evaluate(point)
    assert cm.check_at_point(point)["ok"]


# -- sparse storage ----------------------------------------------------------------

# multiplying by an odd generator is linear and kills every term that
# already holds it, so some nonzero entries map to zero
ODD = SuperPoly.gen(EVAL_TABLE, "Xm1(1,1)")


def _stores_only_nonzeros(m):
    return len(m.sparse_rows) == m.rows and all(
        0 <= j < m.cols and p.terms for row in m.sparse_rows for j, p in row.items()
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sparse_producers_match_entrywise_references(data):
    t = EVAL_TABLE
    zero = SuperPoly.zero(t)
    a = data.draw(sym_matrices())
    b = data.draw(sym_matrices(rows=a.cols))
    c = data.draw(sym_matrices(a.rows, a.cols))
    k = data.draw(st.sampled_from([0, 1, -1, Fraction(2, 3)]))
    A, B, C = a.data, b.data, c.data
    r, n, m = a.rows, a.cols, b.cols
    results = {
        "matmul": (a.matmul(b), [[sum((A[i][l] * B[l][j] for l in range(n)), zero) for j in range(m)] for i in range(r)]),
        "add": (a.add(c), [[A[i][j] + C[i][j] for j in range(n)] for i in range(r)]),
        "cancel": (a.add(a.scale(-1)), [[zero] * n for _ in range(r)]),
        "scale": (a.scale(k), [[p.scale(k) for p in row] for row in A]),
        "transpose": (a.transpose(), [list(col) for col in zip(*A)] if r else [[] for _ in range(n)]),
        "map_entries": (a.map_entries(lambda p: p * ODD), [[p * ODD for p in row] for row in A]),
    }
    for name, (got, want) in results.items():
        assert got.data == want, name
        assert _stores_only_nonzeros(got), name
    assert not any(a.add(a.scale(-1)).sparse_rows) and not any(a.scale(0).sparse_rows)

    # add_entry stores a first contribution as it is and clears an entry
    # it cancels; from_sparse drops a zero polynomial
    rows = [{} for _ in range(r)]
    for row, acc in zip(a.sparse_rows, rows):
        for j, p in row.items():
            complexes.add_entry(acc, j, p)
            assert acc[j] is p
            complexes.add_entry(acc, j, zero)
            if data.draw(st.booleans()):
                complexes.add_entry(acc, j, -p)
                assert j not in acc
            else:
                acc[j] = zero
    cleared = SymMatrix.from_sparse(t, r, n, rows)
    assert _stores_only_nonzeros(cleared)
    assert cleared == SymMatrix(t, r, n) and not any(cleared.sparse_rows)

    # .data is a copy
    dense = a.data
    for row in dense:
        row[:] = [SuperPoly.one(t)] * n
    assert a.data == A and a == SymMatrix(t, r, n, A)


def test_zero_matrices_over_distinct_tables_differ():
    t1, t2 = GeneratorTable.canonical(1), GeneratorTable.canonical(1)
    assert SymMatrix(t1, 1, 1) == SymMatrix(t1, 1, 1)
    assert SymMatrix(t1, 1, 1) != SymMatrix(t2, 1, 1)


def test_entries_outside_the_matrix_raise():
    t = GeneratorTable.canonical(1)
    one = SuperPoly.one(t)
    for j in (-1, -2, 2, 5):
        with pytest.raises(ValueError, match=r"a column outside range\(2\)"):
            SymMatrix.from_sparse(t, 2, 2, [{0: one}, {j: one}])
    for rows in ([{0: one}], [{}, {}, {}]):
        with pytest.raises(ValueError, match="row count mismatch"):
            SymMatrix.from_sparse(t, 2, 2, rows)
    m = SymMatrix.from_sparse(t, 2, 2, [{1: one}, {0: SuperPoly.zero(t)}])
    assert m.sparse_rows == [{1: one}, {}]


def test_matrices_over_different_tables_do_not_mix():
    # two tables of two generators each: read in the other table, d would
    # be taken for b, its index there
    t1 = GeneratorTable([Generator("a", 0), Generator("b", 0)])
    t2 = GeneratorTable([Generator("c", 0), Generator("d", 0)])
    b, d = SuperPoly.gen(t1, "b"), SuperPoly.gen(t2, "d")
    m1, m2 = SymMatrix(t1, 1, 1, [[b]]), SymMatrix(t2, 1, 1, [[d]])
    mixed = "operands built over different generator tables"
    for x, y in ((m1, m2), (m2, m1)):
        for combine in (x.matmul, x.add):
            with pytest.raises(ValueError, match=mixed):
                combine(y)
    with pytest.raises(ValueError, match=mixed):
        SymMatrix(t1, 1, 2, [[b, d]])
    with pytest.raises(ValueError, match=mixed):
        SymMatrix.from_sparse(t1, 2, 1, [{0: b}, {0: d}])
    with pytest.raises(ValueError, match=mixed):
        FreeComplex(t1, {0: 1, 1: 1}, {0: m2})
    with pytest.raises(ValueError, match=mixed):
        FreeComplex(t1, {0: 1, 2: 1}, {}, {(0, 2): m2})
    c1 = FreeComplex(t1, {0: 1, 1: 1}, {0: m1})
    with pytest.raises(ValueError, match=mixed):
        ChainMap(c1, c1, {0: SymMatrix.identity(t1, 1), 1: SymMatrix.identity(t2, 1)})
    assert m1.matmul(m1) == SymMatrix(t1, 1, 1, [[b * b]])
    assert ChainMap(c1, c1, {0: SymMatrix.identity(t1, 1), 1: SymMatrix.identity(t1, 1)}).check_symbolic()["ok"]


@pytest.mark.parametrize("rank", [1.5, True, "2"], ids=["1.5", "true", '"2"'])
def test_non_integer_ranks_raise_naming_the_degree(rank):
    for base in (GeneratorTable.canonical(1), QQ):
        with pytest.raises(ValueError, match="rank .* at degree 3 is not an integer"):
            FreeComplex(base, {0: 1, 3: rank}, {})


def test_negative_ranks_raise_and_zero_ranks_are_dropped():
    t = GeneratorTable.canonical(1)
    with pytest.raises(ValueError, match="degree 0"):
        FreeComplex(t, {0: -2, 1: 1}, {})
    with pytest.raises(ValueError, match="degree 1"):
        FreeComplex(QQ, {0: 1, 1: -1}, {})
    assert FreeComplex(QQ, {0: 0, 1: 2, 2: 0}, {}).ranks == {1: 2}


def test_zero_complex_is_flat_round_trips_and_maps_to_itself():
    t = GeneratorTable.canonical(1)
    cx = FreeComplex(t, {}, {})
    assert cx.check_d_squared() == (True, [])
    assert cx.check_flatness() == (True, [])
    assert cx.to_json() == '{"degrees": [], "differentials": {}, "ranks": {}, "twists": {}}'
    assert ChainMap(cx, cx, {}).check_symbolic() == {"ok": True, "failures": []}


def test_surviving_twist_component_raises():
    cdga = MatrixCdga(1)
    t = cdga.table
    twist = SymMatrix(t, 1, 1, [[SuperPoly.gen(t, "X0(1,1)")]])
    c = FreeComplex(t, {0: 1, 1: 1, 2: 1}, {}, {(0, 2): twist})
    # the entry vanishes where X does, and survives elsewhere
    assert c.evaluate_at(cdga.point([[0]], [[1]], [[1]])).ranks == c.ranks
    with pytest.raises(AssertionError, match="twist component survived"):
        c.evaluate_at(cdga.point([[1]], [[1]], [[1]]))


def test_bad_prime_is_met_entry_by_entry():
    p = DEFAULT_PRIME
    gf = GF(p)
    model = endomorphism_model(2)
    zero = [[0, 0], [0, 0]]
    # a scalar shift of X enters only through differences of diagonal
    # entries, so 1/p on the diagonal never reaches the field
    shifted = model.evaluate_at([[Fraction(1, p), 0], [0, Fraction(1, p)]], zero, zero, gf)
    origin = model.evaluate_at(zero, zero, zero, gf)
    for q in range(3):
        assert shifted.differential(q) == origin.differential(q)
    with pytest.raises(ZeroDivisionError):
        model.evaluate_at([[0, Fraction(1, p)], [0, 0]], zero, zero, gf)


def test_each_complex_and_block_compiles_once(compile_calls):
    cdga = MatrixCdga(2)
    cm, _ = build_comparison_map(2, cdga)
    # the search's prefilter compiles both complexes and every candidate
    # block at its one point, the chosen blocks among them
    searched = len(compile_calls)
    chain_parts = [m for cx in (cm.source, cm.target) for m in (*cx.diff.values(), *cx.twist.values())]
    assert {id(m) for m in chain_parts + list(cm.blocks.values())} <= {id(m) for m in compile_calls}
    model = EndomorphismModel(build_universal_family(2))
    pts = [point_from_partition(pp) for pp in enumerate_partitions(2)]
    pts += random_conjugate_points(2, 3, random.Random(11))
    assert len(compile_calls) == searched  # the model compiles nothing before the first point
    for pt in pts:
        for field in (QQ, GF(DEFAULT_PRIME)):
            model.evaluate_at(pt.X, pt.Y, pt.Z, field)
            assert cm.check_at_point(cdga.point(pt.X, pt.Y, pt.Z), field)["ok"]
    assert len(compile_calls) == searched + len(model.complex.diff) + len(model.complex.twist)
    assert len({id(m) for m in compile_calls}) == len(compile_calls)


# -- symbolic identity checks against their matrix-building references ------------

# entries for products: constants (1, -1 and 1/2 among them), one-term
# monomials, multi-term polynomials and zeros, so rows with one entry turn
# up on either side, and a polynomial beside its negative lets sums cancel
X, Y = SuperPoly.gen(EVAL_TABLE, "X0(1,1)"), SuperPoly.gen(EVAL_TABLE, "Y0(1,1)")
CONSTANTS = [SuperPoly.scalar(EVAL_TABLE, c) for c in (1, -1, Fraction(1, 2), 3)]
MONOMIALS = [X, Y, ODD, SuperPoly.scalar(EVAL_TABLE, Fraction(-2, 3)) * X * Y]
POLYNOMIALS = [X + Y, X - SuperPoly.one(EVAL_TABLE), X * ODD + Y.scale(Fraction(1, 2))]
PRODUCT_ENTRIES = CONSTANTS + MONOMIALS + POLYNOMIALS
product_entries = st.one_of(
    st.just(SuperPoly.zero(EVAL_TABLE)),
    st.sampled_from(PRODUCT_ENTRIES),
    st.sampled_from(PRODUCT_ENTRIES).map(lambda p: -p),
    entries(),
)


@st.composite
def sparse_sym_matrices(draw, rows, cols):
    """Mostly empty rows x cols matrices: each entry is zero with
    probability about 1/2."""
    zero = SuperPoly.zero(EVAL_TABLE)
    return SymMatrix(
        EVAL_TABLE,
        rows,
        cols,
        [[draw(product_entries) if draw(st.booleans()) else zero for _ in range(cols)] for _ in range(rows)],
    )


def reference_matmul(a, b):
    """The sum over k of a_ik * b_kj, by SuperPoly ``*`` and ``+``."""
    A, B = a.data, b.data
    zero = SuperPoly.zero(a.table)
    return [[sum((A[i][k] * B[k][j] for k in range(a.cols)), zero) for j in range(b.cols)] for i in range(a.rows)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_matmul_matches_the_reference_product(data):
    r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
    a = data.draw(sparse_sym_matrices(r, k))
    b = data.draw(sparse_sym_matrices(k, c))
    got = a.matmul(b)
    assert got.data == reference_matmul(a, b)
    assert _stores_only_nonzeros(got)


def test_matmul_meets_constants_with_products_and_cancels():
    one, half = SuperPoly.one(EVAL_TABLE), SuperPoly.scalar(EVAL_TABLE, Fraction(1, 2))
    zero = SuperPoly.zero(EVAL_TABLE)
    cases = [
        # a left row whose one entry is 1, -1 or 1/2
        ([[one], [-one], [half], [X]], [[X, zero, X + Y]]),
        # column 0: a general product meets a constant row of the right
        # factor, and the two cancel; column 1: two constant rows cancel
        ([[one, X, X]], [[X, zero], [-one, one], [zero, -one]]),
        ([[X, Y, X]], [[one, zero], [X, Y], [-one, zero]]),
        # one constant contribution kept alone, one scaled by 1/2 and two
        # constant contributions that add up rather than cancel
        ([[X, Y, ODD]], [[zero, half], [one, zero], [zero, half]]),
        ([[X, X + Y]], [[half], [half]]),
    ]
    for rows_a, rows_b in cases:
        a = SymMatrix(EVAL_TABLE, len(rows_a), len(rows_b), rows_a)
        b = SymMatrix(EVAL_TABLE, len(rows_b), len(rows_b[0]), rows_b)
        got = a.matmul(b)
        # a cancelled column is stored empty, not as a zero polynomial
        assert got.data == reference_matmul(a, b) and _stores_only_nonzeros(got)


def reference_flatness(cx, derivation=None):
    """The flatness check with its matrices built: each route's product,
    negated by ``scale(-1)`` where its sign is odd, the routes and the
    derivation's image of D[a->c] added, and the first nonzero entry of the
    sum reported."""
    failures = []
    degs = cx.degrees()
    for a in degs:
        for c in (c for c in degs if c > a):
            total = None
            for b in (b for b in degs if a < b < c):
                prod = cx.component(b, c).matmul(cx.component(a, b))
                if ((a + 1 - b) * (b + 2 - c)) & 1:
                    prod = prod.scale(-1)
                total = prod if total is None else total.add(prod)
            if derivation is not None:
                dD = cx.component(a, c).map_entries(derivation.apply)
                total = dD if total is None else total.add(dD)
            if total is not None:
                bad = total.first_nonzero()
                if bad is not None:
                    failures.append((a, c, bad[0], bad[1]))
    return (not failures), failures


def reference_check_symbolic(cm):
    """The chain-map squares decided by the first nonzero entry of lhs - rhs."""
    report = {"ok": True, "failures": []}
    for a in cm.source.degrees():
        for c in (c for c in cm.target.degrees() if c > a):
            lhs = cm.block(c).matmul(cm.source.component(a, c))
            rhs = cm.target.component(a, c).matmul(cm.block(a))
            bad = lhs.add(rhs.scale(-1)).first_nonzero()
            if bad is not None:
                report["ok"] = False
                report["failures"].append((a, c, *bad[:2]))
    return report


def _copy(m):
    return SymMatrix(m.table, m.rows, m.cols, m.data)


def _perturbed(m, rng):
    """A copy of ``m`` with one entry (i, j) changed: cleared, or added a
    constant or a generator of the table."""
    i, j = rng.randrange(m.rows), rng.randrange(m.cols)
    p = m.entry(i, j)
    change = rng.choice([-p, SuperPoly.one(m.table), SuperPoly.gen(m.table, rng.randrange(len(m.table)))])
    rows = [dict(row) for row in m.sparse_rows]
    rows[i][j] = p + change
    return SymMatrix.from_sparse(m.table, m.rows, m.cols, rows)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_flatness_failures_match_the_matrix_reference(n):
    from critlocus.potential import CotangentModel

    cdga = MatrixCdga(n)
    cx = CotangentModel(cdga).complex
    d = cdga.differential
    assert cx.check_flatness(d) == reference_flatness(cx, d) == (True, [])
    rng = random.Random(n)
    keys = [("diff", k) for k in sorted(cx.diff)] + [("twist", k) for k in sorted(cx.twist)]
    assert any(kind == "twist" for kind, _ in keys)
    failing = 0
    for kind, key in keys:
        for _ in range(3):
            diff, twist = dict(cx.diff), dict(cx.twist)
            parts = diff if kind == "diff" else twist
            parts[key] = _perturbed(parts[key], rng)
            bad = FreeComplex(cx.base, cx.ranks, diff, twist)
            for derivation in (d, None):
                got = bad.check_flatness(derivation)
                assert got == reference_flatness(bad, derivation)
                failing += not got[0]
    # at n = 1 every component is zero and d kills every generator, so no
    # single changed entry breaks the identity
    assert failing or n == 1


@pytest.mark.parametrize("n", [2, 3])
def test_chain_map_failures_match_the_matrix_reference(n):
    cm, _ = build_comparison_map(n)
    assert cm.check_symbolic() == reference_check_symbolic(cm) == {"ok": True, "failures": []}
    rng = random.Random(n)
    for k in sorted(cm.blocks):
        for _ in range(3):
            blocks = dict(cm.blocks)
            blocks[k] = _perturbed(blocks[k], rng)
            bad = ChainMap(cm.source, cm.target, blocks)
            got = bad.check_symbolic()
            assert got == reference_check_symbolic(bad)
            assert not got["ok"] or blocks[k] == cm.blocks[k]


# -- blocks that read no generator are evaluated once per field ----------------------


def reference_check_at_point(cm, point, field):
    """``check_at_point`` with every matrix evaluated entry by entry by
    ``SuperPoly.evaluate`` at this point."""
    values = point_values(point)

    def ev(m):
        return DenseMatrix(field, m.rows, m.cols, [[field.of(p.evaluate(values)) for p in row] for row in m.data])

    degs = set(cm.source.degrees()) | set(cm.target.degrees())
    src, tgt, blocks = {}, {}, {k: ev(cm.block(k)) for k in degs}
    for cx, out in ((cm.source, src), (cm.target, tgt)):
        for k in degs:
            out[k] = ev(cx.differential(k))
    report = {"ok": True, "failures": [], "invertible": {}}
    for k in degs:
        if cm.source.rank(k) == cm.target.rank(k) and cm.source.rank(k):
            report["invertible"][k] = blocks[k].rank() == cm.source.rank(k)
    for k in sorted(degs):
        if cm.source.rank(k) and cm.target.rank(k + 1):
            if blocks[k + 1].matmul(src[k]) != tgt[k].matmul(blocks[k]):
                report["ok"] = False
                report["failures"].append(k)
    report["all_invertible"] = all(report["invertible"].values()) if report["invertible"] else False
    return report


def test_constant_blocks_are_kept_per_field():
    cdga = MatrixCdga(2)
    cm, _ = build_comparison_map(2, cdga)
    pts = [point_from_partition(pp) for pp in enumerate_partitions(2)]
    pts += random_conjugate_points(2, 2, random.Random(4))
    points = [cdga.point(pt.X, pt.Y, pt.Z) for pt in pts]
    fields = (QQ, GF(1048583))

    def fresh(blocks):
        return ChainMap(cm.source, cm.target, {k: _copy(m) for k, m in blocks.items()})

    for field in fields:
        for a in points:
            got = cm.check_at_point(a, field)
            assert got == fresh(cm.blocks).check_at_point(a, field) == reference_check_at_point(cm, a, field)
    # a map whose block has one entry cleared reads its own kept values,
    # not those of the block it was copied from
    block = cm.blocks[1]
    i, row = next((i, row) for i, row in enumerate(block.sparse_rows) if row)
    rows = [dict(r) for r in block.sparse_rows]
    del rows[i][next(iter(row))]
    edited = ChainMap(cm.source, cm.target, {**cm.blocks, 1: SymMatrix.from_sparse(cdga.table, block.rows, block.cols, rows)})
    for field in fields:
        for a in points:
            got = edited.check_at_point(a, field)
            assert got == reference_check_at_point(edited, a, field)
            assert not got["invertible"][1]


def test_blocks_that_read_a_generator_are_evaluated_at_every_point():
    t = GeneratorTable.canonical(1)
    x, y = SuperPoly.gen(t, "X0(1,1)"), SuperPoly.gen(t, "Y0(1,1)")
    d = SymMatrix(t, 2, 2, [[y, x], [SuperPoly.zero(t), y]])
    cx = FreeComplex(t, {0: 2, 1: 2}, {0: d})
    scaled = SymMatrix(t, 2, 2, [[x, SuperPoly.zero(t)], [SuperPoly.zero(t), x]])
    cm = ChainMap(cx, cx, {0: scaled, 1: sym_identity(t, 2)})
    for field in (QQ, GF(DEFAULT_PRIME)):
        for xv, yv in ((0, 1), (2, 1), (0, 0), (Fraction(1, 3), 5), (0, 2)):
            a = complexes._Point(t, {0: Fraction(xv), 1: Fraction(yv), 2: Fraction(0)})
            got = cm.check_at_point(a, field)
            assert got == reference_check_at_point(cm, a, field)
            assert got["invertible"][0] == (xv != 0)
