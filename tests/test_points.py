import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import adjoint_matrix, point_values, sparsify
from critlocus.linalg import DenseMatrix
from critlocus.points import (
    MatrixPoint,
    PlanePartition,
    enumerate_partitions,
    enumerate_partitions_by_heights,
    is_cyclic,
    koszul_ext_oracle,
    load_corpus,
    nilpotent_regular_point,
    point_from_partition,
    random_conjugate_points,
    random_invertible,
    save_corpus,
)
from critlocus.points import _commutator_blocks, _koszul_differentials, _trace_pairing_rank
from critlocus.potential import MatrixCdga
from critlocus.scalars import GF, QQ
from test_linalg import naive_matmul


E12 = [[0, 1], [0, 0]]
E21 = [[0, 0], [1, 0]]
Z2 = [[0, 0], [0, 0]]
I2 = [[1, 0], [0, 1]]


def test_is_commuting_matches_list_products():
    rng = random.Random(11)
    entry = lambda: Fraction(rng.choice([0, 0, 0, 1, -1, 2]), rng.randint(1, 3))
    seen = set()
    for pt in [point_from_partition(pp) for pp in enumerate_partitions(3)] + random_conjugate_points(3, 6, rng):
        for perturb in (False, True):
            X, Y, Z = [[row[:] for row in m] for m in pt.matrices()]
            if perturb:
                X[rng.randrange(3)][rng.randrange(3)] += entry()
            products = lambda a, b: (naive_matmul(a, b, 3, 3, 3), naive_matmul(b, a, 3, 3, 3))
            expected = all(ab == ba for ab, ba in (products(X, Y), products(Y, Z), products(Z, X)))
            assert MatrixPoint(X, Y, Z).is_commuting() == expected
            seen.add(expected)
    assert seen == {True, False}


def test_second_is_commuting_makes_no_product(matmul_calls):
    for pt in (point_from_partition(enumerate_partitions(3)[0]), MatrixPoint(E12, E21, Z2)):
        first = pt.is_commuting()
        made = len(matmul_calls)
        assert made and pt.is_commuting() == first
        assert len(matmul_calls) == made


@pytest.mark.parametrize("where", ["X", "Y", "Z", "v"])
@pytest.mark.parametrize("bad", [0.1, 2.0, True, False])
def test_point_entries_refuse_floats_and_bools(where, bad):
    args = {"X": [[0]], "Y": [[0]], "Z": [[0]], "v": [1]}
    args[where] = [bad] if where == "v" else [[bad]]
    with pytest.raises(TypeError, match=repr(bad)):
        MatrixPoint(**args)
    args[where] = ["1/2"] if where == "v" else [["1/2"]]
    assert MatrixPoint(**args).to_record()[where] in (["1/2"], [["1/2"]])


@pytest.mark.parametrize("g", [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1]], [[1, 0], [0, 1], [1, 1]]], ids=["3x3", "1x1", "3x2"])
def test_conjugating_matrix_of_another_shape_raises(g):
    pt = MatrixPoint(E12, Z2, Z2)
    shape = f"{len(g)}x{len(g[0])}"
    with pytest.raises(ValueError, match=f"g is {shape}, expected 2x2"):
        pt.conjugate(g)


def test_conjugate_of_a_commuting_point_commutes():
    # g^-1 is always computed from g: no inverse is taken on trust
    pt = point_from_partition(enumerate_partitions(3)[1])
    g = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    conj = pt.conjugate(g)
    assert pt.is_commuting() and conj.is_commuting()
    assert conj.provenance == "random-conjugate"
    for m, c in zip(pt.matrices(), conj.matrices()):
        assert naive_matmul(g, m, 3, 3, 3) == naive_matmul(c, g, 3, 3, 3)
    with pytest.raises(ValueError, match="singular"):
        pt.conjugate([[1, 1, 0], [1, 1, 0], [0, 0, 1]])


def test_cyclic_shift_vector():
    # X maps e1 -> 0, e2 -> e1; v = e2 generates everything
    pt = MatrixPoint(E12, Z2, Z2, v=[0, 1])
    assert is_cyclic(pt)


def test_not_cyclic_killed_vector():
    pt = MatrixPoint(E12, Z2, Z2, v=[1, 0])
    assert not is_cyclic(pt)


def test_rank_one_any_nonzero_vector_cyclic():
    pt = MatrixPoint([[5]], [[7]], [[-2]], v=[3])
    assert is_cyclic(pt)


def test_cyclicity_requires_vector():
    with pytest.raises(ValueError):
        is_cyclic(MatrixPoint(E12, Z2, Z2))


def test_critical_diagonal():
    d = [[1, 0], [0, 2]]
    assert MatrixPoint(d, d, d).is_commuting()


def test_not_critical():
    assert not MatrixPoint(E12, E21, Z2).is_commuting()


def is_critical_via_symbolic_gradient(pt):
    """dW = 0 at the point, read off the symbolic entries of dW evaluated
    there: a reference for ``MatrixPoint.is_commuting`` that shares no code
    with it."""
    cdga = MatrixCdga(pt.n)
    values = point_values(cdga.point(pt.X, pt.Y, pt.Z))
    return all(p.evaluate(values) == 0 for p in cdga.jacobian_entries())


def test_critical_matches_symbolic_gradient():
    rng = random.Random(13)
    agree = 0
    for _ in range(100):
        pt = MatrixPoint(
            *[
                [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
                for _ in range(3)
            ]
        )
        assert pt.is_commuting() == is_critical_via_symbolic_gradient(pt)
        agree += 1
    assert agree == 100


def test_conjugation_invariance():
    rng = random.Random(19)
    base = point_from_partition(enumerate_partitions(3)[2])
    for _ in range(10):
        g = random_invertible(3, rng)
        conj = base.conjugate(g)
        assert conj.is_commuting()
        assert is_cyclic(conj)
    bad = MatrixPoint(E12, E21, Z2, v=[1, 1])
    for _ in range(5):
        g = random_invertible(2, rng)
        assert bad.conjugate(g).is_commuting() == bad.is_commuting()


def test_conjugate_matches_list_products():
    # g M = (g M g^-1) g, checked with plain-list products
    rng = random.Random(23)
    base = point_from_partition(enumerate_partitions(3)[2])
    for _ in range(5):
        g = random_invertible(3, rng)
        conj = base.conjugate(g)
        for m, c in zip(base.matrices(), conj.matrices()):
            assert naive_matmul(g, m, 3, 3, 3) == naive_matmul(c, g, 3, 3, 3)
        assert conj.v == [sum(g[i][j] * base.v[j] for j in range(3)) for i in range(3)]


# -- plane partitions --------------------------------------------------------------


def test_partition_rejects_non_closed():
    with pytest.raises(ValueError):
        PlanePartition({(1, 0, 0)})


def test_partition_cells_lie_in_n3():
    # a negative coordinate was never stepped down to, and the empty set
    # reached point_from_partition as a KeyError
    for cells in ({(-1, 0, 0), (0, 0, 0)}, {(0, 0, 0), (0, 0)}, {(0, 0, 0, 0)}, {(0, 0, 0.0)}, {(0, 0, True)}):
        with pytest.raises(ValueError, match="not in N\\^3"):
            PlanePartition(cells)
    with pytest.raises(ValueError, match="at least one cell"):
        PlanePartition(set())
    for n in (0, -1):
        with pytest.raises(ValueError, match="size must be positive"):
            nilpotent_regular_point(n)


@pytest.mark.parametrize("strategy", [enumerate_partitions, enumerate_partitions_by_heights])
@pytest.mark.parametrize("n", [0, -1])
def test_partition_enumerators_refuse_a_size_below_one(strategy, n):
    with pytest.raises(ValueError, match="size must be positive"):
        strategy(n)


@pytest.mark.parametrize(
    "n,count", [(1, 1), (2, 3), (3, 6), (4, 13), (5, 24), (6, 48), (7, 86), (8, 160)]
)
def test_partition_counts_two_strategies(n, count):
    a = enumerate_partitions(n)
    b = enumerate_partitions_by_heights(n)
    for strategy in (a, b):
        # neither strategy deduplicates, so a repeat would show here
        assert len(strategy) == len(set(p.cells for p in strategy)) == count
    assert [p.cells for p in a] == [p.cells for p in b]


def test_point_from_single_box():
    pt = point_from_partition(PlanePartition({(0, 0, 0)}))
    assert pt.n == 1
    assert pt.X == [[0]] and pt.Y == [[0]] and pt.Z == [[0]]
    assert pt.is_commuting() and is_cyclic(pt)


def test_point_from_two_boxes_is_shift():
    pt = point_from_partition(PlanePartition({(0, 0, 0), (1, 0, 0)}))
    assert pt.n == 2
    # multiplication by x is the nilpotent shift, y and z act by zero
    assert pt.X in ([[0, 0], [1, 0]], [[0, 1], [0, 0]])
    assert pt.Y == Z2 and pt.Z == Z2
    assert pt.is_commuting() and is_cyclic(pt)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_all_partition_points_critical_cyclic(n):
    for pp in enumerate_partitions(n):
        pt = point_from_partition(pp)
        assert pt.is_commuting()
        assert is_cyclic(pt)


def test_random_conjugates_stay_on_critical_locus():
    rng = random.Random(23)
    for pt in random_conjugate_points(3, 10, rng):
        assert pt.is_commuting()
        assert is_cyclic(pt)


# -- the Koszul oracle ----------------------------------------------------------------


def test_oracle_origin():
    pt = MatrixPoint([[0]], [[0]], [[0]], v=[1])
    rep = koszul_ext_oracle(pt)
    assert rep["dims"] == {0: 1, 1: 3, 2: 3, 3: 1}
    assert rep["euler"] == 0
    assert rep["pairing_perfect"]


def test_oracle_two_distinct_points():
    X = [[1, 0], [0, 2]]
    Y = [[3, 0], [0, 5]]
    Z = [[7, 0], [0, 11]]
    rep = koszul_ext_oracle(MatrixPoint(X, Y, Z))
    assert rep["dims"] == {0: 2, 1: 6, 2: 6, 3: 2}
    assert rep["euler"] == 0
    assert rep["pairing_perfect"]


def test_oracle_rejects_noncommuting():
    with pytest.raises(ValueError):
        koszul_ext_oracle(MatrixPoint(E12, E21, Z2))


def test_oracle_euler_zero_on_corpus():
    for pp in enumerate_partitions(3):
        rep = koszul_ext_oracle(point_from_partition(pp))
        assert rep["euler"] == 0
        assert rep["pairing_perfect"]
        assert rep["dims"][0] >= 1


def reference_trace_pairing_rank(ra, rb, slots, n, field):
    """Rank of the pairing built entry by entry from tr(a b), slot by slot."""
    nn = n * n

    def tr_pair(va, vb):
        acc = field.zero
        for s in range(slots):
            base = s * nn
            for p in range(n):
                for q in range(n):
                    acc = field.add(acc, field.mul(va[base + p * n + q], vb[base + q * n + p]))
        return acc

    return DenseMatrix(field, len(ra), len(rb), [[tr_pair(va, vb) for vb in rb] for va in ra]).rank()


@pytest.mark.parametrize("field", [QQ, GF(1048583)], ids=["QQ", "GF(p)"])
@pytest.mark.parametrize("n", [2, 3])
def test_oracle_pairing_rank_matches_tr_pair(n, field):
    # sparse vectors, so the rank depends on which labels pair up
    rng = random.Random(n)

    def vectors(length):
        out = []
        for _ in range(rng.randint(1, 5)):
            v = [field.zero] * length
            for idx in rng.sample(range(length), rng.randint(1, 2)):
                v[idx] = field.of(Fraction(rng.choice([1, -1, 3]), rng.randint(1, 3)))
            out.append(v)
        return out

    for _ in range(20):
        for slots in (1, 3):
            ra, rb = vectors(slots * n * n), vectors(slots * n * n)
            assert _trace_pairing_rank(
                list(map(sparsify, ra)), list(map(sparsify, rb)), slots, n, field
            ) == reference_trace_pairing_rank(
                ra, rb, slots, n, field
            )


def test_oracle_eliminates_each_differential_once(rref_calls):
    # one forward pass and one back-substitution per differential (ranks 9,
    # 27, 27, 9), each on the columns of its source outside the pivot rows
    # of the one before it, and forward passes alone for the two pairing ranks
    pt = point_from_partition(PlanePartition({(0, 0, 0), (1, 0, 0), (0, 1, 0)}))
    dims = koszul_ext_oracle(pt)["dims"]
    calls = list(rref_calls)
    r0 = 9 - dims[0]  # H^0 = ker d^0
    r1 = 27 - r0 - dims[1]
    shapes = [(27, 9), (27, 27 - r0), (9, 27 - r1)]
    forward = [(r, c) for kind, r, c in calls if kind == "forward"]
    assert forward[:3] == shapes and len(forward) == 5
    assert [(r, c) for kind, r, c in calls if kind == "back"] == shapes


def reference_koszul_differentials(pt):
    """Dense d0, d1, d2 of the Koszul complex, column by column from
    [m, E] = m E - E m on Fraction matrices: d0 E = ([X, E], [Y, E], [Z, E]),
    d1 (a, b, c) = ([Y, c] - [Z, b], [Z, a] - [X, c], [X, b] - [Y, a]) and
    d2 (a, b, c) = [X, a] + [Y, b] + [Z, c], E_pq at index p*n + q."""
    n = pt.n
    X, Y, Z = pt.matrices()

    def product(a, b):
        # the textbook sum over k of a[i][k] * b[k][j], skipping zero factors
        out = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for k in range(n):
                x = a[i][k]
                if x:
                    for j in range(n):
                        if b[k][j]:
                            out[i][j] += x * b[k][j]
        return out

    def br(m, e):
        me, em = product(m, e), product(e, m)
        return [[me[i][j] - em[i][j] for j in range(n)] for i in range(n)]

    def add(*ms):
        return [[sum(m[i][j] for m in ms) for j in range(n)] for i in range(n)]

    def neg(m):
        return [[-x for x in row] for row in m]

    def units(slots):
        for k in range(slots * n * n):
            yield [
                [[Fraction(int(s * n * n + i * n + j == k)) for j in range(n)] for i in range(n)]
                for s in range(slots)
            ]

    maps = (
        (1, lambda e: [br(X, e[0]), br(Y, e[0]), br(Z, e[0])]),
        (
            3,
            lambda e: [
                add(br(Y, e[2]), neg(br(Z, e[1]))),
                add(br(Z, e[0]), neg(br(X, e[2]))),
                add(br(X, e[1]), neg(br(Y, e[0]))),
            ],
        ),
        (3, lambda e: [add(br(X, e[0]), br(Y, e[1]), br(Z, e[2]))]),
    )
    out = []
    for slots, f in maps:
        columns = [[x for block in f(e) for row in block for x in row] for e in units(slots)]
        out.append([list(row) for row in zip(*columns)])
    return out


def fractional_point(n, rng):
    """A commuting point with non-integer entries: A, A^2 / 7 and I / 5 + A / 2."""
    A = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    A2 = naive_matmul(A, A, n, n, n)
    Y = [[x / 7 for x in row] for row in A2]
    Z = [[Fraction(int(i == j), 5) + A[i][j] / 2 for j in range(n)] for i in range(n)]
    return MatrixPoint(A, Y, Z)


@pytest.mark.parametrize("field", [QQ, GF(1048583)], ids=["QQ", "GF(p)"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_koszul_differentials_match_the_commutator_reference(n, field):
    rng = random.Random(n)
    pts = [point_from_partition(pp) for pp in enumerate_partitions(n)]
    pts += random_conjugate_points(n, 2, rng) + [fractional_point(n, rng)]
    assert any(x.denominator > 1 for m in pts[-1].matrices() for row in m for x in row)
    for pt in pts:
        got = _koszul_differentials(pt, field)
        for d, want in zip(got, reference_koszul_differentials(pt)):
            assert d.data == [[field.of(x) for x in row] for row in want]
            assert all(x or x is field.zero for row in d.data for x in row)


def test_gf_p_koszul_differentials_refuse_a_denominator_divisible_by_p():
    # an off-diagonal entry, and a scalar diagonal whose commutators all cancel
    p = 1048583
    for X, cancels in (([[0, Fraction(1, 2 * p)], [0, 0]], False), ([[Fraction(1, p), 0], [0, Fraction(1, p)]], True)):
        pt = MatrixPoint(X, Z2, Z2)
        with pytest.raises(ZeroDivisionError, match=f"divisible by {p}"):
            _koszul_differentials(pt, GF(p))
        with pytest.raises(ZeroDivisionError, match=f"divisible by {p}"):
            adjoint_matrix(X, GF(p))
        assert _koszul_differentials(pt, QQ)[0].is_zero() == cancels


def test_nilpotent_regular_point():
    pt = nilpotent_regular_point(3)
    assert pt.n == 3
    assert is_cyclic(pt) and pt.is_commuting()


@pytest.mark.parametrize("field", [QQ, GF(1048583)], ids=["QQ", "GF(p)"])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_adjoint_matrix_is_the_signed_commutator(n, sign, field):
    # column p*n + q holds sign * (m E_pq - E_pq m), entry (a, b) at row a*n + b;
    # sparse m with repeated diagonal entries, so some commutators cancel
    rng = random.Random(100 * n + sign)
    for _ in range(5):
        m = [[Fraction(rng.choice([0, 0, 0, 1, -2, 3]), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            m[i][i] = Fraction(rng.choice([0, 1]))
        got = _commutator_blocks([m], field, [[(0, 0, sign, 0)]])[0]
        for p in range(n):
            for q in range(n):
                e = [[Fraction(int((a, b) == (p, q))) for b in range(n)] for a in range(n)]
                me, em = naive_matmul(m, e, n, n, n), naive_matmul(e, m, n, n, n)
                for a in range(n):
                    for b in range(n):
                        assert got.data[a * n + b][p * n + q] == field.of(sign * (me[a][b] - em[a][b]))
        assert all(x or x is field.zero for row in got.data for x in row)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32), st.integers(0, 3), st.integers(0, 3))
def test_corpus_round_trip(n, seed, partitions, conjugated):
    rng = random.Random(seed)
    pps = enumerate_partitions(n)
    pts = [point_from_partition(rng.choice(pps)) for _ in range(partitions)]
    pts += random_conjugate_points(n, conjugated, rng)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.json"
        save_corpus(pts, path)
        back = load_corpus(path)
    assert [(p.n, p.X, p.Y, p.Z, p.v, p.provenance) for p in back] == [
        (p.n, p.X, p.Y, p.Z, p.v, p.provenance) for p in pts
    ]
