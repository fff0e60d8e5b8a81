import random
import re
from fractions import Fraction

import pytest

from critlocus.complexes import SymMatrix, _Point, add_entry
from critlocus.points import enumerate_partitions, point_from_partition, random_conjugate_points
from critlocus.potential import (
    MatrixCdga,
    _entry_images,
    build_cotangent_complex,
    build_potential,
    build_two_form,
    build_primitive_one_form,
    coaction_derivation,
    commutator,
    symbol_matrix,
    trace,
    verify_superpotential_identities,
)
from critlocus.superpoly import GeneratorTable, SuperPoly


def test_potential_rank_one_vanishes():
    assert build_potential(1).is_zero()


def test_potential_cyclic_trace_identity():
    # tr(X [Y,Z]) = tr([X,Y] Z) termwise
    t = GeneratorTable.canonical(2)
    x = symbol_matrix(t, "X0", 2)
    y = symbol_matrix(t, "Y0", 2)
    z = symbol_matrix(t, "Z0", 2)
    w1 = trace(x.matmul(commutator(y, z)))
    w2 = trace(commutator(x, y).matmul(z))
    assert w1 == w2
    assert w1 == build_potential(2, t)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_partial_w_is_transposed_commutator(n):
    # the X block of dW comes first in jacobian_entries, row by row
    cdga = MatrixCdga(n)
    partials = cdga.jacobian_entries()[: n * n]
    comm_t = commutator(cdga.y0, cdga.z0).transpose()
    for i in range(n):
        for j in range(n):
            assert partials[i * n + j] == comm_t.entry(i, j)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_jacobian_entries_match_commutators_entrywise(n):
    cdga = MatrixCdga(n)
    assert cdga.jacobian_entries() == cdga.commutator_entries_transposed()


def _partial_by_walk(cdga, name):
    """dW/d(name): every term of W holding the generator, with it removed
    and its exponent brought down."""
    marker = cdga.table.idx(name)
    terms = {}
    for (e, o), c in cdga.potential.terms.items():
        d = dict(e)
        if marker not in d:
            continue
        exp = d.pop(marker)
        m = (tuple(sorted(d.items())), o)
        terms[m] = terms.get(m, 0) + c * exp
    return SuperPoly(cdga.table, terms)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jacobian_entries_match_a_walk_over_w(n):
    cdga = MatrixCdga(n)
    want = [
        _partial_by_walk(cdga, f"{block}0({i},{j})")
        for block in ("X", "Y", "Z")
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    ]
    assert cdga.jacobian_entries() == want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symbol_matrix_reads_the_generators_by_name(n):
    t = GeneratorTable.canonical(n)
    for table in (t, t.extend_with_forms()):
        for name, _ in GeneratorTable.MATRIX_BLOCKS:
            rows = [[SuperPoly.gen(table, f"{name}({i},{j})") for j in range(1, n + 1)] for i in range(1, n + 1)]
            assert symbol_matrix(table, name, n) == SymMatrix(table, n, n, rows)


def test_symbol_matrix_refuses_a_table_of_another_rank():
    # by offset, X0(1,3) of a rank-3 read would be a Y0 entry of the rank-2 table
    for table, n in ((GeneratorTable.canonical(2), 3), (GeneratorTable.canonical(3), 2)):
        with pytest.raises(ValueError, match=f"rank-{n} .*rank {table.n}"):
            symbol_matrix(table, "X0", n)
    hand = GeneratorTable(GeneratorTable.canonical(1).gens)
    with pytest.raises(ValueError, match="rank None"):
        symbol_matrix(hand, "X0", 1)
    with pytest.raises(ValueError):
        build_potential(2, GeneratorTable.canonical(3))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_entry_images_are_keyed_by_the_generator_at_their_position(n):
    t = GeneratorTable.canonical(n)
    # entry (i,j) is the scalar i*n + j + 1, which names its position
    m = SymMatrix(t, n, n, [[SuperPoly.scalar(t, i * n + j + 1) for j in range(n)] for i in range(n)])
    for name, _ in GeneratorTable.MATRIX_BLOCKS:
        images = _entry_images(t, name, m)
        assert len(images) == n * n
        for k, p in images.items():
            i, j = divmod(p.terms[((), ())] - 1, n)
            assert t.gen(k).name == f"{name}({i + 1},{j + 1})"


def test_differential_on_quoted_generators():
    cdga = MatrixCdga(2)
    t = cdga.table
    d = cdga.differential
    comm_t = commutator(cdga.y0, cdga.z0).transpose()
    assert d.image_of(t.idx("Xm1(1,2)")) == comm_t.entry(0, 1)
    # dXm1 equals the X partial of W
    assert d.image_of(t.idx("Xm1(2,1)")) == cdga.jacobian_entries()[2]


def test_differential_on_t_block():
    cdga = MatrixCdga(2)
    t = cdga.table
    mu = commutator(cdga.x0, cdga.xm1.transpose())
    for m in (
        commutator(cdga.y0, cdga.ym1.transpose()),
        commutator(cdga.z0, cdga.zm1.transpose()),
    ):
        mu = mu.add(m)
    assert cdga.differential.image_of(t.idx("T(1,1)")) == mu.entry(0, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_d_squared_zero_on_all_generators(n):
    assert MatrixCdga(n).d_squared_on_generators() == []


def test_untransposed_t_differential_fails_rank_three():
    # The naive assignment dT = sum [X0, Xm1] is not square-zero once
    # n >= 3; this pins the transpose bookkeeping.
    cdga = MatrixCdga(3)
    t = cdga.table
    from critlocus.superpoly import Derivation

    images = cdga._odd_images()
    mu = commutator(cdga.x0, cdga.xm1)
    for m in (commutator(cdga.y0, cdga.ym1), commutator(cdga.z0, cdga.zm1)):
        mu = mu.add(m)
    for i in range(3):
        for j in range(3):
            images[t.idx(f"T({i + 1},{j + 1})")] = mu.entry(i, j)
    naive = Derivation(t, images, parity=1)
    bad = [
        k
        for k in range(len(t))
        if not naive.apply(naive.image_of(k)).is_zero()
    ]
    assert bad, "naive T differential unexpectedly square-zero"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_koszul_display_d_squared(n):
    disp = MatrixCdga(n).koszul_display()
    ok, failures = disp.check_d_squared()
    assert ok, failures


def test_koszul_display_vanishes_at_commuting_point():
    cdga = MatrixCdga(2)
    disp = cdga.koszul_display()
    pt = cdga.point([[1, 0], [0, 2]], [[3, 0], [0, 4]], [[5, 0], [0, 6]])
    ev = disp.evaluate_at(pt)
    assert ev.differential(-1).is_zero()


def test_koszul_display_nonzero_at_noncommuting_point():
    cdga = MatrixCdga(2)
    disp = cdga.koszul_display()
    pt = cdga.point([[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, 1]])
    ev = disp.evaluate_at(pt)
    assert not ev.differential(-1).is_zero()


def test_coaction_makes_differential_equivariant():
    cdga = MatrixCdga(2)
    d = cdga.differential
    for a in (1, 2):
        for b in (1, 2):
            rho = coaction_derivation(cdga, a, b)
            for k in range(len(cdga.table)):
                g = SuperPoly.gen(cdga.table, k)
                lhs = d.apply(rho.apply(g))
                rhs = rho.apply(d.apply(g))
                assert lhs == rhs, (a, b, cdga.table.gen(k).name)


def _elementary(table, n, a, b):
    rows = [{} for _ in range(n)]
    rows[a - 1][b - 1] = SuperPoly.one(table)
    return SymMatrix.from_sparse(table, n, n, rows)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coaction_images_are_the_commutators(n):
    # [E_ab, M] on X0, Y0, Z0, T and -[E_ba, M] on Xm1, Ym1, Zm1, entry by
    # entry, read by generator name; every stored image is nonzero
    cdga = MatrixCdga(n)
    t = cdga.table
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            rho = coaction_derivation(cdga, a, b)
            assert all(img.terms for img in rho.images.values())
            for name, _ in GeneratorTable.MATRIX_BLOCKS:
                m = symbol_matrix(t, name, n)
                if name in ("Xm1", "Ym1", "Zm1"):
                    want = commutator(_elementary(t, n, b, a), m).scale(-1)
                else:
                    want = commutator(_elementary(t, n, a, b), m)
                for i in range(n):
                    for j in range(n):
                        got = rho.image_of(t.idx(f"{name}({i + 1},{j + 1})"))
                        assert got == want.entry(i, j), (a, b, name, i, j)


@pytest.mark.parametrize("bad", [0, 3, -1, True, 1.0, "1", None])
def test_coaction_refuses_an_index_outside_one_to_n(bad):
    cdga = MatrixCdga(2)
    for a, b in ((bad, 1), (1, bad)):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            coaction_derivation(cdga, a, b)


# -- cotangent model ---------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_cotangent_ranks_and_euler(n):
    model = build_cotangent_complex(n)
    nn = n * n
    assert model.complex.ranks == {-2: nn, -1: 3 * nn, 0: 3 * nn, 1: nn}
    assert model.complex.euler_characteristic() == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cotangent_flatness(n):
    model = build_cotangent_complex(n)
    rep = model.flatness_report()
    assert rep["ok"], rep["failures"][:3]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cotangent_self_duality(n):
    model = build_cotangent_complex(n)
    rep = model.self_duality_report()
    assert rep["ok"], rep
    assert rep["middle_symmetric"]


def test_middle_block_matches_quoted_pattern():
    # the -1 -> 0 block is minus the de Rham derivative of the odd
    # differential, i.e. minus the pattern
    # (Y0 ddrZ0)^T + (ddrY0 Z0)^T - (Z0 ddrY0)^T - (ddrZ0 Y0)^T
    n = 2
    model = build_cotangent_complex(n)
    cdga = model.cdga
    t = cdga.table
    got = model.complex.differential(-1)
    hand = [{} for _ in range(3 * n * n)]

    def eta_slot(block, p, q):
        return t.idx(f"{block}0({p + 1},{q + 1})") - t.idx("X0(1,1)")

    def xi_slot(block, p, q):
        return t.idx(f"{block}m1({p + 1},{q + 1})") - t.idx("Xm1(1,1)")

    for i in range(n):
        for j in range(n):
            col = xi_slot("X", i, j)
            for k in range(n):
                # + Y0(j+1,k+1) eta_Z(k,i) + Z0(k+1,i+1) eta_Y(j,k)
                # - Y0(k+1,i+1) eta_Z(j,k) - Z0(j+1,k+1) eta_Y(k,i)
                add_entry(hand[eta_slot("Z", k, i)], col, SuperPoly.gen(t, f"Y0({j + 1},{k + 1})"))
                add_entry(hand[eta_slot("Y", j, k)], col, SuperPoly.gen(t, f"Z0({k + 1},{i + 1})"))
                add_entry(hand[eta_slot("Z", j, k)], col, -SuperPoly.gen(t, f"Y0({k + 1},{i + 1})"))
                add_entry(hand[eta_slot("Y", k, i)], col, -SuperPoly.gen(t, f"Z0({j + 1},{k + 1})"))
    hand = SymMatrix.from_sparse(t, 3 * n * n, 3 * n * n, hand)
    for i in range(n):
        for j in range(n):
            col = xi_slot("X", i, j)
            for row in range(3 * n * n):
                assert got.entry(row, col) == hand.entry(row, col).scale(-1)


def test_cotangent_origin_homology_rank_one():
    model = build_cotangent_complex(1)
    z = [[0]]
    ev = model.complex.evaluate_at(model.cdga.point(z, z, z))
    assert ev.homology_dims() == {-2: 1, -1: 3, 0: 3, 1: 1}


def test_cotangent_evaluation_at_noncommuting_point_not_complex():
    model = build_cotangent_complex(2)
    X = [[0, 1], [0, 0]]
    Y = [[0, 0], [1, 0]]
    Z = [[1, 0], [0, 1]]
    ev = model.complex.evaluate_at(model.cdga.point(X, Y, Z))
    ok, _ = ev.check_d_squared()
    assert not ok


def test_cotangent_evaluation_at_commuting_point_is_complex():
    model = build_cotangent_complex(2)
    X = [[0, 1], [0, 0]]
    Y = [[2, 0], [0, 2]]
    Z = [[0, 3], [0, 0]]
    ev = model.complex.evaluate_at(model.cdga.point(X, Y, Z))
    ok, failures = ev.check_d_squared()
    assert ok, failures
    dims = ev.homology_dims()
    assert sum((-1) ** k * v for k, v in dims.items()) == 0


# -- the 2-form and the superpotential identities ------------------------------


def test_two_form_term_count_and_degrees():
    for n in (1, 2):
        cdga = MatrixCdga(n)
        omega = build_two_form(cdga)
        assert len(omega.terms) == 3 * n * n
        assert omega.fdeg() == 2
        assert omega.cdeg() == -1


def test_two_form_rank_one_expansion():
    cdga = MatrixCdga(1)
    ext, _, ddr = cdga.extended()
    omega = build_two_form(cdga)
    base = len(cdga.table)
    want = SuperPoly.zero(ext)
    for block in ("X", "Y", "Z"):
        xi = SuperPoly.gen(ext, base + cdga.table.idx(f"{block}m1(1,1)"))
        eta = SuperPoly.gen(ext, base + cdga.table.idx(f"{block}0(1,1)"))
        want += xi * eta
    assert omega == want


def test_primitive_one_form_degree():
    cdga = MatrixCdga(2)
    phi = build_primitive_one_form(cdga)
    assert phi.fdeg() == 1
    assert phi.cdeg() == -1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_superpotential_identities(n):
    rep = verify_superpotential_identities(MatrixCdga(n))
    assert rep["ddr_phi_equals_omega"]
    assert rep["ddr_bigphi_plus_d_phi_zero"]
    assert rep["omega_closed"]
    assert rep["calculus_consistent"]
    assert rep["ok"]


# -- points ---------------------------------------------------------------------


def _triples(n, rng):
    """Partition points, conjugated points, and triples with zero and
    rational entries, as lists of rows."""
    pts = [point_from_partition(pp) for pp in enumerate_partitions(n)]
    pts += random_conjugate_points(n, 3, rng)
    out = [pt.matrices() for pt in pts]
    zero = [[0] * n for _ in range(n)]
    out.append((zero, zero, zero))
    entry = lambda: rng.choice([0, 0, 1, -3, Fraction(1, 2), "-2/3", Fraction(5, 6)])
    out += [tuple([[entry() for _ in range(n)] for _ in range(n)] for _ in range(3)) for _ in range(3)]
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_point_reads_entries_by_table_offset(n):
    # the canonical table lists X0, Y0, Z0 first, each row-major
    cdga = MatrixCdga(n)
    for X, Y, Z in _triples(n, random.Random(n)):
        by_name = {
            f"{name}({i + 1},{j + 1})": m[i][j]
            for name, m in (("X0", X), ("Y0", Y), ("Z0", Z))
            for i in range(n)
            for j in range(n)
        }
        want = _Point(cdga.table, {cdga.table.idx(name): Fraction(x) for name, x in by_name.items()})
        got = cdga.point(X, Y, Z)
        assert (got.table, got.den, got.nums, got.nonzero) == (want.table, want.den, want.nums, want.nonzero)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False])
def test_point_assignment_refuses_float_and_bool_entries(bad):
    cdga = MatrixCdga(2)
    with pytest.raises(TypeError, match=repr(bad)):
        cdga.point([[0, 0], [0, bad]], [[0, 0], [0, 0]], [[0, 0], [0, 0]])
    with pytest.raises(TypeError, match=repr(bad)):
        cdga.point([[0, 0], [0, 0]], [[0, 0], [0, 0]], [[bad, 0], [0, 0]])
    half = cdga.point([["1/2", 0], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]])
    assert (half.den, half.nums[0], half.nonzero) == (2, 1, [0])
