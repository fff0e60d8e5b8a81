import itertools
import random
from fractions import Fraction

import pytest

from conftest import apply_vector, sparsify
from critlocus.complexes import ChainMap, FreeComplex
from critlocus.family import (
    FULL_MASK,
    MASKS_BY_DEGREE,
    BimodElement,
    CANONICAL_COMPARISON,
    EPS_BITS,
    EndomorphismModel,
    TangentModel,
    build_comparison_map,
    build_ginzburg_resolution,
    build_universal_family,
    check_ext_point,
    eps_merge_sign,
    endomorphism_model,
    ext_dims_at,
    popcount,
    product_sign,
    trace_pairing_matrix,
)
from critlocus.freenc import NCElement
from critlocus.linalg import DenseMatrix
from critlocus.potential import CotangentModel, MatrixCdga, build_cotangent_complex
from critlocus.points import (
    MatrixPoint,
    PlanePartition,
    enumerate_partitions,
    koszul_ext_oracle,
    nilpotent_regular_point,
    point_from_partition,
    random_conjugate_points,
)
from critlocus.points import _koszul_differentials
from critlocus.scalars import DEFAULT_PRIME, GF, QQ


# -- the module structure ------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_leibniz_holds_for_all_letters(n):
    fam = build_universal_family(n)
    rep = fam.leibniz_report()
    assert rep["ok"], rep


def test_action_resolution_record():
    fam = build_universal_family(2)
    assert fam.provenance["u"] == "transposed symbol"
    assert fam.provenance["v"] == "transposed symbol"
    assert fam.provenance["w"] == "transposed symbol"
    assert fam.provenance["t"] == "symbol"


def test_rank_one_actions_are_single_generators():
    fam = build_universal_family(1)
    t = fam.cdga.table
    # all commutators vanish, each letter acts by its lone symbol
    for letter, name in (("u", "Xm1(1,1)"), ("v", "Ym1(1,1)"), ("w", "Zm1(1,1)"), ("t", "T(1,1)")):
        m = fam.matrices[letter]
        assert (m.rows, m.cols) == (1, 1)
        from critlocus.superpoly import SuperPoly

        assert m.entry(0, 0) == SuperPoly.gen(t, name)


def test_word_action_is_matrix_product():
    fam = build_universal_family(2)
    xy = fam.act(NCElement({"xy": 1}))
    assert xy == fam.matrices["x"].matmul(fam.matrices["y"])


def test_leibniz_fails_for_untransposed_u():
    fam = build_universal_family(2)
    broken = dict(fam.matrices)
    broken["u"] = fam.cdga.xm1  # the untransposed symbol matrix
    from critlocus.family import DModuleAction

    bad = DModuleAction(fam.cdga, broken, {})
    defect = bad.leibniz_defect("u")
    assert not defect.is_zero()


# -- the bimodule resolution -----------------------------------------------------


def test_ginzburg_composites_vanish_literally():
    composites = build_ginzburg_resolution().composites()
    standing = [name for name, image in composites.items() if not image().normalize().is_zero()]
    assert not standing, standing


def test_ginzburg_alpha0_on_x():
    res = build_ginzburg_resolution()
    img = res.alpha0(BimodElement.term((), "x", ()))
    assert img == BimodElement.term(("x",), None, ()) - BimodElement.term(
        (), None, ("x",)
    )


def test_ginzburg_alpha_m1_quoted_expansion():
    res = build_ginzburg_resolution()
    img = res.alpha_m1(BimodElement.term((), "x*", ()))
    want = (
        BimodElement.term(("y",), "z", ())
        + BimodElement.term((), "y", ("z",))
        - BimodElement.term(("z",), "y", ())
        - BimodElement.term((), "z", ("y",))
    )
    assert img == want


@pytest.mark.parametrize("name,accepted", [("alpha0", "x"), ("alpha_m1", "x*"), ("alpha_m2", None)])
def test_ginzburg_maps_refuse_the_slots_they_do_not_accept(name, accepted):
    apply = getattr(build_ginzburg_resolution(), name)
    apply(BimodElement.term(("y",), accepted, ("z",)))
    for slot in (None, "x", "x*", "q", "q*"):
        if slot != accepted:
            with pytest.raises(ValueError, match=f"^{name} expects"):
                apply(BimodElement.term(("y",), slot, ("z",)))


def test_ginzburg_needs_rewriting_before_cancelling():
    res = build_ginzburg_resolution()
    img = res.alpha0(res.alpha_m1(BimodElement.term((), "x*", ())))
    # before sorting the words the expansion does not collapse
    assert not img.is_zero()
    assert img.normalize().is_zero()


def test_bimodule_coefficients_are_ints_when_integral():
    half = BimodElement.term(("y", "x"), "z", (), Fraction(1, 2))
    other_half = BimodElement.term(("x", "y"), "z", (), Fraction(1, 2))
    for whole in (half + half, (half + other_half).normalize(), half.scale(2)):
        assert list(whole.terms.values()) == [1]
        assert all(type(c) is int for c in whole.terms.values())
    with pytest.raises(TypeError, match="0.5"):
        half.scale(0.5)


# -- the endomorphism model -------------------------------------------------------


def connection_flatness_defect(model):
    """dA + A^2 for the superconnection A of ``model``, in the algebra
    End(V) (x) cdga (x) Lambda, as {mask: matrix} over the masks where it
    is nonzero: computed from the terms of A, not from the complex built
    out of them."""
    d = model.cdga.differential
    acc = {}

    def add(mask, m):
        acc[mask] = m if mask not in acc else acc[mask].add(m)

    for matrix, amask, sgn, _ in model.terms:
        add(amask, matrix.map_entries(d.apply).scale(sgn))
    for m1, a1, s1, _ in model.terms:
        for m2, a2, s2, p2 in model.terms:
            sign = product_sign(a1, a2, p2)
            if sign:
                add(a1 | a2, m1.matmul(m2).scale(s1 * s2 * sign))
    return {mask: m for mask, m in acc.items() if not m.is_zero()}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_endo_model_flat(n):
    model = EndomorphismModel(build_universal_family(n))
    assert not connection_flatness_defect(model)
    assert model.complex.check_flatness(model.cdga.differential)[0]


def reference_product_sign(a1, a2, p2):
    """Sign of (M1 (x) e_a1)(M2 (x) e_a2): sort the letters of e_a1 followed
    by those of e_a2, one sign per inversion, then (-1)^(|a1| p2)."""
    if a1 & a2:
        return 0
    letters = [b for b in range(3) if a1 >> b & 1] + [b for b in range(3) if a2 >> b & 1]
    inversions = sum(1 for s in range(len(letters)) for t in range(s + 1, len(letters)) if letters[s] > letters[t])
    return (-1) ** (inversions + bin(a1).count("1") * p2)


@pytest.mark.parametrize("p2", [0, 1])
def test_product_sign_matches_the_inversion_count(p2):
    for a1 in range(8):
        for a2 in range(8):
            assert product_sign(a1, a2, p2) == reference_product_sign(a1, a2, p2), (a1, a2)
    assert product_sign(1, 3, p2) == 0 and product_sign(7, 7, p2) == 0
    # e_y e_x = -e_x e_y, and an odd e_x passes an odd matrix at another sign
    assert product_sign(2, 1, 0) == -1 and product_sign(1, 2, 1) == -1 and product_sign(3, 4, 1) == 1


def test_endo_ranks_and_euler():
    model = endomorphism_model(2)
    assert model.ranks == {0: 4, 1: 12, 2: 12, 3: 4}
    assert model.complex.euler_characteristic() == 0


def endo_complex_at_point(X, Y, Z, field=QQ) -> FreeComplex:
    """Numeric twisted-End complex assembled directly from a point.

    The reference for the model's evaluation: it never touches SuperPoly.
    Only the adjacent blocks survive at a point, and they are the graded
    commutators with the evaluated matrices.
    """
    n = len(X)
    nn = n * n
    ranks = {0: nn, 1: 3 * nn, 2: 3 * nn, 3: nn}
    mats = {
        EPS_BITS["x"]: X,
        EPS_BITS["y"]: Y,
        EPS_BITS["z"]: Z,
    }

    def slot(i, j, mask):
        q = popcount(mask)
        return MASKS_BY_DEGREE[q].index(mask) * nn + i * n + j

    diff = {}
    for q in range(3):
        m = [[field.zero] * ranks[q] for _ in range(ranks[q + 1])]
        for mask in MASKS_BY_DEGREE[q]:
            for k in range(n):
                for l in range(n):
                    col = slot(k, l, mask)
                    for amask, mat in mats.items():
                        ls = eps_merge_sign(amask, mask)
                        rs = eps_merge_sign(mask, amask)
                        if ls:
                            for r in range(n):
                                val = field.of(Fraction(mat[r][k]))
                                if not field.is_zero(val):
                                    row = slot(r, l, amask | mask)
                                    m[row][col] = field.add(m[row][col], field.mul(field.of(ls), val))
                        if rs:
                            tot = rs * (1 if (q & 1) else -1)
                            for c2 in range(n):
                                val = field.of(Fraction(mat[l][c2]))
                                if not field.is_zero(val):
                                    row = slot(k, c2, mask | amask)
                                    m[row][col] = field.add(m[row][col], field.mul(field.of(tot), val))
        diff[q] = DenseMatrix(field, ranks[q + 1], ranks[q], m)
    return FreeComplex(field, ranks, diff)


def test_evaluation_commutes_with_direct_assembly():
    rng = random.Random(3)
    for n in (2, 3):
        model = endomorphism_model(n)
        pts = [point_from_partition(pp) for pp in enumerate_partitions(n)]
        pts += random_conjugate_points(n, 5, rng)
        for field in (QQ, GF(DEFAULT_PRIME)):
            for pt in pts:
                via_symbolic = model.evaluate_at(pt.X, pt.Y, pt.Z, field)
                direct = endo_complex_at_point(pt.X, pt.Y, pt.Z, field)
                for q in range(3):
                    assert via_symbolic.differential(q) == direct.differential(q)


# -- the product the evaluated model differentiates ----------------------------


def slot_product(n, p, a, q, b):
    """The product in End(V) (x) Lambda(e_x, e_y, e_z) at a point, where
    every entry is a scalar: (A (x) e_S)(B (x) e_T) = eps_merge_sign(S, T)
    AB (x) e_(S|T).  ``a`` and ``b`` are slot vectors of degrees p and q:
    the n x n blocks of the masks of MASKS_BY_DEGREE, each read row-major."""
    nn = n * n
    out = [0] * (nn * len(MASKS_BY_DEGREE[p + q]))
    for s, smask in enumerate(MASKS_BY_DEGREE[p]):
        for t, tmask in enumerate(MASKS_BY_DEGREE[q]):
            sign = eps_merge_sign(smask, tmask)
            if not sign:
                continue
            base = MASKS_BY_DEGREE[p + q].index(smask | tmask) * nn
            for i in range(n):
                for k in range(n):
                    x = a[s * nn + i * n + k]
                    if x:
                        for j in range(n):
                            out[base + i * n + j] += sign * x * b[t * nn + k * n + j]
    return out


LEIBNIZ_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0))


def leibniz_failures(diffs, n, rng, draws=3):
    """The degree pairs (p, q), one per draw, at which d(ab) = (da)b +
    (-1)^p a(db) fails for seeded integer chains a, b, d being the three
    differentials ``diffs`` on the model's slots."""
    nn = n * n
    failed = []
    for p, q in LEIBNIZ_PAIRS:
        for _ in range(draws):
            a = [rng.randint(-3, 3) for _ in range(nn * len(MASKS_BY_DEGREE[p]))]
            b = [rng.randint(-3, 3) for _ in range(nn * len(MASKS_BY_DEGREE[q]))]
            lhs = apply_vector(diffs[p + q], slot_product(n, p, a, q, b))
            left = slot_product(n, p + 1, apply_vector(diffs[p], a), q, b)
            right = slot_product(n, p, a, q + 1, apply_vector(diffs[q], b))
            if lhs != [x + (-1) ** p * y for x, y in zip(left, right)]:
                failed.append((p, q))
    return failed


def test_evaluated_model_is_a_graded_derivation_of_the_slot_product():
    # at a point the differential is [A, -] for A = X e_x + Y e_y + Z e_z, a
    # graded derivation of the product exactly when product_sign and the
    # slot order of MASKS_BY_DEGREE encode End(V) (x) Lambda
    rng = random.Random(18)
    checks = 0
    for n in (1, 2, 3):
        model = endomorphism_model(n)
        pts = [point_from_partition(pp) for pp in enumerate_partitions(n)]
        pts += random_conjugate_points(n, 3, random.Random(n))
        for pt in pts:
            cx = model.evaluate_at(pt.X, pt.Y, pt.Z)
            assert leibniz_failures([cx.differential(q) for q in range(3)], n, rng) == []
            checks += 3 * len(LEIBNIZ_PAIRS)
    assert checks == 342
    # the oracle's Koszul differentials write the e_x e_z slot as e_z e_x, so
    # they fail wherever that slot is reached; (0, 0) never reaches it
    pts = [point_from_partition(pp) for pp in enumerate_partitions(2)]
    for pt in pts + random_conjugate_points(2, 3, random.Random(2)):
        failed = leibniz_failures(_koszul_differentials(pt, QQ), 2, rng)
        assert failed and (0, 0) not in failed


def _first_partition_point(n):
    return point_from_partition(next(iter(enumerate_partitions(n))))


def test_evaluation_rejects_matrices_of_another_size():
    pt3 = _first_partition_point(3)
    with pytest.raises(ValueError, match=r"X is 3x3, expected 2x2"):
        endomorphism_model(2).evaluate_at(pt3.X, pt3.Y, pt3.Z)


def test_ext_dims_rejects_a_smaller_model():
    with pytest.raises(ValueError, match="rank-2 model cannot evaluate a rank-3 point"):
        ext_dims_at(_first_partition_point(3), model=endomorphism_model(2))


def test_ext_dims_rejects_a_larger_model():
    with pytest.raises(ValueError, match="rank-3 model cannot evaluate a rank-2 point"):
        ext_dims_at(_first_partition_point(2), model=endomorphism_model(3))


@pytest.mark.parametrize(
    "build, n",
    [(build_universal_family, 1), (build_universal_family, 3), (build_comparison_map, 3), (build_cotangent_complex, 3)],
)
def test_builders_reject_a_cdga_of_another_rank(build, n):
    with pytest.raises(ValueError, match=f"rank-2 cdga cannot build a rank-{n} model"):
        build(n, MatrixCdga(2))


def test_ext_dims_origin_rank_one():
    pt = MatrixPoint([[0]], [[0]], [[0]], v=[1])
    rep = ext_dims_at(pt)
    assert rep["dims"] == {0: 1, 1: 3, 2: 3, 3: 1}
    assert rep["euler"] == 0
    assert rep["pairing_perfect"]


def test_ext_dims_rejects_noncommuting():
    pt = MatrixPoint([[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        ext_dims_at(pt)


def test_ext_dims_two_distinct_points():
    pt = MatrixPoint(
        [[1, 0], [0, 2]], [[3, 0], [0, 5]], [[7, 0], [0, 11]], v=[1, 1]
    )
    rep = ext_dims_at(pt)
    assert rep["dims"] == {0: 2, 1: 6, 2: 6, 3: 2}
    assert rep["pairing_perfect"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ext_dims_match_oracle_on_partition_points(n):
    model = endomorphism_model(n)
    for pp in enumerate_partitions(n):
        pt = point_from_partition(pp)
        mine = ext_dims_at(pt, model=model)
        oracle = koszul_ext_oracle(pt)
        assert mine["dims"] == oracle["dims"]
        assert mine["euler"] == 0
        assert mine["pairing_perfect"] and oracle["pairing_perfect"]


@pytest.mark.parametrize("n", [2, 3])
def test_check_ext_point_is_its_three_parts(n):
    model = endomorphism_model(n)
    gf = GF(DEFAULT_PRIME)
    pts = [point_from_partition(pp) for pp in enumerate_partitions(n)]
    pts += random_conjugate_points(n, 3, random.Random(n))
    for pt in pts:
        mine = ext_dims_at(pt, model=model)
        oracle = koszul_ext_oracle(pt)
        mod_p = model.evaluate_at(pt.X, pt.Y, pt.Z, gf).homology_dims()
        assert check_ext_point(pt, model, gf) == {
            "dims": [mine["dims"][k] for k in range(4)],
            "oracle_dims": [oracle["dims"][k] for k in range(4)],
            "pairing_ranks": [mine["pairing_ranks"][(0, 3)], mine["pairing_ranks"][(1, 2)]],
            "euler": mine["euler"] == 0,
            "pairing": mine["pairing_perfect"] and oracle["pairing_perfect"],
            "prime": mod_p == mine["dims"],
        }


def test_check_ext_point_off_diagonal_inverse_prime_is_a_bad_prime():
    p = DEFAULT_PRIME
    zero = [[0, 0], [0, 0]]
    pt = MatrixPoint([[0, Fraction(1, p)], [0, 0]], zero, zero)
    record = check_ext_point(pt, endomorphism_model(2), GF(p))
    assert record["prime"] is False and "exception" not in record
    assert record["dims"] == record["oracle_dims"] and record["euler"] and record["pairing"]


@pytest.mark.parametrize("n", [2, 3])
def test_reduced_complex_is_the_gf_p_evaluation(n):
    # check_ext_point reads the model's dims over GF(p) off the rational
    # complex reduced mod p; at partition and conjugated points that is the
    # complex evaluated over GF(p), differential by differential
    model = endomorphism_model(n)
    gf = GF(DEFAULT_PRIME)
    pts = [point_from_partition(pp) for pp in enumerate_partitions(n)]
    pts += random_conjugate_points(n, 4, random.Random(10 + n))
    assert any(x.denominator > 1 for pt in pts for m in pt.matrices() for row in m for x in row)
    for pt in pts:
        direct = model.evaluate_at(pt.X, pt.Y, pt.Z, gf)
        reduced = model.evaluate_at(pt.X, pt.Y, pt.Z).reduced_mod(gf)
        assert reduced.ranks == direct.ranks and reduced.diff == direct.diff
        assert reduced.homology_dims() == direct.homology_dims()
    # a denominator divisible by p: both raise, and the point is a bad prime
    p = DEFAULT_PRIME
    diag = [[Fraction(i + 1, p) if i == j else 0 for j in range(n)] for i in range(n)]
    zero = [[0] * n for _ in range(n)]
    cx = model.evaluate_at(diag, zero, zero)
    for build in (lambda: cx.reduced_mod(gf), lambda: model.evaluate_at(diag, zero, zero, gf)):
        with pytest.raises(ZeroDivisionError, match=str(p)):
            build()
    record = check_ext_point(MatrixPoint(diag, zero, zero), model, gf)
    assert record["prime"] is False and "exception" not in record


def test_check_ext_point_records_an_exception(monkeypatch):
    import critlocus.family

    def broken(pt, field=QQ):
        raise RuntimeError("oracle broke")

    monkeypatch.setattr(critlocus.family, "koszul_ext_oracle", broken)
    record = check_ext_point(_first_partition_point(2), endomorphism_model(2), GF(DEFAULT_PRIME))
    assert record == {"exception": "exception: oracle broke"}


def test_trace_pairing_descends():
    # the pairing of a boundary against a cycle vanishes
    model = endomorphism_model(2)
    pt = nilpotent_regular_point(2)
    cx = model.evaluate_at(pt.X, pt.Y, pt.Z)
    from critlocus.linalg import kernel_basis

    cycles2 = kernel_basis(cx.differential(2))
    d0 = cx.differential(0)
    boundaries1 = [
        sparsify([d0.data[i][j] for i in range(d0.rows)]) for j in range(d0.cols)
    ]
    pm = trace_pairing_matrix(2, 1, boundaries1, cycles2)
    assert pm.is_zero()


def reference_trace_pairing(model_n, reps_k, reps_comp, field):
    """The pairing as an O(L^2) loop over every pair of slot indices."""
    n = model_n
    nn = n * n

    def decode(idx, q):
        block, rem = divmod(idx, nn)
        i, j = divmod(rem, n)
        return i, j, MASKS_BY_DEGREE[q][block]

    qk = [q for q in range(4) if len(reps_k[0]) == nn * len(MASKS_BY_DEGREE[q])][0]
    qc = 3 - qk
    out = [[field.zero] * len(reps_comp) for _ in reps_k]
    for a, va in enumerate(reps_k):
        for b, vb in enumerate(reps_comp):
            acc = field.zero
            for ia, xa in enumerate(va):
                if field.is_zero(xa):
                    continue
                i, j, mask_a = decode(ia, qk)
                for ib, xb in enumerate(vb):
                    if field.is_zero(xb):
                        continue
                    p, q2, mask_b = decode(ib, qc)
                    if (mask_a | mask_b) != FULL_MASK or (mask_a & mask_b):
                        continue
                    if j != p or q2 != i:
                        continue
                    sgn = eps_merge_sign(mask_a, mask_b)
                    acc = field.add(acc, field.mul(field.of(sgn), field.mul(xa, xb)))
            out[a][b] = acc
    return DenseMatrix(field, len(reps_k), len(reps_comp), out)


@pytest.mark.parametrize("field", [QQ, GF(1048583)], ids=["QQ", "GF(p)"])
@pytest.mark.parametrize("n", [2, 3])
def test_trace_pairing_matches_pair_loop(n, field):
    rng = random.Random(n)
    nn = n * n

    def vectors(q):
        length = nn * len(MASKS_BY_DEGREE[q])
        entry = lambda: field.of(Fraction(rng.choice([0, 0, 1, -1, 2, -5]), rng.randint(1, 4)))
        return [[entry() for _ in range(length)] for _ in range(rng.randint(1, 4))]

    for _ in range(5):
        for qk in range(4):
            reps_k, reps_comp = vectors(qk), vectors(3 - qk)
            sparse_k, sparse_comp = list(map(sparsify, reps_k)), list(map(sparsify, reps_comp))
            pm = trace_pairing_matrix(n, qk, sparse_k, sparse_comp, field)
            ref = reference_trace_pairing(n, reps_k, reps_comp, field)
            assert pm == ref
            assert pm.rank() == ref.rank()


def test_ext_dims_at_eliminates_each_differential_once(rref_calls):
    # one forward pass and one back-substitution per differential (ranks 9,
    # 27, 27, 9), each on the columns of its source outside the pivot rows
    # of the one before it, and forward passes alone for the two pairing ranks
    model = endomorphism_model(3)
    pt = point_from_partition(PlanePartition({(0, 0, 0), (1, 0, 0), (0, 1, 0)}))
    ext_dims_at(pt, model=model)
    calls = list(rref_calls)
    d = model.evaluate_at(pt.X, pt.Y, pt.Z).diff
    r0, r1 = d[0].rank(), d[1].rank()
    shapes = [(27, 9), (27, 27 - r0), (9, 27 - r1)]
    forward = [(r, c) for kind, r, c in calls if kind == "forward"]
    assert forward[:3] == shapes and len(forward) == 5
    assert [(r, c) for kind, r, c in calls if kind == "back"] == shapes


def test_gf_p_homology_dims_rank_by_forward_elimination(rref_calls):
    # with nothing reduced yet, the dims come from one pivot-only
    # elimination per differential, on the same columns, and no row is
    # back-substituted
    model = endomorphism_model(3)
    pt = point_from_partition(PlanePartition({(0, 0, 0), (1, 0, 0), (0, 1, 0)}))
    cx = model.evaluate_at(pt.X, pt.Y, pt.Z, GF(DEFAULT_PRIME))
    dims = cx.homology_dims()
    calls = list(rref_calls)
    r0, r1 = cx.differential(0).rank(), cx.differential(1).rank()
    assert calls == [("forward", 27, 9), ("forward", 27, 27 - r0), ("forward", 9, 27 - r1)]
    assert dims == ext_dims_at(pt, model=model)["dims"]


# -- tangent model and comparison -----------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tangent_model_flat(n):
    tang = TangentModel(CotangentModel(MatrixCdga(n)))
    assert tang.complex.check_flatness(tang.cotangent.cdga.differential)[0]


def test_comparison_map_symbolic_rank_two():
    cm, record = build_comparison_map(2)
    assert record["symbolic_solutions"] == 2
    # the two solutions are the map and its global negation
    sols = record["solutions"]
    assert record["chosen"] == CANONICAL_COMPARISON
    flip = tuple((f, tuple(-s for s in signs)) for f, signs in sols[0])
    assert flip == sols[1]


def test_comparison_map_at_points_rank_two_and_three():
    rng = random.Random(11)
    for n, count in ((2, 5), (3, 3)):
        cdga = MatrixCdga(n)
        cm, _ = build_comparison_map(n, cdga)
        for pt in random_conjugate_points(n, count, rng):
            rep = cm.check_at_point(cdga.point(pt.X, pt.Y, pt.Z))
            assert rep["ok"]
            assert rep["all_invertible"]


def test_comparison_map_perturbed_sign_fails():
    cdga = MatrixCdga(2)
    cm, _ = build_comparison_map(2, cdga)
    from critlocus.complexes import ChainMap

    blocks = dict(cm.blocks)
    blocks[2] = blocks[2].scale(-1)  # flip one block's sign
    bad = ChainMap(cm.source, cm.target, blocks)
    pt = nilpotent_regular_point(2)
    rep = bad.check_at_point(cdga.point(pt.X, pt.Y, pt.Z))
    assert not rep["ok"]


@pytest.mark.parametrize("factor", [-1, Fraction(1, 2)], ids=["-1", "1/2"])
def test_comparison_map_scaled_block_fails_at_a_rational_point(factor):
    # at a point with denominators the differentials are stored over a den
    # above 1 and the blocks over 1; a block scaled by 1/2 keeps its
    # numerators over twice its den, so only an equality that reads the
    # dens rejects the squares it enters
    cdga = MatrixCdga(2)
    cm, _ = build_comparison_map(2, cdga)
    pts = random_conjugate_points(2, 20, random.Random(3))
    pt = next(p for p in pts if any(x.denominator > 1 for m in p.matrices() for row in m for x in row))
    point = cdga.point(pt.X, pt.Y, pt.Z)
    assert point.den > 1
    assert cm.check_at_point(point)["ok"]
    blocks = dict(cm.blocks)
    blocks[2] = blocks[2].scale(factor)
    assert not ChainMap(cm.source, cm.target, blocks).check_at_point(point)["ok"]


def test_ext_dims_fat_point_not_cyclic():
    # the square-zero triple at rank 2: every endomorphism commutes, so
    # the dimensions are the full ranks; the trace pairing is still perfect
    pt = MatrixPoint([[0, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]])
    mine = ext_dims_at(pt)
    oracle = koszul_ext_oracle(pt)
    assert mine["dims"] == {0: 4, 1: 12, 2: 12, 3: 4}
    assert mine["dims"] == oracle["dims"]
    assert mine["pairing_perfect"] and oracle["pairing_perfect"]


def reference_comparison_search(n):
    """The comparison search as one loop over all 1024 combinations, each
    with its own numeric blocks and all three squares, then the symbolic
    check of every survivor."""
    from critlocus.complexes import ChainMap
    from critlocus.family import _signed_permutation

    cdga = MatrixCdga(n)
    tangent = TangentModel(CotangentModel(cdga))
    endo = EndomorphismModel(build_universal_family(n, cdga))
    pt = nilpotent_regular_point(n)
    point = cdga.point(pt.X, pt.Y, pt.Z)
    src_num = tangent.complex.evaluate_at(point)
    tgt_num = endo.complex.evaluate_at(point)

    def numeric_block(flavor, slot_signs):
        nn = n * n
        size = len(slot_signs) * nn
        m = [[0] * size for _ in range(size)]
        for b, sign in enumerate(slot_signs):
            for i in range(n):
                for j in range(n):
                    src = b * nn + i * n + j
                    tgt = b * nn + (j * n + i if flavor else i * n + j)
                    m[tgt][src] = sign
        return DenseMatrix(QQ, size, size, m)

    sign_patterns = {
        1: [(1,), (-1,)],
        3: [(1, 1, 1), (-1, -1, -1), (1, -1, 1), (-1, 1, -1)],
    }
    block_sizes = {0: 1, 1: 3, 2: 3, 3: 1}
    candidates_per_degree = {
        q: [(flavor, signs) for flavor in (0, 1) for signs in sign_patterns[block_sizes[q]]]
        for q in range(4)
    }
    survivors = []
    for combo in itertools.product(*(candidates_per_degree[q] for q in range(4))):
        blocks_num = {q: numeric_block(*combo[q]) for q in range(4)}
        if all(
            blocks_num[q + 1].matmul(src_num.differential(q))
            == tgt_num.differential(q).matmul(blocks_num[q])
            for q in range(3)
        ):
            survivors.append(combo)
    solutions = []
    for combo in survivors:
        blocks = {q: _signed_permutation(cdga.table, n, combo[q][1], combo[q][0]) for q in range(4)}
        if ChainMap(tangent.complex, endo.complex, blocks).check_symbolic()["ok"]:
            solutions.append(combo)
    chosen = CANONICAL_COMPARISON if CANONICAL_COMPARISON in solutions else solutions[0]
    return {
        "numeric_survivors": len(survivors),
        "symbolic_solutions": len(solutions),
        "solutions": solutions,
        "chosen": chosen,
    }


@pytest.mark.parametrize("n, survivors, solutions", [(1, 1024, 1024), (2, 4, 2), (3, 4, 2)])
def test_comparison_search_matches_combination_loop(n, survivors, solutions):
    expected = reference_comparison_search(n)
    assert (expected["numeric_survivors"], expected["symbolic_solutions"]) == (survivors, solutions)
    assert expected["chosen"] == CANONICAL_COMPARISON
    _, record = build_comparison_map(n)
    assert {key: record[key] for key in expected} == expected


def test_comparison_search_tests_each_square_pair_once(matmul_calls):
    # 4*8 + 8*8 + 8*4 = 128 candidate pairs, two products each
    build_comparison_map(2)
    assert len(matmul_calls) == 256


@pytest.mark.parametrize("n", [3, 4])
def test_comparison_map_symbolic_above_search_rank(n):
    # n = 3 is the last rank that searches; above it the canonical map is
    # built directly, and either way it is verified symbolically
    cm, record = build_comparison_map(n)
    assert record["search"] == (n <= 3)
    assert (record["symbolic_solutions"] == 2) if n <= 3 else record["symbolic"]
    assert record["chosen"] == CANONICAL_COMPARISON
