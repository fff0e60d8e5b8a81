"""The acceptance gate: every shipped claim, at its stated scale.

Each test prints one line so a plain ``pytest -s tests/test_acceptance.py``
doubles as the checklist run.
"""

import json
import random
import time

import pytest

from critlocus.family import (
    CANONICAL_COMPARISON,
    build_comparison_map,
    build_ginzburg_resolution,
    build_universal_family,
    endomorphism_model,
    ext_dims_at,
)
from critlocus.points import (
    MatrixPoint,
    enumerate_partitions,
    enumerate_partitions_by_heights,
    is_cyclic,
    koszul_ext_oracle,
    point_from_partition,
    random_conjugate_points,
)
from critlocus.potential import (
    MatrixCdga,
    build_cotangent_complex,
    verify_superpotential_identities,
)
from critlocus.toric import Surface, SurfaceSpec, verify_cover_property


def _line(no, ok, text):
    print(f"criterion {no:2d}: {'PASS' if ok else 'FAIL'}  {text}")
    assert ok, text


def test_criterion_01_cdga_d_squared():
    start = time.monotonic()
    for n in (1, 2, 3):
        cdga = MatrixCdga(n)
        bad = cdga.d_squared_on_generators()
        assert bad == [], f"d^2 fails at rank {n}"
        ok, _ = cdga.koszul_display().check_d_squared()
        assert ok
    elapsed = time.monotonic() - start
    _line(
        1,
        elapsed < 300,
        f"extended Koszul differential squares to zero for n = 1, 2, 3 "
        f"({elapsed:.1f}s, budget 300s)",
    )


def test_criterion_02_self_duality():
    for n in (1, 2, 3):
        model = build_cotangent_complex(n)
        nn = n * n
        assert model.complex.ranks == {-2: nn, -1: 3 * nn, 0: 3 * nn, 1: nn}
        rep = model.self_duality_report()
        assert rep["ok"], (n, rep)
        assert rep["middle_symmetric"]
    _line(2, True, "cotangent complex self-dual with exact transpose matching, n <= 3")


def test_criterion_03_gradient_is_commutators():
    for n in (1, 2, 3, 4):
        cdga = MatrixCdga(n)
        assert cdga.jacobian_entries() == cdga.commutator_entries_transposed(), n
    _line(3, True, "potential gradient equals transposed commutator entries, n <= 4")


def test_criterion_04_superpotential_identities():
    for n in (1, 2, 3):
        rep = verify_superpotential_identities(MatrixCdga(n))
        assert rep["ok"], (n, rep)
    _line(4, True, "ddr(phi) = omega and ddr(Phi) + d(phi) = 0 symbolically, n <= 3")


def test_criterion_05_leibniz_and_unique_t_variant():
    for n in (1, 2, 3):
        fam = build_universal_family(n)
        rep = fam.leibniz_report()
        assert rep["ok"], (n, rep)
    # the t search is sharp: at n = 2 exactly one of the four index
    # variants satisfies Leibniz
    from critlocus.complexes import SymMatrix
    from critlocus.family import DModuleAction
    from critlocus.superpoly import SuperPoly

    cdga = MatrixCdga(2)
    fam = build_universal_family(2, cdga)
    zero = SuperPoly.zero(cdga.table)
    diag_rows = SymMatrix(cdga.table, 2, 2, [
        [sum((cdga.tgen.entry(i, j) for j in range(2)), zero) if i == k else zero for k in range(2)]
        for i in range(2)
    ])
    diag_cols = SymMatrix(cdga.table, 2, 2, [
        [sum((cdga.tgen.entry(j, i) for j in range(2)), zero) if i == k else zero for k in range(2)]
        for i in range(2)
    ])
    winners = []
    for tag, cand in (
        ("symbol", cdga.tgen),
        ("transposed symbol", cdga.tgen.transpose()),
        ("row-summed diagonal", diag_rows),
        ("column-summed diagonal", diag_cols),
    ):
        trial = dict(fam.matrices)
        trial["t"] = cand
        probe = DModuleAction(cdga, trial, {})
        if probe.leibniz_defect("t").is_zero():
            winners.append(tag)
    assert winners == ["symbol"], winners
    _line(
        5,
        True,
        "graded Leibniz holds for u, v, w, t (n <= 3); the t search has a "
        "unique winner",
    )


def test_criterion_06_ginzburg_composites():
    composites = build_ginzburg_resolution().composites()
    standing = [name for name, image in composites.items() if not image().normalize().is_zero()]
    assert not standing, standing
    _line(6, True, "bimodule resolution composites cancel literally after rewriting")


def test_criterion_07_chain_map():
    for n in (1, 2):
        cm, record = build_comparison_map(n)
        assert record["symbolic_solutions"] >= 1
    rng = random.Random(2024)
    for n in (3, 4):
        cdga = MatrixCdga(n)
        # the frozen signed permutation verifies symbolically here too,
        # beyond the sampled-point requirement
        cm, record = build_comparison_map(n, cdga)
        assert record["chosen"] == CANONICAL_COMPARISON
        assert (record["symbolic_solutions"] == 2) if n <= 3 else record["symbolic"]
        failures = 0
        for pt in random_conjugate_points(n, 20, rng):
            assert is_cyclic(pt)
            rep = cm.check_at_point(cdga.point(pt.X, pt.Y, pt.Z))
            if not (rep["ok"] and rep["all_invertible"]):
                failures += 1
        assert failures == 0, f"rank {n}: {failures} failures"
    _line(
        7,
        True,
        "comparison map commutes and is invertible: symbolically for every "
        "n <= 4 and at 20 cyclic commuting points each (n = 3, 4)",
    )


def test_criterion_08_ext_cross_validation():
    rng = random.Random(4242)
    checked = 0
    for n in (1, 2, 3, 4):
        model = endomorphism_model(n)
        points = [point_from_partition(pp) for pp in enumerate_partitions(n)]
        if n == 4:
            points += random_conjugate_points(4, 50, rng)
        for pt in points:
            mine = ext_dims_at(pt, model=model)
            oracle = koszul_ext_oracle(pt)
            assert mine["dims"] == oracle["dims"], (n, mine, oracle)
            assert mine["euler"] == 0
            if pt.v is not None and is_cyclic(pt):
                assert mine["pairing_perfect"], (n, pt.provenance)
                assert oracle["pairing_perfect"]
            checked += 1
    _line(
        8,
        True,
        f"Ext dimensions agree with the independent oracle at {checked} corpus "
        "points, Euler characteristic zero, pairing perfect at cyclic points",
    )


def test_criterion_09_single_point_sanity():
    origin = MatrixPoint([[0]], [[0]], [[0]], v=[1])
    mine = ext_dims_at(origin)
    oracle = koszul_ext_oracle(origin)
    want = {0: 1, 1: 3, 2: 3, 3: 1}
    assert mine["dims"] == want and oracle["dims"] == want
    _line(9, True, "origin of rank one gives Ext dimensions (1, 3, 3, 1) on both paths")


def test_criterion_10_partition_counts():
    expected = [1, 3, 6, 13, 24, 48]
    got = []
    for n in range(1, 7):
        a = enumerate_partitions(n)
        b = enumerate_partitions_by_heights(n)
        assert sorted(p.cells for p in a) == sorted(p.cells for p in b), n
        got.append(len(a))
    assert got == expected, got
    _line(10, True, f"plane partition counts {got} from two agreeing strategies")


def test_criterion_11_toric_cover():
    rng = random.Random(99)
    total = 0
    for base, ppt in (("P2", 5), ("F0", 4), ("F2", 4)):
        rep = verify_cover_property(Surface(SurfaceSpec(base)), 100, ppt, rng)
        assert rep["ok"], (base, rep["failures"])
        total += rep["successes"]
    rep = verify_cover_property(Surface(SurfaceSpec("P2", [0, 2])), 100, 3, rng)
    assert rep["ok"], rep["failures"]
    total += rep["successes"]
    _line(
        11,
        total == 400,
        f"{total}/400 random configurations found charts with exact round trip",
    )


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def test_criterion_12_determinism(tmp_path):
    from critlocus.cli import main

    outputs = []
    for run in range(2):
        out = tmp_path / f"report{run}.json"
        code = main(
            [
                "ext",
                "--n",
                "2",
                "--samples",
                "8",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = _strip_timing(json.loads(out.read_text()))
        outputs.append(json.dumps(payload, sort_keys=True))
    assert outputs[0] == outputs[1]
    _line(12, True, "fixed seed reproduces byte-identical reports modulo timing")
