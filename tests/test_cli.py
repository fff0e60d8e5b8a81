import json

import pytest

from critlocus.cli import build_parser, main


def run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    return code, out.read_text()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["verify", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "cdga", "--n", "0"],
        ["ext", "--n", "-1"],
        ["ext", "--prime", "7"],
        ["ext", "--prime", "1048577"],  # >= 2^20 but not prime
        ["ext", "--corpus", "none", "--corpus-file", "{tmp}/missing.json"],
        ["toric", "chart", "--surface", "notjson", "--points", "[]"],
        ["toric", "chart", "--surface", '{{"base": "Q3"}}', "--points", "[]"],
        ["toric", "cover-stats", "--surface", '{{"base": "Q3"}}'],
        ["toric", "chart", "--surface", '{{"base": "P2"}}', "--points", "notjson"],
        ["toric", "chart", "--surface", '{{"base": "P2"}}', "--points", '[["1", "2"]]'],
        ["ext", "--corpus", "none", "--corpus-file", "{tmp}/mixed_ranks.json"],
        ["ext", "--corpus", "none", "--corpus-file", "{tmp}/not_commuting.json"],
        ["verify", "chainmap", "--samples", "-2"],
        ["toric", "cover-stats", "--surface", '{{"base": "P2"}}', "--trials", "-3"],
        ["toric", "cover-stats", "--surface", '{{"base": "P2"}}', "--points-per-trial", "0"],
        ["ext", "--n", "1", "--corpus", "partitions", "--save-corpus", "{tmp}/nodir/x.json"],
        ["partitions", "--n", "1", "--out", "{tmp}/nodir/x.json"],
        ["ext", "--corpus", "none", "--n", "2"],
        ["ext", "--corpus", "none", "--corpus-file", "{tmp}/empty.json"],
        ["toric", "cover-stats", "--surface", '{{"base": "P2", "blowups": [true]}}'],
        ["ext", "--corpus", "none", "--corpus-file", "{tmp}/zero_size.json"],
        ["toric", "chart", "--surface", '{{"base": "P2"}}', "--points", "[[0.1, 2, 3]]"],
        ["toric", "chart", "--surface", '{{"base": "P2"}}', "--points", "[[true, 2, 3]]"],
        ["toric", "chart", "--surface", '{{"base": "P2", "blowups": [1]}}',
         "--points", '[{{"center": true, "direction": [1, 1, 1]}}]'],
        # psi_12 = 399165290221 * 798330580441, a strong pseudoprime to the bases up to 37
        ["ext", "--n", "2", "--prime", "318665857834031151167461", "--corpus", "partitions"],
    ],
)
def test_bad_values_exit_2_without_traceback(args, tmp_path, capsys):
    _write_bad_corpora(tmp_path)
    assert main([a.format(tmp=tmp_path) for a in args]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def _write_bad_corpora(tmp_path):
    from critlocus.points import MatrixPoint, enumerate_partitions, point_from_partition, save_corpus

    mixed = [point_from_partition(enumerate_partitions(n)[0]) for n in (2, 3)]
    save_corpus(mixed, tmp_path / "mixed_ranks.json")
    # X and Y do not commute
    loose = MatrixPoint([[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 0]], [1, 0])
    save_corpus([mixed[0], loose], tmp_path / "not_commuting.json")
    save_corpus([], tmp_path / "empty.json")
    (tmp_path / "zero_size.json").write_text(json.dumps([{"X": [], "Y": [], "Z": []}]))


@pytest.mark.parametrize("name", ["mixed_ranks", "not_commuting"])
def test_bad_corpus_names_first_offending_point(name, tmp_path, capsys):
    _write_bad_corpora(tmp_path)
    assert main(["ext", "--corpus-file", str(tmp_path / f"{name}.json")]) == 2
    assert "point 1 of" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad",
    [
        {"X": [[0.1, 0], [0, 0.1]]},  # a float would be read as 3602879701896397/2^55
        {"Y": [[True, 0], [0, 1]]},  # a boolean would be read as 1
        {"n": 3},
        {"n": 2.0},
        {"v": [1.0, 0]},
        {"Z": [["1/0", "0"], ["0", "0"]]},
    ],
)
def test_malformed_corpus_record_exits_2_naming_the_point(bad, tmp_path, capsys):
    from critlocus.points import enumerate_partitions, point_from_partition

    good = point_from_partition(enumerate_partitions(2)[0]).to_record()
    zero = [["0", "0"], ["0", "0"]]
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps([good, dict({"n": 2, "X": zero, "Y": zero, "Z": zero}, **bad)]))
    assert main(["ext", "--corpus", "none", "--corpus-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "point 1:" in err and "Traceback" not in err


def test_verify_cdga_passes(tmp_path):
    code, text = run(["verify", "cdga", "--n", "1"], tmp_path)
    assert code == 0
    payload = json.loads(text)
    assert payload["ok"] is True
    assert payload["tool"] == "critlocus"
    assert all(c["verdict"] in ("pass", "fail", "warning") for c in payload["checks"])
    assert all("operation" in c and "claim" in c for c in payload["checks"])


def test_text_format(tmp_path):
    out = tmp_path / "report.txt"
    code = main(["partitions", "--n", "3", "--format", "text", "--out", str(out)])
    assert code == 0
    assert "overall: pass" in out.read_text()


def test_ext_report_shape(tmp_path):
    code, text = run(["ext", "--n", "1", "--corpus", "partitions"], tmp_path)
    assert code == 0
    names = [c["name"] for c in json.loads(text)["checks"]]
    assert "ext.oracle_agreement" in names
    assert "ext.serre_pairing" in names
    assert "ext.prime_comparison" in names


def test_toric_chart_round_trip_payload(tmp_path):
    code, text = run(
        [
            "toric",
            "chart",
            "--surface",
            '{"base": "F1"}',
            "--points",
            '[["1", "1", "2", "3"], ["1", "0", "1", "1"]]',
        ],
        tmp_path,
    )
    assert code == 0
    payload = json.loads(text)
    assert len(payload["coordinates"]) == 2
    assert payload["chart"]["surface"] == "F1"


def test_toric_chart_tower_with_exceptional_point(tmp_path):
    code, text = run(
        [
            "toric",
            "chart",
            "--surface",
            '{"base": "P2", "blowups": [0]}',
            "--points",
            '[["1", "2", "3"], {"center": 0, "direction": ["1", "1", "1"]}]',
        ],
        tmp_path,
    )
    assert code == 0
    payload = json.loads(text)
    assert len(payload["coordinates"]) == 2


def test_cover_stats_subcommand(tmp_path):
    code, text = run(
        [
            "toric",
            "cover-stats",
            "--surface",
            '{"base": "P2"}',
            "--trials",
            "10",
            "--seed",
            "3",
        ],
        tmp_path,
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["checks"][0]["details"]["successes"] == 10


def test_cover_stats_f2_section_search(tmp_path):
    # seed 13 draws a configuration that no section x4 + c x2 x1^2 or
    # x4 + c x2 x3^2 avoids; x4 + c x2 ell^2 always leaves a free c
    code, text = run(
        ["toric", "cover-stats", "--surface", '{"base": "F2"}', "--trials", "400", "--seed", "13"],
        tmp_path,
    )
    assert code == 0
    details = json.loads(text)["checks"][0]["details"]
    assert details["successes"] == details["trials"] == 400


def test_all_battery_rank_one(tmp_path):
    code, text = run(["all", "--n", "1", "--samples", "5"], tmp_path)
    assert code == 0
    payload = json.loads(text)
    assert payload["ok"] is True
    # the full battery touches every subsystem
    prefixes = {c["name"].split(".")[0] for c in payload["checks"]}
    assert {
        "cdga",
        "cotangent",
        "superpotential",
        "family",
        "resolution",
        "chainmap",
        "ext",
        "partitions",
        "toric",
    } <= prefixes


def test_corpus_file_round_trip(tmp_path):
    from critlocus.points import (
        enumerate_partitions,
        load_corpus,
        point_from_partition,
        save_corpus,
    )

    pts = [point_from_partition(pp) for pp in enumerate_partitions(3)]
    path = tmp_path / "corpus.json"
    save_corpus(pts, path)
    back = load_corpus(path)
    assert len(back) == len(pts)
    for a, b in zip(pts, back):
        assert a.X == b.X and a.Y == b.Y and a.Z == b.Z and a.v == b.v
        assert b.provenance == "partition"


def test_ext_corpus_file_round_trip(tmp_path):
    corpus = tmp_path / "corpus.json"
    code, _ = run(
        ["ext", "--n", "2", "--corpus", "partitions", "--save-corpus", str(corpus)],
        tmp_path,
        "first.json",
    )
    assert code == 0
    code, text = run(
        ["ext", "--corpus", "none", "--corpus-file", str(corpus)],
        tmp_path,
        "second.json",
    )
    assert code == 0
    payload = json.loads(text)
    agreement = next(
        c for c in payload["checks"] if c["name"] == "ext.oracle_agreement"
    )
    assert agreement["verdict"] == "pass"
    assert agreement["details"]["points"] == 3


def test_ext_reports_the_rank_of_its_corpus_file(tmp_path):
    # a rank-3 corpus file under the default --n 2: the partition points
    # are taken at the corpus rank, and the report states that rank
    from critlocus.points import enumerate_partitions, point_from_partition, save_corpus

    corpus = tmp_path / "c3.json"
    save_corpus([point_from_partition(pp) for pp in enumerate_partitions(3)], corpus)
    code, text = run(["ext", "--n", "2", "--corpus", "partitions", "--corpus-file", str(corpus)], tmp_path)
    assert code == 0
    payload = json.loads(text)
    assert payload["configuration"]["n"] == 3
    agreement = next(c for c in payload["checks"] if c["name"] == "ext.oracle_agreement")
    assert agreement["details"]["points"] == 12


def test_ext_report_has_per_point_details(tmp_path):
    code, text = run(["ext", "--n", "2", "--corpus", "partitions"], tmp_path)
    assert code == 0
    payload = json.loads(text)
    agreement = next(
        c for c in payload["checks"] if c["name"] == "ext.oracle_agreement"
    )
    per_point = agreement["details"]["per_point"]
    assert len(per_point) == 3
    for rec in per_point:
        assert rec["provenance"] == "partition"
        assert len(rec["dims"]) == 4
        # perfect pairing: rank equals the paired dimensions
        assert rec["pairing_ranks"] == [rec["dims"][0], rec["dims"][1]]


# the record names of `all`, in order; the first record of each battery
# carries that battery's shared computations
ALL_RECORDS = [
    "cdga.d_squared", "cdga.koszul_display", "cdga.gradient_is_commutators",
    "cotangent.flatness", "cotangent.self_duality", "cotangent.ranks",
    "superpotential.ddr_phi_equals_omega", "superpotential.ddr_bigphi_plus_d_phi_zero",
    "superpotential.omega_closed", "superpotential.calculus_consistent",
    "family.resolution", *(f"family.leibniz.{g}" for g in "xyzuvwt"),
    "resolution.alpha0.alpha_m1_on_x*", "resolution.alpha0.alpha_m1_on_y*",
    "resolution.alpha0.alpha_m1_on_z*", "resolution.alpha_m1.alpha_m2",
    "resolution.augmentation.alpha0_on_x", "resolution.augmentation.alpha0_on_y",
    "resolution.augmentation.alpha0_on_z",
    "chainmap.symbolic", "chainmap.points", "chainmap.invertible",
    "ext.oracle_agreement", "ext.euler", "ext.serre_pairing", "ext.prime_comparison",
    "partitions.two_strategies",
    "toric.cover.P2", "toric.cover.F0", "toric.cover.F2", "toric.cover.tower",
]
FIRST_OF_BATTERY = [
    "cdga.d_squared", "superpotential.ddr_phi_equals_omega", "family.resolution",
    "resolution.alpha0.alpha_m1_on_x*", "chainmap.symbolic", "ext.oracle_agreement",
    "partitions.two_strategies", "toric.cover.P2",
]


def test_all_runs_the_registry_in_order_with_measured_seconds(tmp_path):
    code, text = run(["all", "--n", "1"], tmp_path)
    assert code == 0
    checks = json.loads(text)["checks"]
    assert [c["name"] for c in checks] == ALL_RECORDS
    seconds = {c["name"]: c["seconds"] for c in checks}
    assert all(seconds[name] > 0 for name in FIRST_OF_BATTERY)


def test_all_records_an_exception_as_a_failure(tmp_path, monkeypatch):
    import critlocus.toric

    def broken(*args):
        raise RuntimeError("cover search broke")

    monkeypatch.setattr(critlocus.toric, "verify_cover_property", broken)
    code, text = run(["all", "--n", "1"], tmp_path)
    assert code == 1
    checks = json.loads(text)["checks"]
    assert [c["name"] for c in checks] == ALL_RECORDS
    for c in checks:
        if c["name"].startswith("toric.cover."):
            assert c["verdict"] == "fail"
            assert c["counterexample"].startswith("exception:")
        else:
            assert c["verdict"] == "pass"


def test_check_warning_is_a_timed_warning():
    from critlocus.report import CheckWarning, Report

    def check():
        raise CheckWarning("found something", {"points": [3]})

    rep = Report({"n": 1})
    assert rep.run("demo", "homology_dims", "nothing to find", check)
    (record,) = rep.to_dict()["checks"]
    assert record["verdict"] == "warning" and rep.ok
    assert record["claim"] == "found something"
    assert record["details"] == {"points": [3]}
    assert record["seconds"] >= 0


def test_ext_point_that_raises_fails_alone(tmp_path, monkeypatch):
    import critlocus.family

    original = critlocus.family.koszul_ext_oracle
    calls = []

    def second_point_raises(pt, field=None):
        calls.append(pt)
        if len(calls) == 2:
            raise RuntimeError("oracle broke")
        return original(pt)

    monkeypatch.setattr(critlocus.family, "koszul_ext_oracle", second_point_raises)
    code, text = run(["ext", "--n", "2", "--corpus", "partitions"], tmp_path)
    assert code == 1
    checks = {c["name"]: c for c in json.loads(text)["checks"]}
    agreement = checks["ext.oracle_agreement"]
    per_point = agreement["details"]["per_point"]
    assert len(per_point) == len(calls) > 2
    for entry in per_point:
        assert ("dims" in entry) == (entry["point"] != 1)
    assert per_point[1]["exception"] == "exception: oracle broke"
    assert agreement["counterexample"] == "[(1, 'exception: oracle broke')]"
    for name in ("ext.euler", "ext.serre_pairing"):
        assert checks[name]["verdict"] == "fail" and checks[name]["counterexample"] == "points [1]"
    assert checks["ext.prime_comparison"]["verdict"] == "pass"
