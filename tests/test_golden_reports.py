"""Whole reports, compared with stored copies.

A refactor must leave every report byte-identical apart from timing.  Each
case runs ``cli.main`` in-process, drops every ``seconds`` field, and
compares the result with the JSON stored under ``tests/golden/``.

After a change that is meant to alter a report, regenerate its copy with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
from pathlib import Path

import pytest

from critlocus.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "all_n1": ["all", "--n", "1"],
    "ext_n2_seed0": ["ext", "--n", "2", "--seed", "0"],
}


def _strip_seconds(obj):
    if isinstance(obj, dict):
        return {k: _strip_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [_strip_seconds(v) for v in obj]
    return obj


def stripped_report(argv, out):
    """The report of ``critlocus <argv>`` without its timings, as JSON text."""
    assert main(list(argv) + ["--out", str(out)]) == 0
    report = _strip_seconds(json.loads(Path(out).read_text()))
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    expected = (GOLDEN / f"{name}.json").read_text()
    assert stripped_report(CASES[name], tmp_path / "report.json") == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        target = GOLDEN / f"{name}.json"
        target.write_text(stripped_report(argv, target))
