"""`toric chart` output for fixed point sets, compared with a stored copy.

A change to the point storage or to the chart searches must leave every
chart byte-identical: the same removed line, fiber, section and slopes,
and the same coordinates.  Each case builds its points from int, Fraction
and string coordinates, runs ``find_chart`` and compares the JSON of the
result with ``tests/golden/toric_charts.json``.  The cases include points
on the first candidate lines, fibers and sections, and exceptional points
on both centers of a tower.

After a change that is meant to alter a chart, regenerate the copy with

    PYTHONPATH=src python tests/test_golden_toric.py
"""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from critlocus.toric import FnPoint, P2Point, Surface, SurfaceSpec, TowerPoint, find_chart

GOLDEN = Path(__file__).parent / "golden" / "toric_charts.json"

# name -> (surface, points); a tower point is a plane triple or a
# (center, direction triple) pair
CASES = {
    "P2.single": ({"base": "P2"}, [[1, 2, 3]]),
    "P2.coordinate_points": ({"base": "P2"}, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    "P2.on_candidate_lines": (
        {"base": "P2"},
        # on the lines t = 0, 1, 2, 1 and 3
        [[0, 1, 1], [1, -1, 0], [2, -1, 0], ["1/2", "1/3", "-5/6"], [9, -3, 0]],
    ),
    "P2.rational_scalings": (
        {"base": "P2"},
        [["3/4", "-2/5", 7], [F(-1, 3), 2, "5/9"], [6, 4, 2], [-2, -4, -6], [0, "-7/3", 14]],
    ),
    "F0.one_fiber": ({"base": "F0"}, [[1, 1, 0, 3], [1, 2, 0, 5]]),
    "F0.on_candidate_fibers": (
        {"base": "F0"},
        # on the fibers [1:0], [0:1], [1:1], [1:2] and the sections c = 0, 1
        [[1, 1, 0, 0], [0, 1, 1, -1], [1, 1, 1, 1], [1, 1, 2, 1], [2, 3, 1, 0]],
    ),
    "F0.rational": (
        {"base": "F0"},
        [[0, 1, 1, 0], [1, 0, 1, 1], ["1/2", -3, 2, "4/7"], [-3, 0, 6, "-1/2"], [F(5, 3), "-2/9", 0, 4]],
    ),
    "F2.vanishing_fiber_coordinate": ({"base": "F2"}, [[0, 1, 1, 0], [1, 1, 0, 0]]),
    "F2.rational": (
        {"base": "F2"},
        [[2, "1/3", -4, 5], ["-1/2", 1, "3/2", "7/4"], [1, 0, 1, 1], [0, 3, 1, -2], [-6, "5/2", 4, F(-3, 8)]],
    ),
    "F2.on_candidate_sections": (
        {"base": "F2"},
        # on the fiber [1:0], ell = -x3 and x4 + c x2 x3^2 vanishes at c = 0, 1, 2
        [[0, 1, 1, 0], [0, 1, 1, -1], [0, 1, 2, -8], [1, "1/2", 1, 0]],
    ),
    "tower.ordinary": ({"base": "P2", "blowups": [0, 2]}, [[1, 2, 3], ["1/2", "-1/3", 2], [1, 1, 1]]),
    "tower.exceptional_both_centers": (
        {"base": "P2", "blowups": [0, 2]},
        [(0, [1, 1, 1]), (2, [1, 5, 7]), [1, 2, 3]],
    ),
    "tower.on_candidate_lines": (
        {"base": "P2", "blowups": [0, 2]},
        # the direction [0:1:1] and the point [0:1:-1] lie on the line t = 0
        [(0, [0, 1, 1]), [0, 1, -1], (2, ["1/2", "-3/2", "1/4"]), [2, -1, -1]],
    ),
    "tower.shared_center": (
        {"base": "P2", "blowups": [0, 2]},
        # two directions at one center, and points on their lines
        [(0, [1, 1, 1]), (0, [2, 3, 5]), [2, 2, 3], [F(1, 2), "3/4", 7], (2, [3, 0, -1])],
    ),
}


def build_points(surface: dict, raw_points):
    spec = SurfaceSpec.from_json_obj(surface)
    points = []
    for raw in raw_points:
        if spec.blowups and isinstance(raw, tuple):
            points.append(TowerPoint(center=raw[0], direction=P2Point(*raw[1])))
        elif spec.blowups:
            points.append(TowerPoint(base=P2Point(*raw)))
        elif spec.base == "P2":
            points.append(P2Point(*raw))
        else:
            points.append(FnPoint(int(spec.base[1:]), *raw))
    return Surface(spec), points


def chart_json(name: str) -> dict:
    surface, points = build_points(*CASES[name])
    return find_chart(surface, points).to_json_obj()


def golden_text() -> str:
    return json.dumps({name: chart_json(name) for name in CASES}, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_chart_matches_golden(name):
    expected = json.loads(GOLDEN.read_text())[name]
    assert json.dumps(chart_json(name), sort_keys=True) == json.dumps(expected, sort_keys=True)


if __name__ == "__main__":
    GOLDEN.write_text(golden_text())
