import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critlocus.toric import (
    P2_FIXED_POINTS,
    FnPoint,
    P2Point,
    Surface,
    SurfaceSpec,
    TowerPoint,
    chart_embedder,
    find_chart,
    hirzebruch_fan,
    p2_fan,
    verify_cover_property,
)


def test_p2_fan_standard():
    fan = p2_fan()
    assert fan.rays == [(1, 0), (0, 1), (-1, -1)]
    assert fan.is_smooth() and fan.is_complete()


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_hirzebruch_fan_smooth(k):
    fan = hirzebruch_fan(k)
    assert fan.is_smooth() and fan.is_complete()


def test_blown_up_plane_is_first_hirzebruch():
    blown = p2_fan().blowup(0)
    assert len(blown.rays) == 4
    assert blown.is_smooth() and blown.is_complete()
    # the lattice automorphism (a, b) -> (a - b, b) carries it onto F1's fan
    assert [(a - b, b) for a, b in blown.rays] == hirzebruch_fan(1).rays


@pytest.mark.parametrize("cone_index", [-1, 3, True])
def test_bad_blowup_index_is_refused(cone_index):
    # -1 would wrap to the last cone and True would run cone 1
    with pytest.raises(ValueError, match=repr(cone_index)):
        Surface(SurfaceSpec("P2", [cone_index]))


def test_two_blowup_tower_fan():
    surf = Surface(SurfaceSpec("P2", [0, 2]))
    assert len(surf.fan.rays) == 5
    assert surf.fan.is_smooth() and surf.fan.is_complete()


def test_plane_chart_three_coordinate_points():
    pts = [P2Point(1, 0, 0), P2Point(0, 1, 0), P2Point(0, 0, 1)]
    surf = Surface(SurfaceSpec("P2"))
    res = find_chart(surf, pts)
    # the chosen line must miss all three coordinate points, so t != 0 and
    # the three coefficients 1, t, t^2 are all nonzero
    t = Fraction(res.description["line_t"])
    assert t != 0
    for p, (u, v) in zip(pts, res.coordinates):
        assert chart_embedder(surf, res.description)(u, v) == p


def test_plane_chart_single_point():
    surf = Surface(SurfaceSpec("P2"))
    res = find_chart(surf, [P2Point(1, 1, 1)])
    # the first candidate line already avoids the point
    assert res.description["line_t"] == "0"
    res2 = find_chart(surf, [P2Point(0, 1, 1)])
    # that point lies on the first candidate, so the next one is chosen
    assert res2.description["line_t"] == "1"


def test_fn_chart_points_on_one_fiber():
    surf = Surface(SurfaceSpec("F0"))
    pts = [FnPoint(0, 1, 1, 0, 3), FnPoint(0, 1, 2, 0, 5)]
    res = find_chart(surf, pts)
    a, b = (Fraction(x) for x in res.description["fiber"])
    # removed fiber differs from the one carrying the points (x3 = 0)
    assert (a, b) != (1, 0)
    for p, (u, v) in zip(pts, res.coordinates):
        assert chart_embedder(surf, res.description)(u, v) == p


def test_fn_chart_points_with_vanishing_fiber_coordinate():
    # x1 = x4 = 0 kills every x4 + c x2 x1^2 and x3 = x4 = 0 every
    # x4 + c x2 x3^2; the section x4 + c x2 ell^2 avoids both
    surf = Surface(SurfaceSpec("F2"))
    pts = [FnPoint(2, 0, 1, 1, 0), FnPoint(2, 1, 1, 0, 0)]
    res = find_chart(surf, pts)
    for p, (u, v) in zip(pts, res.coordinates):
        assert chart_embedder(surf, res.description)(u, v) == p


@pytest.mark.parametrize("base", ["P2", "F0", "F2"])
def test_cover_statistics(base):
    surf = Surface(SurfaceSpec(base))
    rng = random.Random(17)
    rep = verify_cover_property(surf, 25, 5, rng)
    assert rep["ok"], rep["failures"]


def test_cover_statistics_tower():
    surf = Surface(SurfaceSpec("P2", [0, 2]))
    rng = random.Random(19)
    rep = verify_cover_property(surf, 25, 3, rng)
    assert rep["ok"], rep["failures"]


def test_tower_chart_exceptional_point():
    surf = Surface(SurfaceSpec("P2", [0]))
    # center is [0:0:1]; an exceptional point with direction [1:1:1]
    exc = TowerPoint(center=0, direction=P2Point(1, 1, 1))
    ordinary = TowerPoint(base=P2Point(1, 2, 3))
    res = find_chart(surf, [exc, ordinary])
    back0 = chart_embedder(surf, res.description)(*res.coordinates[0])
    back1 = chart_embedder(surf, res.description)(*res.coordinates[1])
    assert back1 == ordinary
    assert back0.exceptional and back0.center == 0
    # equality compares the direction lines through the center
    assert back0 == exc


def test_tower_chart_direction_point_on_first_candidate_line():
    # the direction representative [0:1:1] lies on the t = 0 line, so the
    # base chart search has to skip it
    surf = Surface(SurfaceSpec("P2", [0]))
    exc = TowerPoint(center=0, direction=P2Point(0, 1, 1))
    res = find_chart(surf, [exc])
    assert res.description["line_t"] != "0"
    back = chart_embedder(surf, res.description)(*res.coordinates[0])
    assert back == exc


def test_tower_rejects_point_on_center():
    surf = Surface(SurfaceSpec("P2", [0]))
    with pytest.raises(ValueError):
        find_chart(surf, [TowerPoint(base=P2Point(0, 0, 1))])


@pytest.mark.parametrize(
    "spec,good,bad",
    [
        (SurfaceSpec("F2"), FnPoint(2, 1, 1, 1, 1), FnPoint(3, 1, 2, 3, 4)),
        (SurfaceSpec("P2"), P2Point(1, 1, 1), FnPoint(2, 1, 2, 3, 4)),
        (SurfaceSpec("P2", [0]), TowerPoint(base=P2Point(1, 1, 1)), P2Point(1, 2, 3)),
    ],
)
def test_find_chart_refuses_a_point_of_another_surface(spec, good, bad):
    # the F2 case once gave a chart whose embed returned another point
    surf = Surface(spec)
    assert len(find_chart(surf, [good]).coordinates) == 1
    with pytest.raises(ValueError, match=re.escape(f"point 1: {bad!r}")):
        find_chart(surf, [good, bad])


def test_chart_json_shape():
    surf = Surface(SurfaceSpec("P2"))
    res = find_chart(surf, [P2Point(1, 2, 3)])
    obj = res.to_json_obj()
    assert "chart" in obj and "coordinates" in obj


def test_tower_chart_persist_branch():
    # blowup center [0:0:1] lies on the t = 0 line, so when that line is
    # removed the pulled-back chart needs no exceptional treatment
    surf = Surface(SurfaceSpec("P2", [0]))
    pt = TowerPoint(base=P2Point(1, 1, 1))
    res = find_chart(surf, [pt])
    assert res.description["line_t"] == "0"
    assert res.description["steps"] == [{"center_cone": 0, "inside": False}]
    assert chart_embedder(surf, res.description)(*res.coordinates[0]) == pt


def test_two_blowup_tower_exceptional_points_on_both_centers():
    # exceptional directions on both centers plus an ordinary point; the
    # second blowup must happen at the transported image of its center and
    # the direction vectors must ride the exact Jacobians
    surf = Surface(SurfaceSpec("P2", [0, 2]))
    pts = [
        TowerPoint(center=0, direction=P2Point(1, 1, 1)),
        TowerPoint(center=2, direction=P2Point(1, 5, 7)),
        TowerPoint(base=P2Point(1, 2, 3)),
    ]
    res = find_chart(surf, pts)
    for p, (cu, cv) in zip(pts, res.coordinates):
        back = chart_embedder(surf, res.description)(cu, cv)
        assert back == p, (p, back)


def test_second_blowup_center_uses_transported_frame():
    # with both centers inside the chart, the recorded coordinates of the
    # second center differ between the steps exactly by the first
    # substitution
    from fractions import Fraction as F

    surf = Surface(SurfaceSpec("P2", [0, 2]))
    pts = [
        TowerPoint(center=0, direction=P2Point(1, 1, 1)),
        TowerPoint(center=2, direction=P2Point(1, 5, 7)),
    ]
    res = find_chart(surf, pts)
    steps = res.description["steps"]
    assert steps[0]["inside"] and steps[1]["inside"]
    t = F(res.description["line_t"])

    def base_coords(p):
        ell = p.coords[0] + t * p.coords[1] + t * t * p.coords[2]
        return (p.coords[1] / ell, p.coords[2] / ell)

    cq1 = tuple(F(x) for x in steps[0]["center_chart_coords"])
    assert cq1 == base_coords(P2Point(0, 0, 1))
    k1 = F(steps[0]["removed_slope"])
    q2 = base_coords(P2Point(0, 1, 0))
    x1, y1 = q2[0] - cq1[0], q2[1] - cq1[1]
    r = y1 - k1 * x1
    expected = (x1 / r, r)
    cq2 = tuple(F(x) for x in steps[1]["center_chart_coords"])
    assert cq2 == expected


# -- canonical forms ------------------------------------------------------------
#
# Points are stored in integer homogeneous coordinates; these tests check the
# stored form against definitions that do not use it.  Coordinates are drawn
# as rationals and handed to the constructors as ints, Fractions or strings.


def rationals(bound=6, max_den=4):
    return st.builds(Fraction, st.integers(-bound, bound), st.integers(1, max_den))


nonzero_rationals = rationals().filter(bool)


def as_inputs(data, values):
    """Each value as an int when integral, a Fraction or a string."""
    forms = []
    for q in values:
        plain = q.numerator if q.denominator == 1 else q
        forms.append(data.draw(st.sampled_from([plain, q, str(q)])))
    return forms


def plane_vectors(bound=6, max_den=4):
    return st.lists(rationals(bound, max_den), min_size=3, max_size=3).filter(any)


def cox_vectors(bound=6, max_den=4):
    # (x1, x2, x3, x4) with both the fiber pair and the section pair nonzero
    return st.lists(rationals(bound, max_den), min_size=4, max_size=4).filter(
        lambda x: (x[0] or x[2]) and (x[1] or x[3])
    )


def reference_fn_form(k, x):
    """Divide the fiber pair by its first nonzero entry, then the section
    pair by its first nonzero entry, in Fractions."""
    x = [Fraction(v) for v in x]
    l = x[0] if x[0] else x[2]
    x[0], x[2], x[3] = x[0] / l, x[2] / l, x[3] / l**k
    m = x[1] if x[1] else x[3]
    x[1], x[3] = x[1] / m, x[3] / m
    return tuple(x)


@settings(max_examples=300, deadline=None)
@given(plane_vectors(2, 2), plane_vectors(2, 2), st.data())
def test_plane_points_are_equal_exactly_when_proportional(a, b, data):
    pa, pb = P2Point(*as_inputs(data, a)), P2Point(*as_inputs(data, b))
    minors_vanish = all(a[i] * b[j] == a[j] * b[i] for i in range(3) for j in range(i + 1, 3))
    assert (pa == pb) == minors_vanish
    if minors_vanish:
        assert hash(pa) == hash(pb)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3), cox_vectors(2, 2), cox_vectors(2, 2), st.data())
def test_fn_point_equality_matches_fraction_canonical_form(k, a, b, data):
    pa, pb = FnPoint(k, *as_inputs(data, a)), FnPoint(k, *as_inputs(data, b))
    assert (pa == pb) == (reference_fn_form(k, a) == reference_fn_form(k, b))


@settings(max_examples=200, deadline=None)
@given(plane_vectors(), nonzero_rationals, st.data())
def test_plane_point_is_invariant_under_scaling(x, s, data):
    scaled = [s * v for v in x]
    p = P2Point(*as_inputs(data, x))
    assert p == P2Point(*as_inputs(data, scaled))
    assert hash(p) == hash(P2Point(*scaled))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), cox_vectors(), nonzero_rationals, nonzero_rationals, st.data())
def test_fn_point_is_invariant_under_the_torus(k, x, l, m, data):
    x1, x2, x3, x4 = x
    moved = [l * x1, m * x2, l * x3, l**k * m * x4]
    assert FnPoint(k, *as_inputs(data, x)) == FnPoint(k, *as_inputs(data, moved))


def test_points_refuse_floats_and_bools():
    for bad in (0.5, True):
        with pytest.raises(TypeError, match=repr(bad)):
            P2Point(1, bad, 2)
        with pytest.raises(TypeError, match=repr(bad)):
            FnPoint(1, 1, 2, bad, 3)


@pytest.mark.parametrize("center", [True, 1, "0"])
def test_exceptional_center_must_be_a_blowup(center):
    # True == 1 would otherwise be read as cone 1
    surf = Surface(SurfaceSpec("P2", [0, 2]))
    exc = TowerPoint(center=center, direction=P2Point(1, 1, 1))
    with pytest.raises(ValueError, match=f"point 0: exceptional center {center!r}"):
        find_chart(surf, [exc])


# -- exceptional round trips ------------------------------------------------------


@st.composite
def tower_configurations(draw):
    """A tower over distinct fixed points of the plane, and points on it:
    at least one on an exceptional curve, the rest on either kind."""
    blowups = draw(st.permutations([0, 1, 2]).flatmap(lambda p: st.sampled_from([p[:1], p[:2], p])))
    centers = [P2_FIXED_POINTS[c] for c in blowups]

    def exceptional():
        center = draw(st.sampled_from(blowups))
        direction = draw(plane_vectors().map(lambda v: P2Point(*v)).filter(lambda d: d != P2_FIXED_POINTS[center]))
        return TowerPoint(center=center, direction=direction)

    def ordinary():
        base = draw(plane_vectors().map(lambda v: P2Point(*v)).filter(lambda q: q not in centers))
        return TowerPoint(base=base)

    points = [exceptional()]
    for _ in range(draw(st.integers(0, 3))):
        points.append(exceptional() if draw(st.booleans()) else ordinary())
    return Surface(SurfaceSpec("P2", list(blowups))), draw(st.permutations(points))


@settings(max_examples=200, deadline=None)
@given(tower_configurations())
def test_tower_chart_round_trips_exceptional_points(config):
    surf, points = config
    res = find_chart(surf, points)
    for p, (u, v) in zip(points, res.coordinates):
        back = chart_embedder(surf, res.description)(u, v)
        assert back == p, (p, back)
