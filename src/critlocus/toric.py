"""Smooth complete toric surfaces as blowup towers, and affine chart search.

Surfaces are encoded by complete smooth fans in Z^2 (primitive rays in
counterclockwise order, adjacent pairs forming lattice bases).  The base
surfaces are the projective plane and the Hirzebruch surfaces; blowups
insert the sum of the two rays of a chosen cone.

The chart machinery answers one question exactly: given finitely many
rational points on the surface, produce an affine plane chart containing
all of them, with coordinates and an exact inverse.  The chart families:

* plane: complements of the lines x0 + t x1 + t^2 x2 = 0, t = 0, 1, 2, ...;
  a point lies on at most two of these, so the search terminates.
* Hirzebruch F_k: complements of (fiber  union  section disjoint from the
  negative section); the fiber is ell = b x1 - a x3 = 0 for a fiber form
  avoiding every point, and the section is x4 + c x2 ell^k = 0 with
  c = 0, 1, 2, ...; a point with x2 != 0 lies on exactly one of these.
* blowup towers: pull back a plane chart and, for each blown-up point
  inside it, remove the proper transform of one line through the center
  whose direction avoids every given point, which leaves an affine plane
  again.  Points are plane points, or exceptional-direction pairs
  (center, direction point) for points on an exceptional curve.

Points are stored in integer homogeneous coordinates: a plane point as
the primitive integer triple whose first nonzero entry is positive, a
point of F_k as the integer Cox quadruple whose fiber pair and then
section pair are primitive with first nonzero entry positive.  Each
rational point has exactly one such representative, so equality and
hashing compare int tuples, and the chart searches run in integer
arithmetic; a Fraction is built only for the chart coordinates returned.
Coordinates may be given as ints, Fractions or strings such as "3/4"; a
float or a bool is refused.  The blowup steps of a tower stay rational.

All arithmetic is exact; chart coordinates compose with the recorded
inverse to reproduce the input points on the nose.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .scalars import _exact_input


# -- fans ---------------------------------------------------------------------


def _primitive(v):
    g = gcd(abs(v[0]), abs(v[1]))
    if g == 0:
        raise ValueError("zero ray")
    return (v[0] // g, v[1] // g)


def _det(a, b):
    return a[0] * b[1] - a[1] * b[0]


class Fan2D:
    """Complete smooth fan: primitive rays, counterclockwise, cyclic."""

    def __init__(self, rays):
        self.rays = [_primitive(tuple(r)) for r in rays]
        if len(self.rays) < 3:
            raise ValueError("a complete fan needs at least 3 rays")
        if len(set(self.rays)) != len(self.rays):
            raise ValueError("duplicate rays")

    def cones(self):
        n = len(self.rays)
        return [(i, (i + 1) % n) for i in range(n)]

    def is_smooth(self) -> bool:
        n = len(self.rays)
        return all(_det(self.rays[i], self.rays[(i + 1) % n]) == 1 for i in range(n))

    def is_complete(self) -> bool:
        # counterclockwise adjacent determinants positive all the way round
        n = len(self.rays)
        return all(_det(self.rays[i], self.rays[(i + 1) % n]) > 0 for i in range(n))

    def blowup(self, cone_index: int) -> "Fan2D":
        """Insert the sum of the cone's two rays (star subdivision).  An index
        that is not an int in 0..len(cones)-1 raises ValueError naming it."""
        cones = self.cones()
        if type(cone_index) is not int or not 0 <= cone_index < len(cones):
            raise ValueError(f"blowup cone index {cone_index!r} is not one of 0..{len(cones) - 1}")
        i, j = cones[cone_index]
        a, b = self.rays[i], self.rays[j]
        new = (a[0] + b[0], a[1] + b[1])
        rays = self.rays[: i + 1] + [new] + self.rays[i + 1 :]
        return Fan2D(rays)


def p2_fan() -> Fan2D:
    return Fan2D([(1, 0), (0, 1), (-1, -1)])


def hirzebruch_fan(k: int) -> Fan2D:
    return Fan2D([(1, 0), (0, 1), (-1, k), (0, -1)])


@dataclass
class SurfaceSpec:
    """Base surface plus an ordered list of blowup centers (cone indices
    into the fan current at each step).  The base is "P2" or "F" and a
    decimal k with no sign and no leading zero; any other base raises
    ValueError naming it."""

    base: str  # "P2" or "F<k>"
    blowups: list = field(default_factory=list)

    def __post_init__(self):
        if not (isinstance(self.base, str) and re.fullmatch(r"P2|F(0|[1-9][0-9]*)", self.base)):
            raise ValueError(f'base surface {self.base!r} is not "P2" or "F<k>", k a decimal with no sign or leading zero')

    @property
    def k(self) -> Optional[int]:
        """The index k of the base F<k>, or None on P2."""
        return None if self.base == "P2" else int(self.base[1:])

    def base_fan(self) -> Fan2D:
        if self.base == "P2":
            return p2_fan()
        return hirzebruch_fan(self.k)

    @classmethod
    def from_json_obj(cls, obj) -> "SurfaceSpec":
        """A spec with no "base" raises ValueError, as any unknown base does."""
        return cls(obj.get("base"), list(obj.get("blowups", [])))

    def to_json_obj(self):
        return {"base": self.base, "blowups": list(self.blowups)}


class Surface:
    def __init__(self, spec: SurfaceSpec):
        self.spec = spec
        fan = spec.base_fan()
        for cone_index in spec.blowups:
            fan = fan.blowup(cone_index)
        self.fan = fan
        if not (self.fan.is_smooth() and self.fan.is_complete()):
            raise ValueError("blowup tower produced a bad fan")


# -- points -------------------------------------------------------------------


def _cleared(values):
    """Integers proportional to the exact values, and the common
    denominator they were multiplied by.  A coordinate that is not an int
    is read as a Fraction through ``_exact_input``, so a float or a bool is
    refused rather than reinterpreted."""
    if all(type(x) is int for x in values):
        return tuple(values), 1
    exact = [x if type(x) in (int, Fraction) else Fraction(_exact_input(x)) for x in values]
    den = lcm(*(x.denominator for x in exact))
    return tuple(x.numerator * (den // x.denominator) for x in exact), den


def _primitive_signed(ints):
    """The primitive integer vector proportional to the nonzero ``ints``
    whose first nonzero entry is positive, and the signed divisor."""
    g = gcd(*ints)
    for x in ints:
        if x:
            if x < 0:
                g = -g
            break
    if g == 1:
        return tuple(ints), 1
    return tuple(x // g for x in ints), g


class P2Point:
    """[x0 : x1 : x2], stored as the primitive integer triple whose first
    nonzero entry is positive: the unique representative of a point of P2
    over QQ, so equality and hashing compare int tuples."""

    def __init__(self, x0, x1, x2):
        ints, _ = _cleared((x0, x1, x2))
        if not any(ints):
            raise ValueError("zero point")
        self.coords, _ = _primitive_signed(ints)

    def __eq__(self, other):
        return isinstance(other, P2Point) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"P2Point{self.coords}"


class FnPoint:
    """Cox coordinates (x1, x2, x3, x4) on F_k: x1, x3 the fiber pair,
    x2 the negative section coordinate, x4 the positive one; equivalence
    (x1, x2, x3, x4) ~ (l x1, m x2, l x3, l^k m x4).

    Stored as integers: the fiber pair primitive with its first nonzero
    entry positive, which fixes l, and then the section pair the same way,
    which fixes m.  So each point has one stored quadruple."""

    def __init__(self, k: int, x1, x2, x3, x4):
        if isinstance(k, bool) or not isinstance(k, int) or k < 0:
            raise ValueError(f"k = {k!r} is not a non-negative int")
        self.k = k
        fiber, l = _cleared((x1, x3))
        if not any(fiber):
            raise ValueError("fiber coordinates both zero")
        section, _ = _cleared((x2, x4))
        if not any(section):
            raise ValueError("section coordinates both zero")
        # scaling the fiber pair by l / g scales x4 by (l / g)^k; then
        # m = g^k keeps the section pair integral
        (y1, y3), g = _primitive_signed(fiber)
        (y2, y4), _ = _primitive_signed((section[0] * g**k, section[1] * l**k))
        self.coords = (y1, y2, y3, y4)

    def __eq__(self, other):
        return (
            isinstance(other, FnPoint)
            and self.k == other.k
            and self.coords == other.coords
        )

    def __repr__(self):
        return f"FnPoint(k={self.k}, {self.coords})"


class TowerPoint:
    """A point of a blowup tower over the plane: either a plane point away
    from every center, or a point on the exceptional curve of one center,
    recorded as (center cone index, direction point)."""

    def __init__(self, base: Optional[P2Point] = None, center: Optional[int] = None, direction: Optional[P2Point] = None):
        if base is None and (center is None or direction is None):
            raise ValueError("need a base point or a (center, direction) pair")
        self.base = base
        self.center = center
        self.direction = direction

    @property
    def exceptional(self):
        return self.base is None

    def __eq__(self, other):
        if not isinstance(other, TowerPoint):
            return NotImplemented
        if self.exceptional != other.exceptional:
            return False
        if not self.exceptional:
            return self.base == other.base
        if self.center != other.center:
            return False
        # directions agree when they span the same line through the center
        center = P2_FIXED_POINTS[self.center]
        return _collinear(center, self.direction, other.direction)

    def __repr__(self):
        if self.exceptional:
            return f"TowerPoint(E{self.center}, dir={self.direction})"
        return f"TowerPoint({self.base})"


def _collinear(p: P2Point, q: P2Point, r: P2Point) -> bool:
    m = [p.coords, q.coords, r.coords]
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    return det == 0


P2_FIXED_POINTS = {
    0: P2Point(0, 0, 1),  # cone (ray0, ray1)
    1: P2Point(1, 0, 0),  # cone (ray1, ray2)
    2: P2Point(0, 1, 0),  # cone (ray2, ray0)
}


# -- charts -------------------------------------------------------------------


@dataclass
class ChartResult:
    description: dict
    coordinates: list  # one (u, v) pair of Fractions per input point

    def to_json_obj(self):
        return {
            "chart": self.description,
            "coordinates": [[str(u), str(v)] for u, v in self.coordinates],
        }


def find_chart_p2(points) -> ChartResult:
    """Complement of a line x0 + t x1 + t^2 x2 avoiding every point."""
    t = _plane_line(points)
    coords = [_p2_chart_coords(p, _p2_line_value(p, t)) for p in points]
    return ChartResult({"surface": "P2", "line_t": str(t)}, coords)


def _plane_line(points) -> int:
    """The least t whose line x0 + t x1 + t^2 x2 = 0 misses every point; a
    point lies on at most two of these lines, so t <= 2 len(points)."""
    for t in range(2 * len(points) + 1):
        if all(_p2_line_value(p, t) for p in points):
            return t
    raise AssertionError("pigeonhole violated in plane line search")


def _p2_line_value(p: P2Point, t: int) -> int:
    x0, x1, x2 = p.coords
    return x0 + t * x1 + t * t * x2


def _p2_chart_coords(p: P2Point, ell: int):
    return (Fraction(p.coords[1], ell), Fraction(p.coords[2], ell))


def p2_chart_embed(description: dict, u, v) -> P2Point:
    """The point [1 - t u - t^2 v : u : v], built from the numerators and
    the common denominator of u and v."""
    t = int(description["line_t"])
    (nu, nv), den = _cleared((u, v))
    return P2Point(den - t * nu - t * t * nv, nu, nv)


def find_chart_fn(k: int, points) -> ChartResult:
    """Complement of (fiber ell = 0) union (section x4 + c x2 ell^k = 0)."""
    # fiber: line b x1 - a x3 = 0; candidates [1:0], [0:1], [1:1], [1:2], ...
    fiber_candidates = [(1, 0), (0, 1)] + [(1, t) for t in range(1, len(points) + 2)]
    fiber = None
    for (a, b) in fiber_candidates:
        if all(b * p.coords[0] - a * p.coords[2] != 0 for p in points):
            fiber = (a, b)
            break
    assert fiber is not None, "pigeonhole violated in fiber search"
    a, b = fiber

    # ell != 0 at every point, so x4 + c x2 ell^k vanishes for exactly one c
    # at a point with x2 != 0 and for none at a point with x2 = 0 (x4 != 0)
    ells = [b * p.coords[0] - a * p.coords[2] for p in points]
    weights = [p.coords[1] * ell**k for p, ell in zip(points, ells)]
    for c in range(len(points) + 1):
        if all(p.coords[3] + c * w != 0 for p, w in zip(points, weights)):
            break
    else:
        raise AssertionError("pigeonhole violated in section search")

    # a second fiber form with unimodular pairing for the base coordinate
    a2, b2 = _complete_unimodular(a, b)
    coords = []
    for p, ell, w in zip(points, ells, weights):
        x1, _, x3, x4 = p.coords
        coords.append((Fraction(b2 * x1 - a2 * x3, ell), Fraction(w, x4 + c * w)))
    description = {
        "surface": f"F{k}",
        "fiber": [str(a), str(b)],
        "fiber2": [str(a2), str(b2)],
        "section_c": str(c),
    }
    return ChartResult(description, coords)


def _complete_unimodular(a: int, b: int):
    """Integer (a2, b2) with a*b2 - b*a2 = 1, so the forms b x1 - a x3 and
    b2 x1 - a2 x3 are a unimodular pair."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    # old_s * a + old_t * b = gcd(a, b) = +-1
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return (-old_t, old_s)


def fn_chart_embed(k: int, description: dict, u, v) -> FnPoint:
    """The point with ell = 1, ell2 = u, x2 = v and x4 + c x2 ell^k = 1,
    built from the numerators and denominators of u and v."""
    a, b = (int(x) for x in description["fiber"])
    a2, b2 = (int(x) for x in description["fiber2"])
    c = int(description["section_c"])
    (nu, nv), den = _cleared((u, v))
    # the pairing is unimodular, a b2 - b a2 = 1, so (ell, ell2) = (1, u)
    # solves to (x1, x3) = (a u - a2, b u - b2); the torus element
    # l = m = den clears the denominators
    x1, x3 = a * nu - a2 * den, b * nu - b2 * den
    return FnPoint(k, x1, nv, x3, (den - c * nv) * den**k)


def _blowup_substitution(cq, slope, pos):
    """(sigma, r) coordinates of pos after blowing up cq and removing the
    direction of the given slope; None exactly on the removed line."""
    x1, y1 = pos[0] - cq[0], pos[1] - cq[1]
    r = y1 - slope * x1
    if r == 0:
        return None
    return (x1 / r, r)


def _blowup_derivative(cq, slope, pos):
    """Exact Jacobian of the substitution at pos, as four rationals."""
    x1, y1 = pos[0] - cq[0], pos[1] - cq[1]
    rho = y1 - slope * x1
    return (
        (1 / rho + slope * x1 / rho**2, -x1 / rho**2),
        (-slope, Fraction(1)),
    )


def _apply_jacobian(jac, vec):
    (a, b), (c, d) = jac
    return (a * vec[0] + b * vec[1], c * vec[0] + d * vec[1])


def find_chart_tower(surface: Surface, points) -> ChartResult:
    """Inductive chart on a blowup tower over the plane.

    Restricted to towers whose centers are distinct torus-fixed points of
    the original plane; points are plane points away from the centers, or
    exceptional pairs (center, direction).  Each step re-expresses every
    point, every later center and every pending exceptional direction in
    the chart produced so far, so the blowups happen at the true images of
    the centers; direction vectors are transported by the exact Jacobian.
    """
    spec = surface.spec
    if spec.base != "P2":
        raise ValueError("tower charts are implemented over the plane")
    centers = []
    for cone_index in spec.blowups:
        if cone_index not in P2_FIXED_POINTS:
            raise ValueError(
                "tower charts support centers at the original fixed points"
            )
        centers.append(P2_FIXED_POINTS[cone_index])
    if len(set(centers)) != len(centers):
        raise ValueError("tower charts need distinct centers")

    exceptional_centers = set()
    for idx, p in enumerate(points):
        if p.exceptional:
            # a bool is not a cone index, as in Fan2D.blowup
            if type(p.center) is not int or p.center not in spec.blowups:
                raise ValueError(
                    f"point {idx}: exceptional center {p.center!r} is not one of the blowups {spec.blowups}"
                )
            if p.direction == P2_FIXED_POINTS[p.center]:
                raise ValueError(f"point {idx}: degenerate direction")
            exceptional_centers.add(p.center)
        else:
            if p.base in centers:
                raise ValueError(f"point {idx}: point coincides with a blowup center")

    # base chart: the line must avoid every ordinary point, every direction
    # representative, and every center carrying an exceptional point
    probe = [p.base for p in points if not p.exceptional]
    probe += [p.direction for p in points if p.exceptional]
    probe += [P2_FIXED_POINTS[c] for c in sorted(exceptional_centers)]
    t = _plane_line(probe)

    def base_coords(q: P2Point):
        ell = _p2_line_value(q, t)
        return _p2_chart_coords(q, ell) if ell else None

    # point state: ("at", (u, v)) or ("pending", cone, direction vector at
    # the center); center positions are carried through the same frames
    state = []
    center_pos = {
        cone: base_coords(P2_FIXED_POINTS[cone]) for cone in spec.blowups
    }
    for p in points:
        if p.exceptional:
            cq = center_pos[p.center]
            dq = base_coords(p.direction)
            state.append(["pending", p.center, (dq[0] - cq[0], dq[1] - cq[1])])
        else:
            state.append(["at", base_coords(p.base)])

    def slope_of(vec):
        return None if vec[0] == 0 else vec[1] / vec[0]

    steps_taken = []
    for j, cone_index in enumerate(spec.blowups):
        cq = center_pos[cone_index]
        if cq is None:
            steps_taken.append({"center_cone": cone_index, "inside": False})
            continue
        blocked = set()
        for p, st in zip(points, state):
            if st[0] == "at":
                vec = (st[1][0] - cq[0], st[1][1] - cq[1])
                if vec == (0, 0):
                    raise ValueError("point collides with a center")
                blocked.add(slope_of(vec))
            elif st[1] == cone_index:
                blocked.add(slope_of(st[2]))
        for later in spec.blowups[j + 1 :]:
            # keep centers that still carry exceptional points inside
            pos = center_pos[later]
            if later in exceptional_centers and pos is not None:
                blocked.add(slope_of((pos[0] - cq[0], pos[1] - cq[1])))
        # len(blocked) + 1 integer slopes cannot all be blocked
        slope = next(cand for cand in range(len(blocked) + 1) if cand not in blocked)

        new_state = []
        for p, st in zip(points, state):
            if st[0] == "at":
                moved = _blowup_substitution(cq, slope, st[1])
                if moved is None:
                    raise AssertionError("blocked slope slipped through")
                new_state.append(["at", moved])
            elif st[1] == cone_index:
                vx, vy = st[2]
                rdir = vy - slope * vx
                # rdir != 0 since the direction slope was blocked
                new_state.append(["at", (vx / rdir, Fraction(0))])
            else:
                # transport the pending direction by the Jacobian at its
                # center, which stays off the removed line by construction
                other = center_pos[st[1]]
                jac = _blowup_derivative(cq, slope, other)
                new_state.append(["pending", st[1], _apply_jacobian(jac, st[2])])
        state = new_state
        for later in spec.blowups[j + 1 :]:
            pos = center_pos[later]
            if pos is not None:
                center_pos[later] = _blowup_substitution(cq, slope, pos)
        steps_taken.append(
            {
                "center_cone": cone_index,
                "inside": True,
                "center_chart_coords": [str(cq[0]), str(cq[1])],
                "removed_slope": str(slope),
            }
        )

    for st in state:
        if st[0] != "at":
            raise AssertionError("unprocessed exceptional point")
    description = {
        "surface": "tower",
        "base": "P2",
        "line_t": str(t),
        "steps": steps_taken,
    }
    return ChartResult(description, [tuple(st[1]) for st in state])


def tower_chart_embedder(description: dict):
    """The map from chart coordinates back to tower points, with the steps
    of ``description`` parsed once for all the points of the chart.

    Walking the steps backwards undoes each substitution; a vanishing
    radial coordinate identifies a point on that step's exceptional curve,
    whose direction vector is then transported back through the earlier
    frames by inverse Jacobians.
    """
    steps = [
        (step["center_cone"], int(step["removed_slope"]), tuple(Fraction(c) for c in step["center_chart_coords"]))
        for step in reversed(description["steps"])
        if step["inside"]
    ]

    def embed(u, v) -> TowerPoint:
        coords = (Fraction(u), Fraction(v))
        pending_center = None
        pending_v = None
        for center_cone, slope, cq in steps:
            sigma, r = coords
            if r == 0 and pending_center is None:
                pending_center = center_cone
                # sigma = vx / (vy - k vx); normalize vy - k vx = 1
                pending_v = (sigma, 1 + slope * sigma)
                coords = cq
            else:
                x1 = sigma * r
                y1 = r + slope * x1
                coords = (x1 + cq[0], y1 + cq[1])
                if pending_v is not None:
                    (a, b), (c, d) = _blowup_derivative(cq, slope, coords)
                    det = a * d - b * c
                    pending_v = (
                        (d * pending_v[0] - b * pending_v[1]) / det,
                        (-c * pending_v[0] + a * pending_v[1]) / det,
                    )
        if pending_center is not None:
            direction = p2_chart_embed(description, coords[0] + pending_v[0], coords[1] + pending_v[1])
            return TowerPoint(center=pending_center, direction=direction)
        return TowerPoint(base=p2_chart_embed(description, *coords))

    return embed


def find_chart(surface: Surface, points) -> ChartResult:
    """A chart holding every point; a point of another surface raises
    ValueError naming its index."""
    spec = surface.spec
    for idx, p in enumerate(points):
        if spec.blowups:
            fits = isinstance(p, TowerPoint)
        elif spec.base == "P2":
            fits = isinstance(p, P2Point)
        else:
            fits = isinstance(p, FnPoint) and p.k == spec.k
        if not fits:
            raise ValueError(f"point {idx}: {p!r} is not a point of {spec.to_json_obj()}")
    if spec.blowups:
        return find_chart_tower(surface, points)
    if spec.base == "P2":
        return find_chart_p2(points)
    return find_chart_fn(spec.k, points)


def chart_embedder(surface: Surface, description: dict):
    """The embedding of one chart of ``surface``, as a function from chart
    coordinates (u, v) to a point; it reads the description once for all
    its points."""
    spec = surface.spec
    if spec.blowups:
        return tower_chart_embedder(description)
    if spec.base == "P2":
        return lambda u, v: p2_chart_embed(description, u, v)
    return lambda u, v: fn_chart_embed(spec.k, description, u, v)


# -- statistics ----------------------------------------------------------------


def _random_ratio(rng):
    """(num, den) of a random rational num / den."""
    return rng.randint(-9, 9), rng.randint(1, 5)


def random_point(surface: Surface, rng):
    spec = surface.spec
    if spec.base == "P2" and not spec.blowups:
        kind = rng.random()
        if kind < 0.8:
            return _random_affine_point(rng)
        if kind < 0.95:
            n, d = _random_ratio(rng)
            return P2Point(0, d, n)
        return P2Point(0, 0, 1)
    if spec.base.startswith("F") and not spec.blowups:
        k = spec.k
        while True:
            (n1, d1), (n3, d3) = _random_ratio(rng), _random_ratio(rng)
            (n2, d2), (n4, d4) = _random_ratio(rng), _random_ratio(rng)
            if (n1, n3) != (0, 0) and (n2, n4) != (0, 0):
                # l = d1 d3 clears the fiber pair, m = d2 d4 the section pair
                return FnPoint(k, n1 * d3, n2 * d4, n3 * d1, n4 * d2 * (d1 * d3) ** k)
    # tower: plane points away from the centers
    centers = {P2_FIXED_POINTS[c] for c in spec.blowups}
    while True:
        p = _random_affine_point(rng)
        if p not in centers:
            return TowerPoint(base=p)


def _random_affine_point(rng):
    """[1 : n1/d1 : n2/d2] for two random rationals."""
    (n1, d1), (n2, d2) = _random_ratio(rng), _random_ratio(rng)
    return P2Point(d1 * d2, n1 * d2, n2 * d1)


def verify_cover_property(surface: Surface, trials: int, points_per_trial: int, rng) -> dict:
    successes = 0
    failures = []
    for trial in range(trials):
        points = [random_point(surface, rng) for _ in range(points_per_trial)]
        result = find_chart(surface, points)
        embed = chart_embedder(surface, result.description)
        ok = True
        for p, (u, v) in zip(points, result.coordinates):
            back = embed(u, v)
            if back != p:
                ok = False
                failures.append((trial, repr(p), repr(back)))
        if ok:
            successes += 1
    return {
        "trials": trials,
        "successes": successes,
        "failures": failures[:5],
        "ok": successes == trials,
    }
