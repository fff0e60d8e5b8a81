"""The free noncommutative dga on x, y, z, u, v, w, t.

Words are plain tuples over the seven-letter alphabet, multiplication is
concatenation extended bilinearly, and nothing commutes.  Degrees are
x, y, z: 0; u, v, w: -1; t: -2.  The differential is the degree +1 graded
derivation with

    dx = dy = dz = 0
    du = yz - zy,  dv = zx - xz,  dw = xy - yx
    dt = (xu - ux) + (yv - vy) + (zw - wz)

and d o d = 0 encodes the Jacobi identity of the three commutators.
``DIFFERENTIAL_ON_LETTERS`` holds these images; the universal family's
Leibniz search reads them.

An element is a ``scalars.Terms`` keyed by words; this module adds only
concatenation and word keys given as strings.
"""

from __future__ import annotations

from numbers import Number

from .scalars import Terms, accumulate, coefficient, signed_sum

DEGREE = {"x": 0, "y": 0, "z": 0, "u": -1, "v": -1, "w": -1, "t": -2}


class NCElement(Terms):
    """Linear combination of words in the free algebra k<x,y,z,u,v,w,t>,
    its linear structure inherited from :class:`Terms`."""

    __slots__ = ()

    def __init__(self, terms=None):
        # two keys may name one word, as "xy" and ("x", "y") do
        self.terms = accumulate({}, ((tuple(w), coefficient(c)) for w, c in (terms or {}).items()))

    @classmethod
    def zero(cls):
        return cls()

    def __mul__(self, other):
        if not isinstance(other, NCElement):
            return self.scale(other) if isinstance(other, Number) else NotImplemented
        return self._like(accumulate({}, (
            (w1 + w2, c1 * c2) for w1, c1 in self.terms.items() for w2, c2 in other.terms.items()
        )))

    __rmul__ = __mul__

    def __str__(self):
        return signed_sum((self.terms[w], w) for w in sorted(self.terms, key=lambda w: (len(w), w)))

    def __repr__(self):
        return f"NCElement({self})"


def _commutator(a: str, b: str) -> NCElement:
    return NCElement({(a, b): 1, (b, a): -1})


DIFFERENTIAL_ON_LETTERS = {
    "x": NCElement.zero(),
    "y": NCElement.zero(),
    "z": NCElement.zero(),
    "u": _commutator("y", "z"),
    "v": _commutator("z", "x"),
    "w": _commutator("x", "y"),
    "t": _commutator("x", "u") + _commutator("y", "v") + _commutator("z", "w"),
}

