"""The free noncommutative dga on x, y, z, u, v, w, t.

Words are plain tuples over the seven-letter alphabet, multiplication is
concatenation extended bilinearly, and nothing commutes.  Degrees are
x, y, z: 0; u, v, w: -1; t: -2.  The differential is the degree +1 graded
derivation with

    dx = dy = dz = 0
    du = yz - zy,  dv = zx - xz,  dw = xy - yx
    dt = (xu - ux) + (yv - vy) + (zw - wz)

and d o d = 0 encodes the Jacobi identity of the three commutators.

An element is a ``scalars.Terms`` keyed by words; this module adds only
concatenation, word keys given as strings, the degree and the differential.
"""

from __future__ import annotations

from numbers import Number

from .scalars import Terms, accumulate, coefficient, signed_sum

ALPHABET = ("x", "y", "z", "u", "v", "w", "t")
DEGREE = {"x": 0, "y": 0, "z": 0, "u": -1, "v": -1, "w": -1, "t": -2}


def _word_degree(word) -> int:
    return sum(DEGREE[a] for a in word)


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

    @classmethod
    def one(cls):
        return cls({(): 1})

    @classmethod
    def letter(cls, a: str):
        if a not in DEGREE:
            raise ValueError(f"unknown letter {a}")
        return cls({(a,): 1})

    @classmethod
    def word(cls, letters: str):
        for a in letters:
            if a not in DEGREE:
                raise ValueError(f"unknown letter {a}")
        return cls({tuple(letters): 1})

    def __mul__(self, other):
        if not isinstance(other, NCElement):
            return self.scale(other) if isinstance(other, Number) else NotImplemented
        return self._like(accumulate({}, (
            (w1 + w2, c1 * c2) for w1, c1 in self.terms.items() for w2, c2 in other.terms.items()
        )))

    __rmul__ = __mul__

    def degree(self):
        degs = {_word_degree(w) for w in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous, degrees {sorted(degs)}")
        return degs.pop()

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


def nc_differential(p: NCElement) -> NCElement:
    """The degree +1 graded derivation determined by the letter images."""
    out = {}
    for word, c in p.terms.items():
        prefix_parity = 0
        for j, a in enumerate(word):
            c_j = -c if prefix_parity else c
            left, right = word[:j], word[j + 1 :]
            image = DIFFERENTIAL_ON_LETTERS[a].terms
            accumulate(out, ((left + w + right, c_j * ci) for w, ci in image.items()))
            prefix_parity ^= DEGREE[a] & 1
    return p._like(out)
