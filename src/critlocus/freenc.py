"""The free noncommutative dga on x, y, z, u, v, w, t.

Words are plain tuples over the seven-letter alphabet, multiplication is
concatenation extended bilinearly, and nothing commutes.  Degrees are
x, y, z: 0; u, v, w: -1; t: -2.  The differential is the degree +1 graded
derivation with

    dx = dy = dz = 0
    du = yz - zy,  dv = zx - xz,  dw = xy - yx
    dt = (xu - ux) + (yv - vy) + (zw - wz)

and d o d = 0 encodes the Jacobi identity of the three commutators.
"""

from __future__ import annotations

from numbers import Number

from .scalars import coefficient

ALPHABET = ("x", "y", "z", "u", "v", "w", "t")
DEGREE = {"x": 0, "y": 0, "z": 0, "u": -1, "v": -1, "w": -1, "t": -2}


def _word_degree(word) -> int:
    return sum(DEGREE[a] for a in word)


class NCElement:
    """Linear combination of words in the free algebra k<x,y,z,u,v,w,t>,
    its coefficients kept by ``scalars.coefficient``."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for w, c in terms.items():
                # two keys may name one word, as "xy" and ("x", "y") do
                w = tuple(w)
                c = self.terms.get(w, 0) + coefficient(c)
                if c:
                    self.terms[w] = coefficient(c)
                else:
                    self.terms.pop(w, None)

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

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, NCElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            nc = out.get(w, 0) + c
            if nc:
                out[w] = coefficient(nc)
            elif w in out:
                del out[w]
        r = NCElement()
        r.terms = out
        return r

    def __neg__(self):
        r = NCElement()
        r.terms = {w: -c for w, c in self.terms.items()}
        return r

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, NCElement):
            return self.scale(other) if isinstance(other, Number) else NotImplemented
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                nc = out.get(w, 0) + c1 * c2
                if nc:
                    out[w] = coefficient(nc)
                elif w in out:
                    del out[w]
        r = NCElement()
        r.terms = out
        return r

    __rmul__ = __mul__

    def scale(self, c):
        c = coefficient(c)
        r = NCElement()
        if c:
            r.terms = {w: coefficient(c * x) for w, x in self.terms.items()}
        return r

    def degree(self):
        degs = {_word_degree(w) for w in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous, degrees {sorted(degs)}")
        return degs.pop()

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[w]
            body = "*".join(w) if w else "1"
            if abs(c) != 1 or not w:
                body = f"{abs(c)}*{body}" if w else str(abs(c))
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

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
    out = NCElement.zero()
    for word, c in p.terms.items():
        prefix_parity = 0
        for j, a in enumerate(word):
            img = DIFFERENTIAL_ON_LETTERS[a]
            if not img.is_zero():
                sign = -1 if prefix_parity else 1
                left = NCElement({word[:j]: c * sign})
                right = NCElement({word[j + 1 :]: 1})
                out = out + left * img * right
            prefix_parity ^= DEGREE[a] & 1
    return out
