"""Exact scalars: two fields, and the coefficients of the symbolic algebras.

Every numeric computation in this package runs over one of two fields:

* ``QQ`` -- the rationals, backed by :class:`fractions.Fraction` (always in
  lowest terms with positive denominator, which Fraction guarantees).
* ``GF(p)`` -- the field with p elements for a configurable prime p, backed
  by plain ints in ``range(p)``.

A field object bundles the operations the linear-algebra kernels and their
test oracles use (``of``, ``add``, ``sub``, ``mul``, ``neg``, ``inv``,
``div``, ``is_zero``), so matrices can be written once and run over either
field.

The symbolic algebras (``SuperPoly``, ``NCElement``, ``BimodElement``) are
linear combinations over QQ.  They share one base class, :class:`Terms`: a
dict from keys to coefficients, each kept by :func:`coefficient`, with the
linear structure (sum, difference, negation, scaling, equality, hashing)
written once.  :func:`signed_sum` is the one printed layout,
``3/2*a*b - c + 2``, of ``poly_to_text`` and ``NCElement``.
"""

from __future__ import annotations

from fractions import Fraction

# Default modulus for prime-field runs: the Mersenne prime 2^31 - 1.
DEFAULT_PRIME = 2147483647

_SMALL_PRIME_LIMIT = 1 << 20


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # Deterministic Miller-Rabin for n < 3.3 * 10^24 with these bases.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _exact_input(x):
    """``x`` itself, unless it is a float or a bool: a float is a binary
    approximation and a bool is not a number, so neither names a field
    element and both are refused rather than reinterpreted."""
    if isinstance(x, (float, bool)):
        raise TypeError(f"{x!r} is not an exact field element")
    return x


def coefficient(c):
    """``c`` as a symbolic coefficient: an ``int`` when integral, else a
    ``Fraction``.

    The term-dict algebras (``SuperPoly``, ``NCElement``, ``BimodElement``)
    store every coefficient this way, so a value has one representation and
    products of integer terms stay in machine ints.  An int is returned
    unchanged; a float or a bool raises TypeError, as ``QQ.of`` does.
    """
    if type(c) is int:
        return c
    if not isinstance(c, Fraction):
        c = Fraction(_exact_input(c))
    return c.numerator if c.denominator == 1 else c


def accumulate(terms: dict, pairs) -> dict:
    """Add the (key, coefficient) ``pairs`` into ``terms`` in place, dropping
    keys whose sum cancels and keeping the coefficient rule; returns
    ``terms``.  The pairs' coefficients must already be exact numbers."""
    for k, c in pairs:
        nc = terms.get(k, 0) + c
        if nc:
            terms[k] = nc if type(nc) is int else coefficient(nc)
        elif k in terms:
            del terms[k]
    return terms


def signed_sum(pairs) -> str:
    """(coefficient, factor names) pairs, in the given order, as the signed
    sum ``3/2*a*b - c + 2``; a unit coefficient is omitted before factors,
    and the empty sum is ``0``."""
    parts = []
    for c, factors in pairs:
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = f"{abs(c)}*" + "*".join(factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


class Terms:
    """A linear combination over QQ: ``terms`` maps each key (a monomial, a
    word, ...) to its coefficient, kept by :func:`coefficient` (so never
    zero).  Subclasses add the keys' meaning and products; the linear
    structure lives here.  Elements are treated as immutable values: every
    operation returns a new element, and equal elements hash alike."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for k, c in terms.items():
                c = coefficient(c)
                if c:
                    self.terms[k] = c

    def _like(self, terms: dict):
        """An element of the same kind wrapping ``terms``, which must already
        keep the coefficient rule; the dict is not copied."""
        out = type(self)()
        out.terms = terms
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        return self._like(accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = coefficient(c)
        return self._like({k: coefficient(c * x) for k, x in self.terms.items()} if c else {})


class RationalField:
    """The field of rational numbers."""

    name = "QQ"

    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x) -> Fraction:
        # a Fraction is immutable, so it is shared rather than rebuilt
        return x if isinstance(x, Fraction) else Fraction(_exact_input(x))

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return Fraction(a) / b

    def is_zero(self, a) -> bool:
        return a == 0

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """The field F_p for a prime p >= 2^20 (small p admits too many bad primes)."""

    def __init__(self, p: int):
        if p < _SMALL_PRIME_LIMIT:
            raise ValueError(f"prime must be >= 2^20, got {p}")
        if not _is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"
        self.zero = 0
        self.one = 1

    def of(self, x) -> int:
        if isinstance(x, str):
            # read as QQ.of reads it, so "1/2" names the same element
            x = Fraction(x)
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return x.numerator * pow(den, -1, self.p) % self.p
        return int(_exact_input(x)) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)
