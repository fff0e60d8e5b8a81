"""Free graded-commutative algebras on generators of degrees 0, -1, -2.

A generator carries a cohomological degree and (optionally) a de Rham form
degree; its sign parity is the total degree mod 2.  Odd generators
anticommute and square to zero, even generators are central.  Monomials are
kept in a normal form: even generators as a sorted exponent vector, odd
generators as a strictly increasing word, with the Koszul sign tracked when
products are reordered.

The canonical table of rank n carries the matrix-entry generators
X0(i,j), Y0(i,j), Z0(i,j) in degree 0, Xm1(i,j), Ym1(i,j), Zm1(i,j) in
degree -1 and T(i,j) in degree -2, in that global order with (i,j)
lexicographic inside each block.  ``extend_with_forms`` adjoins a symbol
d(g) for every generator g, with the same cohomological degree and form
degree 1, which is how 1- and 2-forms are represented.

An element is a ``scalars.Terms``: a dict from monomials to coefficients,
with the linear structure shared with ``NCElement`` and ``BimodElement``.
Every producer keeps one coefficient rule (``scalars.coefficient``): a
coefficient is an ``int`` when integral, otherwise a ``Fraction``, and
never zero.  So each value has one representation, and products of integer
terms -- nearly all of them, since most coefficients are +-1 -- stay in
machine ints.  This module adds the generator table, the product
(``add_product``), grading, evaluation and the Leibniz extension of a
derivation.

Elements print to a plain text format, e.g.::

    3/2*X0(1,2)*Xm1(2,1) - T(1,1)^2

See README for the grammar.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from numbers import Number
from typing import Iterable, Optional

from .scalars import Terms, coefficient, signed_sum


class Generator:
    __slots__ = ("name", "cdeg", "fdeg")

    def __init__(self, name: str, cdeg: int, fdeg: int = 0):
        self.name = name
        self.cdeg = cdeg
        self.fdeg = fdeg

    @property
    def parity(self) -> int:
        return (self.cdeg + self.fdeg) & 1

    def __repr__(self):
        return f"Generator({self.name}, cdeg={self.cdeg}, fdeg={self.fdeg})"


class GeneratorTable:
    """An ordered list of generators; order fixes all normal-form signs."""

    # the rank of a canonical table and of its extension by forms
    n = None

    def __init__(self, gens: Iterable[Generator]):
        self.gens = list(gens)
        self.by_name = {}
        for k, g in enumerate(self.gens):
            if g.name in self.by_name:
                raise ValueError(f"duplicate generator name {g.name}")
            self.by_name[g.name] = k

    def __len__(self):
        return len(self.gens)

    def idx(self, key) -> int:
        """The index of the generator named or indexed by ``key``; a bool, an
        unknown name or an int outside range(len(self)) raises KeyError."""
        if type(key) is int and 0 <= key < len(self.gens):
            return key
        return self.by_name[key]

    def gen(self, k: int) -> Generator:
        return self.gens[k]

    def parity(self, k: int) -> int:
        return self.gens[k].parity

    def cdeg(self, k: int) -> int:
        return self.gens[k].cdeg

    def fdeg(self, k: int) -> int:
        return self.gens[k].fdeg

    # -- canonical tables -------------------------------------------------

    MATRIX_BLOCKS = (("X0", 0), ("Y0", 0), ("Z0", 0), ("Xm1", -1), ("Ym1", -1), ("Zm1", -1), ("T", -2))

    @classmethod
    def block_start(cls, name: str, n: int) -> int:
        """The index of name(1,1) in the canonical rank-n table.  Generator
        name(i+1,j+1) has index b*n^2 + i*n + j, b being name's place in
        ``MATRIX_BLOCKS``; a name not there raises ValueError."""
        return [m for m, _ in cls.MATRIX_BLOCKS].index(name) * n * n

    @classmethod
    def canonical(cls, n: int) -> "GeneratorTable":
        """Rank-n table: 3n^2 degree-0, 3n^2 degree-(-1), n^2 degree-(-2) gens."""
        gens = []
        for name, deg in cls.MATRIX_BLOCKS:
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    gens.append(Generator(f"{name}({i},{j})", deg))
        t = cls(gens)
        t.n = n
        return t

    def extend_with_forms(self) -> "GeneratorTable":
        """Adjoin a de Rham symbol d(g) of form degree 1 for every generator."""
        gens = [Generator(g.name, g.cdeg, g.fdeg) for g in self.gens]
        for g in self.gens:
            gens.append(Generator(f"d({g.name})", g.cdeg, g.fdeg + 1))
        ext = GeneratorTable(gens)
        ext.n = self.n
        return ext


# A monomial is (even, odd):
#   even: tuple of (gen index, exponent), sorted by index, exponents > 0
#   odd:  tuple of gen indices, strictly increasing
Monomial = tuple

ONE_MONOMIAL: Monomial = ((), ())


def _merge_odd(o1, o2):
    """Merge two increasing odd words; return (sign, merged) or (0, None)."""
    if not o1:
        return 1, o2
    if not o2:
        return 1, o1
    merged = []
    sign = 1
    i = j = 0
    n1, n2 = len(o1), len(o2)
    while i < n1 and j < n2:
        a, b = o1[i], o2[j]
        if a == b:
            return 0, None
        if a < b:
            merged.append(a)
            i += 1
        else:
            # b jumps over the remaining n1 - i letters of o1
            if (n1 - i) & 1:
                sign = -sign
            merged.append(b)
            j += 1
    merged.extend(o1[i:])
    merged.extend(o2[j:])
    return sign, tuple(merged)


def add_product(terms: dict, left: dict, right: dict):
    """Add the product of the term dicts ``left`` and ``right`` into ``terms``
    in place, dropping zeros and keeping the coefficient rule.

    This is ``scalars.accumulate`` over the pairwise products, written out:
    it is the kernel of every symbolic product, and a generator feeding
    ``accumulate`` costs it about a tenth more time."""
    for (e1, o1), c1 in left.items():
        for (e2, o2), c2 in right.items():
            if o1 and o2:
                sign, odd = _merge_odd(o1, o2)
                if not sign:
                    continue
                c = sign * c1 * c2
            else:
                odd, c = o1 or o2, c1 * c2
            m = (_merge_even(e1, e2), odd)
            nc = terms.get(m, 0) + c
            if nc:
                terms[m] = nc if type(nc) is int else coefficient(nc)
            elif m in terms:
                del terms[m]


def _merge_even(e1, e2):
    """The product of two sorted exponent tuples.  A one-factor side, as
    almost every entry these builds multiply is linear, is inserted in
    place; otherwise the exponents are summed in a dict and sorted."""
    if not e1:
        return e2
    if not e2:
        return e1
    if len(e1) == 1:
        e1, e2 = e2, e1
    if len(e2) == 1:
        k, x = e2[0]
        # (k,) sorts before every (k, exp), so i is the first key >= k
        i = bisect_left(e1, (k,))
        if i < len(e1) and e1[i][0] == k:
            return e1[:i] + ((k, e1[i][1] + x),) + e1[i + 1 :]
        return e1[:i] + e2 + e1[i:]
    d = dict(e1)
    for k, e in e2:
        d[k] = d.get(k, 0) + e
    return tuple(sorted(d.items()))


class SuperPoly(Terms):
    """Element of the free graded-commutative algebra on a generator table.

    The linear structure is inherited from :class:`Terms`; a sum, difference
    or product of elements over different tables raises ValueError."""

    __slots__ = ("table",)

    def __init__(self, table: GeneratorTable, terms: Optional[dict] = None):
        self.table = table
        super().__init__(terms)

    @classmethod
    def _of_terms(cls, table, terms: dict) -> "SuperPoly":
        """Wrap a term dict that is already in normal form, without copying."""
        out = cls.__new__(cls)
        out.table = table
        out.terms = terms
        return out

    def _like(self, terms: dict) -> "SuperPoly":
        return SuperPoly._of_terms(self.table, terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, table) -> "SuperPoly":
        return cls(table)

    @classmethod
    def scalar(cls, table, c) -> "SuperPoly":
        return cls(table, {ONE_MONOMIAL: c})

    @classmethod
    def one(cls, table) -> "SuperPoly":
        return cls.scalar(table, 1)

    @classmethod
    def gen(cls, table, name_or_idx) -> "SuperPoly":
        k = table.idx(name_or_idx)
        if table.parity(k):
            m = ((), (k,))
        else:
            m = (((k, 1),), ())
        return cls(table, {m: 1})

    # -- ring structure ----------------------------------------------------

    def __eq__(self, other):
        return Terms.__eq__(self, other) is True and self.table is other.table

    # a class that defines __eq__ loses the inherited __hash__ unless it is named
    __hash__ = Terms.__hash__

    def __add__(self, other):
        self._same_table(other)
        return Terms.__add__(self, other)

    def __mul__(self, other):
        if not isinstance(other, SuperPoly):
            return self.scale(other) if isinstance(other, Number) else NotImplemented
        self._same_table(other)
        terms = {}
        add_product(terms, self.terms, other.terms)
        return SuperPoly._of_terms(self.table, terms)

    __rmul__ = __mul__

    def _same_table(self, other):
        if self.table is not other.table:
            raise ValueError("operands built over different generator tables")

    # -- grading -----------------------------------------------------------

    def monomial_cdeg(self, m: Monomial) -> int:
        t = self.table
        e, o = m
        return sum(t.cdeg(k) * x for k, x in e) + sum(t.cdeg(k) for k in o)

    def monomial_fdeg(self, m: Monomial) -> int:
        t = self.table
        e, o = m
        return sum(t.fdeg(k) * x for k, x in e) + sum(t.fdeg(k) for k in o)

    def cdeg(self) -> Optional[int]:
        """Cohomological degree if homogeneous, else raises."""
        degs = {self.monomial_cdeg(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous element, degrees {sorted(degs)}")
        return degs.pop()

    def fdeg(self) -> Optional[int]:
        degs = {self.monomial_fdeg(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous form degree {sorted(degs)}")
        return degs.pop()

    # -- evaluation and coefficient extraction -----------------------------

    def evaluate(self, assignment: dict) -> Fraction:
        """Evaluate with degree-0 generators set from ``assignment`` (by index)
        and every other generator set to 0."""
        t = self.table
        total = Fraction(0)
        for (e, o), c in self.terms.items():
            if o:
                continue
            val = c
            dead = False
            for k, exp in e:
                if t.cdeg(k) == 0 and t.fdeg(k) == 0:
                    v = assignment.get(k)
                    if v is None:
                        raise KeyError(f"no value assigned to generator {t.gen(k).name}")
                    if v == 0:
                        dead = True
                        break
                    val *= v ** exp
                else:
                    dead = True
                    break
            if not dead:
                total += val
        return total

    def linear_coefficients(self, gens) -> dict:
        """Split an element linear in the generators ``gens`` by its linear
        generator: {k: c_k}, sorted by k, with the terms holding k equal to
        c_k * k (k moved to the right).  Terms holding none of ``gens`` are
        left out; a term holding two of them, or one squared, raises
        ValueError."""
        split = {}
        # removing one k is injective on monomials, so no two terms collide
        for (e, o), c in self.terms.items():
            even = [i for i, (k, _) in enumerate(e) if k in gens]
            odd = [j for j, k in enumerate(o) if k in gens]
            if len(even) + len(odd) > 1 or (even and e[even[0]][1] > 1):
                raise ValueError("not linear in the generators")
            if even:
                i = even[0]
                split.setdefault(e[i][0], {})[(e[:i] + e[i + 1 :], o)] = c
            elif odd:
                j = odd[0]
                # move the letter to the rightmost position past the trailing letters
                split.setdefault(o[j], {})[(e, o[:j] + o[j + 1 :])] = -c if (len(o) - 1 - j) & 1 else c
        return {k: SuperPoly._of_terms(self.table, split[k]) for k in sorted(split)}

    # -- printing -----------------------------------------------------------

    def __repr__(self):
        return f"SuperPoly({self})"

    def __str__(self):
        return poly_to_text(self)


def _monomial_sort_key(table, m):
    e, o = m
    flat = []
    for k, exp in e:
        flat.extend([k] * exp)
    flat.extend(o)
    return (len(flat), tuple(flat))


def poly_to_text(p: SuperPoly) -> str:
    t = p.table

    def factors(m):
        e, o = m
        names = [t.gen(k).name if exp == 1 else f"{t.gen(k).name}^{exp}" for k, exp in e]
        return names + [t.gen(k).name for k in o]

    order = sorted(p.terms, key=lambda m: _monomial_sort_key(t, m))
    return signed_sum((p.terms[m], factors(m)) for m in order)


class Derivation:
    """A graded derivation of fixed parity, given by its values on generators.

    ``apply`` extends the generator assignment by the graded Leibniz rule
    d(ab) = (da)b + (-1)^(p(d) p(a)) a (db).  An image must be a SuperPoly
    over the same table: another value raises TypeError, an element of
    another table ValueError, each naming the generator.  Zero images are
    not stored.
    """

    def __init__(self, table: GeneratorTable, images: dict, parity: int):
        self.table = table
        self.images = {}
        for key, img in images.items():
            k = table.idx(key)
            if not isinstance(img, SuperPoly):
                raise TypeError(f"image of {table.gen(k).name} is not a SuperPoly: {img!r}")
            if img.table is not table:
                raise ValueError(f"image of {table.gen(k).name} is built over another generator table")
            if img.terms:
                self.images[k] = img
        self.parity = parity & 1

    def image_of(self, k: int) -> SuperPoly:
        img = self.images.get(k)
        if img is None:
            return SuperPoly.zero(self.table)
        return img

    def check_degrees(self, shift: int):
        """Each image must be homogeneous of degree gen degree + ``shift``;
        ValueError names the first generator whose image is not."""
        t = self.table
        for k, img in self.images.items():
            want = t.cdeg(k) + shift
            got = img.cdeg()
            if got != want:
                raise ValueError(
                    f"image of {t.gen(k).name} has degree {got}, expected {want}"
                )

    def apply(self, p: SuperPoly) -> SuperPoly:
        out = {}
        images = self.images
        pd = self.parity
        for (e, o), c in p.terms.items():
            # one site per factor with an image: (image, the other even factors,
            # the odd letters left and right of it, coefficient with its sign)
            sites = []
            for pos, (k, exp) in enumerate(e):
                img = images.get(k)
                if img is not None:
                    sites.append((img, e[:pos] + (((k, exp - 1),) if exp > 1 else ()) + e[pos + 1 :], (), o, c * exp))
            for j, k in enumerate(o):
                img = images.get(k)
                if img is not None:
                    sites.append((img, e, o[:j], o[j + 1 :], -c if pd and j & 1 else c))
            for img, even, left, right, cs in sites:
                for (e2, o2), c2 in img.terms.items():
                    if o2:
                        s1, odd = _merge_odd(left, o2)
                        if not s1:
                            continue
                        s2, odd = _merge_odd(odd, right)
                        if not s2:
                            continue
                        nc = s1 * s2 * cs * c2
                    else:
                        odd, nc = left + right, cs * c2
                    m = (_merge_even(even, e2), odd)
                    nc += out.get(m, 0)
                    if nc:
                        out[m] = nc if type(nc) is int else coefficient(nc)
                    elif m in out:
                        del out[m]
        return SuperPoly._of_terms(self.table, out)
