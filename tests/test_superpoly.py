import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from critlocus.family import BimodElement
from critlocus.freenc import NCElement
from critlocus.superpoly import (
    Derivation,
    GeneratorTable,
    SuperPoly,
    _merge_even,
    poly_to_text,
)


def table2():
    return GeneratorTable.canonical(2)


def g(t, name):
    return SuperPoly.gen(t, name)


def test_canonical_table_counts():
    t = GeneratorTable.canonical(3)
    by_deg = {0: 0, -1: 0, -2: 0}
    for gen in t.gens:
        by_deg[gen.cdeg] += 1
    assert by_deg == {0: 27, -1: 27, -2: 9}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_block_start_is_the_canonical_layout(n):
    # name(i,j) sits at b*n^2 + (i-1)*n + (j-1), b its place in MATRIX_BLOCKS
    t = GeneratorTable.canonical(n)
    ext = t.extend_with_forms()
    assert ext.n == n and t.n == n and GeneratorTable([]).n is None
    for b, (name, _) in enumerate(GeneratorTable.MATRIX_BLOCKS):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                k = GeneratorTable.block_start(name, n) + (i - 1) * n + (j - 1)
                assert k == b * n * n + (i - 1) * n + (j - 1)
                assert t.idx(f"{name}({i},{j})") == k == ext.idx(f"{name}({i},{j})")
    with pytest.raises(ValueError):
        GeneratorTable.block_start("W0", n)


def test_odd_square_zero():
    t = table2()
    xi = g(t, "Xm1(1,1)")
    assert (xi * xi).is_zero()


def test_odd_anticommute():
    t = table2()
    xi, eta = g(t, "Xm1(1,2)"), g(t, "Ym1(2,1)")
    assert (xi * eta + eta * xi).is_zero()


def test_even_odd_commute():
    t = table2()
    a, xi = g(t, "X0(1,1)"), g(t, "Xm1(1,2)")
    prod = a * xi
    assert prod == xi * a
    assert len(prod.terms) == 1
    assert list(prod.terms.values()) == [Fraction(1)]


def test_degree_minus_two_square_allowed():
    t = table2()
    T = g(t, "T(1,1)")
    sq = T * T
    assert not sq.is_zero()
    assert sq.cdeg() == -4


def _random_homogeneous(t, rng, max_factors=3):
    p = SuperPoly.scalar(t, rng.randint(1, 3))
    for _ in range(rng.randint(0, max_factors)):
        k = rng.randrange(len(t))
        p = p * SuperPoly.gen(t, k)
        if p.is_zero():
            return SuperPoly.scalar(t, 1)
    return p


def _random_element(t, rng):
    p = SuperPoly.zero(t)
    for _ in range(rng.randint(1, 3)):
        p = p + _random_homogeneous(t, rng)
    return p


def test_associativity_random():
    t = table2()
    rng = random.Random(17)
    for _ in range(100):
        a, b, c = (_random_element(t, rng) for _ in range(3))
        assert ((a * b) * c) == (a * (b * c))


def test_graded_commutativity_random():
    t = table2()
    rng = random.Random(19)
    for _ in range(100):
        a = _random_homogeneous(t, rng)
        b = _random_homogeneous(t, rng)
        if a.is_zero() or b.is_zero():
            continue
        sign = -1 if (a.cdeg() % 2) and (b.cdeg() % 2) else 1
        assert a * b == (b * a).scale(sign)


def sample_differential(t):
    """d(Xm1(i,j)) = (Y0 Z0 - Z0 Y0)^T (i,j); zero on other generators."""
    n = t.n
    images = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            acc = SuperPoly.zero(t)
            for k in range(1, n + 1):
                acc += g(t, f"Y0({j},{k})") * g(t, f"Z0({k},{i})")
                acc -= g(t, f"Z0({j},{k})") * g(t, f"Y0({k},{i})")
            images[t.idx(f"Xm1({i},{j})")] = acc
    return Derivation(t, images, parity=1)


def test_derivation_on_quoted_generator_image():
    t = table2()
    d = sample_differential(t)
    img = d.apply(g(t, "Xm1(1,2)"))
    want = (
        g(t, "Y0(2,1)") * g(t, "Z0(1,1)")
        + g(t, "Y0(2,2)") * g(t, "Z0(2,1)")
        - g(t, "Z0(2,1)") * g(t, "Y0(1,1)")
        - g(t, "Z0(2,2)") * g(t, "Y0(2,1)")
    )
    assert img == want


def test_derivation_kills_degree_zero():
    t = table2()
    d = sample_differential(t)
    assert d.apply(g(t, "X0(1,2)") * g(t, "Y0(2,2)")).is_zero()


def test_derivation_leibniz_odd_pair():
    t = table2()
    d = sample_differential(t)
    xi, eta = g(t, "Xm1(1,2)"), g(t, "Xm1(2,1)")
    lhs = d.apply(xi * eta)
    rhs = d.apply(xi) * eta - xi * d.apply(eta)
    assert lhs == rhs


def test_derivation_leibniz_random():
    t = table2()
    d = sample_differential(t)
    rng = random.Random(23)
    for _ in range(100):
        a = _random_homogeneous(t, rng)
        b = _random_element(t, rng)
        if a.is_zero():
            continue
        sign = -1 if a.cdeg() % 2 else 1
        assert d.apply(a * b) == d.apply(a) * b + (a * d.apply(b)).scale(sign)


def test_degree_check_rejects_bad_assignment():
    t = table2()
    bad = Derivation(t, {t.idx("Xm1(1,1)"): g(t, "T(1,1)")}, parity=1)
    with pytest.raises(ValueError):
        bad.check_degrees(1)


def test_evaluation_is_ring_map():
    t = table2()
    rng = random.Random(29)
    assignment = {
        k: Fraction(rng.randint(-3, 3))
        for k in range(len(t))
        if t.cdeg(k) == 0
    }
    for _ in range(50):
        a = _random_element(t, rng)
        b = _random_element(t, rng)
        assert (a * b).evaluate(assignment) == a.evaluate(assignment) * b.evaluate(
            assignment
        )
        assert (a + b).evaluate(assignment) == a.evaluate(assignment) + b.evaluate(
            assignment
        )


TEXT_TABLES = (GeneratorTable.canonical(2), GeneratorTable.canonical(2).extend_with_forms())


@st.composite
def superpolys(draw, table=None):
    """Sums of coefficient times generator words, over ``table`` or a drawn
    table with or without form symbols; words may repeat generators or
    cancel."""
    t = table if table is not None else draw(st.sampled_from(TEXT_TABLES))
    p = SuperPoly.zero(t)
    for _ in range(draw(st.integers(0, 4))):
        term = SuperPoly.scalar(t, draw(st.fractions(-9, 9, max_denominator=7)))
        for k in draw(st.lists(st.integers(0, len(t) - 1), max_size=4)):
            term = term * SuperPoly.gen(t, k)
        p = p + term
    return p


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_text_depends_on_the_element_alone(data):
    # the same terms summed in another order print the same text, and
    # adding c*m (m a monomial, c != 0) changes the text
    p = data.draw(superpolys())
    t = p.table
    terms = data.draw(st.permutations([SuperPoly(t, {m: c}) for m, c in p.terms.items()]))
    assert poly_to_text(sum(terms, SuperPoly.zero(t))) == poly_to_text(p)
    m = SuperPoly.one(t)
    for k in data.draw(st.lists(st.integers(0, len(t) - 1), max_size=4)):
        m = m * SuperPoly.gen(t, k)
    assume(not m.is_zero())
    c = data.draw(st.fractions(-9, 9, max_denominator=7).filter(bool))
    assert poly_to_text(p + m.scale(c)) != poly_to_text(p)


def test_text_format_example():
    t = table2()
    p = g(t, "X0(1,2)") * g(t, "Xm1(2,1)") * 3
    assert poly_to_text(p) == "3*X0(1,2)*Xm1(2,1)"
    assert poly_to_text(SuperPoly.zero(t)) == "0"
    q = (g(t, "T(1,1)") * g(t, "T(1,1)")).scale(Fraction(1, 2)) - g(t, "X0(1,1)")
    assert poly_to_text(q) == "-X0(1,1) + 1/2*T(1,1)^2"


def test_generators_are_read_by_a_valid_index_or_name():
    t = table2()
    for key in (True, False, -1, len(t), 10**6, "W(1,1)"):
        with pytest.raises(KeyError, match=re.escape(repr(key))):
            SuperPoly.gen(t, key)
    assert SuperPoly.gen(t, len(t) - 1) == g(t, "T(2,2)")
    t1 = GeneratorTable.canonical(1)
    x = g(t1, "X0(1,1)")
    for key in (-7, True, 99, len(t1)):
        with pytest.raises(KeyError, match=repr(key)):
            Derivation(t1, {key: x}, 0)
    assert Derivation(t1, {0: x, "Y0(1,1)": x}, 0).images.keys() == {0, t1.idx("Y0(1,1)")}


def test_extended_table_form_symbols():
    t = table2().extend_with_forms()
    dx0 = g(t, "d(X0(1,1))")
    dxm1 = g(t, "d(Xm1(1,1))")
    # d(X0) is odd (form degree 1, cohomological 0)
    assert (dx0 * dx0).is_zero()
    # d(Xm1) is even (form 1, cohomological -1)
    assert not (dxm1 * dxm1).is_zero()
    other = g(t, "d(X0(1,2))")
    assert dx0 * other == -(other * dx0)


def test_mismatched_tables_rejected():
    a = SuperPoly.gen(GeneratorTable.canonical(2), "X0(1,1)")
    b = SuperPoly.gen(GeneratorTable.canonical(2), "X0(1,1)")
    with pytest.raises(ValueError):
        a * b  # distinct table objects, even if structurally equal


def _in_normal_form(p):
    """Every stored coefficient is nonzero, and an int exactly when integral."""
    return all(
        c != 0 and (type(c) is int or (type(c) is Fraction and c.denominator != 1))
        for c in p.terms.values()
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_producer_keeps_the_coefficient_rule(data):
    a = data.draw(superpolys())
    t = a.table
    b = data.draw(superpolys(t))
    c = data.draw(st.fractions(-9, 9, max_denominator=7))
    d = Derivation(t, {k: b for k in range(0, len(t), 3)}, parity=1)
    made = {
        "SuperPoly": SuperPoly(t, {m: Fraction(x) * 2 for m, x in a.terms.items()}),
        "+": a + b,
        "-": a - b,
        "*": a * b,
        "* scalar": a * c,
        "scalar *": c * a,
        "scale": a.scale(c),
        "scalar": SuperPoly.scalar(t, c),
        "Derivation.apply": d.apply(a),
    }
    for k in range(len(t)):
        made[f"gen {k}"] = SuperPoly.gen(t, k)
        if t.parity(k):
            for coeff in a.linear_coefficients({k}).values():
                made[f"linear_coefficients {k}"] = coeff
    for name, p in made.items():
        assert _in_normal_form(p), (name, p.terms)


@settings(max_examples=100, deadline=None)
@given(superpolys(), st.lists(st.integers(-9, 9), min_size=1, max_size=4))
def test_fraction_and_int_inputs_build_one_element(p, ints):
    monomials = list(p.terms)
    from_ints = SuperPoly(p.table, dict(zip(monomials, ints)))
    from_fractions = SuperPoly(p.table, {m: Fraction(2 * n, 2) for m, n in zip(monomials, ints)})
    assert from_fractions == from_ints
    assert hash(from_fractions) == hash(from_ints)
    assert all(type(c) is int for c in from_fractions.terms.values())


def test_integral_sum_of_fractions_is_stored_as_an_int():
    t = table2()
    x, half = g(t, "X0(1,1)"), Fraction(1, 2)
    sums = {
        "1/2*x + 1/2*x": x.scale(half) + x.scale(half),
        "2*1/2*x": SuperPoly.scalar(t, 2) * SuperPoly.scalar(t, half) * x,
        "3/2*x - 1/2*x": x.scale(Fraction(3, 2)) - x.scale(half),
    }
    for name, p in sums.items():
        [c] = p.terms.values()
        assert type(c) is int and c == 1, name
    half = SuperPoly.scalar(t, Fraction(1, 2)) * g(t, "Xm1(1,1)")
    [c] = (half * SuperPoly.scalar(t, 2)).terms.values()
    assert type(c) is int and c == 1


def _superpoly_pair():
    t = table2()
    a = (g(t, "X0(1,2)") * g(t, "Xm1(2,1)")).scale(Fraction(3, 2)) - g(t, "T(1,1)")
    return a, g(t, "T(1,1)") + g(t, "Y0(2,2)").scale(Fraction(1, 3))


def _nc_pair():
    return NCElement({"xu": Fraction(3, 2), "t": -1}), NCElement({"t": 1, "yz": Fraction(1, 3)})


def _bimod_pair():
    a = BimodElement({(("x",), "y", ()): Fraction(3, 2), ((), None, ("z",)): -1})
    return a, BimodElement({((), None, ("z",)): 1, (("y",), "x*", ("x",)): Fraction(1, 3)})


@pytest.mark.parametrize(
    "pair", [_superpoly_pair, _nc_pair, _bimod_pair], ids=["SuperPoly", "NCElement", "BimodElement"]
)
def test_term_algebras_share_one_linear_structure(pair):
    # a and b share one key, whose coefficients cancel in a + b
    a, b = pair()
    kind = type(a)
    for zero in (a + (-a), a - a, a.scale(0), a.scale(Fraction(0))):
        assert type(zero) is kind and zero.is_zero() and zero.terms == {}
    s = a + b
    assert type(s) is kind and len(s.terms) == len(a.terms) + len(b.terms) - 2
    assert s - b == a and s - a == b and -(-a) == a and a - b == a + (-b)
    halves = a.scale(Fraction(1, 2)) + a.scale(Fraction(1, 2))
    assert halves == a and all(type(c) is int or c.denominator != 1 for c in halves.terms.values())
    assert a.scale(2) == a + a and a.scale(1) == a and a.scale(-1) == -a
    # equal elements hash alike however they were built; BimodElement included
    assert hash(s) == hash(b + a) and hash(halves) == hash(a)
    assert len({a, b, s, b + a, halves, s - b}) == 3
    assert a != b and a != s and not (a == 1) and a != a.terms


@pytest.mark.parametrize(
    "make,value",
    [
        (lambda t, x: x.scale(0.1), "0.1"),
        (lambda t, x: SuperPoly.scalar(t, 0.1), "0.1"),
        (lambda t, x: SuperPoly(t, {next(iter(x.terms)): 0.5}), "0.5"),
        (lambda t, x: x.scale(True), "True"),
        (lambda t, x: x * 0.1, "0.1"),
        (lambda t, x: 0.1 * x, "0.1"),
    ],
)
def test_float_and_bool_coefficients_refused(make, value):
    t = table2()
    with pytest.raises(TypeError, match=f"^{value} is not an exact field element"):
        make(t, g(t, "X0(1,1)"))


def test_product_with_a_non_number_is_not_implemented():
    x = g(table2(), "X0(1,1)")
    assert x.__mul__(object()) is NotImplemented
    with pytest.raises(TypeError):
        x * object()
    with pytest.raises(TypeError):
        x * "2"


def test_derivation_refuses_an_image_over_another_table():
    t1, t2 = GeneratorTable.canonical(1), GeneratorTable.canonical(2)
    with pytest.raises(ValueError, match=re.escape("image of X0(1,1)")):
        Derivation(t2, {"X0(1,1)": g(t1, "Y0(1,1)")}, 0)
    # a structurally equal table is still another table
    with pytest.raises(ValueError, match=re.escape("image of Xm1(1,1)")):
        Derivation(t1, {"Xm1(1,1)": g(GeneratorTable.canonical(1), "X0(1,1)")}, 1)


@pytest.mark.parametrize("image", [3, Fraction(1, 2), None, "X0(1,1)"])
def test_derivation_refuses_an_image_that_is_not_a_superpoly(image):
    t = GeneratorTable.canonical(1)
    with pytest.raises(TypeError, match=re.escape("image of Y0(1,1)")):
        Derivation(t, {"Y0(1,1)": image}, 0)


def test_derivation_stores_no_zero_image():
    t = table2()
    d = Derivation(t, {"X0(1,1)": SuperPoly.zero(t), "Y0(1,1)": g(t, "Z0(1,1)")}, 0)
    assert d.images.keys() == {t.idx("Y0(1,1)")}
    assert d.image_of(t.idx("X0(1,1)")).is_zero()


# -- an independent reference for the product and Derivation.apply ------------
#
# An element is a dict {monomial: coefficient}.  The reference multiplies by
# concatenating the two monomials' flattened words (each generator repeated
# by its exponent) and bubble-sorting the result by generator index, with a
# sign for every swap of two odd letters and zero for two equal odd letters.


def _ref_normal(t, word):
    """(sign, monomial) of the word ``word``, or (0, None) when it vanishes."""
    word, sign = list(word), 1
    for end in range(len(word) - 1, 0, -1):
        for i in range(end):
            if word[i] > word[i + 1]:
                if t.parity(word[i]) and t.parity(word[i + 1]):
                    sign = -sign
                word[i], word[i + 1] = word[i + 1], word[i]
    even, odd = {}, []
    for i, k in enumerate(word):
        if t.parity(k):
            if i and word[i - 1] == k:
                return 0, None
            odd.append(k)
        else:
            even[k] = even.get(k, 0) + 1
    return sign, (tuple(sorted(even.items())), tuple(odd))


def _ref_word(m):
    """The monomial ``m`` as its word sorted by index: moving even letters
    costs no sign, so the word's normal form is ``m`` itself."""
    e, o = m
    return sorted([k for k, x in e for _ in range(x)] + list(o))


def _ref_add(out, m, c):
    out[m] = out.get(m, 0) + c
    if not out[m]:
        del out[m]


def _ref_product(t, a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            sign, m = _ref_normal(t, _ref_word(m1) + _ref_word(m2))
            if sign:
                _ref_add(out, m, sign * c1 * c2)
    return out


def _ref_apply(t, images, parity, a):
    """Leibniz factor by factor: D(g1...gr) is the sum over i of
    (-1)^(parity * p(g1...g(i-1))) g1...g(i-1) D(gi) g(i+1)...gr."""
    out = {}
    for m, c in a.items():
        word = _ref_word(m)
        for i, k in enumerate(word):
            if k not in images:
                continue
            # a part of a sorted word is sorted: its sign is +1
            _, left = _ref_normal(t, word[:i])
            _, right = _ref_normal(t, word[i + 1 :])
            sign = -1 if parity and sum(t.parity(x) for x in word[:i]) & 1 else 1
            term = _ref_product(t, _ref_product(t, {left: sign * c}, images[k]), {right: 1})
            for m2, c2 in term.items():
                _ref_add(out, m2, c2)
    return out


@st.composite
def ref_elements(draw, t, pool, parity=None):
    """A sum of coefficient times word in the generators ``pool``, an even
    one repeated up to three times, normalized by the reference alone; with
    ``parity`` set, only the terms of that parity are kept."""
    out = {}
    for _ in range(draw(st.integers(1, 4))):
        c = draw(st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)]))
        word = []
        for k, times in draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 3)), max_size=4)):
            word += [k] * (1 if t.parity(k) else times)
        sign, m = _ref_normal(t, word)
        if sign and (parity is None or len(m[1]) & 1 == parity):
            _ref_add(out, m, sign * c)
    return out


@st.composite
def tables_and_pools(draw):
    """The rank-2 table or its form extension, with a few of its generators:
    so few that words repeat them and derivations hit them."""
    t = draw(st.sampled_from(TEXT_TABLES))
    return t, draw(st.lists(st.integers(0, len(t) - 1), min_size=1, max_size=6, unique=True))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_product_matches_the_reference(data):
    t, pool = data.draw(tables_and_pools())
    a, b = data.draw(ref_elements(t, pool)), data.draw(ref_elements(t, pool))
    assert (SuperPoly(t, a) * SuperPoly(t, b)).terms == _ref_product(t, a, b)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_derivation_apply_matches_the_reference(data):
    t, pool = data.draw(tables_and_pools())
    parity = data.draw(st.integers(0, 1))
    # a derivation of parity p sends g to an element of parity p(g) + p
    images = {k: data.draw(ref_elements(t, pool, (t.parity(k) + parity) & 1)) for k in pool}
    a = data.draw(ref_elements(t, pool))
    d = Derivation(t, {k: SuperPoly(t, img) for k, img in images.items()}, parity)
    want = _ref_apply(t, {k: img for k, img in images.items() if img}, parity, a)
    assert d.apply(SuperPoly(t, a)).terms == want


@pytest.mark.parametrize("parity", [0, 1])
def test_derivation_apply_matches_the_reference_inside_an_odd_word(parity):
    # odd letters on both sides of the one hit, and a squared even factor
    t = TEXT_TABLES[1]
    word = [t.idx(x) for x in ("X0(1,1)", "X0(1,1)", "Xm1(1,1)", "Xm1(1,2)", "Ym1(2,1)", "d(X0(2,2))")]
    _, m = _ref_normal(t, word)
    if parity:
        hit = {"Xm1(1,2)": ["X0(2,2)", "Xm1(2,2)*Zm1(1,1)"], "X0(1,1)": ["Ym1(1,1)"]}
    else:
        hit = {"Xm1(1,2)": ["Zm1(2,2)", "X0(1,2)*Zm1(1,1)"], "X0(1,1)": ["Y0(1,2)"]}
    images = {}
    for name, words in hit.items():
        img = {}
        for w in words:
            _ref_add(img, _ref_normal(t, [t.idx(x) for x in w.split("*")])[1], 1)
        images[t.idx(name)] = img
    d = Derivation(t, {k: SuperPoly(t, img) for k, img in images.items()}, parity)
    want = _ref_apply(t, images, parity, {m: 3})
    assert want
    assert d.apply(SuperPoly(t, {m: 3})).terms == want


exponent_tuples = st.dictionaries(st.integers(0, 8), st.integers(1, 4), max_size=4).map(
    lambda d: tuple(sorted(d.items()))
)


@settings(max_examples=300, deadline=None)
@given(exponent_tuples, exponent_tuples)
@example((), ())
@example((), ((3, 1),))
@example(((3, 1),), ((3, 2),))
@example(((5, 1),), ((3, 1),))
@example(((1, 1), (3, 2), (7, 1)), ((3, 1),))
@example(((1, 1), (3, 2), (7, 1)), ((0, 1),))
@example(((1, 1), (3, 2), (7, 1)), ((9, 2),))
def test_merge_even_matches_dict_and_sort(e1, e2):
    summed = dict(e1)
    for k, x in e2:
        summed[k] = summed.get(k, 0) + x
    want = tuple(sorted(summed.items()))
    assert _merge_even(e1, e2) == want == _merge_even(e2, e1)
