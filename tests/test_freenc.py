import random
from fractions import Fraction

import pytest

from critlocus.freenc import DEGREE, DIFFERENTIAL_ON_LETTERS, NCElement
from critlocus.scalars import accumulate

ALPHABET = tuple(DEGREE)
ONE = NCElement({(): 1})


def word(letters):
    """The word spelled by the string ``letters``, with coefficient 1."""
    return NCElement({letters: 1})


def nc_differential(p):
    """The degree +1 graded derivation extending ``DIFFERENTIAL_ON_LETTERS``:
    each letter of a word is replaced by its image in turn, with the sign of
    the odd letters before it."""
    out = {}
    for w, c in p.terms.items():
        prefix_parity = 0
        for j, a in enumerate(w):
            c_j = -c if prefix_parity else c
            left, right = w[:j], w[j + 1 :]
            image = DIFFERENTIAL_ON_LETTERS[a].terms
            accumulate(out, ((left + v + right, c_j * ci) for v, ci in image.items()))
            prefix_parity ^= DEGREE[a] & 1
    return NCElement(out)


def test_words_do_not_commute():
    xy = word("xy")
    yx = word("yx")
    assert xy != yx
    assert not (xy - yx).is_zero()


def test_unit():
    a = word("xuv")
    assert ONE * a == a
    assert a * ONE == a


def test_bilinearity():
    x, y, z = (word(a) for a in "xyz")
    assert (x + y) * z == word("xz") + word("yz")


def test_differential_on_letters():
    assert nc_differential(word("x")).is_zero()
    assert nc_differential(word("u")) == word("yz") - word("zy")
    dt = nc_differential(word("t"))
    want = (
        word("xu") - word("ux")
        + word("yv") - word("vy")
        + word("zw") - word("wz")
    )
    assert dt == want


def test_d_squared_zero_on_generators():
    for a in ALPHABET:
        assert nc_differential(nc_differential(word(a))).is_zero()


def test_d_squared_on_t_is_jacobi():
    # expanding d(dt) by Leibniz leaves x(yz-zy)-(yz-zy)x + cyclic, which
    # cancels precisely by the Jacobi identity
    dd = nc_differential(nc_differential(word("t")))
    assert dd.is_zero()


def test_d_squared_zero_random_words():
    rng = random.Random(41)
    for _ in range(100):
        letters = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 5)))
        p = word(letters)
        assert nc_differential(nc_differential(p)).is_zero()


def test_leibniz_random():
    rng = random.Random(43)
    for _ in range(100):
        w1 = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 3)))
        w2 = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 3)))
        a, b = word(w1), word(w2)
        sign = -1 if sum(DEGREE[c] for c in w1) % 2 else 1
        lhs = nc_differential(a * b)
        rhs = nc_differential(a) * b + (a * nc_differential(b)).scale(sign)
        assert lhs == rhs


def test_coefficients_are_ints_when_integral():
    a = NCElement({"xy": Fraction(1, 2), ("x", "y"): Fraction(1, 2)})
    assert a == word("xy") and type(a.terms[("x", "y")]) is int
    b = word("xu").scale(Fraction(1, 2)) * 2 + word("yv") * NCElement({(): Fraction(3, 3)})
    assert all(type(c) is int for c in b.terms.values())
    assert all(type(c) is int for c in nc_differential(word("t")).terms.values())
    with pytest.raises(TypeError, match="0.5"):
        word("x").scale(0.5)
    assert word("x").__mul__(object()) is NotImplemented


@pytest.mark.parametrize(
    "element,text",
    [
        (NCElement(), "0"),
        (ONE, "1"),
        (NCElement({(): Fraction(-2, 3)}), "-2/3"),
        (NCElement({"xy": Fraction(3, 2), "z": -1, (): 2}), "2 - z + 3/2*x*y"),
        (NCElement({"yx": -1, "xy": -3}), "-3*x*y - y*x"),
        (nc_differential(word("t")), "-u*x - v*y - w*z + x*u + y*v + z*w"),
    ],
)
def test_printed_as_a_signed_sum_by_length_then_word(element, text):
    assert str(element) == text
    assert repr(element) == f"NCElement({text})"
