import random
from fractions import Fraction

import pytest

from critlocus.freenc import ALPHABET, DEGREE, NCElement, nc_differential


def test_words_do_not_commute():
    xy = NCElement.word("xy")
    yx = NCElement.word("yx")
    assert xy != yx
    assert not (xy - yx).is_zero()


def test_unit():
    a = NCElement.word("xuv")
    assert NCElement.one() * a == a
    assert a * NCElement.one() == a


def test_bilinearity():
    x, y, z = (NCElement.letter(a) for a in "xyz")
    assert (x + y) * z == NCElement.word("xz") + NCElement.word("yz")


def test_differential_on_letters():
    assert nc_differential(NCElement.letter("x")).is_zero()
    assert nc_differential(NCElement.letter("u")) == NCElement.word("yz") - NCElement.word("zy")
    dt = nc_differential(NCElement.letter("t"))
    want = (
        NCElement.word("xu") - NCElement.word("ux")
        + NCElement.word("yv") - NCElement.word("vy")
        + NCElement.word("zw") - NCElement.word("wz")
    )
    assert dt == want


def test_d_squared_zero_on_generators():
    for a in ALPHABET:
        assert nc_differential(nc_differential(NCElement.letter(a))).is_zero()


def test_d_squared_on_t_is_jacobi():
    # expanding d(dt) by Leibniz leaves x(yz-zy)-(yz-zy)x + cyclic, which
    # cancels precisely by the Jacobi identity
    dd = nc_differential(nc_differential(NCElement.letter("t")))
    assert dd.is_zero()


def test_d_squared_zero_random_words():
    rng = random.Random(41)
    for _ in range(100):
        word = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 5)))
        p = NCElement.word(word)
        assert nc_differential(nc_differential(p)).is_zero()


def test_leibniz_random():
    rng = random.Random(43)
    for _ in range(100):
        w1 = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 3)))
        w2 = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 3)))
        a, b = NCElement.word(w1), NCElement.word(w2)
        sign = -1 if sum(DEGREE[c] for c in w1) % 2 else 1
        lhs = nc_differential(a * b)
        rhs = nc_differential(a) * b + (a * nc_differential(b)).scale(sign)
        assert lhs == rhs


def test_coefficients_are_ints_when_integral():
    a = NCElement({"xy": Fraction(1, 2), ("x", "y"): Fraction(1, 2)})
    assert a == NCElement.word("xy") and type(a.terms[("x", "y")]) is int
    b = NCElement.word("xu").scale(Fraction(1, 2)) * 2 + NCElement.word("yv") * NCElement({(): Fraction(3, 3)})
    assert all(type(c) is int for c in b.terms.values())
    assert all(type(c) is int for c in nc_differential(NCElement.letter("t")).terms.values())
    with pytest.raises(TypeError, match="0.5"):
        NCElement.word("x").scale(0.5)
    assert NCElement.word("x").__mul__(object()) is NotImplemented


@pytest.mark.parametrize(
    "element,text",
    [
        (NCElement(), "0"),
        (NCElement.one(), "1"),
        (NCElement({(): Fraction(-2, 3)}), "-2/3"),
        (NCElement({"xy": Fraction(3, 2), "z": -1, (): 2}), "2 - z + 3/2*x*y"),
        (NCElement({"yx": -1, "xy": -3}), "-3*x*y - y*x"),
        (nc_differential(NCElement.letter("t")), "-u*x - v*y - w*z + x*u + y*v + z*w"),
    ],
)
def test_printed_as_a_signed_sum_by_length_then_word(element, text):
    assert str(element) == text
    assert repr(element) == f"NCElement({text})"
