from fractions import Fraction

import pytest

from sagbikit.formats import ParseError, parse_polynomial, poly_to_text
from sagbikit.orders import lex_order, make_monic
from sagbikit.rings import Polynomial, RingContext


@pytest.fixture
def R():
    return RingContext(["x", "y"])


def test_context_validation():
    with pytest.raises(ValueError):
        RingContext(["x", "x"])
    with pytest.raises(ValueError):
        RingContext(["x"], characteristic=4)
    with pytest.raises(ValueError):
        RingContext(["x"], grading=[0])
    RingContext(["x"], characteristic=7)


def test_add_cancels(R):
    f = parse_polynomial(R, "x + y")
    g = parse_polynomial(R, "-y")
    assert f + g == parse_polynomial(R, "x")


def test_product_difference_of_squares(R):
    f = parse_polynomial(R, "x+y") * parse_polynomial(R, "x-y")
    assert f == parse_polynomial(R, "x^2 - y^2")


def test_make_monic_registers_divisor(R):
    f = parse_polynomial(R, "2*x + 4*y")
    monic, divisor = make_monic(lex_order(2), f)
    assert monic == parse_polynomial(R, "x + 2*y")
    assert divisor == Fraction(2)
    with pytest.raises(ValueError):
        make_monic(lex_order(2), Polynomial.zero(R))


def test_context_mismatch_raises(R):
    other = RingContext(["x", "z"])
    with pytest.raises(ValueError):
        parse_polynomial(R, "x") + parse_polynomial(other, "x")


def test_no_zero_coefficients_stored(R):
    f = parse_polynomial(R, "x + y - x")
    assert set(f.support()) == {(0, 1)}
    assert (parse_polynomial(R, "x") - parse_polynomial(R, "x")).is_zero()


def test_prime_field_arithmetic():
    R5 = RingContext(["x", "y"], characteristic=5)
    f = Polynomial(R5, {(1, 0): 3})
    g = Polynomial(R5, {(1, 0): 2})
    assert (f + g).is_zero()
    sq = Polynomial(R5, {(1, 0): 1, (0, 1): 1}) ** 5
    # Frobenius: (x+y)^5 = x^5 + y^5 over GF(5)
    assert sq == Polynomial(R5, {(5, 0): 1, (0, 5): 1})


def test_grading_and_homogeneity():
    R = RingContext(["x", "y"], grading=[2, 1])
    f = parse_polynomial(R, "x + y^2")
    assert f.is_homogeneous() and f.degree() == 2
    assert not parse_polynomial(R, "x + y").is_homogeneous()


def test_substitute_composes(R):
    f = parse_polynomial(R, "x^2 - y")
    images = [parse_polynomial(R, "x+y"), parse_polynomial(R, "x*y")]
    assert f.substitute(images) == parse_polynomial(R, "x^2 + 2*x*y + y^2 - x*y")


def test_parse_round_trip(R):
    texts = ["x^2 - 3*x*y + 1/2*y^2", "- x + 2", "7", "x^10 - y"]
    for text in texts:
        f = parse_polynomial(R, text)
        assert parse_polynomial(R, poly_to_text(f)) == f


def test_parse_whitespace_insensitive(R):
    assert parse_polynomial(R, " x ^ 2-  y") == parse_polynomial(R, "x^2-y")


def test_parse_errors_carry_position(R):
    with pytest.raises(ParseError) as err:
        parse_polynomial(R, "x + z")
    assert err.value.line == 1 and err.value.col == 5
    with pytest.raises(ParseError):
        parse_polynomial(R, "x ++ y")
    with pytest.raises(ParseError):
        parse_polynomial(R, "x^")
