from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _monic, _multiply, _remainder, buchberger_all_pairs
from sagbikit.formats import ParseError, parse_polynomial, poly_to_text
from sagbikit.groebner import buchberger, normal_form
from sagbikit.orders import degrevlex_order, lex_order, make_monic
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


@pytest.mark.parametrize("a", [1, -1])
def test_unit_inverse_over_q_is_an_int(R, a):
    inv = R.cinv(a)
    assert type(inv) is int and inv == a


def test_inverse_over_q_of_a_non_unit_is_a_fraction(R):
    inv = R.cinv(3)
    assert type(inv) is Fraction and inv == Fraction(1, 3)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 7, 32003]), st.integers(-50, 50), st.integers(1, 50))
def test_fraction_over_gf_p_is_numerator_times_inverse_denominator(p, a, b):
    if b % p == 0:
        b += 1
    ring = RingContext(["x"], p)
    assert ring.coeff(Fraction(a, b)) == a * pow(b, -1, p) % p


def test_context_mismatch_raises(R):
    other = RingContext(["x", "z"])
    with pytest.raises(ValueError):
        parse_polynomial(R, "x") + parse_polynomial(other, "x")


def test_no_zero_coefficients_stored(R):
    f = parse_polynomial(R, "x + y - x")
    assert set(f.terms) == {(0, 1)}
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


@pytest.mark.parametrize("text,line,col,message", [
    ("x\n+ w", 2, 3, "unknown variable 'w'"),
    ("x +\n\n  ?", 3, 3, "unexpected character '?'"),
    ("z_1^2 -\n 4/0", 2, 4, "zero denominator"),
    # a carriage return is a character of its line
    ("x*\r\n y^", 2, 4, None),
    ("\tx\t+\t#", 1, 6, "unexpected character '#'"),
    (" ", 1, 2, None),
    # an Arabic-Indic digit is a decimal digit: the number 1, then x
    ("١x", 1, 2, "expected '+' or '-', found 'x'"),
    # a superscript digit is not
    ("x^²", 1, 3, "unexpected character '²'"),
], ids=["newline", "blank-lines", "zero-denominator", "crlf", "tabs",
        "whitespace-only", "arabic-indic-digit", "superscript-exponent"])
def test_parse_error_positions(text, line, col, message):
    """Line and column count characters from 1; None leaves the message
    of an error at the end of the text unpinned."""
    R = RingContext(["x", "y", "z_1"])
    with pytest.raises(ParseError) as err:
        parse_polynomial(R, text)
    assert (err.value.line, err.value.col) == (line, col)
    if message is not None:
        assert str(err.value) == f"line {line}, column {col}: {message}"


def _in_field(ref: dict, p: int) -> dict:
    """A Fraction-valued polynomial read in Q (p = 0) or in GF(p), zeros dropped."""
    if p:
        ref = {e: c.numerator * pow(c.denominator, -1, p) % p for e, c in ref.items()}
    return {e: c for e, c in ref.items() if c}


def _text(names, ref: dict) -> str:
    terms = []
    for e, c in ref.items():
        body = "*".join([f"{abs(c.numerator)}/{c.denominator}"]
                        + [f"{n}^{k}" for n, k in zip(names, e) if k])
        terms.append(("- " if c < 0 else "+ ") + body)
    return " ".join(terms) or "0"


def _assert_normal(f: Polynomial, ref: dict | None = None):
    """Each coefficient is in normal form: over Q an int exactly when it is
    integral (else a Fraction), over GF(p) an int in [1, p)."""
    p = f.ring.characteristic
    for c in f.terms.values():
        if p:
            assert type(c) is int and 1 <= c < p
        else:
            assert type(c) in (int, Fraction) and c
            assert (type(c) is int) == (Fraction(c).denominator == 1)
    if ref is not None:
        assert f.terms == _in_field(ref, p)


@st.composite
def _coefficient_case(draw):
    p = draw(st.sampled_from([0, 2, 3, 32003]))
    nv = draw(st.integers(1, 3))
    exp = st.lists(st.integers(0, 2), min_size=nv, max_size=nv).map(tuple)
    den = st.integers(1, 4).filter(lambda d: p == 0 or d % p)
    coeff = st.builds(Fraction, st.integers(-6, 6).filter(bool), den)
    poly = st.dictionaries(exp, coeff, max_size=3)
    return p, nv, draw(poly), draw(poly), draw(coeff), draw(st.integers(0, 3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_coefficient_case())
def test_every_result_obeys_the_coefficient_rule(case):
    """Values equal a reference computed on Fractions alone (over GF(p),
    read mod p), and every coefficient is in the ring's normal form."""
    p, nv, f, g, s, k = case
    ring = RingContext([f"x{i}" for i in range(nv)], p)
    order = degrevlex_order(nv)
    F, G = Polynomial(ring, f), Polynomial(ring, g)
    _assert_normal(F, f)
    _assert_normal(parse_polynomial(ring, _text(ring.names, f)), f)
    zero = Fraction(0)
    _assert_normal(F + G, {e: f.get(e, zero) + g.get(e, zero) for e in f.keys() | g.keys()})
    _assert_normal(F - G, {e: f.get(e, zero) - g.get(e, zero) for e in f.keys() | g.keys()})
    _assert_normal(-F, {e: -c for e, c in f.items()})
    _assert_normal(F.scale(s), {e: c * s for e, c in f.items()})
    _assert_normal(F * G, _multiply(f, g))
    power = {(0,) * nv: Fraction(1)}
    for _ in range(k):
        power = _multiply(power, f)
    _assert_normal(F ** k, power)
    images = [G, F, G][:nv]
    image = {}
    for e, c in f.items():
        term = {(0,) * nv: c}
        for i, d in enumerate(e):
            for _ in range(d):
                term = _multiply(term, (g, f, g)[i])
        image = {t: image.get(t, zero) + term.get(t, zero) for t in image.keys() | term.keys()}
    _assert_normal(F.substitute(images), image)
    # over GF(p) the division steps read the inputs' residues
    fp, gp = _in_field(f, p), _in_field(g, p)
    if fp:
        _assert_normal(make_monic(order, F)[0], _monic(fp, order.key, p))
    if gp:
        _assert_normal(normal_form(F, [G], order),
                       _remainder(fp, [_monic(gp, order.key, p)], order.key, p))
    basis = buchberger([F, G], order)
    for mine, ref in zip(basis, buchberger_all_pairs([fp, gp], order.key, p), strict=True):
        _assert_normal(mine, ref)
