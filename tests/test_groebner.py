import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (brute_product_values, buchberger_all_pairs, divides, elimination_kernel,
                     interreduce_by_normal_forms, lcm_exponent, toric_kernel_ungraded)
from sagbikit.formats import parse_polynomial
from sagbikit.groebner import (Binomial, _BinomialBasis, _PolynomialBasis, buchberger,
                               interreduce, normal_form, toric_kernel)
from sagbikit.minors import MatrixRing, diagonal_order, minors
from sagbikit.orders import degrevlex_order, leading_exponent, lex_order, weight_order
from sagbikit.rings import Polynomial, RingContext


@pytest.fixture
def R():
    return RingContext(["x", "y"])


def test_buchberger_membership(R):
    gens = [parse_polynomial(R, "x^2 - y"), parse_polynomial(R, "x^3")]
    gb = buchberger(gens, degrevlex_order(2))
    assert normal_form(parse_polynomial(R, "y^3"), gb, degrevlex_order(2)).is_zero()
    assert not normal_form(parse_polynomial(R, "x"), gb, degrevlex_order(2)).is_zero()


def test_buchberger_principal(R):
    gb = buchberger([parse_polynomial(R, "x")], lex_order(2))
    assert gb == [parse_polynomial(R, "x")]


def test_pluecker_quadric_is_its_own_basis():
    P = RingContext([f"Y{i}" for i in range(1, 7)])
    q = parse_polynomial(P, "Y1*Y6 - Y2*Y5 + Y3*Y4")
    gb = buchberger([q], degrevlex_order(6))
    assert len(gb) == 1 and gb[0] == q


def test_basis_is_order_reduced():
    rng = random.Random(11)
    R3 = RingContext(["x", "y", "z"])
    for _ in range(25):
        gens = []
        for _ in range(rng.randint(1, 4)):
            terms = {tuple(rng.randint(0, 3) for _ in range(3)):
                     rng.randint(-3, 3) for _ in range(rng.randint(1, 4))}
            f = Polynomial(R3, terms)
            if not f.is_zero():
                gens.append(f)
        if not gens:
            continue
        order = degrevlex_order(3)
        gb = buchberger(gens, order)
        leads = [leading_exponent(order, g) for g in gb]
        for i, li in enumerate(leads):
            for j, lj in enumerate(leads):
                if i != j:
                    assert not all(a <= b for a, b in zip(lj, li))


def test_normal_form_examples(R):
    o = lex_order(2)
    x = parse_polynomial(R, "x")
    assert normal_form(parse_polynomial(R, "x^2"), [x], o).is_zero()
    assert normal_form(parse_polynomial(R, "y"), [x], o) == parse_polynomial(R, "y")
    assert normal_form(parse_polynomial(R, "x^2-y^2"),
                       [parse_polynomial(R, "x-y")], o).is_zero()
    # a zero divisor is skipped
    y = parse_polynomial(R, "y")
    assert normal_form(parse_polynomial(R, "x^2 + y"), [Polynomial.zero(R), x], o) == y
    assert normal_form(y, [Polynomial.zero(R)], o) == y


def test_toric_kernel_power_relation(R):
    assert toric_kernel([(2, 0), (3, 0)], R) == [Binomial((3, 0), (0, 2))]


def test_toric_kernel_independent(R):
    assert toric_kernel([(1, 0), (0, 1)], R) == []


def test_toric_kernel_two_by_four_diagonals():
    M = MatrixRing(2, 4)
    order = diagonal_order(M)
    inits = [leading_exponent(order, mi.polynomial) for mi in minors(2, M)]
    kernel = toric_kernel(inits, M.ring)
    assert len(kernel) == 1
    b = kernel[0]
    assert sorted((sum(b.plus), sum(b.minus))) == [2, 2]
    # columns {0,3},{1,2} versus {0,2},{1,3}
    assert {tuple(b.plus), tuple(b.minus)} == {
        (0, 0, 1, 1, 0, 0), (0, 1, 0, 0, 1, 0)}


def test_toric_kernel_rejects_zero_monomial(R):
    with pytest.raises(ValueError):
        toric_kernel([(0, 0)], R)


def _semigroup_values_via_standard_monomials(monomials, ring, kernel, k_max):
    """Hilbert function of P/(kernel) by counting standard monomials."""
    weights = [ring.degree(m) for m in monomials]
    p = len(monomials)
    yring = RingContext([f"y{u}" for u in range(p)], 0, weights)
    order = degrevlex_order(p)
    polys = [Polynomial(yring, {b.plus: 1, b.minus: -1}) for b in kernel]
    gb = buchberger(polys, order) if polys else []
    leads = [leading_exponent(order, g) for g in gb]
    values = [0] * (k_max + 1)
    max_count = k_max // min(weights)
    values[0] = 1
    for count in range(1, max_count + 1):
        for combo in combinations_with_replacement(range(p), count):
            deg = sum(weights[i] for i in combo)
            if deg > k_max:
                continue
            e = [0] * p
            for i in combo:
                e[i] += 1
            if not any(all(a <= b for a, b in zip(lt, e)) for lt in leads):
                values[deg] += 1
    return values


def test_toric_kernel_completeness_random_small():
    # quotient dimensions must match exhaustive product counts
    rng = random.Random(12)
    done = 0
    while done < 20:
        nv = rng.randint(2, 6)
        ring = RingContext([f"x{i}" for i in range(nv)])
        count = rng.randint(2, 5)
        monomials = []
        for _ in range(count):
            m = tuple(rng.randint(0, 3) for _ in range(nv))
            if any(m):
                monomials.append(m)
        if len(monomials) < 2:
            continue
        kernel = toric_kernel(monomials, ring)
        for b in kernel:
            lhs = [0] * nv
            rhs = [0] * nv
            for u, (e1, e2) in enumerate(zip(b.plus, b.minus)):
                for i in range(nv):
                    lhs[i] += e1 * monomials[u][i]
                    rhs[i] += e2 * monomials[u][i]
            assert lhs == rhs
        degrees = [ring.degree(m) for m in monomials]
        quotient = _semigroup_values_via_standard_monomials(
            monomials, ring, kernel, 5)
        brute = brute_product_values(monomials, degrees, 5)
        assert quotient == brute
        done += 1


def _same_ideal_as_elimination(monomials, ring):
    """toric_kernel and the coefficient elimination give one ideal."""
    kernel = toric_kernel(monomials, ring)
    p0, elim = elimination_kernel([Polynomial(ring, {m: 1}) for m in monomials])
    mine = [Polynomial(p0, {b.plus: 1, b.minus: -1}) for b in kernel]
    order = degrevlex_order(p0.nvars)
    assert buchberger(mine, order) == buchberger(elim, order)
    return kernel


@st.composite
def _monomial_family(draw):
    nv = draw(st.integers(1, 4))
    exp = st.lists(st.integers(0, 3), min_size=nv, max_size=nv).filter(any).map(tuple)
    return nv, draw(st.lists(exp, min_size=1, max_size=5))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_monomial_family())
def test_toric_kernel_matches_elimination_oracle(case):
    nv, monomials = case
    _same_ideal_as_elimination(monomials, RingContext([f"x{i}" for i in range(nv)]))


@pytest.mark.parametrize("grading, characteristic, monomials", [
    # deg Y = 2, 3, 4, 6, 5: Y_2^2 - Y_4 and Y_1*Y_2 - Y_5 have mixed degrees
    ((1, 2, 3), 0, [(0, 1, 0), (0, 0, 1), (2, 1, 0), (0, 0, 2), (0, 1, 1)]),
    ((2, 1), 3, [(1, 0), (1, 1), (1, 2), (2, 1)]),
])
def test_toric_kernel_weighted_grading_matches_elimination(grading, characteristic,
                                                           monomials):
    ring = RingContext([f"x{i}" for i in range(len(grading))], characteristic, grading)
    assert _same_ideal_as_elimination(monomials, ring)


@st.composite
def _graded_monomial_family(draw):
    nv = draw(st.integers(1, 4))
    grading = tuple(draw(st.lists(st.integers(1, 4), min_size=nv, max_size=nv)))
    exp = st.lists(st.integers(0, 3), min_size=nv, max_size=nv).filter(any).map(tuple)
    return (grading, draw(st.sampled_from([0, 2, 3, 32003])),
            draw(st.lists(exp, min_size=1, max_size=6)))


# the initials of x+y, x*y, x*y^2 under lex, as the degree loop grows them
_XY_INITIALS = [(1, 0)] + [(1, k) for k in range(1, 10)]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_graded_monomial_family())
@example(((1, 1), 0, _XY_INITIALS[:3]))
@example(((1, 1), 0, _XY_INITIALS))
@example(((1, 2, 3), 32003, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 1), (1, 1, 1)]))
def test_graded_toric_kernel_equals_ungraded_elimination(case):
    """The reduced basis is unique, so the pair order cannot change it."""
    grading, characteristic, monomials = case
    ring = RingContext([f"x{i}" for i in range(len(grading))], characteristic, grading)
    assert toric_kernel(monomials, ring) == toric_kernel_ungraded(monomials, ring)


@pytest.mark.parametrize("n", [5, 6])
def test_toric_kernel_grassmannian_2n_matches_elimination(n):
    M = MatrixRing(2, n)
    order = diagonal_order(M)
    inits = [leading_exponent(order, mi.polynomial) for mi in minors(2, M)]
    kernel = _same_ideal_as_elimination(inits, M.ring)
    # one Pluecker quadric per 4-subset of columns
    assert len(kernel) == comb(n, 4)


_ORDERS = {
    "degrevlex": lambda n: degrevlex_order(n),
    "lex": lambda n: lex_order(n),
    "elimination": lambda n: weight_order((1,) + (0,) * (n - 1), degrevlex_order(n)),
}


@st.composite
def _binomial_family(draw):
    nv = draw(st.integers(2, 4))
    exp = st.lists(st.integers(0, 2), min_size=nv, max_size=nv).map(tuple)
    pairs = draw(st.lists(st.tuples(exp, exp).filter(lambda ab: ab[0] != ab[1]),
                          min_size=1, max_size=4))
    return nv, pairs, draw(st.sampled_from(sorted(_ORDERS)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_binomial_family())
def test_binomial_basis_equals_general_buchberger(case):
    nv, pairs, order_name = case
    order = _ORDERS[order_name](nv)
    basis = _BinomialBasis(order, (1,) * nv)
    for a, b in pairs:
        basis.add(Binomial(a, b))
    basis.complete()
    mine = [{lead: 1, trail: -1} for lead, trail in basis.reduced()]
    assert mine == buchberger_all_pairs([{a: 1, b: -1} for a, b in pairs], order.key)


_POLY_ORDERS = dict(_ORDERS, weight=lambda n: weight_order(range(1, n + 1), lex_order(n)))


@st.composite
def _polynomial_family(draw):
    nv = draw(st.integers(1, 3))
    exp = st.lists(st.integers(0, 3), min_size=nv, max_size=nv).map(tuple)
    poly = st.dictionaries(exp, st.integers(-3, 3).filter(bool), min_size=1, max_size=4)
    return (nv, draw(st.lists(poly, min_size=1, max_size=3)),
            draw(st.sampled_from(sorted(_POLY_ORDERS))), draw(st.sampled_from([0, 2, 3, 7])))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_polynomial_family())
def test_polynomial_basis_equals_criterion_free_buchberger(case):
    nv, gens, order_name, p = case
    order = _POLY_ORDERS[order_name](nv)
    ring = RingContext([f"x{i}" for i in range(nv)], p)
    polys = [Polynomial(ring, g) for g in gens]
    mine = [g.terms for g in buchberger(polys, order)]
    assert mine == buchberger_all_pairs([f.terms for f in polys if f.terms], order.key, p)


def test_packed_divisibility_and_lcm_agree_with_tuples():
    rng = random.Random(5)
    top = (1 << 15) - 1
    basis = _BinomialBasis(degrevlex_order(4), (1,) * 4)
    values = [0, 1, 2, top - 1, top]
    cases = [((0, 0, 0, 0), (0, 0, 0, 0)), ((top,) * 4, (top,) * 4),
             ((top, 0, 1, 2), (top, 0, 1, 2)), ((1, 0, 0, 0), (0, top, top, top))]
    for _ in range(500):
        a = tuple(rng.choice(values) if rng.random() < 0.5 else rng.randint(0, top)
                  for _ in range(4))
        b = tuple(rng.choice(values) if rng.random() < 0.5 else rng.randint(0, top)
                  for _ in range(4))
        cases += [(a, b), (a, a), (a, tuple(max(x, y) for x, y in zip(a, b)))]
    for a, b in cases:
        pa, pb = basis._pack(a), basis._pack(b)
        assert basis._unpack(pa) == a
        assert basis._divides(pa, pb) == divides(a, b)
        assert basis._unpack(basis._lcm(pa, pb)) == lcm_exponent(a, b)


def test_packed_exponents_out_of_range_raise():
    basis = _BinomialBasis(degrevlex_order(2), (1, 1))
    for bad in [(1 << 15, 0), (0, -1), (1 << 16, 1)]:
        with pytest.raises(OverflowError):
            basis._pack(bad)
    # x - y^32767 under lex: reducing x*y would need y^32768
    basis = _BinomialBasis(lex_order(2), (1, 1))
    basis.add(Binomial((1, 0), (0, (1 << 15) - 1)))
    with pytest.raises(OverflowError):
        basis.minimal_generators([Binomial((1, 1), (0, 0))])
    # the same through coefficient reduction
    R = RingContext(["x", "y"])
    basis = _PolynomialBasis(lex_order(2), R)
    basis.add(Polynomial(R, {(1, 0): 1, (0, (1 << 15) - 1): -1}))
    with pytest.raises(OverflowError):
        basis.minimal_generators([Polynomial(R, {(1, 1): 1})])
    with pytest.raises(OverflowError):
        toric_kernel([(40000, 0), (0, 1), (40000, 1)], R)


def _obeys_coeff_rule(ring, c) -> bool:
    """Nonzero, and already in the normal form of `RingContext.coeff`."""
    return c != 0 and type(c) is type(ring.coeff(c)) and c == ring.coeff(c)


def _random_family(rng):
    """A ring over Q, GF(2), GF(3) or GF(32003), an order name and up to
    five polynomials, some of them zero or repeated."""
    nv = rng.randint(1, 3)
    p = rng.choice([0, 2, 3, 32003])
    ring = RingContext([f"x{i}" for i in range(nv)], p)
    polys = []
    for _ in range(rng.randint(0, 5)):
        r = rng.random()
        if polys and r < 0.15:
            polys.append(rng.choice(polys))
        elif r < 0.25:
            polys.append(Polynomial.zero(ring))
        else:
            polys.append(Polynomial(ring, {
                tuple(rng.randint(0, 3) for _ in range(nv)):
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if p == 0 else rng.randrange(p)
                for _ in range(rng.randint(1, 4))}))
    return ring, polys, rng.choice(sorted(_POLY_ORDERS))


def test_interreduce_equals_a_normal_form_per_generator():
    rng = random.Random(20)
    changed = 0
    for _ in range(600):
        ring, polys, order_name = _random_family(rng)
        order = _POLY_ORDERS[order_name](ring.nvars)
        mine = interreduce(polys, order)
        assert mine == interreduce_by_normal_forms(polys, order)
        assert all(_obeys_coeff_rule(ring, c) for g in mine for c in g.terms.values())
        changed += mine != [f for f in polys if not f.is_zero()]
    # the pass is far from the identity on these families
    assert changed > 150


def test_interreduce_edge_cases():
    R = RingContext(["x", "y", "z"])
    o = lex_order(3)
    x, y, z = (Polynomial.variable(R, i) for i in range(3))
    f = parse_polynomial(R, "1/2*x*y - 3/4*z")
    zero = Polynomial.zero(R)
    cases = [
        ([], []),
        ([zero, zero], []),
        ([f], [f]),
        ([zero, f, zero], [f]),
        # the first copy reduces to zero by the second, which then stands alone
        ([f, f], [f]),
        # x - y becomes -z; y - z is then reduced by -z, not by x - y, to y
        ([x - y, y - z, x], [-z, y, x]),
    ]
    for polys, expected in cases:
        assert interreduce(polys, o) == expected
        assert interreduce_by_normal_forms(polys, o) == expected
