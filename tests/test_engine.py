import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import factor_by_enumeration, is_sagbi_up_to
from sagbikit.engine import (GeneratorFamily, sagbi_by_degree, sagbi_general, subduct,
                             tete_a_tetes)
from sagbikit.formats import parse_polynomial
from sagbikit.groebner import Binomial
from sagbikit.matchings import matching_from_weight
from sagbikit.minors import MatrixRing, diagonal_order, minors, submax_lex_order
from sagbikit.orders import degrevlex_order, lex_order, weight_order
from sagbikit.rings import Polynomial, RingContext


@pytest.fixture
def xy_family():
    R = RingContext(["x", "y", "z"])
    return R, GeneratorFamily([parse_polynomial(R, "x+y"),
                               parse_polynomial(R, "y")], lex_order(3))


def _check_trace(g, family, trace):
    total = Polynomial.zero(g.ring)
    for coeff, factor in trace.steps:
        total = total + family.phi_monomial(factor).scale(coeff)
    assert total + trace.remainder == g


def test_subduct_generator_to_zero(xy_family):
    R, F = xy_family
    g = parse_polynomial(R, "x+y")
    tr = subduct(g, F)
    assert tr.remainder.is_zero()
    assert tr.steps == [(1, {0: 1})]
    _check_trace(g, F, tr)


def test_subduct_two_steps(xy_family):
    R, F = xy_family
    g = parse_polynomial(R, "x^2 + x*y")
    tr = subduct(g, F)
    assert tr.remainder.is_zero()
    assert tr.steps == [(1, {0: 2}), (-1, {0: 1, 1: 1})]
    _check_trace(g, F, tr)


def test_subduct_foreign_variable(xy_family):
    R, F = xy_family
    g = parse_polynomial(R, "z")
    tr = subduct(g, F)
    assert tr.remainder == g and tr.steps == []


def test_subduct_clears_terms_below_a_remainder_lead():
    # under degrevlex the z^2 term leads and is not a product of initials;
    # it moves to the remainder and subduction clears the y term below it
    R = RingContext(["x", "y", "z"])
    F = GeneratorFamily([parse_polynomial(R, "x+y"),
                         parse_polynomial(R, "y")], degrevlex_order(3))
    g = parse_polynomial(R, "z^2 + y")
    full = subduct(g, F)
    assert full.remainder == parse_polynomial(R, "z^2")
    assert full.steps == [(1, {1: 1})]
    _check_trace(g, F, full)


def test_tete_a_tetes_examples():
    R = RingContext(["x", "y"])
    F = GeneratorFamily([parse_polynomial(R, "x^2"),
                         parse_polynomial(R, "x^3")], lex_order(2))
    assert tete_a_tetes(F) == [Binomial((3, 0), (0, 2))]
    G = GeneratorFamily([parse_polynomial(R, "x+y"),
                         parse_polynomial(R, "y")], lex_order(2))
    assert tete_a_tetes(G) == []


def test_sagbi_independent_initials_complete_immediately():
    R = RingContext(["x", "y"])
    F = GeneratorFamily([parse_polynomial(R, "x+y"),
                         parse_polynomial(R, "y")], lex_order(2))
    res = sagbi_general(F)
    assert res.status == "complete" and len(res.basis) == 2 and res.rounds == 1


def test_sagbi_a233_adds_two_specific_elements():
    M = MatrixRing(3, 3)
    fam = GeneratorFamily([mi.polynomial for mi in minors(2, M)],
                          diagonal_order(M))
    res = sagbi_general(fam)
    assert res.status == "complete"
    assert len(res.basis) == 11
    diag = [0] * 9
    for i in range(3):
        diag[M.cell(i, i)] = 1
    expected = set()
    for cell in ((0, 2), (2, 0)):
        e = list(diag)
        e[M.cell(*cell)] += 1
        expected.add(tuple(e))
    assert set(res.basis.initials[9:]) == expected


def test_sagbi_by_degree_agrees_and_reports_completion_degree():
    M = MatrixRing(3, 3)
    fam = GeneratorFamily([mi.polynomial for mi in minors(2, M)],
                          diagonal_order(M))
    res = sagbi_by_degree(fam, 8)
    assert res.status == "complete" and len(res.basis) == 11

    M24 = MatrixRing(2, 4)
    fam24 = GeneratorFamily([mi.polynomial for mi in minors(2, M24)],
                            diagonal_order(M24))
    res24 = sagbi_by_degree(fam24, 8)
    # the final empty round is one past the top tete-a-tete degree
    assert res24.status == "complete" and res24.comp_degree == 3
    assert len(res24.basis) == 6 and res24.max_degree() == 1


class _CountingBookkeeper:
    def __init__(self):
        self.relations = self.new_elements = 0

    def on_relation(self, binomial, trace):
        self.relations += 1

    def on_new_element(self, binomial, trace, divisor):
        self.new_elements += 1


def test_sagbi_by_degree_reports_every_subduction_to_the_bookkeeper():
    R = RingContext(["x", "y"])
    gens = [parse_polynomial(R, t) for t in ("x+y", "x*y", "x*y^2")]
    bk = _CountingBookkeeper()
    res = sagbi_by_degree(GeneratorFamily(gens, lex_order(2)), 6, bk)
    # x*y^5 is appended once: a later tete-a-tete of its pass subduces to zero
    assert (bk.relations, bk.new_elements) == (8, 3)
    assert res.rounds == 6 and len(res.basis) == 6


def _xy_family():
    R = RingContext(["x", "y"])
    return GeneratorFamily([parse_polynomial(R, t) for t in ("x+y", "x*y", "x*y^2")],
                           lex_order(2))


def _3x3_family():
    M = MatrixRing(3, 3)
    return GeneratorFamily([mi.polynomial for mi in minors(2, M)], diagonal_order(M))


@pytest.mark.parametrize("family, complete, bounds, size", [
    (_xy_family, sagbi_by_degree, {"degree_bound": 6}, 6),
    (_xy_family, sagbi_by_degree, {"degree_bound": 10}, 10),
    (_xy_family, sagbi_general, {"degree_bound": 6}, 6),
    (_xy_family, sagbi_general, {"degree_bound": 10}, 10),
    # two tete-a-tetes of the third round subduce to x*y^5 against the family
    # that the round starts with
    (_xy_family, sagbi_general, {"round_bound": 3}, 6),
    (_3x3_family, sagbi_by_degree, {"degree_bound": 4}, 11),
    (_3x3_family, sagbi_general, {}, 11),
], ids=["xy-degree-6", "xy-degree-10", "xy-general-6", "xy-general-10",
        "xy-general-round-3", "3x3-degree", "3x3-general"])
def test_basis_initial_monomials_are_distinct(family, complete, bounds, size):
    basis = complete(family(), **bounds).basis
    assert len(basis) == size
    assert len(set(basis.initials)) == len(basis)


@pytest.mark.parametrize("complete, bounds, counts", [
    (sagbi_by_degree, {"degree_bound": 10}, (59, 7, 14)),
    (sagbi_general, {"degree_bound": 6}, (9, 3, 4)),
    (sagbi_general, {"degree_bound": 10}, (73, 7, 8)),
], ids=["xy-degree-10", "xy-general-6", "xy-general-10"])
def test_subduction_counts_of_both_variants(complete, bounds, counts):
    # (relations, new elements, rounds); a degree pass subduces only the
    # tete-a-tetes of its kernel above the last window subduced against it
    bk = _CountingBookkeeper()
    res = complete(_xy_family(), bookkeeper=bk, **bounds)
    assert (bk.relations, bk.new_elements, res.rounds) == counts


@st.composite
def _initials_and_target(draw):
    nvars = draw(st.integers(2, 3))
    inits = draw(st.lists(st.tuples(*[st.integers(0, 2)] * nvars).filter(any),
                          min_size=1, max_size=5))
    sums = st.lists(st.integers(0, len(inits) - 1), max_size=3).map(
        lambda us: tuple(sum(inits[u][i] for u in us) for i in range(nvars)))
    return inits, draw(st.one_of(sums, st.tuples(*[st.integers(0, 4)] * nvars)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_initials_and_target())
# (1, 0) divides (2, 0): the smallest sequence is (0,), not (1, 1)
@example(([(2, 0), (1, 0)], (2, 0)))
# equal initials: only the first is used
@example(([(1, 1), (0, 1), (1, 1)], (2, 3)))
def test_factor_initial_is_the_smallest_sequence_of_the_enumeration(case):
    inits, target = case
    R = RingContext(["x", "y", "z"][:len(target)])
    family = GeneratorFamily([Polynomial.monomial(R, e) for e in inits],
                             lex_order(len(target)))
    factor = family.factor_initial(target)
    seq = None if factor is None else [u for u, k in factor.items() for _ in range(k)]
    assert seq == factor_by_enumeration(inits, target)


_POOL = ("x", "y", "x+y", "x*y", "x^2+y^2", "x^2-x*y", "x+y^2", "x*y^2+y^3", "x^3")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_POOL), min_size=1, max_size=3),
       st.sampled_from(["lex", "degrevlex"]), st.booleans())
def test_no_two_basis_members_share_an_initial_monomial(gens, order, by_degree):
    R = RingContext(["x", "y"])
    polys = [parse_polynomial(R, t) for t in gens]
    family = GeneratorFamily(polys, (lex_order if order == "lex" else degrevlex_order)(2))
    if by_degree and family.is_homogeneous():
        basis = sagbi_by_degree(family, 5, round_bound=4).basis
    else:
        basis = sagbi_general(family, round_bound=2, degree_bound=5).basis
    # the inputs may repeat a lead; every appended member has a new one
    initials = basis.initials
    assert len(set(initials[basis.n_original:])) == len(basis) - basis.n_original
    assert not set(initials[:basis.n_original]) & set(initials[basis.n_original:])


def test_sagbi_by_degree_rejects_inhomogeneous():
    R = RingContext(["x", "y"])
    fam = GeneratorFamily([parse_polynomial(R, "x + y^2")], lex_order(2))
    with pytest.raises(ValueError):
        sagbi_by_degree(fam, 4)


def test_generator_family_rejects_a_constant_generator():
    R = RingContext(["x", "y"])
    order = lex_order(2)
    x = parse_polynomial(R, "x")
    for polys in ([Polynomial.constant(R, 3)], [Polynomial.constant(R, 3), x],
                  [x, parse_polynomial(R, "y"), Polynomial.constant(R, -1)]):
        with pytest.raises(ValueError, match="constant generator"):
            GeneratorFamily(polys, order)
    family = GeneratorFamily([x], order)
    with pytest.raises(ValueError, match="constant generator"):
        family.append(Polynomial.constant(R, 2))
    assert len(family) == 1 and family.norm_gcd == 1


def test_sagbi_g36_minors_are_complete():
    M = MatrixRing(3, 6)
    fam = GeneratorFamily([mi.polynomial for mi in minors(3, M)],
                          diagonal_order(M))
    res = sagbi_general(fam)
    assert res.status == "complete" and len(res.basis) == 20


def test_sagbi_submax_completes_without_additions():
    for m in (3, 4, 5):
        M = MatrixRing(m, m)
        fam = GeneratorFamily([mi.polynomial for mi in minors(m - 1, M)],
                              submax_lex_order(M))
        res = sagbi_general(fam)
        assert res.status == "complete" and len(res.basis) == m * m


def test_idempotence_and_monotone_initials():
    M = MatrixRing(3, 3)
    fam = GeneratorFamily([mi.polynomial for mi in minors(2, M)],
                          diagonal_order(M))
    res = sagbi_general(fam)
    before = list(res.basis.initials)
    again = sagbi_general(res.basis)
    assert again.status == "complete"
    assert list(again.basis.initials) == before


def test_truncation_by_round_bound():
    M = MatrixRing(3, 3)
    fam = GeneratorFamily([mi.polynomial for mi in minors(2, M)],
                          diagonal_order(M))
    res = sagbi_general(fam, round_bound=0)
    assert res.status == "truncated"


def test_lifting_identity_for_emitted_relations():
    # a binomial whose image subduces to zero lifts to the kernel
    M = MatrixRing(2, 4)
    fam = GeneratorFamily([mi.polynomial for mi in minors(2, M)],
                          diagonal_order(M))
    for b in tete_a_tetes(fam):
        tr = subduct(fam.phi_binomial(b), fam)
        assert tr.remainder.is_zero()
        lift = fam.phi_binomial(b)
        for coeff, factor in tr.steps:
            lift = lift - fam.phi_monomial(factor).scale(coeff)
        assert lift.is_zero()


def test_strict_descent_on_random_subductions():
    rng = random.Random(16)
    R = RingContext(["x", "y", "z"])
    order = lex_order(3)
    gens = [parse_polynomial(R, "x + y"), parse_polynomial(R, "y + z"),
            parse_polynomial(R, "z^2 - x")]
    fam = GeneratorFamily(gens, order)
    for _ in range(200):
        terms = {tuple(rng.randint(0, 4) for _ in range(3)): rng.randint(-4, 4)
                 for _ in range(rng.randint(1, 6))}
        g = Polynomial(R, terms)
        if g.is_zero():
            continue
        tr = subduct(g, fam)  # raises internally if descent ever stalls
        _check_trace(g, fam, tr)


def test_hilbert_detection_matches_engine_verdict():
    # equality of the two Hilbert functions holds exactly when the engine
    # finds nothing to add
    M = MatrixRing(3, 3)
    diag = diagonal_order(M)
    fam = GeneratorFamily([mi.polynomial for mi in minors(2, M)], diag)
    assert is_sagbi_up_to(fam, 3) == 2
    completed = sagbi_general(
        GeneratorFamily([mi.polynomial for mi in minors(2, M)], diag)).basis
    assert is_sagbi_up_to(completed, 3) is None

    M24 = MatrixRing(2, 4)
    fam24 = GeneratorFamily([mi.polynomial for mi in minors(2, M24)],
                            diagonal_order(M24))
    assert is_sagbi_up_to(fam24, 3) is None
    assert sagbi_general(fam24).rounds == 1


def test_is_sagbi_up_to():
    M34 = MatrixRing(3, 4)
    fam34 = [mi.polynomial for mi in minors(2, M34)]
    w1 = (1, 0, 2, 3, 3, 0, 3, 2, 0, 2, 2, 0)
    order = weight_order(w1, diagonal_order(M34))
    m = matching_from_weight(fam34, list(w1))
    family = GeneratorFamily(fam34, order)
    assert list(family.initials) == list(m.selection)
    assert is_sagbi_up_to(family, 2) == 2

    M36 = MatrixRing(3, 6)
    fam36 = GeneratorFamily([mi.polynomial for mi in minors(3, M36)],
                            diagonal_order(M36))
    assert is_sagbi_up_to(fam36, 2) is None

    R = RingContext(["x", "y"])
    single = GeneratorFamily([parse_polynomial(R, "x + y")], lex_order(2))
    assert is_sagbi_up_to(single, 4) is None
