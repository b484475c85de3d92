import random
from itertools import product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (buchberger_all_pairs, elimination_kernel, interreduce_by_normal_forms,
                     minimize_by_rerun, rank_rational, schur_rectangle_dim)
from sagbikit.engine import GeneratorFamily, sagbi_general
from sagbikit.formats import parse_polynomial, poly_to_text
from sagbikit.groebner import _PolynomialBasis, buchberger, normal_form
from sagbikit.minors import MatrixRing, diagonal_order, minors
from sagbikit.orders import degrevlex_order, lex_order
from sagbikit.relations import (RelationSet, Retract, _p0_order, interreduce, minimize_relations,
                                sagbi_with_relations, verify_relations)
from sagbikit.rings import Polynomial, RingContext


def _segre_generators():
    R = RingContext(["y1", "y2", "z1", "z2"])
    return [parse_polynomial(R, s) for s in ("y1*z1", "y1*z2", "y2*z1", "y2*z2")]


def test_segre_determinant_relation():
    res, retract, rels = sagbi_with_relations(_segre_generators(),
                                              degrevlex_order(4))
    assert res.status == "complete"
    assert len(rels.generators) == 1
    g = rels.generators[0]
    P = rels.ring
    det = parse_polynomial(P, "Y1*Y4 - Y2*Y3")
    assert g == det or g == -det
    assert retract.mismatch(res.basis) is None


def test_g24_single_pluecker_relation():
    M = MatrixRing(2, 4)
    res, retract, rels = sagbi_with_relations(
        [mi.polynomial for mi in minors(2, M)], diagonal_order(M))
    assert res.status == "complete" and len(res.basis) == 6
    assert len(rels.generators) == 1
    assert poly_to_text(rels.generators[0]) == "Y1*Y6 - Y2*Y5 + Y3*Y4"
    assert verify_relations(res.basis, rels) == (True, None)
    assert retract.mismatch(res.basis) is None


def test_g37_golden_relations_are_the_quadratic_pluecker_relations():
    """The 140 relations of the G(3,7) golden span the degree-2 part of the
    Pluecker ideal: they vanish on the 3-minors, are linearly independent,
    and number dim Sym^2(K^35) minus the degree-2 part of the coordinate
    ring of G(3,7)."""
    lines = (Path(__file__).parent / "golden" / "relations-3x7-diag.out").read_text().splitlines()
    maximal = [mi.polynomial for mi in minors(3, MatrixRing(3, 7))]
    assert [ln.split("\t")[1] for ln in lines if ln.startswith("Y")] == [
        poly_to_text(f) for f in maximal]
    P = RingContext([f"Y{u}" for u in range(1, 36)])
    rels = [parse_polynomial(P, ln.split("\t")[1]) for ln in lines if ln.startswith("rel\t")]
    assert all(g.degree() == 2 and g.substitute(maximal).is_zero() for g in rels)
    monomials = sorted({e for g in rels for e in g.terms})
    assert rank_rational([[g.terms.get(e, 0) for e in monomials] for g in rels]) == len(rels)
    assert len(rels) == comb(36, 2) - schur_rectangle_dim(3, 2, 7) == 140


def test_interreduce_packs_each_g36_relation_once(monkeypatch):
    M = MatrixRing(3, 6)
    family = GeneratorFamily([mi.polynomial for mi in minors(3, M)], diagonal_order(M))
    retract = Retract(family)
    sagbi_general(family, bookkeeper=retract)
    rels, order = retract.relations, _p0_order(retract.p0)
    assert len(rels) == 35
    expected = interreduce_by_normal_forms(rels, order)
    counts = {"bases": 0, "loads": 0}
    init, load = _PolynomialBasis.__init__, _PolynomialBasis._load

    def counting_init(self, *args):
        counts["bases"] += 1
        init(self, *args)

    def counting_load(self, f):
        counts["loads"] += 1
        return load(self, f)

    monkeypatch.setattr(_PolynomialBasis, "__init__", counting_init)
    monkeypatch.setattr(_PolynomialBasis, "_load", counting_load)
    assert interreduce(rels, order) == expected
    assert counts["bases"] == 1 and counts["loads"] <= 2 * len(rels)


def test_a233_relations_are_zero():
    M = MatrixRing(3, 3)
    res, retract, rels = sagbi_with_relations(
        [mi.polynomial for mi in minors(2, M)], diagonal_order(M))
    assert res.status == "complete" and len(res.basis) == 11
    assert rels.generators == []
    assert retract.mismatch(res.basis) is None


def _mutual_containment(a, b, order):
    gb_a = buchberger(a, order)
    gb_b = buchberger(b, order)
    return (all(normal_form(g, gb_a, order).is_zero() for g in b)
            and all(normal_form(g, gb_b, order).is_zero() for g in a))


def test_g25_five_relations_match_elimination():
    M = MatrixRing(2, 5)
    polys = [mi.polynomial for mi in minors(2, M)]
    res, retract, rels = sagbi_with_relations(polys, diagonal_order(M))
    rels = minimize_relations(rels)
    assert len(rels.generators) == 5
    assert verify_relations(res.basis, rels) == (True, None)
    _, elim = elimination_kernel(polys)
    assert _mutual_containment(rels.generators, elim, _p0_order(rels.ring))


def test_segre_matches_elimination():
    polys = _segre_generators()
    _, _, rels = sagbi_with_relations(polys, degrevlex_order(4))
    _, elim = elimination_kernel(polys)
    assert _mutual_containment(rels.generators, elim, _p0_order(rels.ring))


def test_minimize_drops_multiples():
    from sagbikit.orders import make_monic
    P = RingContext(["Y1", "Y2", "Y3", "Y4"])
    f = parse_polynomial(P, "Y1*Y4 - Y2*Y3")
    monic = make_monic(_p0_order(P), f)[0]
    two_f = f.scale(2)
    rs = minimize_relations(RelationSet(ring=P, generators=[f, two_f]))
    assert rs.generators == [monic]
    y1f = parse_polynomial(P, "Y1") * f
    rs = minimize_relations(RelationSet(ring=P, generators=[f, y1f]))
    assert rs.generators == [monic]


def test_verify_relations_catches_corruption():
    M = MatrixRing(2, 4)
    res, _, rels = sagbi_with_relations(
        [mi.polynomial for mi in minors(2, M)], diagonal_order(M))
    bad = rels.generators[0] + Polynomial.variable(rels.ring, 0)
    ok, witness = verify_relations(res.basis,
                                   RelationSet(ring=rels.ring, generators=[bad]))
    assert not ok and witness == bad


def test_relation_soundness_fuzz():
    rng = random.Random(17)
    done = 0
    while done < 10:
        nv = rng.randint(2, 3)
        ring = RingContext([f"x{i}" for i in range(nv)])
        order = degrevlex_order(nv)
        polys = []
        for _ in range(rng.randint(2, 4)):
            deg = rng.randint(1, 2)
            terms = {}
            for _ in range(rng.randint(1, 3)):
                e = [0] * nv
                left = deg
                for i in range(nv - 1):
                    t = rng.randint(0, left)
                    e[i] = t
                    left -= t
                e[-1] = left
                terms[tuple(e)] = rng.randint(1, 3)
            f = Polynomial(ring, terms)
            if not f.is_zero() and f.is_homogeneous():
                polys.append(f)
        if len(polys) < 2:
            continue
        res, retract, rels = sagbi_with_relations(polys, order, round_bound=4)
        assert verify_relations(res.basis, rels) == (True, None)
        assert retract.mismatch(res.basis) is None
        if res.status == "complete" and len(res.basis) <= 6:
            _, elim = elimination_kernel([res.basis.members[i]
                                          for i in range(res.basis.n_original)])
            mins = minimize_relations(rels)
            assert _mutual_containment(mins.generators, elim, _p0_order(rels.ring))
        done += 1


def _padded(rels: RelationSet, count: int) -> RelationSet:
    """The relations plus redundant ones: up to count sums of two of the
    same degree and count multiples by a variable, so that a minimizer has
    to drop some."""
    rng = random.Random(count)
    P, gens = rels.ring, list(rels.generators)
    extra = []
    for _ in range(count):
        a, b = rng.sample(gens, 2) if len(gens) > 1 else (gens[0], gens[0])
        if a.degree() == b.degree() and a != b:
            extra.append(a + b.scale(rng.randint(1, 3)))
        extra.append(Polynomial.variable(P, rng.randrange(P.nvars)) * a)
    return RelationSet(ring=P, generators=gens + extra)


def _production_groebner(ring):
    order = _p0_order(ring)
    return lambda kept, key, p: [g.terms for g in buchberger(
        [Polynomial(ring, k) for k in kept], order)]


def _weighted_family(p):
    R = RingContext(["x", "y"], p)
    return [parse_polynomial(R, s) for s in ("x^2", "x*y", "y^2", "x^3 + y^3", "x*y^3")]


@pytest.mark.parametrize("case", ["G25", "G26", "G36", "weighted-Q", "weighted-GF5"])
def test_minimize_matches_rerun_from_scratch(case):
    p = 5 if case.endswith("GF5") else 0
    if case.startswith("G"):
        m, n = int(case[1]), int(case[2])
        M = MatrixRing(m, n)
        polys, order = [mi.polynomial for mi in minors(m, M)], diagonal_order(M)
    else:
        polys, order = _weighted_family(p), degrevlex_order(2)
    _, _, rels = sagbi_with_relations(polys, order, round_bound=3)
    # every sum kept in place of a G(3,6) quadric makes the reruns slower
    padded = _padded(rels, 2 if case == "G36" else 6)
    key = _p0_order(rels.ring).key
    ordered = sorted(padded.generators, key=lambda g: (g.degree(), g.key()))
    # a rerun of the criterion-free oracle per kept quadric of G(3,6)
    # takes minutes; there the rerun uses `buchberger`, itself checked
    # against that oracle in test_groebner
    groebner = _production_groebner(rels.ring) if case == "G36" else buchberger_all_pairs
    expected = minimize_by_rerun([g.terms for g in ordered], key, p, groebner)
    mine = minimize_relations(padded)
    assert [g.terms for g in mine.generators] == expected
    # graded Nakayama: every minimal generating set has the same size
    assert len(mine.generators) == len(minimize_relations(rels).generators)
    assert len(mine.generators) < len(padded.generators)


@st.composite
def _prime_field_family(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    nv = draw(st.integers(2, 3))
    polys = []
    for _ in range(draw(st.integers(2, 4))):
        d = draw(st.integers(1, 2))
        exps = [e for e in product(range(d + 1), repeat=nv) if sum(e) == d]
        polys.append(draw(st.dictionaries(st.sampled_from(exps), st.integers(1, p - 1),
                                          min_size=1, max_size=3)))
    return p, nv, polys


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_prime_field_family())
def test_relations_over_prime_fields_match_elimination(case):
    p, nv, terms = case
    ring = RingContext([f"x{i}" for i in range(nv)], p)
    res, retract, rels = sagbi_with_relations([Polynomial(ring, t) for t in terms],
                                              degrevlex_order(nv), round_bound=3)
    assert rels.ring.characteristic == p
    assert all(type(c) is int and 0 < c < p for g in rels.generators for c in g.terms.values())
    assert verify_relations(res.basis, rels) == (True, None)
    assert retract.mismatch(res.basis) is None
    mins = minimize_relations(rels)
    if res.status == "complete" and len(res.basis) <= 6:
        _, elim = elimination_kernel(res.basis.members[:res.basis.n_original])
        assert _mutual_containment(mins.generators, elim, _p0_order(rels.ring))
