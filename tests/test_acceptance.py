"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Stated runtime budgets are asserted.
"""
import random
import time
from math import comb

import pytest

from constructions import B_sets, Q_matrix
from oracles import elimination_kernel, find_selection
from sagbikit.engine import GeneratorFamily, sagbi_general
from sagbikit.groebner import buchberger, normal_form
from sagbikit.hilbert import (expand_series, h_vector, krull_dim_monomial,
                              semigroup_hilbert, subalgebra_hilbert)
from sagbikit.matchings import (diagonal_matching, enumerate_vertices_exhaustive,
                                extend_matching, full_support, is_coherent,
                                make_matching, sagbi_defect)
from sagbikit.minors import (MatrixRing, determinant, diagonal_order, full_group,
                             minors, submax_lex_order)
from sagbikit.orders import leading_exponent
from sagbikit.relations import (_p0_order, minimize_relations, sagbi_with_relations,
                                verify_relations)
from sagbikit.rings import RingContext
from sagbikit.universal import (G36_TYPES, g36_reference,
                                random_coherent_matching, structured_family,
                                verify_a233, verify_g36, verify_g37_sampled)

SEED = 20260809


def _report(num, elapsed, text):
    print(f"ACCEPTANCE {num:02d} PASS ({elapsed:.1f}s): {text}")


@pytest.fixture(scope="module")
def m33():
    M = MatrixRing(3, 3)
    return M, [mi.polynomial for mi in minors(2, M)], full_group(3, 3)


@pytest.fixture(scope="module")
def cat33(m33):
    M, fam, group = m33
    t0 = time.monotonic()
    cat = enumerate_vertices_exhaustive(fam, group)
    return cat, time.monotonic() - t0


def test_criterion_01_table_3x3(m33, cat33):
    M, fam, group = m33
    cat, elapsed = cat33
    assert elapsed < 60
    assert cat.total == 102 and len(cat.orbits) == 5
    paper = [((4, 2, 0), (2, 2, 2), (0, 2, 4)),
             ((4, 2, 0), (2, 1, 3), (0, 3, 3)),
             ((3, 2, 1), (2, 0, 4), (1, 4, 1)),
             ((4, 1, 1), (1, 4, 1), (1, 1, 4)),
             ((0, 3, 3), (3, 0, 3), (3, 3, 0))]
    canon_paper = sorted(group.canonical(tuple(v for r in p for v in r))
                         for p in paper)
    assert canon_paper == sorted(o.canonical for o in cat.orbits)
    _report(1, elapsed, "3x3 2-minors: 102 vertices, 5 orbits, "
                        "paper representatives conjugate")


def test_criterion_02_table_3x3_delta(m33):
    M, fam, group = m33
    t0 = time.monotonic()
    cat = enumerate_vertices_exhaustive(fam + [determinant(M)], group)
    assert cat.total == 108 and len(cat.orbits) == 5
    v5 = (0, 3, 3, 3, 0, 3, 3, 3, 0)
    d5 = (0, 4, 3, 3, 0, 4, 4, 3, 0)
    assert group.orbit_size(v5) == 6
    sizes = {o.canonical: o.size for o in cat.orbits}
    assert sizes[group.canonical(d5)] == 12
    _report(2, time.monotonic() - t0,
            "3x3 2-minors with determinant: 108 vertices, 5 orbits, "
            "case-(5) orbit sizes 6 and 12")


def test_criterion_03_table_3x4():
    t0 = time.monotonic()
    M = MatrixRing(3, 4)
    fam = [mi.polynomial for mi in minors(2, M)]
    group = full_group(3, 4)
    cat = enumerate_vertices_exhaustive(fam, group)
    assert cat.total == 3624 and len(cat.orbits) == 29
    fs = [o for o in cat.orbits if full_support(o.canonical)]
    assert len(fs) == 5
    hvs = set()
    for o in fs:
        rep = o.representative
        assert krull_dim_monomial(rep.selection) == 12
        values = semigroup_hilbert(rep.selection, 7, M.ring).values
        hvs.add(h_vector(values, 12))
    assert hvs == {(1, 6, 11, 5), (1, 6, 10, 3), (1, 6, 10, 4),
                   (1, 6, 12, 7), (1, 6, 9, 4)}
    # matchings missing a variable cannot generate the full initial algebra
    for o in cat.orbits:
        if not full_support(o.canonical):
            assert krull_dim_monomial(o.representative.selection) < 12
    # paper reference for the ambient algebra, cross-checked by the
    # linear-algebra oracle in low degrees
    reference = (1, 6, 15, 10)
    sub = subalgebra_hilbert(fam, 3, diagonal_order(M))
    assert sub.values == expand_series(reference, 12, 3)
    assert reference not in hvs
    elapsed = time.monotonic() - t0
    assert elapsed < 1800
    _report(3, elapsed, "3x4 2-minors: 3624 vertices, 29 orbits, 5 full-support "
                        "orbits with the recorded h-vectors")


def test_criterion_04_unique_full_support(m33, cat33):
    M, fam, group = m33
    cat, _ = cat33
    t0 = time.monotonic()
    fs = [o for o in cat.orbits if full_support(o.canonical)]
    assert len(fs) == 1
    assert fs[0].canonical == group.canonical(
        tuple(v for row in Q_matrix(3) for v in row))
    M4 = MatrixRing(4, 4)
    mins4 = minors(3, M4)
    order = submax_lex_order(M4)
    sel = [leading_exponent(order, mi.polynomial) for mi in mins4]
    fam4 = [mi.polynomial for mi in mins4]
    m = make_matching(fam4, sel)
    assert m.exponent_sum == M4.to_flat(Q_matrix(4))
    assert full_support(m.exponent_sum)
    assert is_coherent(fam4, sel) is not None
    _report(4, time.monotonic() - t0,
            "unique full-support orbit is Q3; Q4 selection is LP-coherent")


def test_criterion_05_submaximal_minors_sagbi():
    t0 = time.monotonic()
    for m in (3, 4, 5):
        M = MatrixRing(m, m)
        order = submax_lex_order(M)
        mins = minors(m - 1, M)
        inits = [leading_exponent(order, mi.polynomial) for mi in mins]
        assert krull_dim_monomial(inits) == m * m
        fam = GeneratorFamily([mi.polynomial for mi in mins], order)
        res = sagbi_general(fam)
        assert res.status == "complete" and len(res.basis) == m * m
    _report(5, time.monotonic() - t0,
            "submaximal minors under the submax lex order: rank m^2 and "
            "SAGBI-complete with zero additions for m=3,4,5")


def test_criterion_06_g36_hilbert_series():
    t0 = time.monotonic()
    M = MatrixRing(3, 6)
    mins = minors(3, M)
    series = g36_reference()
    diag = diagonal_matching(M, mins)
    assert semigroup_hilbert(diag.selection, 5, M.ring).values == series
    # first three values independently by exact linear algebra
    sub = subalgebra_hilbert([mi.polynomial for mi in mins], 2, diagonal_order(M))
    assert sub.values == series[:3] == [1, 20, 175]
    # the all-even type-1 vertex falls short with the recorded numerator
    fam1 = structured_family(M, G36_TYPES[0]["zeros"])
    bad_flat = tuple(v for row in G36_TYPES[0]["bad"] for v in row)
    sel = find_selection(fam1, bad_flat)
    bad_values = semigroup_hilbert(sel, 5, M.ring).values
    assert bad_values == expand_series((1, 10, 19, 8), 10, 5)
    _report(6, time.monotonic() - t0,
            "Grassmannian 3x6 series values via the diagonal matching; "
            "all-even type-1 vertex gives the defective numerator")


def test_criterion_07_g36_universal():
    t0 = time.monotonic()
    report = verify_g36()
    assert {k: (v["vertices"], v["orbits"]) for k, v in report.meta.items()} == {
        "type1": (108, 5), "type2": (80, 22), "type3": (92, 24),
        "type4": (160, 6)}
    elapsed = time.monotonic() - t0
    assert elapsed < 7200
    _report(7, elapsed, "Grassmannian 3x6 universal basis: per-type counts, "
                        "all-even defectives, bracket repairs")


def test_criterion_08_a233_universal(m33, cat33):
    M, fam, group = m33
    cat, _ = cat33
    t0 = time.monotonic()
    report = verify_a233()
    # the diagonal orbit adds exactly two elements and its matching algebra
    # is a complete intersection of two quadrics
    diag_canon = group.canonical((4, 2, 0, 2, 2, 2, 0, 2, 4))
    entry = next(o for o in cat.orbits if o.canonical == diag_canon)
    rep = entry.representative
    zeros = [c for c in rep.exponent_sum if c == 0]
    assert len(zeros) == 2
    ci = expand_series((1, 0, -2, 0, 1), 9, 6)
    assert ci == expand_series((1, 2, 1), 7, 6)
    assert semigroup_hilbert(rep.selection, 6, M.ring).values == ci
    _report(8, time.monotonic() - t0,
            "3x3 universal basis: all orbits repaired with at most three "
            "determinant multiples; diagonal case is a CI of two quadrics")


def test_criterion_09_g37_sampled():
    t0 = time.monotonic()
    report = verify_g37_sampled(200, seed=SEED)
    hist = report.meta["defect_histogram"]
    assert sum(hist.values()) == 200
    assert all(h <= 3 for h in hist)
    elapsed = time.monotonic() - t0
    assert elapsed < 3600
    _report(9, elapsed, f"200 sampled 3x7 matchings: defects {hist}, all "
                        "located by even restrictions and repaired in degree 2")


def test_criterion_10_dimension_of_matchings():
    t0 = time.monotonic()
    M = MatrixRing(3, 6)
    fam = [mi.polynomial for mi in minors(3, M)]
    rng = random.Random(SEED)
    for _ in range(100):
        m = random_coherent_matching(fam, rng)
        assert krull_dim_monomial(m.selection) == 3 * (6 - 3) + 1
    big, small = B_sets(M)
    assert len(small) == 10 and krull_dim_monomial(small) == 10
    assert set(small) <= set(big)
    _report(10, time.monotonic() - t0,
            "100 random 3x6 matchings have exponent rank 10; the independent "
            "monomial set has 10 elements of full rank")


def test_criterion_11_defining_ideals():
    t0 = time.monotonic()
    from sagbikit.formats import parse_polynomial, poly_to_text
    from sagbikit.orders import degrevlex_order

    R = RingContext(["y1", "y2", "z1", "z2"])
    segre = [parse_polynomial(R, s) for s in ("y1*z1", "y1*z2", "y2*z1", "y2*z2")]
    res, _, rels = sagbi_with_relations(segre, degrevlex_order(4))
    assert len(rels.generators) == 1
    det = parse_polynomial(rels.ring, "Y1*Y4 - Y2*Y3")
    assert rels.generators[0] in (det, -det)

    def check_vs_elimination(polys, order, expected_count):
        res, _, rels = sagbi_with_relations(polys, order)
        rels = minimize_relations(rels)
        assert len(rels.generators) == expected_count
        assert verify_relations(res.basis, rels) == (True, None)
        _, elim = elimination_kernel(polys)
        po = _p0_order(rels.ring)
        gb_mine = buchberger(rels.generators, po)
        gb_elim = buchberger(elim, po)
        assert all(normal_form(g, gb_mine, po).is_zero() for g in elim)
        assert all(normal_form(g, gb_elim, po).is_zero()
                   for g in rels.generators)

    M24 = MatrixRing(2, 4)
    check_vs_elimination([mi.polynomial for mi in minors(2, M24)],
                         diagonal_order(M24), 1)
    M25 = MatrixRing(2, 5)
    check_vs_elimination([mi.polynomial for mi in minors(2, M25)],
                         diagonal_order(M25), 5)

    M33 = MatrixRing(3, 3)
    res, _, rels = sagbi_with_relations(
        [mi.polynomial for mi in minors(2, M33)], diagonal_order(M33))
    assert res.status == "complete" and rels.generators == []
    _report(11, time.monotonic() - t0,
            "defining ideals: Segre determinant, 1 and 5 Pluecker relations "
            "matching elimination, zero ideal for the 3x3 2-minors")


def test_criterion_12_property_suites():
    t0 = time.monotonic()
    import test_engine
    import test_hilbert
    import test_matchings
    import test_orders
    import test_relations

    test_orders.test_multiplicativity_ten_thousand_triples_per_kind()
    test_orders.test_zero_exponent_is_minimal()
    test_hilbert.test_hilbert_inequality_random_families()
    test_hilbert.test_semigroup_matches_brute_force_oracle()
    test_engine.test_strict_descent_on_random_subductions()
    test_engine.test_lifting_identity_for_emitted_relations()
    test_relations.test_relation_soundness_fuzz()
    test_matchings.test_is_coherent_agrees_with_hull_oracle_random()
    _report(12, time.monotonic() - t0,
            "property suites: order axioms, Hilbert inequality, subduction "
            "descent and lifting, relation soundness, brute-force and "
            "convex-hull oracle agreement")
