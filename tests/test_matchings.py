import random
import tracemalloc
from itertools import product

import pytest

from constructions import Q_matrix
from oracles import catalog_unpruned, coherent_by_hull, dfs_vertices_unpruned
from sagbikit.formats import parse_polynomial
from sagbikit.hilbert import expand_series, h_vector, krull_dim_monomial, semigroup_hilbert
from sagbikit.lp import StrictSystem
from sagbikit.matchings import (Matching, SelectionSpaceExceeded, UnpermutedSupports,
                                _catalog_from_orbits, _dfs_vertices, _diff_lists,
                                _prune_table, _pruned, _support_symmetries, _walk,
                                coherent_paths, diagonal_matching,
                                enumerate_vertices_exhaustive,
                                enumerate_vertices_random, extend_matching, first_defect,
                                full_support, is_coherent, make_matching,
                                matching_from_weight, restrict_matching,
                                sagbi_defect)
from sagbikit.minors import (CanonicalGroup, MatrixRing, determinant, full_group,
                             full_group_generators, minors, pattern_stabilizer,
                             submax_lex_order)
from sagbikit.orders import TieError, leading_exponent, weight_selects
from sagbikit.rings import Polynomial, RingContext
from sagbikit.universal import (G36_TYPES, g36_reference,
                                random_coherent_matching, structured_family)


def test_matching_from_weight_diagonal_matching():
    # geometric row-major weights realize the lex diagonal order, so every
    # minor selects its main diagonal
    M = MatrixRing(3, 3)
    fam = [mi.polynomial for mi in minors(2, M)]
    w = [3 ** (8 - k) for k in range(9)]
    m = matching_from_weight(fam, w)
    assert m.exponent_sum == (4, 2, 0, 2, 2, 2, 0, 2, 4)
    assert m.witness == w


def test_matching_from_weight_dominant_diagonal_gives_q3():
    # a weight concentrated on the main diagonal maximizes diagonal usage,
    # which is the unique full-support vertex
    M = MatrixRing(3, 3)
    fam = [mi.polynomial for mi in minors(2, M)]
    w = [0] * 9
    for i in range(3):
        w[M.cell(i, i)] = 100 + i
    m = matching_from_weight(fam, w)
    assert m.exponent_sum == M.to_flat(Q_matrix(3))


def test_matching_from_weight_table_3x4_vertex_one():
    M = MatrixRing(3, 4)
    fam = [mi.polynomial for mi in minors(2, M)]
    w1 = [1, 0, 2, 3, 3, 0, 3, 2, 0, 2, 2, 0]
    m = matching_from_weight(fam, w1)
    assert m.exponent_sum == (2, 2, 2, 6, 6, 1, 3, 2, 1, 6, 4, 1)


def test_all_ones_weight_ties_on_minors():
    M = MatrixRing(2, 2)
    with pytest.raises(TieError):
        matching_from_weight([determinant(M)], [1, 1, 1, 1])


def test_is_coherent_2x3_brute_force():
    M = MatrixRing(2, 3)
    fam = [mi.polynomial for mi in minors(2, M)]
    verdicts = []
    for sel in product(*[sorted(f.terms) for f in fam]):
        w = is_coherent(fam, sel)
        verdicts.append(w is not None)
        assert (w is not None) == coherent_by_hull(fam, sel)
    assert sum(verdicts) == 6
    bad = []
    for pairs in ([(0, 0), (1, 1)], [(0, 2), (1, 0)], [(0, 1), (1, 2)]):
        e = [0] * 6
        for i, j in pairs:
            e[M.cell(i, j)] += 1
        bad.append(tuple(e))
    assert is_coherent(fam, bad) is None


def test_is_coherent_returns_positive_integral_witness():
    M = MatrixRing(3, 4)
    fam = [mi.polynomial for mi in minors(2, M)]
    sel = matching_from_weight(fam, [1, 0, 2, 3, 3, 0, 3, 2, 0, 2, 2, 0]).selection
    w = is_coherent(fam, sel)
    assert w is not None
    assert all(isinstance(v, int) and v >= 1 for v in w)


def test_is_coherent_agrees_with_hull_oracle_random():
    rng = random.Random(22)
    done = 0
    while done < 60:
        nv = rng.randint(2, 4)
        ring = RingContext([f"x{i}" for i in range(nv)])
        fam = []
        for _ in range(rng.randint(1, 5)):
            terms = {}
            deg = rng.randint(1, 3)
            for _ in range(rng.randint(1, 3)):
                e = [0] * nv
                left = deg
                for i in range(nv - 1):
                    t = rng.randint(0, left)
                    e[i] = t
                    left -= t
                e[-1] = left
                terms[tuple(e)] = 1
            fam.append(Polynomial(ring, terms))
        sel = [sorted(f.terms)[rng.randrange(len(f.terms))] for f in fam]
        assert (is_coherent(fam, sel) is not None) == coherent_by_hull(fam, sel)
        done += 1


def test_enumerate_3x3_catalog():
    M = MatrixRing(3, 3)
    fam = [mi.polynomial for mi in minors(2, M)]
    G = full_group(3, 3)
    cat = enumerate_vertices_exhaustive(fam, G)
    assert cat.total == 102 and len(cat.orbits) == 5
    assert sum(o.size for o in cat.orbits) == cat.total
    fs = [o for o in cat.orbits if full_support(o.canonical)]
    assert len(fs) == 1
    assert fs[0].canonical == G.canonical(tuple(v for r in Q_matrix(3) for v in r))


@pytest.mark.parametrize("m, n", [(3, 3), (2, 4)])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_subtree_leaves_concatenate_to_the_serial_leaves(m, n, depth):
    # the leaves below each prefix, taken in prefix order, are the serial
    # leaves; a leaf's witness is that of a re-walk of its path from the
    # root (`_walk`), and a pruned or infeasible prefix yields no leaves
    fam = [mi.polynomial for mi in minors(2, MatrixRing(m, n))]
    nvars = fam[0].ring.nvars
    diff_lists = _diff_lists(fam)
    table = _prune_table(_support_symmetries(fam, full_group(m, n)), len(fam))
    serial = _dfs_vertices(fam, table)
    split = []
    for prefix in product(*[range(len(f.terms)) for f in fam[:depth]]):
        below = [leaf for leaf in serial if leaf[0][:depth] == prefix]
        for path, witness in below:
            assert _walk(diff_lists, nvars, path)[1] == witness
        if any(_pruned(prefix[:L], table[L]) for L in range(1, depth + 1)) or \
                _walk(diff_lists, nvars, prefix)[1] is None:
            assert below == []
        split += below
    assert split == serial
    # the pruning keeps fewer leaves than there are vertices
    assert 0 < len(serial) < enumerate_vertices_exhaustive(fam, full_group(m, n)).total


@pytest.mark.parametrize("m, n", [(3, 3), (2, 4)])
def test_coherent_paths_match_the_unpruned_oracle_walk(m, n):
    # from the zero witness and without a table the walk is the oracle's,
    # leaf for leaf in order; with the prune table it is `_dfs_vertices`
    fam = _minors_family(m, n)
    nvars = fam[0].ring.nvars
    diff_lists = _diff_lists(fam)
    term_lists = [sorted(f.terms) for f in fam]
    oracle = []
    dfs_vertices_unpruned(fam, nvars, lambda s, w: oracle.append((s, w)))
    walked = [(tuple(terms[k] for terms, k in zip(term_lists, path)), witness)
              for path, _, witness in
              coherent_paths(StrictSystem(nvars), [0] * nvars, diff_lists)]
    assert walked == oracle
    table = _prune_table(_support_symmetries(fam, full_group(m, n)), len(fam))
    pruned = [(path, witness) for path, _, witness in
              coherent_paths(StrictSystem(nvars), [0] * nvars, diff_lists, table)]
    assert pruned == _dfs_vertices(fam, table)
    assert 0 < len(pruned) < len(walked)


def _catalog_rows(catalog):
    return catalog.total, [(o.canonical, o.size, o.representative.selection,
                            o.representative.witness) for o in catalog.orbits]


def _minors_family(m, n):
    return [mi.polynomial for mi in minors(2, MatrixRing(m, n))]


def _catalog_cases():
    # (name, family, group); each group permutes its family's supports,
    # except in the last two cases
    cases = [(f"{m}x{n}", _minors_family(m, n), full_group(m, n))
             for m, n in [(3, 3), (2, 4), (2, 5), (3, 4)]]
    cases.append(("3x3+det", _minors_family(3, 3) + [determinant(MatrixRing(3, 3))],
                  full_group(3, 3)))
    M6 = MatrixRing(3, 6)
    cases += [(spec["name"], structured_family(M6, spec["zeros"]),
               pattern_stabilizer(3, 6, spec["zeros"])) for spec in G36_TYPES]
    # dropping the minor on columns 3, 4 leaves the symmetries that map
    # {3, 4} onto itself
    cases.append(("2x4-less-one", _minors_family(2, 4)[:-1], full_group(2, 4)))
    # a repeated support is matched in order, the k-th onto the k-th
    family = _minors_family(2, 4)
    cases.append(("2x4-repeat", family[:-1] + [family[0].scale(2)],
                  full_group(2, 4)))
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("name, family, group", _catalog_cases())
def test_pruned_catalog_equals_the_unpruned_walk(name, family, group):
    symmetries = _support_symmetries(family, group)
    if name.startswith("2x4-"):
        assert 1 < len(symmetries) < len(group)
    else:
        assert len(symmetries) == len(group)
    assert _catalog_rows(enumerate_vertices_exhaustive(family, group)) == \
        catalog_unpruned(family, group)


@pytest.mark.parametrize("name, family, group", [
    case for case in _catalog_cases() if case.values[2].full] + [
    pytest.param("2x2-one-row", [parse_polynomial(MatrixRing(2, 2).ring, "X11+X12")],
                  full_group(2, 2), id="2x2-one-row")])
def test_generators_decide_whether_the_group_permutes_the_family(name, family, group):
    generators = full_group_generators(group.m, group.n)
    permuted = len(_support_symmetries(family, group)) == len(group)
    assert permuted == (len(_support_symmetries(family, generators)) == len(generators))
    assert permuted == (name not in ("2x4-less-one", "2x4-repeat", "2x2-one-row"))


def test_enumerate_cap():
    M = MatrixRing(3, 3)
    fam = [mi.polynomial for mi in minors(2, M)]
    with pytest.raises(SelectionSpaceExceeded, match="selection space 512 exceeds cap 100") as err:
        enumerate_vertices_exhaustive(fam, full_group(3, 3), cap=100)
    assert isinstance(err.value, ValueError)
    assert (err.value.space, err.value.cap) == (512, 100)


def test_two_leaves_at_one_vertex_are_refused():
    # two kept leaves with one exponent sum: the expansion of their class
    # sees the second path at the first one's vertex
    R = RingContext(["x", "y"], 0)
    family = [parse_polynomial(R, "x+y")] * 2
    group = CanonicalGroup(1, 2, [(0, 1)])
    leaves = [((0, 1), [1, 0]), ((1, 0), [0, 1])]
    with pytest.raises(AssertionError, match="^two coherent matchings share a vertex$"):
        _catalog_from_orbits(family, leaves, _support_symmetries(family, group),
                             group, {})


def test_exhaustive_catalog_holds_one_orbit_at_a_time():
    # the catalog is expanded one whole-group orbit at a time, at most
    # |G| = 144 image sums at once: about 1.17 MiB traced on a first call
    # and 0.45 MiB on a later one, where one entry per vertex (3,624) read
    # 2.05 and 1.64 MiB.  Readings from Python 3.11.7; 3.10, 3.12 and 3.13
    # are unverified
    family = _minors_family(3, 4)
    group = full_group(3, 4)
    tracemalloc.start()
    try:
        catalog = enumerate_vertices_exhaustive(family, group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (catalog.total, len(catalog.orbits)) == (3624, 29)
    assert peak < 1.5 * 2 ** 20


def test_random_enumeration_agrees_on_3x3():
    M = MatrixRing(3, 3)
    fam = [mi.polynomial for mi in minors(2, M)]
    G = full_group(3, 3)
    exact = enumerate_vertices_exhaustive(fam, G)
    sampled = enumerate_vertices_random(fam, G, trials=4000, stall_limit=1500,
                                        seed=99)
    assert [o.canonical for o in sampled.orbits] == [o.canonical
                                                     for o in exact.orbits]
    assert sampled.total == exact.total
    assert sampled.meta["total_is_lower_bound"]


def test_random_enumeration_refuses_a_group_that_does_not_permute_the_supports():
    # whole-group orbit sizes would count 4 matchings; the exact total is 2
    M = MatrixRing(2, 2)
    family = [parse_polynomial(M.ring, "X11+X12")]
    assert enumerate_vertices_exhaustive(family, full_group(2, 2)).total == 2
    assert issubclass(UnpermutedSupports, ValueError)
    # the full group is tested on its generators, any other on all its maps
    for group in (full_group(2, 2), CanonicalGroup(2, 2, full_group(2, 2).index_maps)):
        with pytest.raises(UnpermutedSupports, match="does not permute the family's supports"):
            enumerate_vertices_random(family, group, trials=10, stall_limit=5, seed=1)


def test_full_support():
    assert full_support(tuple(v for row in Q_matrix(3) for v in row))
    assert not full_support((4, 2, 0, 2, 2, 2, 0, 2, 4))
    assert full_support((1,) * 9)


def test_sagbi_defect_cases():
    M = MatrixRing(3, 6)
    ref = g36_reference()
    diag = diagonal_matching(M, minors(3, M))
    assert sagbi_defect(diag, ref, 5) is None

    fam34 = [mi.polynomial for mi in minors(2, MatrixRing(3, 4))]
    w4 = [0, 1, 0, 3, 0, 3, 1, 0, 0, 0, 3, 1]
    m4 = matching_from_weight(fam34, w4)
    assert m4.exponent_sum == (3, 2, 1, 6, 3, 6, 2, 1, 3, 1, 6, 2)
    ref34 = expand_series((1, 6, 15, 10), 12, 6)
    assert sagbi_defect(m4, ref34, 6) == 2
    vals = semigroup_hilbert(m4.selection, 6, m4.family[0].ring).values
    assert h_vector(vals, 12) == (1, 6, 12, 7)


def test_first_defect_compares_up_to_the_shorter_list():
    # the matchings report counts every orbit to --kmax but its linear
    # algebra reference only to degree 3
    assert first_defect([1, 9, 45, 160, 400], [1, 9, 45, 165]) == 3
    assert first_defect([1, 9, 45, 165, 400], [1, 9, 45, 165]) is None
    assert first_defect([1, 9, 44], [1, 9, 45, 165]) == 2
    with pytest.raises(AssertionError, match="exceeds the reference"):
        first_defect([1, 9, 46], [1, 9, 45, 165])


def test_extend_matching_cases():
    M = MatrixRing(3, 3)
    fam = [mi.polynomial for mi in minors(2, M)]
    # vertex (5): the anti-diagonal-free matching has two determinant
    # extensions, conjugate to each other
    w5 = [0, 5, 3, 3, 0, 5, 5, 3, 0]
    m5 = matching_from_weight(fam, w5)
    assert m5.exponent_sum == (0, 3, 3, 3, 0, 3, 3, 3, 0)
    exts = extend_matching(m5, determinant(M))
    assert len(exts) == 2
    G = full_group(3, 3)
    assert len({G.canonical(e.exponent_sum) for e in exts}) == 1

    # extending by a polynomial whose terms live in fresh variables (and
    # are vertices of its own Newton polytope) accepts every term
    R = RingContext(["x", "y", "u", "v"])
    base = make_matching([parse_polynomial(R, "x + y")], [(1, 0, 0, 0)])
    g = parse_polynomial(R, "u + v + u*v")
    assert len(extend_matching(base, g)) == 3


def _random_homogeneous(rng, ring, degree, nterms):
    monomials = [e for e in product(range(degree + 1), repeat=ring.nvars)
                 if sum(e) == degree]
    chosen = rng.sample(monomials, min(nterms, len(monomials)))
    return Polynomial(ring, {e: rng.choice([1, -1, 2]) for e in chosen})


def test_extend_matching_agrees_with_cold_checks():
    # each term of g is tried with no witness, with one that clears its
    # differences (it must be kept as it is, where a cold LP would give
    # back the untripled one) and with one that selects another term of g
    # (an LP must decide)
    rng = random.Random(23)
    cases = cleared = refused = 0
    while cases < 30:
        R = RingContext([f"x{i}" for i in range(rng.randint(2, 4))])
        family = [_random_homogeneous(rng, R, rng.randint(1, 2), rng.randint(1, 3))
                  for _ in range(rng.randint(1, 3))]
        g = _random_homogeneous(rng, R, rng.randint(2, 3), rng.randint(2, 5))
        try:
            m = matching_from_weight(family, [rng.randint(1, 9) for _ in range(R.nvars)])
        except TieError:
            continue
        cases += 1
        cold = {t: is_coherent(family + [g], m.selection + (t,)) for t in sorted(g.terms)}
        for t, w in cold.items():
            assert (w is not None) == coherent_by_hull(family + [g], m.selection + (t,))
            others = [w2 for t2, w2 in cold.items() if t2 != t and w2 is not None]
            tripled = None if w is None else [3 * v for v in w]
            for witness in [None] + [tripled] * (w is not None) + others[:1]:
                base = make_matching(family, m.selection, witness=witness)
                exts = extend_matching(base, g, [t])
                assert len(exts) == (w is not None)
                if exts:
                    assert exts[0].selection == m.selection + (t,)
                    assert [weight_selects(f, exts[0].witness) for f in family + [g]] \
                        == list(exts[0].selection)
                if witness is tripled is not None:
                    assert exts[0].witness == tripled
                    cleared += 1
                elif witness is not None and w is None:
                    refused += 1
        assert extend_matching(m, g) == extend_matching(m, g, sorted(g.terms))
    assert cleared and refused


def test_restrict_matching_identity_and_columns():
    M = MatrixRing(3, 6)
    minor_list = minors(3, M)
    diag = diagonal_matching(M, minor_list)
    diag = make_matching(diag.family, diag.selection,
                         witness=is_coherent(diag.family, diag.selection))
    subs, same = restrict_matching(diag, minor_list, M, range(6))
    assert same.selection == diag.selection
    subs, small = restrict_matching(diag, minor_list, M, [1, 2, 3, 4])
    assert len(subs) == 4
    M4 = MatrixRing(3, 4)
    expect = diagonal_matching(M4, minors(3, M4))
    assert small.selection == expect.selection
    from sagbikit.orders import weight_selects
    for mi, s in zip(subs, small.selection):
        assert weight_selects(mi.polynomial, small.witness) == s
    # the kept cells in the submatrix's row-major order
    assert small.witness == [diag.witness[M.cell(i, j)] for i in range(3)
                             for j in (1, 2, 3, 4)]
    M7 = MatrixRing(3, 7)
    minors7 = minors(3, M7)
    sampled = random_coherent_matching([mi.polynomial for mi in minors7],
                                       random.Random(5))
    kept = (0, 2, 3, 6)
    subs, small = restrict_matching(sampled, minors7, M7, kept)
    assert len(subs) == 4
    cells = [M7.cell(i, j) for i in range(3) for j in kept]
    assert small.selection == tuple(
        tuple(s[k] for k in cells)
        for mi, s in zip(minors7, sampled.selection) if set(mi.cols) <= set(kept))


def test_matching_dimension_for_maximal_minors_2xn():
    # every coherent matching of the maximal minors spans m(n-m)+1 directions
    rng = random.Random(23)
    for n in (4, 5):
        M = MatrixRing(2, n)
        fam = [mi.polynomial for mi in minors(2, M)]
        for _ in range(20):
            w = [rng.randint(1, 10 ** 6) for _ in range(2 * n)]
            try:
                m = matching_from_weight(fam, w)
            except TieError:
                continue
            assert krull_dim_monomial(m.selection) == 2 * (n - 2) + 1


def test_q4_matching_is_coherent():
    M = MatrixRing(4, 4)
    mins = minors(3, M)
    order = submax_lex_order(M)
    sel = [leading_exponent(order, mi.polynomial) for mi in mins]
    fam = [mi.polynomial for mi in mins]
    m = make_matching(fam, sel)
    assert m.exponent_sum == M.to_flat(Q_matrix(4))
    assert full_support(m.exponent_sum)
    assert is_coherent(fam, sel) is not None
