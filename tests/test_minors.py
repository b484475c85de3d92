import random
from itertools import permutations

import pytest

from constructions import (B_sets, GroupElement, Q_matrix, act, compose,
                           delta_multiples, matching_col_sum, matching_row_sum,
                           of_orbit, shape_products)
from oracles import cofactor_det
from sagbikit.hilbert import krull_dim_monomial
from sagbikit.matchings import matching_from_weight
from sagbikit.minors import (CanonicalGroup, MatrixRing, bracket, determinant,
                             diagonal_order, full_group, full_group_generators,
                             minor_polynomial, minors, pattern_stabilizer,
                             submax_lex_order)
from sagbikit.orders import leading_exponent
from sagbikit.rings import Polynomial


def test_minor_counts():
    assert len(minors(2, MatrixRing(2, 3))) == 3
    assert len(minors(3, MatrixRing(3, 6))) == 20
    assert len(minors(2, MatrixRing(3, 3))) == 9
    with pytest.raises(ValueError):
        minors(3, MatrixRing(2, 4))


def test_minor_terms_and_signs():
    M = MatrixRing(3, 3)
    d = determinant(M)
    assert len(d) == 6
    diag = tuple(1 if i % 4 == 0 else 0 for i in range(9))
    assert d.terms[diag] == 1


def test_leibniz_matches_cofactor_oracle():
    rng = random.Random(18)
    for size in range(2, 6):
        M = MatrixRing(size, size)
        poly = determinant(M)
        for _ in range(5):
            values = [[rng.randint(-4, 4) for _ in range(size)]
                      for _ in range(size)]
            total = 0
            for e, c in poly.terms.items():
                prod = c
                for i in range(size):
                    for j in range(size):
                        prod *= values[i][j] ** e[M.cell(i, j)]
                total += prod
            assert total == cofactor_det(values)


def test_diagonal_order_leads_with_diagonals_everywhere():
    M = MatrixRing(3, 6)
    order = diagonal_order(M)
    for mi in minors(3, M):
        e = leading_exponent(order, mi.polynomial)
        expected = [0] * 18
        for r, c in zip(mi.rows, mi.cols):
            expected[M.cell(r, c)] = 1
        assert e == tuple(expected)
    one_minors = minors(1, M)
    for mi in one_minors:
        assert len(mi.polynomial) == 1


def test_submax_order_initials():
    M = MatrixRing(3, 3)
    order = submax_lex_order(M)
    # minor omitting row i and column j leads with X_ji * prod X_kk / X_ii X_jj
    def mu(i, j):
        rows = tuple(r for r in range(3) if r != i)
        cols = tuple(c for c in range(3) if c != j)
        return minor_polynomial(M, rows, cols)

    e11 = leading_exponent(order, mu(0, 0))
    expected = [0] * 9
    expected[M.cell(1, 1)] = expected[M.cell(2, 2)] = 1
    assert e11 == tuple(expected)

    e12 = leading_exponent(order, mu(0, 1))
    expected = [0] * 9
    expected[M.cell(1, 0)] = expected[M.cell(2, 2)] = 1
    assert e12 == tuple(expected)

    total = [0] * 9
    for i in range(3):
        for j in range(3):
            for k, v in enumerate(leading_exponent(order, mu(i, j))):
                total[k] += v
    assert tuple(total) == M.to_flat(Q_matrix(3))


def test_submax_diagonal_product_identity():
    # the product of the initials of the diagonal-omitting minors is the
    # (m-1)st power of the main diagonal
    for m in (3, 4):
        M = MatrixRing(m, m)
        order = submax_lex_order(M)
        total = [0] * (m * m)
        for i in range(m):
            rows = tuple(r for r in range(m) if r != i)
            e = leading_exponent(order, minor_polynomial(M, rows, rows))
            for k, v in enumerate(e):
                total[k] += v
        expected = [0] * (m * m)
        for k in range(m):
            expected[M.cell(k, k)] = m - 1
        assert total == expected


def test_q_matrix():
    assert Q_matrix(2) == ((1, 1), (1, 1))
    assert Q_matrix(3) == ((4, 1, 1), (1, 4, 1), (1, 1, 4))
    assert Q_matrix(4) == tuple(tuple(8 * (i == j) + 1 for j in range(4))
                                for i in range(4))
    with pytest.raises(ValueError):
        Q_matrix(1)


def test_b_sets():
    big, small = B_sets(MatrixRing(1, 2))
    assert sorted(big) == [(0, 1), (1, 0)]
    _, small23 = B_sets(MatrixRing(2, 3))
    assert len(small23) == 3
    big36, small36 = B_sets(MatrixRing(3, 6))
    assert len(small36) == 10
    assert krull_dim_monomial(small36) == 10
    assert set(small36) <= set(big36)


def test_of_orbit_counts_and_terms():
    orb = of_orbit(6)
    assert len(orb) == 15
    assert all(len(f) == 48 for f in orb)
    M = MatrixRing(3, 6)
    f = (bracket(M, (0, 1, 2)) * bracket(M, (3, 4, 5))
         - bracket(M, (0, 1, 3)) * bracket(M, (2, 4, 5)))
    assert any(g == f or g == -f for g in orb)
    with pytest.raises(ValueError):
        of_orbit(5)


def test_bracket_is_signed_by_column_order():
    M = MatrixRing(3, 5)
    for cols in permutations(range(5), 3):
        inversions = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:])
        f = minor_polynomial(M, range(3), sorted(cols))
        assert bracket(M, cols) == (-f if inversions % 2 else f)
    with pytest.raises(ValueError):
        bracket(M, (0, 1, 1))
    with pytest.raises(ValueError):
        bracket(M, (0, 1))


def test_of_orbit_seven_columns():
    assert len(of_orbit(7)) == 105


def test_delta_multiples():
    M = MatrixRing(3, 3)
    out = delta_multiples(M)
    assert len(out) == 9
    assert all(len(f) == 6 for f in out)
    assert all(f.is_homogeneous() and f.degree() == 4 for f in out)
    with pytest.raises(ValueError):
        delta_multiples(MatrixRing(2, 3))


def test_group_action_and_composition():
    rng = random.Random(19)
    for _ in range(100):
        m = n = 3
        def rand_elem():
            rp = list(range(m))
            cp = list(range(n))
            rng.shuffle(rp)
            rng.shuffle(cp)
            return GroupElement(tuple(rp), tuple(cp), rng.random() < 0.5)
        g, h = rand_elem(), rand_elem()
        E = tuple(tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(m))
        assert act(compose(g, h), E) == act(g, act(h, E))
    ident = GroupElement((0, 1, 2), (0, 1, 2), False)
    q3 = Q_matrix(3)
    assert act(ident, q3) == q3
    swap = GroupElement((1, 0, 2), (1, 0, 2), False)
    assert act(swap, q3) == q3


def test_transpose_requires_square():
    g = GroupElement((0, 1, 2), (0, 1, 2, 3), True)
    with pytest.raises(ValueError):
        act(g, tuple(tuple(0 for _ in range(4)) for _ in range(3)))


def _full_group_elements(m, n):
    """The elements of full_group(m, n) in its map order: row permutation,
    then column permutation, then transpose."""
    return [GroupElement(rp, cp, t) for rp in permutations(range(m))
            for cp in permutations(range(n)) for t in ((False, True) if m == n else (False,))]


@pytest.mark.parametrize("m, n", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3), (3, 4)])
def test_full_group_index_maps_act_as_group_elements(m, n):
    # distinct entries, so equal images mean equal maps
    rng = random.Random(46 + 10 * m + n)
    E = tuple(zip(*[iter(rng.sample(range(100), m * n))] * n))
    flat = tuple(v for row in E for v in row)
    G = full_group(m, n)
    elements = _full_group_elements(m, n)
    assert len(G) == len(elements) == len(G.index_maps)
    for idx, g in zip(G.index_maps, elements):
        assert tuple(flat[i] for i in idx) == tuple(v for row in act(g, E) for v in row)
    rows, cols = tuple(range(m)), tuple(range(n))
    generators = [GroupElement(rows[1::-1] + rows[2:], cols),
                  GroupElement(rows[1:] + rows[:1], cols),
                  GroupElement(rows, cols[1::-1] + cols[2:]),
                  GroupElement(rows, cols[1:] + cols[:1])]
    generators += [GroupElement(rows, cols, True)] if m == n else []
    images = [tuple(v for row in act(g, E) for v in row) for g in generators]
    assert [tuple(flat[i] for i in idx)
            for idx in full_group_generators(m, n).index_maps] == images


def test_full_group_keeps_equal_maps():
    # on a 1x1 matrix the transpose is the identity: two equal maps, and
    # every orbit has one element
    G = full_group(1, 1)
    assert G.index_maps == [(0,), (0,)] and len(G) == 2
    assert G.orbit_size((5,)) == 1


def test_canonical_form_constant_on_orbits_and_idempotent():
    rng = random.Random(20)
    G = full_group(3, 3)
    elements = _full_group_elements(3, 3)
    for _ in range(50):
        E = tuple(tuple(rng.randint(0, 5) for _ in range(3)) for _ in range(3))
        flat = tuple(v for row in E for v in row)
        canon = G.canonical(flat)
        assert G.canonical(canon) == canon
        for idx in rng.sample(range(len(G)), 10):
            g = elements[idx]
            assert G.canonical(tuple(v for row in act(g, E) for v in row)) == canon
        assert canon in G.orbit(flat)


def test_full_group_sorting_route_matches_index_map_minimum():
    # the same elements without the full flag take the minimum over all
    # index maps, as pattern stabilizers do
    rng = random.Random(44)
    shapes = [(m, n) for m in range(1, 5) for n in range(1, 5)] + [(2, 5)]
    for m, n in shapes:
        G = full_group(m, n)
        oracle = CanonicalGroup(m, n, G.index_maps)
        for top in (1, 2, 5):
            for _ in range(12):
                flat = tuple(rng.randint(0, top) for _ in range(m * n))
                assert G.canonical(flat) == oracle.canonical(flat) == min(G.orbit(flat))


@pytest.mark.parametrize("m, n", [(1, 3), (2, 2), (3, 3), (2, 4), (3, 4)])
def test_full_group_generators_generate_the_full_group(m, n):
    gens = full_group_generators(m, n).index_maps
    reached = set(gens)
    frontier = reached
    while frontier:
        frontier = {tuple(h[i] for i in g) for g in frontier for h in gens} - reached
        reached |= frontier
    assert reached == set(full_group(m, n).index_maps)


def test_transpose_of_vertex_two_stays_in_orbit():
    G = full_group(3, 3)
    v2 = ((4, 2, 0), (2, 1, 3), (0, 3, 3))
    t = tuple(v2[j][i] for i in range(3) for j in range(3))
    assert G.canonical(t) == G.canonical(tuple(v for row in v2 for v in row))


def test_pattern_stabilizer_orders():
    zeros1 = {(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)}
    assert len(pattern_stabilizer(3, 6, zeros1)) == 36
    zeros4 = {(0, 0), (0, 1), (1, 2), (1, 3), (2, 4), (2, 5)}
    assert len(pattern_stabilizer(3, 6, zeros4)) == 48


def test_matching_magic_sums():
    rng = random.Random(21)
    for (t, m, n) in ((2, 3, 3), (2, 3, 4), (3, 3, 5)):
        M = MatrixRing(m, n)
        fam = [mi.polynomial for mi in minors(t, M)]
        for _ in range(5):
            w = [rng.randint(1, 10 ** 6) for _ in range(m * n)]
            try:
                match = matching_from_weight(fam, w)
            except Exception:
                continue
            grid = M.to_matrix(match.exponent_sum)
            assert all(sum(row) == matching_row_sum(t, m, n) for row in grid)
            for j in range(n):
                assert sum(grid[i][j] for i in range(m)) == matching_col_sum(t, m, n)


def test_shape_products_for_4x4():
    # the generator shapes for the 3-minor algebra of a 4x4 matrix
    M = MatrixRing(4, 4)
    assert len(shape_products(M, (3,))) == 16
    assert len(shape_products(M, (4, 2))) == 36
    assert len(shape_products(M, (4, 4, 1))) == 16
    assert all(f.is_homogeneous() for f in shape_products(M, (4, 2)))
    with pytest.raises(ValueError):
        shape_products(MatrixRing(2, 2), (3,))


def test_orbit_sizes_match_group_theory():
    G = full_group(3, 3)
    v5 = (0, 3, 3, 3, 0, 3, 3, 3, 0)
    assert G.orbit_size(v5) == 6
    d5 = (0, 4, 3, 3, 0, 4, 4, 3, 0)
    assert G.orbit_size(d5) == 12


def test_full_group_orbit_size_is_order_over_stabilizer():
    # the orbit set is the oracle; small entries repeat columns and make
    # square matrices symmetric often enough to give large stabilizers
    rng = random.Random(45)
    stabilized = 0
    for m, n in [(1, 1), (1, 4), (2, 2), (2, 3), (3, 3), (3, 4), (2, 5), (4, 4)]:
        G = full_group(m, n)
        for top in (0, 1, 2, 5):
            for _ in range(8):
                flat = tuple(rng.randint(0, top) for _ in range(m * n))
                if rng.random() < 0.3 and m == n:
                    flat = tuple(flat[min(i, j) * n + max(i, j)]
                                 for i in range(m) for j in range(n))
                size = len(G.orbit(flat))
                assert G.orbit_size(flat) == size
                stabilized += size < len(G)
    assert stabilized > 50
