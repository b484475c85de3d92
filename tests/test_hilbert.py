import random
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import product
from math import comb, gcd, prod
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (brute_product_values, rank_mod_p, rank_rational,
                     schur_rectangle_dim, semigroup_level_counts_unpartitioned,
                     semigroup_values_bruteforce, subalgebra_values_mod_p,
                     subalgebra_values_rational)
from sagbikit import hilbert
from sagbikit.formats import parse_polynomial
from sagbikit.hilbert import (RowSpace, expand_series, free_generators, h_vector,
                              krull_dim_monomial, lex_key, normalized_degrees,
                              semigroup_hilbert, semigroup_level_counts,
                              subalgebra_hilbert, vector_row)
from sagbikit.matchings import diagonal_matching, enumerate_vertices_exhaustive
from sagbikit.minors import MatrixRing, full_group, minors
from sagbikit.orders import degrevlex_order, leading_exponent, lex_order, weight_order
from sagbikit.rings import Polynomial, RingContext


@pytest.mark.parametrize("nvars", [1, 4, 12, 21])
@pytest.mark.parametrize("bound", [1, 2, 14])
def test_lex_key_is_the_lex_linear_key(nvars, bound):
    assert lex_key(nvars, bound) == lex_order(nvars).linear_key(bound)


def test_two_minors_3x3_degree_two_is_free():
    # nine algebraically independent generators: 45 = C(10, 2) products
    M = MatrixRing(3, 3)
    fam = [mi.polynomial for mi in minors(2, M)]
    data = subalgebra_hilbert(fam, 2)
    assert data.values == [1, 9, 45]


def test_single_monomial_algebra():
    R = RingContext(["x"])
    f = parse_polynomial(R, "x")
    assert subalgebra_hilbert([f], 5).values == [1] * 6
    assert semigroup_hilbert([(1,)], 5, R).values == [1] * 6


@pytest.mark.parametrize("order", [
    lex_order(3), degrevlex_order(3, (2, 0, 1)),
    weight_order((0, 1, 0), lex_order(3, (1, 2, 0)))], ids=["lex", "degrevlex", "weight"])
def test_polynomial_ring_has_every_monomial(order):
    # products of up to 8 variables have exponents 8 times a generator's,
    # so a packing bound that ignored k_max would merge monomials; the
    # variables are their own initial terms under every order, so the
    # semigroup of those initial terms counts the same
    R = RingContext(["x", "y", "z"])
    gens = [Polynomial.variable(R, i) for i in range(3)]
    expected = [comb(k + 2, 2) for k in range(9)]
    assert subalgebra_hilbert(gens, 8).values == expected
    inits = [leading_exponent(order, g) for g in gens]
    assert semigroup_hilbert(inits, 8, R).values == expected


def test_g36_degree_two():
    M = MatrixRing(3, 6)
    fam = [mi.polynomial for mi in minors(3, M)]
    data = subalgebra_hilbert(fam, 2)
    assert data.values == [1, 20, 175]
    assert data.values[2] == schur_rectangle_dim(3, 2, 6)


def test_diagonal_matching_semigroup_matches_subalgebra():
    # the diagonal matching generates the full initial algebra
    M = MatrixRing(3, 6)
    dm = diagonal_matching(M, minors(3, M))
    semi = semigroup_hilbert(dm.selection, 3, M.ring)
    assert semi.values == [schur_rectangle_dim(3, k, 6) for k in range(4)]


def test_inhomogeneous_generator_rejected():
    R = RingContext(["x", "y"])
    with pytest.raises(ValueError):
        subalgebra_hilbert([parse_polynomial(R, "x + y^2")], 2)


def test_krull_dim_examples():
    M = MatrixRing(3, 6)
    dm = diagonal_matching(M, minors(3, M))
    assert krull_dim_monomial(dm.selection) == 10
    assert krull_dim_monomial([(1, 0), (0, 1)]) == 2
    v1 = (2, 2, 2, 6, 6, 1, 3, 2, 1, 6, 4, 1)
    # a full-support vertex spans the whole 3x4 matrix space
    assert krull_dim_monomial([v1]) == 1
    from sagbikit.matchings import matching_from_weight
    M34 = MatrixRing(3, 4)
    fam34 = [mi.polynomial for mi in minors(2, M34)]
    w1 = [1, 0, 2, 3, 3, 0, 3, 2, 0, 2, 2, 0]
    m = matching_from_weight(fam34, w1)
    assert m.exponent_sum == v1
    assert krull_dim_monomial(m.selection) == 12


def test_h_vector_examples():
    free = [comb(k + 8, 8) for k in range(13)]
    assert h_vector(free, 9) == (1,)
    type1 = expand_series((1, 10, 19, 8), 10, 8)
    assert h_vector(type1, 10) == (1, 10, 19, 8)
    v1 = expand_series((1, 6, 11, 5), 12, 8)
    assert h_vector(v1, 12) == (1, 6, 11, 5)


def test_h_vector_truncation():
    # too few values to certify stabilization
    assert h_vector([1, 3], 2) == "truncated"
    values = expand_series((1, 2, 3, 4, 5, 6), 3, 5)
    assert h_vector(values, 3) == "truncated"


def test_h_vector_round_trip():
    rng = random.Random(13)
    for _ in range(50):
        dim = rng.randint(1, 6)
        num = tuple(rng.randint(-3, 5) for _ in range(rng.randint(1, 4)))
        k_max = len(num) + 3 + rng.randint(0, 3)
        values = expand_series(num, dim, k_max)
        hv = h_vector(values, dim)
        assert hv != "truncated"
        assert expand_series(hv, dim, k_max) == values


def test_semigroup_matches_brute_force_oracle():
    rng = random.Random(14)
    done = 0
    while done < 30:
        nv = rng.randint(2, 5)
        ring = RingContext([f"x{i}" for i in range(nv)])
        exps = []
        for _ in range(rng.randint(1, 8)):
            e = tuple(rng.randint(0, 3) for _ in range(nv))
            if any(e):
                exps.append(e)
        if not exps:
            continue
        degrees = [ring.degree(e) for e in exps]
        got = semigroup_hilbert(exps, 5, ring, grading="ambient").values
        assert got == brute_product_values(exps, degrees, 5)
        done += 1


def test_hilbert_inequality_random_families():
    # initial-monomial algebras never exceed the subalgebra dimensions
    rng = random.Random(15)
    done = 0
    while done < 12:
        nv = rng.randint(2, 4)
        ring = RingContext([f"x{i}" for i in range(nv)])
        order = degrevlex_order(nv)
        polys = []
        for _ in range(rng.randint(1, 4)):
            deg = rng.randint(1, 3)
            terms = {}
            for _ in range(rng.randint(1, 3)):
                e = [0] * nv
                left = deg
                for i in range(nv - 1):
                    take = rng.randint(0, left)
                    e[i] = take
                    left -= take
                e[-1] = left
                terms[tuple(e)] = rng.randint(1, 4)
            f = Polynomial(ring, terms)
            if not f.is_zero():
                polys.append(f)
        if not polys:
            continue
        inits = [leading_exponent(order, f) for f in polys]
        sub = subalgebra_hilbert(polys, 4, grading="ambient").values
        semi = semigroup_hilbert(inits, 4, ring, grading="ambient").values
        assert all(s <= a for s, a in zip(semi, sub))
        done += 1


def test_mixed_degree_grading_conventions():
    # generators of ambient degrees 2 and 4 have normalized degrees 1 and 2
    R = RingContext(["x", "y"])
    exps = [(2, 0), (0, 4)]
    norm = semigroup_hilbert(exps, 4, R, grading="normalized").values
    amb = semigroup_hilbert(exps, 8, R, grading="ambient").values
    assert norm == [1, 1, 2, 2, 3]
    assert amb == [1, 0, 1, 0, 2, 0, 2, 0, 3]


def test_g36_subalgebra_route_memory_peak():
    # each degree is ranked one multidegree class at a time, each class's
    # RowSpace dropped once ranked, and only products that raised their
    # class's rank are kept as sources: about 0.7 MB traced, where one
    # RowSpace per degree peaked at 7.5 MB, and storing the top degree
    # with dict pivots at 28.5 MB
    M = MatrixRing(3, 6)
    polys = [mi.polynomial for mi in minors(3, M)]
    tracemalloc.start()
    try:
        values = subalgebra_hilbert(polys, 3).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values == [1, 20, 175, 980]
    assert peak < 2_000_000


def test_g36_subalgebra_route_product_count(monkeypatch):
    # every product of at most three of the 20 maximal minors is 1,770;
    # multiplying only the sources that raised their class's rank makes
    # 1,629, and ranking the 320 one-product classes of degree 3 without
    # multiplying them out leaves 1,309
    made = []
    times = hilbert._times
    monkeypatch.setattr(hilbert, "_times", lambda *args: made.append(1) or times(*args))
    M = MatrixRing(3, 6)
    polys = [mi.polynomial for mi in minors(3, M)]
    assert subalgebra_hilbert(polys, 3).values == [1, 20, 175, 980]
    assert len(made) == 1309


def test_subalgebra_over_gf2_ranks_mod_2():
    # K[x+y, y+z, x+z] = K[x+y, y+z] in characteristic 2
    R = RingContext(["x", "y", "z"], 2)
    gens = [parse_polynomial(R, t) for t in ("x+y", "y+z", "x+z")]
    assert subalgebra_hilbert(gens, 3).values == [1, 2, 3, 4]


def _monomials_of_degree(weights, d):
    return [e for e in product(range(d + 1), repeat=len(weights))
            if sum(w * v for w, v in zip(weights, e)) == d]


def _coefficients(p):
    if p:
        return st.integers(1, p - 1)
    return st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))


@st.composite
def _homogeneous_family(draw, p):
    """Generators of mixed degrees 1-3, homogeneous for unit or 1/2 variable
    weights, with coefficients in GF(p), or fractions of either sign when
    p is 0; a grading and k_max."""
    nv = draw(st.integers(1, 3))
    weights = draw(st.sampled_from([[1] * nv, [1 + v % 2 for v in range(nv)]]))
    coeff = _coefficients(p)
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        monomial = st.sampled_from(_monomials_of_degree(weights, draw(st.integers(1, 3))))
        gens.append(draw(st.dictionaries(monomial, coeff, min_size=1, max_size=3)))
    grading = draw(st.sampled_from(["normalized", "ambient"]))
    return weights, gens, grading, draw(st.integers(0, 4))


def _degrees(weights, gens, grading):
    degrees = [sum(w * v for w, v in zip(weights, next(iter(g)))) for g in gens]
    if grading == "normalized":
        degrees = [d // reduce(gcd, degrees) for d in degrees]
    return degrees


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 5]).flatmap(
    lambda p: st.tuples(st.just(p), _homogeneous_family(p))))
def test_subalgebra_hilbert_matches_mod_p_rank_oracle(case):
    p, (weights, gens, grading, k_max) = case
    ring = RingContext([f"x{i}" for i in range(len(weights))], p, weights)
    polys = [Polynomial(ring, g) for g in gens]
    values = subalgebra_hilbert(polys, k_max, grading).values
    assert values == subalgebra_values_mod_p(gens, _degrees(weights, gens, grading),
                                             p, k_max)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_homogeneous_family(0))
def test_subalgebra_hilbert_matches_rational_rank_oracle(case):
    weights, gens, grading, k_max = case
    ring = RingContext([f"x{i}" for i in range(len(weights))], 0, weights)
    polys = [Polynomial(ring, g) for g in gens]
    values = subalgebra_hilbert(polys, k_max, grading).values
    assert values == subalgebra_values_rational(gens, _degrees(weights, gens, grading),
                                                k_max)


@st.composite
def _multigraded_family(draw, p):
    """Generators whose finest grading is neither the total degree alone
    nor every monomial its own class: minors of mixed sizes of a 2x2 to
    3x3 matrix whose cells carry random nonzero coefficients, at least one
    of them of size 2 or more; or, in 3 or 4 variables of unit or 1/2
    weights, at most nvars - 2 binomials x^a - c x^b of mixed degrees,
    at least one, beside monomials.  A grading and k_max too."""
    coeff = _coefficients(p)
    if draw(st.booleans()):
        m, n = draw(st.integers(2, 3)), draw(st.integers(2, 3))
        M = MatrixRing(m, n)
        cells = draw(st.lists(coeff, min_size=m * n, max_size=m * n))
        pool = [mi.polynomial for t in range(1, min(m, n) + 1) for mi in minors(t, M)]
        chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        chosen.append(draw(st.sampled_from([f for f in pool if len(f.terms) > 1])))
        gens = [{e: c * prod(cells[i] for i, v in enumerate(e) if v)
                 for e, c in f.terms.items()} for f in draw(st.permutations(chosen))]
        weights = [1] * (m * n)
    else:
        nv = draw(st.integers(3, 4))
        weights = draw(st.sampled_from([[1] * nv, [1 + v % 2 for v in range(nv)]]))
        gens = []
        for i in range(draw(st.integers(1, nv - 2))):
            a, b = draw(st.lists(st.sampled_from(_monomials_of_degree(weights, 1 + i % 3)),
                                 min_size=2, max_size=2, unique=True))
            gens.append({a: 1, b: draw(coeff)})
        for _ in range(draw(st.integers(0, 2))):
            monomial = st.sampled_from(_monomials_of_degree(weights, draw(st.integers(1, 3))))
            gens.append({draw(monomial): draw(coeff)})
        gens = draw(st.permutations(gens))
    grading = draw(st.sampled_from(["normalized", "ambient"]))
    return weights, gens, grading, draw(st.integers(0, 3))


def _differences(gens):
    return [[x - y for x, y in zip(t, t0)] for g in gens for t0, *rest in [list(g)]
            for t in rest]


# x^2 + y^2 and xy share a class, so z^2 alone reaches the degree-2 class
# of their multiples, with two sources, below the top degree
_SHARED_CLASS = ([1, 1, 1], [{(2, 0, 0): 1, (0, 2, 0): 1}, {(1, 1, 0): 1}, {(0, 0, 2): 1}],
                 "normalized", 4)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([0, 2, 3, 5]).flatmap(
    lambda p: st.tuples(st.just(p), _multigraded_family(p))))
@example((0, _SHARED_CLASS))
@example((3, _SHARED_CLASS))
def test_multigraded_families_match_rank_oracles(case):
    # the split into classes is neither trivial nor total on these families
    p, (weights, gens, grading, k_max) = case
    ring = RingContext([f"x{i}" for i in range(len(weights))], p, weights)
    polys = [Polynomial(ring, g) for g in gens]
    assert 1 < len(hilbert.grading_weights(polys)) < len(weights)
    values = subalgebra_hilbert(polys, k_max, grading).values
    degrees = _degrees(weights, gens, grading)
    if p:
        assert values == subalgebra_values_mod_p(gens, degrees, p, k_max)
    else:
        assert values == subalgebra_values_rational(gens, degrees, k_max)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(_multigraded_family(0), _homogeneous_family(0)))
def test_grading_weights_kill_every_difference(case):
    weights, gens, _, _ = case
    nvars = len(weights)
    ring = RingContext([f"x{i}" for i in range(nvars)], 0, weights)
    grading = hilbert.grading_weights([Polynomial(ring, g) for g in gens])
    diffs = _differences(gens)
    dense = [[w.get(i, 0) for i in range(nvars)] for w in grading]
    assert all(isinstance(v, int) for w in dense for v in w)
    assert all(sum(map(mul, w, d)) == 0 for w in dense for d in diffs)
    assert len(grading) == nvars - rank_rational(diffs) == rank_rational(dense)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([0, 2, 3, 32003]).flatmap(
    lambda p: st.tuples(st.just(p), _homogeneous_family(p))))
def test_streamed_top_level_agrees_with_stored_level(case):
    # level k is the streamed top at k_max = k and a stored source at k + 1
    p, (weights, gens, grading, _) = case
    ring = RingContext([f"x{i}" for i in range(len(weights))], p, weights)
    polys = [Polynomial(ring, g) for g in gens]
    for k in range(4):
        assert (subalgebra_hilbert(polys, k, grading).values
                == subalgebra_hilbert(polys, k + 1, grading).values[:k + 1])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([0, 2, 3, 32003]), st.lists(
    st.dictionaries(st.integers(0, 6), st.integers(-40000, 40000), max_size=5),
    min_size=1, max_size=6))
def test_row_space_leaves_the_callers_rows_unchanged(p, rows):
    space = RowSpace((), p)
    for row in rows:
        before = dict(row)
        _ = row in space
        assert row == before
        space.add(row)
        assert row == before


@st.composite
def _monomial_family(draw):
    nv = draw(st.integers(1, 4))
    weights = draw(st.sampled_from([[1] * nv, [1 + v % 2 for v in range(nv)]]))
    # degrees 1 to 3, so that k_max <= 5 reaches sums of several generators
    exponent = st.lists(st.integers(0, 2), min_size=nv, max_size=nv).filter(
        lambda e: 1 <= sum(w * v for w, v in zip(weights, e)) <= 3)
    exps = draw(st.lists(exponent.map(tuple), min_size=1, max_size=6))
    # duplicates and doubled copies make several generators reach one sum
    for i in draw(st.lists(st.integers(0, len(exps) - 1), max_size=2)):
        exps.append(draw(st.sampled_from([exps[i], tuple(2 * v for v in exps[i])])))
    grading = draw(st.sampled_from(["normalized", "ambient"]))
    return weights, exps, grading, draw(st.integers(0, 5))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_monomial_family())
def test_semigroup_hilbert_matches_bruteforce_oracle(case):
    weights, exps, grading, k_max = case
    ring = RingContext([f"x{i}" for i in range(len(weights))], 0, weights)
    values = semigroup_hilbert(exps, k_max, ring, grading).values
    assert values == semigroup_values_bruteforce(exps, weights, k_max, grading)


@st.composite
def _family_with_free_generators(draw):
    """Core generators on the first nc variables and, for each of nf more
    variables, a free generator that uses it (plus core variables), with
    weighted degrees 1-3; nc = 0 makes every generator free, and a
    duplicated generator is no longer free."""
    nc, nf = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    nv = nc + nf
    weights = draw(st.sampled_from([[1] * nv, [1 + v % 2 for v in range(nv)]]))

    def vector(own):
        cells = [st.integers(0, 2) if i < nc else st.just(0) for i in range(nv)]
        if own is not None:
            cells[own] = st.integers(1, 2)
        return st.tuples(*cells).filter(
            lambda e: 1 <= sum(w * v for w, v in zip(weights, e)) <= 3)

    exps = draw(st.lists(vector(None), max_size=4 if nc else 0))
    exps += [draw(vector(nc + i)) for i in range(nf)]
    for i in draw(st.lists(st.integers(0, len(exps) - 1), max_size=1)):
        exps.append(exps[i])
    exps = draw(st.permutations(exps))
    grading = draw(st.sampled_from(["normalized", "ambient"]))
    return weights, exps, grading, draw(st.integers(0, 5))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_family_with_free_generators())
def test_split_semigroup_hilbert_matches_bruteforce_oracle(case):
    # mixed-degree cores and free generators of degree up to 3, under both
    # gradings, so a stride of 1 or a core renormalized on its own shows
    weights, exps, grading, k_max = case
    ring = RingContext([f"x{i}" for i in range(len(weights))], 0, weights)
    values = semigroup_hilbert(exps, k_max, ring, grading).values
    assert values == semigroup_values_bruteforce(exps, weights, k_max, grading)
    rank = rank_rational(exps)
    assert free_generators(exps) == [
        j for j in range(len(exps)) if rank_rational(exps[:j] + exps[j + 1:]) < rank]


@pytest.fixture(scope="module")
def reps_3x4():
    """The selections of the 29 orbit representatives of coherent 2-minor
    matchings of a 3x4 matrix, and the matrix ring."""
    M = MatrixRing(3, 4)
    cat = enumerate_vertices_exhaustive([mi.polynomial for mi in minors(2, M)],
                                        full_group(3, 4))
    return [o.representative.selection for o in cat.orbits], M.ring


def test_split_equals_unsplit_on_3x4_representatives(reps_3x4):
    reps, ring = reps_3x4
    assert sum(1 for exps in reps if free_generators(exps)) == 22
    for exps in reps:
        degrees = normalized_degrees([ring.degree(e) for e in exps])
        assert (semigroup_hilbert(exps, 5, ring).values
                == semigroup_level_counts(exps, degrees, 5))


def test_residue_classes_equal_whole_levels_on_3x4_representatives(reps_3x4):
    # 18 generators at degree 7: the multiset bound C(24, 7) = 346,104
    # splits each level into 43 classes, except for the two
    # representatives in 9 variables, which have only C(22, 8) = 319,770
    # monomials of degree 14 and take 41
    reps, ring = reps_3x4
    assert len(reps) == 29
    for exps in reps:
        degrees = normalized_degrees([ring.degree(e) for e in exps])
        nine = sum(1 for column in zip(*exps) if any(column)) == 9
        level_bound = hilbert._level_bound(exps, degrees, 7)
        assert level_bound == (319770 if nine else 346104)
        assert hilbert._class_modulus(level_bound, 12, 15) == (41 if nine else 43)
        assert (semigroup_level_counts(exps, degrees, 7)
                == semigroup_level_counts_unpartitioned(exps, degrees, 7))


def test_residue_classes_bound_the_memory_peak(reps_3x4):
    # the first representative has no free generator, so its core is all
    # 18; holding its 107,635 degree-7 sums in one set peaked at 12.3 MiB,
    # and storing each class of a middle level as a dict at 3.78 MiB; with
    # the classes stored as lists it reads 2.33 MiB (Python 3.11.7)
    reps, ring = reps_3x4
    exps = reps[0]
    assert free_generators(exps) == []
    degrees = normalized_degrees([ring.degree(e) for e in exps])
    tracemalloc.start()
    try:
        values = semigroup_level_counts(exps, degrees, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values == semigroup_level_counts_unpartitioned(exps, degrees, 7)
    assert peak < 3 * 2 ** 20


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(_monomial_family(), _family_with_free_generators()),
       st.sampled_from([1, 2, 3, 7]))
def test_residue_classes_match_bruteforce_oracle(case, class_size):
    # a class of a few sums and no threshold on the multiset bound, so
    # that P > 1 for any packing base and small families cross classes
    weights, exps, grading, k_max = case
    ring = RingContext([f"x{i}" for i in range(len(weights))], 0, weights)
    degrees = [ring.degree(e) for e in exps]
    if grading == "normalized":
        degrees = normalized_degrees(degrees)
    expected = brute_product_values(exps, degrees, k_max)
    level_bound = hilbert._level_bound(exps, degrees, k_max)
    assert level_bound >= expected[k_max]
    base = 2 * max(map(max, exps)) * max(k_max, 1) + 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hilbert, "_CLASS_SIZE", class_size)
        mp.setattr(hilbert, "_CLASSES_FROM", 0)
        assert hilbert._class_modulus(level_bound, len(weights), base) > 1
        assert semigroup_level_counts(exps, degrees, k_max) == expected
        assert semigroup_hilbert(exps, k_max, ring, grading).values == expected
    assert semigroup_level_counts_unpartitioned(exps, degrees, k_max) == expected


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_monomial_family(), st.sampled_from([1, 3]))
def test_stored_semigroup_level_agrees_with_counted_top(case, class_size):
    # level k is the counted top at k_max = k and a stored class list read
    # back by prefix at k + 1; many classes make the prefixes cross classes
    weights, exps, grading, _ = case
    ring = RingContext([f"x{i}" for i in range(len(weights))], 0, weights)
    degrees = [ring.degree(e) for e in exps]
    if grading == "normalized":
        degrees = normalized_degrees(degrees)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hilbert, "_CLASS_SIZE", class_size)
        mp.setattr(hilbert, "_CLASSES_FROM", 0)
        for k in range(5):
            assert (semigroup_level_counts(exps, degrees, k)
                    == semigroup_level_counts(exps, degrees, k + 1)[:k + 1])


@pytest.mark.parametrize("bound, nvars, base, P", [
    (346104, 12, 15, 43),     # 346,104 // 2^13 = 42 is not prime
    (1140, 12, 7, 1),         # below the bound
    (8347680, 12, 15, 1019),  # 8,347,680 // 2^13 = 1,019 is prime
    (8347680, 12, 3057, 1021),  # but divides the packing base 3 * 1,019
    (75582, 6, 23, 13),       # 23 = 1 mod 11: the residue is the total degree
    (75582, 9, 23, 17),       # 23^6 = 1 mod 13: digits 6 apart weigh alike
    (10 ** 6, 4, 1, 1),       # a base of 1 has no residue to split by
])
def test_class_modulus_is_a_prime_the_base_spreads_over(bound, nvars, base, P):
    assert hilbert._class_modulus(bound, nvars, base) == P


def _monomials(nvars, degree):
    return sorted(e for e in product(range(degree + 1), repeat=nvars) if sum(e) == degree)


def test_few_variables_bound_the_classes():
    # 21 quintics in 3 variables at degree 30: C(50, 30) multisets, but
    # only C(152, 2) = 11,476 monomials of degree 150, so one class
    exps = _monomials(3, 5)
    assert len(exps) == 21 and hilbert._level_bound(exps, [1] * 21, 30) == 11476
    values = semigroup_level_counts(exps, [1] * 21, 30)
    assert values == semigroup_level_counts_unpartitioned(exps, [1] * 21, 30)
    assert values[30] == 11476
    # 21 quadrics in 6 variables: C(35, 5) monomials of degree 30 at
    # degree 15, C(29, 5) of degree 24 at degree 12
    exps = _monomials(6, 2)
    assert hilbert._level_bound(exps, [1] * 21, 15) == comb(35, 5)
    assert hilbert._class_modulus(comb(35, 5), 6, 61) == 41
    level_bound = hilbert._level_bound(exps, [1] * 21, 12)
    assert level_bound == comb(29, 5) and hilbert._class_modulus(level_bound, 6, 49) > 1
    values = semigroup_level_counts(exps, [1] * 21, 12)
    assert values == semigroup_level_counts_unpartitioned(exps, [1] * 21, 12)
    assert values[12] == comb(29, 5)


def test_exponent_vectors_of_another_length_rejected():
    # truncated to the ring's two variables, (1, 0) and (1, 0, 1) would collide
    R = RingContext(["x", "y"])
    with pytest.raises(ValueError, match="exponent vector length mismatch"):
        semigroup_hilbert([(1, 0), (1, 0, 1)], 3, R)
    with pytest.raises(ValueError, match="exponent vector length mismatch"):
        semigroup_hilbert([(1,)], 3, R)


def test_negative_k_max_rejected():
    R = RingContext(["x", "y"])
    with pytest.raises(ValueError, match="k_max must be nonnegative, got -1"):
        semigroup_hilbert([(1, 0)], -1, R)
    with pytest.raises(ValueError, match="k_max must be nonnegative, got -1"):
        subalgebra_hilbert([parse_polynomial(R, "x")], -1)


def test_both_routes_refuse_a_constant_generator_with_one_message():
    R = RingContext(["x", "y"])
    with pytest.raises(ValueError) as semigroup:
        semigroup_hilbert([(1, 0), (0, 0)], 3, R)
    with pytest.raises(ValueError) as subalgebra:
        subalgebra_hilbert([parse_polynomial(R, g) for g in ("x", "2")], 3)
    assert str(semigroup.value) == str(subalgebra.value) == "constant generator"


def test_both_routes_refuse_an_unknown_grading_with_one_message():
    # a misspelt grading was read as ambient: the 2-minors of 2x3 counted
    # 1, 0, 3, 0 in place of 1, 3, 6, 10
    M = MatrixRing(2, 3)
    polys = [mi.polynomial for mi in minors(2, M)]
    assert subalgebra_hilbert(polys, 3).values == [1, 3, 6, 10]
    with pytest.raises(ValueError) as semigroup:
        semigroup_hilbert([(1, 0, 0, 0, 1, 0)], 3, M.ring, "normalised")
    with pytest.raises(ValueError) as subalgebra:
        subalgebra_hilbert(polys, 3, "normalised")
    assert str(semigroup.value) == str(subalgebra.value) == "unknown grading 'normalised'"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([0, 2, 3, 5]), st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=5),
    st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    st.lists(st.integers(-2, 2), min_size=5, max_size=5),
    st.booleans())))
def test_row_span_membership_matches_rational_rank(p, data):
    # over GF(p) the rows are residues, and the oracle is the mod-p rank
    rows, v, coeffs, inside = data
    if inside:  # an integer combination of the rows
        v = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(len(v))]
    if p:
        rows = [[x % p for x in r] for r in rows]
        v = [x % p for x in v]
        rank = lambda m: rank_mod_p(m, p)
    else:
        rank = rank_rational
    space = RowSpace(map(vector_row, rows), p)
    assert len(space) == rank(rows)
    assert (vector_row(v) in space) == (rank(rows + [v]) == rank(rows))
    if inside:
        assert vector_row(v) in space
    assert space.add(vector_row(v)) == (rank(rows + [v]) > rank(rows))
    assert len(space) == rank(rows + [v])


def test_row_space_reads_zero_entries_and_unreduced_residues():
    assert {0: 1} in RowSpace([{1: 0, 0: 1}])
    assert RowSpace([{1: 0, 0: 1}]).pivots == {0: (1, [0], [1])}
    assert {1: 3} in RowSpace([{0: 1}], p=3)
    assert RowSpace([{1: 3, 0: 1}], p=3).pivots == {0: (1, [0], [1])}
    assert RowSpace([{0: 2, 1: 1}], p=2).pivots == {1: (1, [1], [1])}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([0, 2, 3, 5]), st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-7, 7), min_size=n, max_size=n), max_size=5),
    st.lists(st.integers(-7, 7), min_size=n, max_size=n),
    st.lists(st.integers(-2, 2), min_size=5, max_size=5),
    st.booleans())))
def test_row_span_membership_with_explicit_zeros_and_unreduced_entries(p, data):
    # every position is a key, zeros included, and over GF(p) the entries
    # are not reduced; the rows are read as the vectors they stand for
    rows, v, coeffs, inside = data
    if inside:
        v = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(len(v))]
    rank = (lambda m: rank_mod_p(m, p)) if p else rank_rational
    space = RowSpace((dict(enumerate(r)) for r in rows), p)
    assert len(space) == rank(rows)
    for lead, (b, keys, vals) in space.pivots.items():
        assert lead == max(keys) and b == vals[keys.index(lead)]
        assert all(vals) and (not p or all(0 < x < p for x in vals))
    assert (dict(enumerate(v)) in space) == (rank(rows + [v]) == rank(rows))
    if inside:
        assert dict(enumerate(v)) in space
    space.add(dict(enumerate(v)))
    assert len(space) == rank(rows + [v])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(any),
             min_size=1, max_size=5),
    st.sampled_from(["normalized", "ambient"]))))
def test_semigroup_packing_at_the_exponent_bound(data):
    # with k_max 0 or 1 the digit bound is the largest exponent itself,
    # so a generator that reaches it fills its digit exactly
    exps, grading = data
    exps = [tuple(e) for e in exps]
    top = max(map(max, exps))
    exps.append(tuple(top if i == 0 else 0 for i in range(len(exps[0]))))
    ring = RingContext([f"x{i}" for i in range(len(exps[0]))])
    weights = [1] * len(exps[0])
    for k_max in (0, 1):
        assert (semigroup_hilbert(exps, k_max, ring, grading).values
                == semigroup_values_bruteforce(exps, weights, k_max, grading))
