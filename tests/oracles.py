"""Independent oracles used by the test suite.

Each oracle takes a route disjoint from the implementation it checks:
dimension counts come from the hook content formula, product counts and
semigroup Hilbert values from exhaustive multiset enumeration, coherence
from a Caratheodory search for zero in the convex hull of difference
vectors, determinants from cofactor expansion, and subalgebra Hilbert
values from the rank over Q or GF(p) of a dense coefficient matrix of
products expanded here, and Groebner bases from Buchberger's algorithm
on tuple exponents with no pair criterion at all.  Strict feasibility
verdicts are checked against a cold phase-1 simplex that builds a fresh
tableau and pivots from the artificial basis on every call, and vertex
catalogs against the walk of every selection, with no symmetry pruning,
folded by canonical form leaf by leaf.  The graded toric kernel is
checked against the same elimination with its S-pairs taken in the
all-ones grading, in which its inputs are not homogeneous.  Defining
ideals are checked against elimination by a Groebner basis of the graph
ideal, factorizations of a monomial into initials against every
multiplicity vector that fits inside it, SAGBI completeness up to a
degree against a comparison of Hilbert values, and the transport of a bracket element against a scan of every
row and column permutation pair.  One interreduction pass over a single
reducer is checked against a fresh `normal_form` call per generator,
each packing all the others again.  Semigroup level counts taken one
residue class at a time are checked against the same level loop with
each level held whole.
"""
from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement, islice, permutations
from itertools import product
from math import gcd

_BLAND_AFTER = 200
_MAX_PIVOTS = 50000


def schur_rectangle_dim(m: int, k: int, n: int) -> int:
    """Dimension of the degree-k part of the Pluecker coordinate ring of
    m-spaces in n-space: semistandard tableaux of rectangular shape
    m x k with entries at most n (hook content formula)."""
    if k == 0:
        return 1
    num = 1
    den = 1
    for i in range(1, m + 1):
        for j in range(1, k + 1):
            num *= n + j - i
            den *= (k - j) + (m - i) + 1
    assert num % den == 0
    return num // den


def brute_product_values(exps: list[tuple[int, ...]], degrees: list[int],
                         k_max: int) -> list[int]:
    """Count distinct sums of exponent multisets per total degree by
    exhaustive enumeration (small instances only)."""
    values = [1] + [0] * k_max
    for k in range(1, k_max + 1):
        seen = set()
        max_count = k // min(degrees)
        for count in range(1, max_count + 1):
            for combo in combinations_with_replacement(range(len(exps)), count):
                if sum(degrees[i] for i in combo) != k:
                    continue
                total = [0] * len(exps[0])
                for i in combo:
                    for j, v in enumerate(exps[i]):
                        total[j] += v
                seen.add(tuple(total))
        values[k] = len(seen)
    return values


def semigroup_values_bruteforce(exps: list[tuple[int, ...]], weights: list[int],
                                k_max: int, grading: str = "normalized") -> list[int]:
    """H(k) of the monomial algebra generated by x^e for e in exps.  A
    generator's degree is its weights-weighted exponent sum, divided by
    the gcd of all of them under the normalized grading."""
    degrees = [sum(w * v for w, v in zip(weights, e)) for e in exps]
    if grading == "normalized":
        g = reduce(gcd, degrees)
        degrees = [d // g for d in degrees]
    return brute_product_values(exps, degrees, k_max)


def semigroup_level_counts_unpartitioned(exps: list[tuple[int, ...]], degrees: list[int],
                                         k_max: int) -> list[int]:
    """The semigroup level counts by a route independent of
    `hilbert.semigroup_level_counts`: no residue classes and no lists,
    each level, the top one too, held whole as one dict of lex-packed
    sums in least-generating-index (mu) order with prefix counts per
    generator."""
    bound = max(map(max, exps)) * max(k_max, 1)
    n = len(exps[0])
    key = [(2 * bound + 1) ** (n - 1 - i) for i in range(n)]
    packed = [(sum(c * v for c, v in zip(key, e)), d) for e, d in zip(exps, degrees)]
    levels = [({0: None}, [1] * len(packed))]
    values = [1]
    for k in range(1, k_max + 1):
        level: dict[int, None] = {}
        ends: list[int] = []
        for j, (g, d) in enumerate(packed):
            if d <= k:
                src, src_ends = levels[k - d]
                level.update(dict.fromkeys(g + s for s in islice(src, src_ends[j])))
            ends.append(len(level))
        levels.append((level, ends))
        values.append(len(level))
    return values


def strict_feasible_cold(diffs, nvars: int):
    """Integer w with w . d >= 1 for every d in diffs, or None if infeasible.

    diffs: iterable of integer tuples of length nvars.
    """
    seen = set()
    cols = []
    for d in diffs:
        if len(d) != nvars:
            raise ValueError("difference vector length mismatch")
        t = tuple(d)
        if not any(t):
            return None
        if t not in seen:
            seen.add(t)
            cols.append(t)
    if not cols:
        return [0] * nvars

    m = len(cols)
    nrows = nvars + 1
    # tableau rows 0..nvars: constraints [y columns | artificials | rhs]
    # last row: reduced costs of the phase-1 objective (min sum of artificials)
    T = []
    for i in range(nvars):
        row = [d[i] for d in cols]
        row += [0] * nrows
        row[m + i] = 1
        row.append(0)
        T.append(row)
    row = [1] * m + [0] * nrows + [1]
    row[m + nvars] = 1
    T.append(row)
    obj = [-sum(T[i][j] for i in range(nrows)) for j in range(m)]
    obj += [0] * nrows + [-1]
    T.append(obj)

    basis = list(range(m, m + nrows))
    den = 1
    ncols = m + nrows + 1
    rhs = ncols - 1
    objrow = T[nrows]

    pivots = 0
    while True:
        # entering column: most negative reduced cost, Bland once degenerate
        # cycling becomes a risk
        q = -1
        if pivots < _BLAND_AFTER:
            best = 0
            for j in range(ncols - 1):
                v = objrow[j]
                if v < best:
                    best = v
                    q = j
        else:
            for j in range(ncols - 1):
                if objrow[j] < 0:
                    q = j
                    break
        if q < 0:
            break
        # ratio test on rows with positive pivot column entry
        p = -1
        pn = pd = 0
        for i in range(nrows):
            tq = T[i][q]
            if tq > 0:
                bi = T[i][rhs]
                if p < 0 or bi * pd < pn * tq or (bi * pd == pn * tq
                                                  and basis[i] < basis[p]):
                    p, pn, pd = i, bi, tq
        if p < 0:
            raise RuntimeError("phase-1 objective unbounded; invalid input")
        piv = T[p][q]
        Tp = T[p]
        if den == 1:
            for i in range(nrows + 1):
                if i == p:
                    continue
                Ti = T[i]
                tq = Ti[q]
                if tq:
                    T[i] = [a * piv - tq * b for a, b in zip(Ti, Tp)]
                else:
                    T[i] = [a * piv for a in Ti]
        else:
            for i in range(nrows + 1):
                if i == p:
                    continue
                Ti = T[i]
                tq = Ti[q]
                if tq:
                    T[i] = [(a * piv - tq * b) // den for a, b in zip(Ti, Tp)]
                else:
                    T[i] = [a * piv // den for a in Ti]
        den = piv
        basis[p] = q
        objrow = T[nrows]
        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise RuntimeError("simplex pivot limit exceeded")

    # objective value z* = -objrow[rhs] / den; zero means 0 lies in the
    # convex hull of the d's, i.e. the strict system has no solution
    if objrow[rhs] == 0:
        return None

    # dual multipliers give the witness: w_i = objrow[artificial i] - den
    w = [objrow[m + i] - den for i in range(nvars)]
    g = 0
    for v in w:
        g = gcd(g, v)
    if g > 1:
        w = [v // g for v in w]
    for d in cols:
        if sum(a * b for a, b in zip(w, d)) < 1:
            raise AssertionError("witness verification failed")
    return w


def _solve_convex_zero(ds: list[tuple[int, ...]]) -> bool:
    """True when 0 is a convex combination of the given vectors
    (Caratheodory: scan affinely independent subsets of size <= dim+1)."""
    n = len(ds[0])
    m = len(ds)
    for size in range(1, min(m, n + 1) + 1):
        for sub in combinations(range(m), size):
            rows = [[Fraction(ds[i][r]) for i in sub] for r in range(n)]
            rows.append([Fraction(1)] * size)
            rhs = [Fraction(0)] * n + [Fraction(1)]
            aug = [rows[r] + [rhs[r]] for r in range(n + 1)]
            piv = 0
            for c in range(size):
                sel = None
                for r in range(piv, n + 1):
                    if aug[r][c]:
                        sel = r
                        break
                if sel is None:
                    continue
                aug[piv], aug[sel] = aug[sel], aug[piv]
                pv = aug[piv][c]
                aug[piv] = [x / pv for x in aug[piv]]
                for r in range(n + 1):
                    if r != piv and aug[r][c]:
                        f = aug[r][c]
                        aug[r] = [x - f * y for x, y in zip(aug[r], aug[piv])]
                piv += 1
            if piv < size:
                continue
            if any(aug[r][size] for r in range(piv, n + 1)):
                continue
            y = [aug[i][size] for i in range(size)]
            if all(v >= 0 for v in y):
                return True
    return False


def coherent_by_hull(family, selection) -> bool:
    """Coherence decided by convex-hull membership of the difference set."""
    ds = []
    for f, s in zip(family, selection):
        for u in f.terms:
            if u != s:
                ds.append(tuple(a - b for a, b in zip(s, u)))
    if not ds:
        return True
    if any(not any(d) for d in ds):
        return False
    return not _solve_convex_zero(ds)


def find_selection(family, target: tuple[int, ...]) -> tuple:
    """Recover the unique term selection summing to a vertex exponent
    vector (vertices of Minkowski sums decompose uniquely)."""
    terms = [sorted(f.terms) for f in family]
    chosen = []

    def rec(idx, remaining):
        if idx == len(terms):
            return not any(remaining)
        for t in terms[idx]:
            if all(a <= b for a, b in zip(t, remaining)):
                chosen.append(t)
                if rec(idx + 1, tuple(b - a for a, b in zip(t, remaining))):
                    return True
                chosen.pop()
        return False

    if not rec(0, tuple(target)):
        raise ValueError("no selection sums to the target vertex")
    return tuple(chosen)


def factor_by_enumeration(initials: list[tuple[int, ...]],
                          target: tuple[int, ...]) -> list[int] | None:
    """The lexicographically smallest non-decreasing index sequence whose
    initials sum to target, or None: every multiplicity vector that fits
    inside target is tried, with no search order and no memo."""
    bounds = [min(t // a for a, t in zip(e, target) if a) for e in initials]
    best = None
    for mults in product(*(range(b + 1) for b in bounds)):
        if all(sum(k * e[i] for k, e in zip(mults, initials)) == t
               for i, t in enumerate(target)):
            seq = [u for u, k in enumerate(mults) for _ in range(k)]
            if best is None or seq < best:
                best = seq
    return best


def cofactor_det(rows: list[list[int]]) -> int:
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j in range(len(rows)):
        sub = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(sub)
    return total


def _multiply(f: dict, g: dict, p: int = 0) -> dict:
    """Product of polynomials given as dicts exponent -> coefficient,
    reduced mod p when p is nonzero."""
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    if p:
        out = {e: c % p for e, c in out.items()}
    return {e: c for e, c in out.items() if c}


def _product_matrices(gens: list[dict], degrees: list[int], k_max: int, p: int = 0):
    """For k = 1..k_max, the dense coefficient rows of all products of
    generator multisets of degree k (mod p when p is nonzero)."""
    for k in range(1, k_max + 1):
        products = []
        for count in range(1, k // min(degrees) + 1):
            for combo in combinations_with_replacement(range(len(gens)), count):
                if sum(degrees[i] for i in combo) != k:
                    continue
                prod = gens[combo[0]]
                for i in combo[1:]:
                    prod = _multiply(prod, gens[i], p)
                products.append(prod)
        support = sorted({e for prod in products for e in prod})
        yield [[prod.get(e, 0) for e in support] for prod in products]


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) of a dense integer matrix (row reduction)."""
    rows = [[v % p for v in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def rank_rational(rows: list[list]) -> int:
    """Rank over Q of a dense matrix of Fractions or ints (row reduction)."""
    rows = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                f = rows[r][col] / pr[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], pr)]
        rank += 1
    return rank


def subalgebra_values_mod_p(gens: list[dict], degrees: list[int], p: int,
                            k_max: int) -> list[int]:
    """H(k) of the GF(p)-algebra generated by gens (dicts exponent -> int):
    the mod-p rank of all products of generator multisets of degree k."""
    return [1] + [rank_mod_p(rows, p) if rows else 0
                  for rows in _product_matrices(gens, degrees, k_max, p)]


def subalgebra_values_rational(gens: list[dict], degrees: list[int],
                               k_max: int) -> list[int]:
    """H(k) of the Q-algebra generated by gens (dicts exponent -> Fraction
    or int): the rank over Q of all products of generator multisets of
    degree k."""
    return [1] + [rank_rational(rows) if rows else 0
                  for rows in _product_matrices(gens, degrees, k_max)]


def divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def lcm_exponent(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


def _monic(f: dict, key, p: int) -> dict:
    c = f[max(f, key=key)]
    inv = pow(c, -1, p) if p else 1 / Fraction(c)
    return {e: v * inv % p if p else v * inv for e, v in f.items()}


def _remainder(f: dict, basis: list[dict], key, p: int) -> dict:
    """Full remainder of f (a dict exponent -> coefficient) by monic
    polynomials, each leading term divided by the first lead dividing it."""
    reducers = [(max(g, key=key), g) for g in basis]
    f = dict(f)
    rem = {}
    while f:
        lead = max(f, key=key)
        c = f.pop(lead)
        for lg, g in reducers:
            if divides(lg, lead):
                for e, gc in g.items():
                    if e != lg:
                        te = tuple(a + b - d for a, b, d in zip(e, lead, lg))
                        v = f.get(te, 0) - c * gc
                        v = v % p if p else v
                        if v:
                            f[te] = v
                        else:
                            f.pop(te, None)
                break
        else:
            rem[lead] = c
    return rem


def buchberger_all_pairs(gens: list[dict], key, p: int = 0) -> list[dict]:
    """Reduced monic Groebner basis over Q (p = 0) or GF(p), ascending in
    the lead, by Buchberger's algorithm reducing every pair of elements
    (no Gebauer-Moeller criteria; small inputs only)."""
    basis = [_monic(g, key, p) for g in gens if g]
    leads = [max(g, key=key) for g in basis]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        # normal selection: the pair of least lcm
        i, j = min(pairs, key=lambda ij: (sum(lcm_exponent(leads[ij[0]], leads[ij[1]])),
                                          key(lcm_exponent(leads[ij[0]], leads[ij[1]]))))
        pairs.remove((i, j))
        L = lcm_exponent(leads[i], leads[j])
        s: dict = {}
        for g, lg, sign in ((basis[i], leads[i], 1), (basis[j], leads[j], -1)):
            for e, c in g.items():
                te = tuple(a + b - d for a, b, d in zip(e, L, lg))
                v = s.get(te, 0) + sign * c
                s[te] = v % p if p else v
        r = _remainder({e: c for e, c in s.items() if c}, basis, key, p)
        if r:
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append(_monic(r, key, p))
            leads.append(max(r, key=key))
    keep = [g for i, g in enumerate(basis)
            if not any(j != i and divides(leads[j], leads[i]) and (leads[j] != leads[i] or j < i)
                       for j in range(len(basis)))]
    out = [_remainder(g, keep[:i] + keep[i + 1:], key, p) for i, g in enumerate(keep)]
    return sorted(out, key=lambda g: key(max(g, key=key)))


def minimize_by_rerun(gens: list[dict], key, p: int = 0,
                      groebner=buchberger_all_pairs) -> list[dict]:
    """Greedy minimal generators of an ideal given ascending in degree:
    a generator is dropped when it reduces to zero against a Groebner
    basis of the kept ones, recomputed from scratch by groebner(kept, key,
    p) after each kept one.  Kept generators come out monic."""
    kept: list[dict] = []
    basis: list[dict] = []
    for g in gens:
        if basis and not _remainder(g, basis, key, p):
            continue
        kept.append(_monic(g, key, p))
        basis = groebner(kept, key, p)
    return kept


def dfs_vertices_unpruned(family, nvars, on_leaf):
    """Depth-first walk of all selections with exact feasibility verdicts."""
    from sagbikit.lp import StrictSystem
    from sagbikit.matchings import certify, term_diffs
    term_lists = [sorted(f.terms) for f in family]
    diff_lists = [[term_diffs(f, t) for t in terms]
                  for f, terms in zip(family, term_lists)]
    sel: list[tuple[int, ...]] = []

    def descend(level, system, witness):
        if level == len(family):
            on_leaf(tuple(sel), list(witness))
            return
        for t, new_diffs in zip(term_lists[level], diff_lists[level]):
            child, w = certify(system, new_diffs, witness)
            if w is None:
                continue
            sel.append(t)
            descend(level + 1, child, w)
            sel.pop()

    # the zero witness clears no difference, so the first step is solved
    descend(0, StrictSystem(nvars), [0] * nvars)


def catalog_unpruned(family, group):
    """(total, rows) of the vertex catalog from the walk of every
    selection: one row (canonical, size, selection, witness) per orbit in
    canonical order, represented by its smallest exponent sum."""
    leaves = []
    dfs_vertices_unpruned(family, family[0].ring.nvars,
                          lambda s, w: leaves.append((s, w)))
    orbits: dict = {}
    seen_sums = set()
    for selection, witness in leaves:
        esum = tuple(map(sum, zip(*selection)))
        if esum in seen_sums:
            raise AssertionError("two coherent matchings share a vertex")
        seen_sums.add(esum)
        canon = group.canonical(esum)
        size, best = orbits.get(canon, (0, None))
        if best is None or esum < best[0]:
            best = (esum, selection, witness)
        orbits[canon] = (size + 1, best)
    rows = [(c, orbits[c][0], orbits[c][1][1], orbits[c][1][2]) for c in sorted(orbits)]
    return len(leaves), rows


def toric_kernel_ungraded(monomials, ring):
    """`groebner.toric_kernel` by its elimination basis without a grading:
    the same block order (X first) and reduced basis, with S-pairs taken
    by lcm degree in the all-ones grading on the nx + p variables, so the
    inputs Y_u - X^{m_u} are not homogeneous and no degree truncation
    applies.  The X-free part is sorted and minimized as there."""
    from sagbikit.groebner import Binomial, _BinomialBasis
    from sagbikit.orders import degrevlex_order, weight_order
    monomials = [tuple(m) for m in monomials]
    nx, p = ring.nvars, len(monomials)
    basis = _BinomialBasis(weight_order((1,) * nx + (0,) * p, degrevlex_order(nx + p)),
                           (1,) * (nx + p))
    for u, m in enumerate(monomials):
        basis.add(Binomial(m + (0,) * p, (0,) * (nx + u) + (1,) + (0,) * (p - u - 1)))
    basis.complete()
    weights = [ring.degree(m) for m in monomials]
    out = sorted((Binomial(lead[nx:], trail[nx:]) for lead, trail in basis.reduced()
                  if not any(lead[:nx])),
                 key=lambda b: (b.degree(weights), b.plus, b.minus))
    return _BinomialBasis(degrevlex_order(p), weights).minimal_generators(out)


def is_sagbi_up_to(family, k_max: int, grading: str = "normalized"):
    """Smallest degree where the initial-monomial algebra falls short, or None."""
    from sagbikit.hilbert import semigroup_hilbert, subalgebra_hilbert
    if not family.is_homogeneous():
        raise ValueError("Hilbert comparison needs homogeneous generators")
    sub = subalgebra_hilbert(family.members, k_max, grading)
    semi = semigroup_hilbert(family.initials, k_max, family.ring, grading)
    for k in range(k_max + 1):
        if semi.values[k] != sub.values[k]:
            return k
    return None


def elimination_kernel(polys, tag_prefix: str = "Y"):
    """Ker(Y_u -> f_u) by elimination; the independent cross-check route."""
    from sagbikit.groebner import buchberger
    from sagbikit.hilbert import normalized_degrees
    from sagbikit.orders import degrevlex_order, weight_order
    from sagbikit.rings import Polynomial, RingContext
    if not polys:
        raise ValueError("empty generator list")
    ring = polys[0].ring
    nx, p = ring.nvars, len(polys)
    degrees = [f.degree() for f in polys]
    tags = tuple(f"{tag_prefix}{u + 1}" for u in range(p))
    combined = RingContext(tuple(f"x{i}" for i in range(nx)) + tags, ring.characteristic,
                           ring.grading + tuple(degrees))
    order = weight_order((1,) * nx + (0,) * p, degrevlex_order(nx + p))
    # Y_u - f_u, where f_u has no Y term
    gens = [Polynomial(combined, {(0,) * (nx + u) + (1,) + (0,) * (p - u - 1): 1,
                                  **{e + (0,) * p: ring.coeff(-c) for e, c in f.terms.items()}})
            for u, f in enumerate(polys)]
    p0 = RingContext(tags, ring.characteristic, normalized_degrees(degrees))
    return p0, [Polynomial(p0, {e[nx:]: c for e, c in f.terms.items()})
                for f in buchberger(gens, order) if not any(any(e[:nx]) for e in f.terms)]


def interreduce_by_normal_forms(polys, order):
    """One pass of reducing each generator against all the others."""
    from sagbikit.groebner import normal_form
    out = list(polys)
    for i in range(len(out)):
        others = [g for j, g in enumerate(out) if j != i and not g.is_zero()]
        if others:
            out[i] = normal_form(out[i], others, order)
    return [g for g in out if not g.is_zero()]


def transport_bracket_tuple_brute(bad_rep, target_matrix, g_tuple, col_labels):
    """`universal.transport_bracket_tuple` by scanning every row and column
    permutation pair of a 3 x 6 matrix, cell by cell, in lexicographic
    order."""
    m, n = 3, 6
    target = tuple(tuple(r) for r in target_matrix)
    for rp in permutations(range(m)):
        for cp in permutations(range(n)):
            ok = True
            for i in range(m):
                for j in range(n):
                    if bad_rep[i][j] != target[rp[i]][cp[j]]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return tuple(col_labels[cp[c - 1]] + 1 for c in g_tuple)
    return None
