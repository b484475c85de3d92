"""Independent oracles used by the test suite.

Each oracle takes a route disjoint from the implementation it checks:
dimension counts come from the hook content formula, product counts from
exhaustive multiset enumeration, coherence from a Caratheodory search
for zero in the convex hull of difference vectors, determinants from
cofactor expansion, and subalgebra Hilbert values over GF(p) from the
mod-p rank of a dense coefficient matrix.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement


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


def cofactor_det(rows: list[list[int]]) -> int:
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j in range(len(rows)):
        sub = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(sub)
    return total


def _multiply_mod_p(f: dict, g: dict, p: int) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = (out.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


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


def subalgebra_values_mod_p(gens: list[dict], degrees: list[int], p: int,
                            k_max: int) -> list[int]:
    """H(k) of the GF(p)-algebra generated by gens (dicts exponent -> int):
    the mod-p rank of all products of generator multisets of degree k."""
    values = [1]
    for k in range(1, k_max + 1):
        products = []
        for count in range(1, k // min(degrees) + 1):
            for combo in combinations_with_replacement(range(len(gens)), count):
                if sum(degrees[i] for i in combo) != k:
                    continue
                prod = gens[combo[0]]
                for i in combo[1:]:
                    prod = _multiply_mod_p(prod, gens[i], p)
                products.append(prod)
        support = sorted({e for prod in products for e in prod})
        rows = [[prod.get(e, 0) for e in support] for prod in products]
        values.append(rank_mod_p(rows, p) if rows else 0)
    return values
