"""Hilbert functions of subalgebras and of monomial (semigroup) algebras.

Two independent routes: exact linear algebra on products of generators
(subalgebra route) and deduplicated semigroup enumeration (monomial
route).  Degrees can be taken ambient or normalized, where normalized
means the ambient degree divided by the gcd of the generator degrees.

The monomial route builds the sums level by level.  Each sum t carries
the index mu(t): the least j such that t is a sum of generators 0..j
only.  A sum of level k with mu = j is s + g_j for some s of level
k - d_j with mu(s) <= j (drop one g_j from a representation whose
largest index is j), so each generator extends only the sums whose mu
is at most its own index, and the first generator to reach a sum is
its mu.  This is exact for every degree vector and both gradings.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import comb, gcd
from typing import Iterable, Literal, Sequence

from .orders import MonomialOrder
from .rings import Polynomial, RingContext

Grading = Literal["normalized", "ambient"]

def _pack_all(exps: list[tuple[int, ...]], k_max: int) -> list[int]:
    """Pack exponent vectors into ints, one digit per variable.

    The digit width is chosen so that sums of up to k_max generators
    never carry between digits; vector addition is then int addition.
    """
    bound = max(max(e) for e in exps) * max(k_max, 1) + 1
    shift = max(4, bound.bit_length())
    packed = []
    for exp in exps:
        v = 0
        for e in reversed(exp):
            v = (v << shift) | e
        packed.append(v)
    return packed


@dataclass
class HilbertData:
    values: list[int]
    dim: int | None = None
    numerator: tuple[int, ...] | str | None = None
    grading: Grading = "normalized"


def normalized_degrees(degrees: Sequence[int]) -> tuple[list[int], int]:
    """Degrees divided by their gcd, plus the gcd itself."""
    g = 0
    for d in degrees:
        g = gcd(g, d)
    if g == 0:
        raise ValueError("constant generator has no degree")
    return [d // g for d in degrees], g


def semigroup_hilbert(exps: Iterable[tuple[int, ...]], k_max: int,
                      ring: RingContext,
                      grading: Grading = "normalized") -> HilbertData:
    """H(K[T], k) = number of distinct degree-k sums of the given exponents.

    A level is a flat list of packed sums ordered by mu (the least
    generator index that reaches the sum, see the module docstring) with
    prefix counts ends[j] = number of sums with mu <= j.  Generator j
    extends the prefix src[:ends[j]] of level k - d_j; what the level has
    not seen yet has mu = j and is appended.  The last level is only
    counted, and a level more than max(degrees) below the current one is
    dropped.
    """
    exps = [tuple(e) for e in exps]
    if not exps:
        raise ValueError("empty exponent list")
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    degrees = [ring.degree(e) for e in exps]
    if any(d < 1 for d in degrees):
        raise ValueError("constant monomial in generator list")
    if grading == "normalized":
        degrees, _ = normalized_degrees(degrees)
    packed = list(zip(_pack_all(exps, k_max), degrees))
    d_max = max(degrees)
    # level 0 holds the empty sum, which every generator may extend
    levels: list[tuple[list[int], list[int]] | None] = [([0], [1] * len(packed))]
    values = [1]
    for k in range(1, k_max + 1):
        if k > d_max:
            levels[k - d_max - 1] = None
        seen: set[int] = set()
        if k == k_max:
            for j, (g, d) in enumerate(packed):
                if d <= k:
                    src, src_ends = levels[k - d]
                    seen.update(map(g.__add__, islice(src, src_ends[j])))
            values.append(len(seen))
            break
        flat: list[int] = []
        ends: list[int] = []
        for j, (g, d) in enumerate(packed):
            if d <= k:
                src, src_ends = levels[k - d]
                fresh = set(map(g.__add__, islice(src, src_ends[j]))) - seen
                seen.update(fresh)
                flat.extend(fresh)
            ends.append(len(flat))
        levels.append((flat, ends))
        values.append(len(flat))
    return HilbertData(values=values, dim=krull_dim_monomial(exps),
                       grading=grading)


def krull_dim_monomial(exps: Iterable[tuple[int, ...]]) -> int:
    """Rank of the exponent vectors over the rationals."""
    rows = [list(e) for e in exps]
    if not rows:
        raise ValueError("empty exponent list")
    ncols = len(rows[0])
    rank = 0
    col = 0
    while col < ncols and rank < len(rows):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        pv = pr[col]
        for r in range(rank + 1, len(rows)):
            v = rows[r][col]
            if v:
                row = rows[r]
                rows[r] = [a * pv - v * b for a, b in zip(row, pr)]
        rank += 1
        col += 1
    return rank


def _product_rows(polys: list[Polynomial], degrees: list[int], k: int):
    """Expanded products of generators whose degrees sum to k."""
    rows = []

    def rec(idx: int, remaining: int, acc: Polynomial | None):
        if remaining == 0:
            rows.append(acc)
            return
        if idx == len(polys):
            return
        rec(idx + 1, remaining, acc)
        d = degrees[idx]
        prod = acc
        used = 0
        while remaining - d * (used + 1) >= 0:
            used += 1
            prod = polys[idx] if prod is None else prod * polys[idx]
            rec(idx + 1, remaining - d * used, prod)

    rec(0, k, None)
    return rows


def subalgebra_hilbert(polys: Sequence[Polynomial], k_max: int,
                       order: MonomialOrder,
                       grading: Grading = "normalized") -> HilbertData:
    """H(K[F], k) by Gaussian elimination on degree-k products of generators.

    Rows are reduced in order-descending leading monomial so each new
    pivot is an initial monomial of the subalgebra.  The elimination runs
    in the generators' own field, Q or GF(p).
    """
    polys = list(polys)
    if not polys:
        raise ValueError("empty generator list")
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    ring = polys[0].ring
    for f in polys:
        if f.is_zero() or not f.is_homogeneous():
            raise ValueError("generators must be nonzero and homogeneous")
    degrees = [f.degree() for f in polys]
    if any(d < 1 for d in degrees):
        raise ValueError("constant generator")
    if grading == "normalized":
        degrees, _ = normalized_degrees(degrees)
    values = [1]
    key = order.key
    p = ring.characteristic
    for k in range(1, k_max + 1):
        rows = _product_rows(polys, degrees, k)
        rows.sort(key=lambda f: key(max(f.terms, key=key)), reverse=True)
        pivots: dict[tuple[int, ...], dict] = {}
        rank = 0
        for f in rows:
            row = dict(f.terms)
            while row:
                lead = max(row, key=key)
                piv = pivots.get(lead)
                if piv is None:
                    inv = ring.cinv(row[lead])
                    pivots[lead] = {e: ring.cmul(c, inv) for e, c in row.items()}
                    rank += 1
                    break
                factor = row[lead]
                for e, c in piv.items():
                    v = row.get(e, 0) - factor * c
                    if p:
                        v %= p
                    if v:
                        row[e] = v
                    else:
                        row.pop(e, None)
        values.append(rank)
    return HilbertData(values=values, grading=grading)


def h_vector(values: Sequence[int], dim: int) -> tuple[int, ...] | str:
    """Numerator of the Hilbert series over (1-z)^dim.

    Returns "truncated" unless at least the last three computed
    numerator coefficients vanish, which signals stabilization.
    """
    kmax = len(values) - 1
    coeffs = []
    for j in range(kmax + 1):
        c = 0
        for i in range(min(j, dim) + 1):
            c += (-1) ** i * comb(dim, i) * values[j - i]
        coeffs.append(c)
    tail = min(3, kmax)
    if kmax < 3 or any(coeffs[-i] != 0 for i in range(1, tail + 1)):
        return "truncated"
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return (0,)
    return tuple(coeffs)


def expand_series(numerator: Sequence[int], dim: int, k_max: int) -> list[int]:
    """Coefficients of (sum numerator_j z^j) / (1-z)^dim up to degree k_max."""
    out = []
    for k in range(k_max + 1):
        v = 0
        for j, h in enumerate(numerator):
            if j <= k:
                v += h * comb(k - j + dim - 1, dim - 1)
        out.append(v)
    return out
