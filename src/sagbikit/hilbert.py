"""Hilbert functions of subalgebras and of monomial (semigroup) algebras.

Two independent routes: exact linear algebra on products of generators
(subalgebra route) and deduplicated semigroup enumeration (monomial
route).  Degrees can be taken ambient or normalized, where normalized
means the ambient degree divided by the gcd of the generator degrees.

The monomial route first splits off the free generators: those outside
the rational span of the others.  A free generator g makes the
semigroup a direct sum S = S' + N g of the semigroup S' of the other
generators and the multiples of g.  The sum is direct because
a + m g = a' + m' g with a, a' in S' and m != m' would put
(m - m') g = a' - a, and so g, in the span of the others.  Degrees are
linear in the exponents, so H_S(k) = sum_i H_S'(k - i d_g), the running
sum H_S(k) = H_S'(k) + H_S(k - d_g), where d_g is g's degree in the
family's own grading (normalized over the whole family, never over S'
alone).  Only the core, the dependent generators, is enumerated; an
all-free family has the core count 1, 0, 0, ...

The core is built level by level.  Each sum t carries the index mu(t):
the least j such that t is a sum of generators 0..j only.  A sum of
level k with mu = j is s + g_j for some s of level k - d_j with
mu(s) <= j (drop one g_j from a representation whose largest index is
j), so each generator extends only the sums whose mu is at most its own
index, and the first generator to reach a sum is its mu.  This is exact
for every degree vector and both gradings.
A sum is one integer: exponent vectors are packed by the lex order's
linear key with a digit bound b that no sum of at most k_max generators
exceeds, so adding vectors adds integers.  For lex that key is the
closed form c_i = (2b + 1)^(n - 1 - i) (`lex_key`), equal to
`MonomialOrder.linear_key` of `lex_order(n)` without building its rows.

Each level is split into the P residue classes of its packed sums
modulo a prime P.  The packing is linear, so the classes are additive:
class(g + s) = class(g) + class(s) mod P.  Equal sums fall into one
class, so each class is deduplicated on its own, and class r of level k
is made from class (r - g_j) mod P of level k - d_j by generator j, with
the least-index rule unchanged inside it.  Only each generator's class
is ever computed.  The top level is counted one class at a time and
never stored whole, so the largest set alive is one class, not a level.
P is chosen once per call, for a few thousand sums per class, from an
estimate of the top level's size: the smaller of the multiset bound
C(n + k_max - 1, k_max) and the number of monomials the sums can be,
which is far smaller for many generators in few variables.  The residue
of a packed sum is sum_i x_i base^(n - 1 - i) mod P, base = 2b + 1, so
P must not divide the base (the residue would see only the last digit),
and base^t must not be 1 mod P for any t < n: digits t apart would get
equal weights, and for t = 1 the residue would be the sum's total
degree, one value on a whole level of an equal-degree family.  Below a
fixed bound P is 1: the whole level is one class, and the loop is the
unsplit one.

The subalgebra route packs every exponent vector into one integer by
the order's linear key, so multiplying monomials adds keys and the
leading monomial of a row is its largest key.  Its coefficients are
ints: over Q the generators are cleared of denominators and rows are
eliminated fraction-free, over GF(p) they are residues.  Its products
are built level by level with the same least-index rule applied to
multisets of generators: a product whose largest factor index is j is
a product of level k - d_j with largest index at most j, times g_j.
Each product goes into its level's `RowSpace` as it is made; only the
levels below k_max are kept, as sources, and the top one is never stored.

`RowSpace` is the one exact row space: sparse integer rows over Q or
GF(p), keyed by packed monomial or by position, each pivot kept as
(lead coefficient, keys, values) with flat lists.  It takes the subalgebra
route's ranks, the rank of exponent vectors (`krull_dim_monomial`), the
relations among them (`free_generators`) and span membership tests.
"""
from __future__ import annotations

from itertools import islice
from math import comb, gcd, lcm
from operator import mul
from typing import Iterable, Literal, NamedTuple, Sequence

from .orders import MonomialOrder
from .rings import Polynomial, RingContext, _is_prime

Grading = Literal["normalized", "ambient"]

# `semigroup_level_counts` aims at this many sums per residue class, and
# keeps one class while the multiset bound on its top level is below
# _CLASSES_FROM, where per-class bookkeeping costs more than it saves
_CLASS_SIZE = 1 << 13
_CLASSES_FROM = 1 << 16


class HilbertData(NamedTuple):
    values: list[int]


def normalized_degrees(degrees: Sequence[int]) -> list[int]:
    """Degrees divided by their gcd."""
    g = gcd(*degrees)
    if g == 0:
        raise ValueError("constant generator has no degree")
    return [d // g for d in degrees]


def _grading_degrees(degrees: list[int], k_max: int, grading: Grading) -> list[int]:
    """The generator degrees both routes count in, after the checks they
    share: k_max nonnegative and no generator of degree 0."""
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    if any(d < 1 for d in degrees):
        raise ValueError("constant generator")
    return normalized_degrees(degrees) if grading == "normalized" else degrees


def lex_key(nvars: int, bound: int) -> tuple[int, ...]:
    """The lex linear key for exponents with entries at most bound: digits
    in base 2 * bound + 1, the first variable most significant."""
    base = 2 * bound + 1
    return tuple(base ** (nvars - 1 - i) for i in range(nvars))


def semigroup_hilbert(exps: Iterable[tuple[int, ...]], k_max: int,
                      ring: RingContext,
                      grading: Grading = "normalized") -> HilbertData:
    """H(K[T], k) = number of distinct degree-k sums of the given exponents.

    Degrees are taken once, over the whole family.  The generators outside
    the rational span of the others (`free_generators`) are split off: the
    rest, the core, is enumerated by `semigroup_level_counts` with those
    same degrees, and each free generator of degree d is folded back in by
    the running sum H(k) += H(k - d) (see the module docstring).  Below
    k_max 4 the levels are so small that the elimination finding the free
    generators costs more than it saves (measured on the 3x4 2-minor and
    the sampled G(3,7) matchings), so no split is made.
    """
    exps = [tuple(e) for e in exps]
    if not exps:
        raise ValueError("empty exponent list")
    if any(len(e) != ring.nvars for e in exps):
        raise ValueError("exponent vector length mismatch")
    degrees = _grading_degrees([ring.degree(e) for e in exps], k_max, grading)
    free = set(free_generators(exps)) if k_max >= 4 else set()
    core = [j for j in range(len(exps)) if j not in free]
    if core:
        values = semigroup_level_counts([exps[j] for j in core],
                                        [degrees[j] for j in core], k_max)
    else:
        values = [1] + [0] * k_max
    for j in free:
        d = degrees[j]
        for k in range(d, k_max + 1):
            values[k] += values[k - d]
    return HilbertData(values=values)


def free_generators(exps: Sequence[tuple[int, ...]]) -> list[int]:
    """Indices of the exponent vectors outside the rational span of the others.

    Each vector is augmented by its own unit vector, keyed below every
    exponent position, and the rows are eliminated in `RowSpace`.  A
    pivot whose lead falls in the unit part has no exponent part left, so
    it is a relation among the vectors; these pivots are a basis of all
    relations.  A vector is free exactly when no basis relation involves it.
    """
    m = len(exps)
    space = RowSpace({**{m + i: v for i, v in enumerate(e) if v}, j: 1}
                     for j, e in enumerate(exps))
    dependent = set()
    for lead, (_, keys, _) in space.pivots.items():
        if lead < m:
            dependent.update(keys)
    return [j for j in range(m) if j not in dependent]


def _level_bound(exps: Sequence[tuple[int, ...]], degrees: Sequence[int],
                 k_max: int) -> int:
    """An estimate of the number of sums in level k_max: the smaller of the
    multiset bound C(n + k_max - 1, k_max) and the number of monomials the
    sums can be.  A sum of degree k_max is a monomial in the v variables
    the generators use, of total degree at most T = max_j t_j k_max / d_j,
    t_j and d_j generator j's total degree and degree: C(T + v, v) of
    them.  When t_j / d_j is one ratio, as for an equal-degree family, the
    sums of a level all have total T: C(T + v - 1, v - 1) of them.  Below
    _CLASSES_FROM the multiset bound alone decides P = 1, so the
    monomials are not counted."""
    multisets = comb(len(exps) + k_max - 1, k_max)
    if multisets < _CLASSES_FROM:
        return multisets
    totals = [sum(e) for e in exps]
    v = sum(1 for column in zip(*exps) if any(column))
    top = max(t * k_max // d for t, d in zip(totals, degrees))
    if all(t * degrees[0] == totals[0] * d for t, d in zip(totals, degrees)):
        monomials = comb(top + v - 1, v - 1)
    else:
        monomials = comb(top + v, v)
    return min(multisets, monomials)


def _class_modulus(bound: int, nvars: int, base: int) -> int:
    """The number P of residue classes `semigroup_level_counts` splits a
    level into: 1 while the estimate `bound` of the top level's size is
    below _CLASSES_FROM, else the least prime P >= bound / _CLASS_SIZE
    that does not divide the packing base and modulo which base has
    order at least nvars (see the module docstring).  A base of 1, from
    all-zero exponents, has no such P."""
    if bound < _CLASSES_FROM or base < 2:
        return 1
    p = max(2, bound // _CLASS_SIZE)
    while (not _is_prime(p) or base % p == 0
           or any(pow(base, t, p) == 1 for t in range(1, nvars))):
        p += 1
    return p


def semigroup_level_counts(exps: Sequence[tuple[int, ...]], degrees: Sequence[int],
                           k_max: int) -> list[int]:
    """Distinct sums of each degree 0..k_max, by the least-index level loop
    run on one residue class of the packed sums modulo P at a time.

    The packing is linear, so class(g + s) = class(g) + class(s) mod P:
    equal sums share a class, and class r of level k is made only from
    class (r - g_j) mod P of level k - d_j by generator j.  Each class of a
    middle level is a dict of packed sums whose insertion order lists them
    by mu (the least generator index that reaches the sum, see the module
    docstring), with prefix counts ends[j] = number of its sums with
    mu <= j.  Generator j extends the first ends[j] sums of its source
    class; the dict keeps only the sums the class has not seen, which have
    mu = j.  A level is built class by class, so one small dict grows at a
    time; the last level is only counted, one class at a time, and a level
    more than max(degrees) below the current one is dropped.  Each
    generator's class is taken once; no sum's residue is computed.  P is
    chosen by `_class_modulus` from `_level_bound`; with P = 1 the whole
    level is one class.
    `semigroup_hilbert` runs this on its core; run on a whole family it is
    the unsplit count.
    """
    bound = max(map(max, exps)) * max(k_max, 1)
    key = lex_key(len(exps[0]), bound)
    P = _class_modulus(_level_bound(exps, degrees, k_max), len(key), 2 * bound + 1)
    packed = [(g := sum(map(mul, key, e)), d, g % P) for e, d in zip(exps, degrees)]
    d_max = max(degrees)
    # level 0 holds the empty sum, in class 0, which every generator may extend
    levels: list[list[tuple[dict[int, None], list[int]]] | None] = [
        [({0: None}, [1] * len(packed))] + [({}, [0] * len(packed))] * (P - 1)]
    values = [1]
    for k in range(1, k_max + 1):
        if k > d_max:
            levels[k - d_max - 1] = None
        if k == k_max:
            # one set per class; the one-item list names generator j's source class
            values.append(sum(len({g + s for j, (g, d, c) in enumerate(packed) if d <= k
                                   for src, src_ends in [levels[k - d][(r - c) % P]]
                                   for s in islice(src, src_ends[j])})
                              for r in range(P)))
            break
        level = []
        for r in range(P):
            sums: dict[int, None] = {}
            ends: list[int] = []
            for j, (g, d, c) in enumerate(packed):
                if d <= k:
                    src, src_ends = levels[k - d][(r - c) % P]
                    if n := src_ends[j]:
                        sums.update({g + s: None for s in islice(src, n)})
                ends.append(len(sums))
            level.append((sums, ends))
        levels.append(level)
        values.append(sum(len(sums) for sums, _ in level))
    return values


def vector_row(vector: Iterable[int]) -> dict[int, int]:
    """A dense integer vector as a sparse row keyed by position."""
    return {i: v for i, v in enumerate(vector) if v}


class RowSpace:
    """The span of sparse rows (dicts key -> int) over Q or GF(p).

    A row is read through a copy of its nonzero entries, reduced mod p
    over GF(p), and reduced by the pivot at its largest key until that
    key has no pivot.  Over Q the entries stay ints: each step is the
    fraction-free b * row - a * pivot with gcd(a, b) taken out, and a new
    pivot is divided by its content; over GF(p) a new pivot is made
    monic.  A pivot is kept under its lead as (lead coefficient, keys,
    values), keys and values flat lists: small tuples, once freed, stay
    parked on the interpreter's free lists.  Pivots have distinct leading
    keys, so a row lies in the span exactly when it reduces to zero.
    """

    def __init__(self, rows: Iterable[dict[int, int]] = (), p: int = 0):
        self.p = p
        self.pivots: dict[int, tuple[int, list[int], list[int]]] = {}
        for row in rows:
            self.add(row)

    def __len__(self) -> int:
        return len(self.pivots)

    def __contains__(self, row: dict[int, int]) -> bool:
        return not self._reduce(row)

    def add(self, row: dict[int, int]) -> None:
        row = self._reduce(row)
        if row:
            lead = max(row)
            p = self.p
            if p:
                c = pow(row[lead], -1, p)
                vals = [v * c % p for v in row.values()]
            else:
                c = gcd(*row.values()) * (1 if row[lead] > 0 else -1)
                vals = [v // c for v in row.values()]
            self.pivots[lead] = (1 if p else row[lead] // c, list(row), vals)

    def _reduce(self, row: dict[int, int]) -> dict[int, int]:
        """A copy of the row reduced until its lead has no pivot, {} if
        the row lies in the span."""
        p = self.p
        row = ({e: v % p for e, v in row.items() if v % p} if p else dict(row)
               if all(row.values()) else {e: v for e, v in row.items() if v})
        pivots = self.pivots
        while row:
            lead = max(row)
            piv = pivots.get(lead)
            if piv is None:
                break
            b, keys, vals = piv
            a = row[lead]
            if not p:
                # b * row - a * piv, with the common factor g taken out
                g = gcd(a, b)
                a //= g
                if b != g:
                    b //= g
                    row = {e: v * b for e, v in row.items()}
            for e, v in zip(keys, vals):
                v = row.get(e, 0) - a * v
                if p:
                    v %= p
                if v:
                    row[e] = v
                else:
                    row.pop(e, None)
        return row


def krull_dim_monomial(exps: Iterable[tuple[int, ...]]) -> int:
    """Rank of the exponent vectors over the rationals."""
    exps = list(exps)
    if not exps:
        raise ValueError("empty exponent list")
    return len(RowSpace(map(vector_row, exps)))


def _times(row: dict[int, int], gen: dict[int, int], p: int) -> dict[int, int]:
    """Product of two packed polynomials with int coefficients (mod p if p)."""
    out: dict[int, int] = {}
    get = out.get
    for a, x in row.items():
        for b, y in gen.items():
            e = a + b
            out[e] = get(e, 0) + x * y
    if p:
        return {e: v % p for e, v in out.items() if v % p}
    return {e: v for e, v in out.items() if v}


def subalgebra_hilbert(polys: Sequence[Polynomial], k_max: int,
                       order: MonomialOrder,
                       grading: Grading = "normalized") -> HilbertData:
    """H(K[F], k) = rank of the degree-k products of generators.

    Exponents are packed by the order's linear key (see
    `MonomialOrder.linear_key`), with the bound max exponent * k_max that
    no product of at most k_max generators exceeds, so multiplying
    monomials adds packed keys and a row's leading monomial is its largest
    key.  Over Q each generator is cleared of denominators (scaling keeps
    the rank); over GF(p) its coefficients are residues.  Ranks are taken
    in `RowSpace`, whose pivots' leads are the initial monomials of the
    degree-k part of the subalgebra.

    Products are built level by level as in `semigroup_hilbert`: level k
    lists its products ordered by largest factor index, with prefix
    counts, and generator j multiplies the products of level k - d_j
    whose factors all have index at most j.  Each product of generators
    is thus made once, by one multiplication, and goes straight into the
    level's `RowSpace`; level k_max is not stored, and a level more than
    max(degrees) below the current one is freed.
    """
    polys = list(polys)
    if not polys:
        raise ValueError("empty generator list")
    ring = polys[0].ring
    for f in polys:
        if f.is_zero() or not f.is_homogeneous():
            raise ValueError("generators must be nonzero and homogeneous")
    degrees = _grading_degrees([f.degree() for f in polys], k_max, grading)
    p = ring.characteristic
    bound = max(max(e) for f in polys for e in f.terms) * max(k_max, 1)
    c = order.linear_key(bound)
    gens = []
    for f in polys:
        den = 1 if p else lcm(*(v.denominator for v in f.terms.values()))
        gens.append({sum(map(mul, c, e)): int(v * den) for e, v in f.terms.items()})
    d_max = max(degrees)
    # level 0 holds the empty product, which every generator may extend
    levels: list[tuple[list[dict[int, int]], list[int]] | None] = [
        ([{0: 1}], [1] * len(gens))]
    values = [1]
    for k in range(1, k_max + 1):
        if k > d_max:
            levels[k - d_max - 1] = None
        space = RowSpace(p=p)
        rows: list[dict[int, int]] = []
        ends: list[int] = []
        for j, (g, d) in enumerate(zip(gens, degrees)):
            if d <= k:
                src, src_ends = levels[k - d]
                for r in islice(src, src_ends[j]):
                    space.add(row := _times(r, g, p))
                    if k < k_max:  # the top level is only ranked
                        rows.append(row)
            ends.append(len(rows))
        levels.append((rows, ends))
        values.append(len(space))
    return HilbertData(values=values)


def h_vector(values: Sequence[int], dim: int) -> tuple[int, ...] | str:
    """Numerator of the Hilbert series over (1-z)^dim.

    Returns "truncated" unless at least the last three computed
    numerator coefficients vanish, which signals stabilization.
    """
    kmax = len(values) - 1
    coeffs = [sum((-1) ** i * comb(dim, i) * values[j - i] for i in range(min(j, dim) + 1))
              for j in range(kmax + 1)]
    if kmax < 3 or any(coeffs[-3:]):
        return "truncated"
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs) or (0,)


def expand_series(numerator: Sequence[int], dim: int, k_max: int) -> list[int]:
    """Coefficients of (sum numerator_j z^j) / (1-z)^dim up to degree k_max."""
    return [sum(h * comb(k - j + dim - 1, dim - 1) for j, h in enumerate(numerator[:k + 1]))
            for k in range(k_max + 1)]
