"""Buchberger machinery and binomial kernels of monomial maps.

`buchberger` and `normal_form` work on general polynomials.  The toric
kernel (relations among a list of monomials) is the part free of the X
variables of the ideal (Y_u - X^{m_u}) under a block order with the X
variables first.  That ideal, its S-polynomials and their remainders
are all pure differences x^a - x^b, so the kernel runs a Buchberger on
binomials alone (Sturmfels, Groebner Bases and Convex Polytopes, 1996,
ch. 4 and 12): an element is a (lead, trail) exponent pair with no
coefficients, an S-pair is two shifted monomials, a monomial reduces to
a monomial, and a remainder is zero exactly when the two reduced
monomials agree.  Exponent vectors are packed into integers with a
guard bit per variable, so divisibility is a single integer test.
When the exponent vectors are linearly independent the kernel is zero
and no basis is computed.
"""
from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass

from .hilbert import krull_dim_monomial
from .orders import MonomialOrder, degrevlex_order, leading_term, make_monic, weight_order
from .rings import Polynomial, RingContext


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


def _remainder(f: Polynomial, reducers, key) -> Polynomial:
    """Full remainder of f by reducers, a list of (lead exponent, g)."""
    ring = f.ring
    work = dict(f.terms)
    remainder: dict[tuple[int, ...], object] = {}
    while work:
        lead = max(work, key=key)
        c = work.pop(lead)
        for lt_g, g in reducers:
            if _divides(lt_g, lead):
                shift = tuple(x - y for x, y in zip(lead, lt_g))
                factor = ring.cmul(c, ring.cinv(g.terms[lt_g]))
                for e, gc in g.terms.items():
                    if e == lt_g:
                        continue
                    te = tuple(x + y for x, y in zip(e, shift))
                    v = ring.cadd(work.get(te, 0), ring.cneg(ring.cmul(factor, gc)))
                    if v:
                        work[te] = v
                    else:
                        work.pop(te, None)
                break
        else:
            remainder[lead] = c
    res = Polynomial.__new__(Polynomial)
    res.ring, res.terms, res._key = ring, remainder, None
    return res


def normal_form(f: Polynomial, basis: list[Polynomial], order: MonomialOrder) -> Polynomial:
    """Full remainder of f on division by the basis (head and tail reduced)."""
    if not basis:
        return f
    key = order.key
    return _remainder(f, [(max(g.terms, key=key), g) for g in basis], key)


def _spoly(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    lf, cf = leading_term(order, f)
    lg, cg = leading_term(order, g)
    L = _lcm(lf, lg)
    ring = f.ring
    a = f.mul_monomial(tuple(x - y for x, y in zip(L, lf)), ring.cinv(cf))
    b = g.mul_monomial(tuple(x - y for x, y in zip(L, lg)), ring.cinv(cg))
    return a - b


def buchberger(gens: list[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    """Reduced monic Groebner basis (normal selection strategy).

    Pair management follows Gebauer-Moeller: new pairs are pruned by the
    lcm-divisibility and coprimality criteria, and old pairs subsumed by
    the new leading term are dropped.  Each element's leading exponent
    is found once, when it joins the basis.
    """
    key = order.key
    basis: list[Polynomial] = []
    leads: list[tuple[int, ...]] = []
    reducers: list[tuple[tuple[int, ...], Polynomial]] = []
    pairs: list = []  # heap of (deg lcm, key(lcm), i, j, lcm)

    def add_element(f: Polynomial):
        basis.append(f)
        leads.append(max(f.terms, key=key))
        reducers.append((leads[-1], f))
        t = len(basis) - 1
        lt = leads[t]
        cand = [(i, _lcm(leads[i], lt)) for i in range(t)]
        survivors = []
        for i, L in cand:
            dominated = False
            for j, L2 in cand:
                if j != i and _divides(L2, L) and (L2 != L or j < i):
                    dominated = True
                    break
            if not dominated:
                survivors.append((i, L))
        # coprime criterion
        survivors = [(i, L) for i, L in survivors
                     if any(a and b for a, b in zip(leads[i], lt))]
        # drop old pairs strictly refined by the new element
        kept = []
        for entry in pairs:
            _, _, i, j, L = entry
            if (_divides(lt, L) and _lcm(leads[i], lt) != L
                    and _lcm(leads[j], lt) != L):
                continue
            kept.append(entry)
        pairs[:] = kept
        heapq.heapify(pairs)
        for i, L in survivors:
            heapq.heappush(pairs, (sum(L), key(L), i, t, L))

    for f in gens:
        if f.is_zero():
            continue
        add_element(make_monic(order, f)[0])

    while pairs:
        _, _, i, j, L = heapq.heappop(pairs)
        s = _spoly(basis[i], basis[j], order)
        r = _remainder(s, reducers, key)
        if not r.is_zero():
            add_element(make_monic(order, r)[0])

    # interreduce: minimal leads, then tail-reduce each element
    keep = []
    for i, f in enumerate(basis):
        li = leads[i]
        minimal = True
        for j, lj in enumerate(leads):
            if j != i and _divides(lj, li) and (lj != li or j < i):
                minimal = False
                break
        if minimal:
            keep.append((li, f))
    reduced = []
    for i, (_, f) in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        r = _remainder(f, others, key) if others else f
        if not r.is_zero():
            reduced.append(make_monic(order, r)[0])
    reduced.sort(key=lambda g: key(max(g.terms, key=key)))
    return reduced


_FIELD = 16  # bits per packed exponent (struct code H); the top bit is a guard


class _BinomialBasis:
    """Buchberger on pure differences x^lead - x^trail, coefficient-free.

    An exponent vector is packed into one integer, _FIELD bits per
    variable.  Packed exponents keep every guard bit clear, so for
    a, b packed, ((b | G) - a) & G == G holds exactly when a divides b
    (G is the guard mask), and x^(m - lead + trail) is m - lead + trail.
    An exponent that reaches 2**(_FIELD - 1) raises OverflowError.

    Pairs are selected and pruned as in `buchberger`; in addition an
    element whose lead a later lead divides takes part in no new pair
    and in no reduction (Gebauer-Moeller).
    """

    def __init__(self, order: MonomialOrder):
        self.order = order
        self.nvars = order.nvars
        self.fields = struct.Struct(f"<{self.nvars}H")
        ones = self._pack((1,) * self.nvars)
        self.guard = ones << (_FIELD - 1)
        self.values = self.guard - ones
        self.leads: list[int] = []
        self.trails: list[int] = []
        self.live: list[int] = []  # elements whose leads no later lead divides
        self.elems: list[tuple[int, int]] = []  # (lead, trail) of the live ones
        self.pairs: list = []  # heap of (deg lcm, key(lcm), i, j, packed lcm)

    def _pack(self, exp: tuple[int, ...]) -> int:
        if len(exp) != self.nvars:
            raise ValueError("exponent length mismatch")
        if any(e < 0 or e >> (_FIELD - 1) for e in exp):
            raise OverflowError(f"exponent out of range 0..{(1 << (_FIELD - 1)) - 1}: {exp}")
        return int.from_bytes(self.fields.pack(*exp), "little")

    def _unpack(self, m: int) -> tuple[int, ...]:
        return self.fields.unpack(m.to_bytes(2 * self.nvars, "little"))

    def _divides(self, a: int, b: int) -> bool:
        G = self.guard
        return ((b | G) - a) & G == G

    def _lcm(self, a: int, b: int) -> int:
        G = self.guard
        ge = ((a | G) - b) & G          # guard bits of the fields with a_i >= b_i
        sel = ge - (ge >> (_FIELD - 1))  # value bits of those fields
        return (a & sel) | (b & (self.values ^ sel))

    def _shift(self, m: int, lead: int, trail: int) -> int:
        """x^m / x^lead * x^trail, for x^lead dividing x^m."""
        m = m - lead + trail
        if m & self.guard:
            raise OverflowError("binomial exponent exceeds the packed field width")
        return m

    def _reduce(self, m: int) -> int:
        """Normal form of the monomial x^m: always a single monomial."""
        G = self.guard
        elems = self.elems
        while True:
            mg = m | G
            for lead, trail in elems:
                if (mg - lead) & G == G:
                    m = self._shift(m, lead, trail)
                    break
            else:
                return m

    def _key(self, m: int):
        return self.order.key(self._unpack(m))

    def add(self, a: tuple[int, ...], b: tuple[int, ...]):
        """Add x^a - x^b to the generators; a must differ from b."""
        self._add(self._pack(a), self._pack(b))

    def _add(self, a: int, b: int):
        if a == b:
            raise ValueError("zero binomial")
        lt, tr = (a, b) if self._key(a) > self._key(b) else (b, a)
        leads = self.leads
        t = len(leads)
        leads.append(lt)
        self.trails.append(tr)
        G = self.guard
        # chain criterion: keep the pair (i, t) only if no other new pair
        # has an lcm strictly dividing its lcm, and only the first of equal
        # lcms; a strict divisor is also a smaller integer
        first: dict[int, int] = {}
        for i in self.live:
            first.setdefault(self._lcm(leads[i], lt), i)
        ordered = sorted(first)
        survivors = []
        for k, L in enumerate(ordered):
            LG = L | G
            for L2 in ordered[:k]:
                if (LG - L2) & G == G:
                    break
            else:
                i = first[L]
                # coprime criterion: the lcm of coprime leads is their product
                if L != leads[i] + lt:
                    survivors.append((i, L))
        # drop old pairs strictly refined by the new element
        pairs = [e for e in self.pairs
                 if ((e[4] | G) - lt) & G != G
                 or self._lcm(leads[e[2]], lt) == e[4] or self._lcm(leads[e[3]], lt) == e[4]]
        if len(pairs) < len(self.pairs):
            heapq.heapify(pairs)
        for i, L in survivors:
            e = self._unpack(L)
            heapq.heappush(pairs, (sum(e), self.order.key(e), i, t, L))
        self.pairs = pairs
        self.live = [i for i in self.live if ((leads[i] | G) - lt) & G != G] + [t]
        self.elems = [(leads[i], self.trails[i]) for i in self.live]

    def complete(self):
        """Reduce S-pairs until the elements form a Groebner basis."""
        while self.pairs:
            _, _, i, j, L = heapq.heappop(self.pairs)
            a = self._reduce(self._shift(L, self.leads[i], self.trails[i]))
            b = self._reduce(self._shift(L, self.leads[j], self.trails[j]))
            if a != b:
                self._add(a, b)

    def contains(self, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
        """Ideal membership of x^a - x^b; needs a completed basis."""
        return self._reduce(self._pack(a)) == self._reduce(self._pack(b))

    def reduced(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The reduced Groebner basis as (lead, trail) exponent pairs,
        ascending in the lead; needs a completed basis."""
        out = []
        for lt, tr in self.elems:
            if not any(lj != lt and self._divides(lj, lt) for lj, _ in self.elems):
                out.append((self._unpack(lt), self._unpack(self._reduce(tr))))
        out.sort(key=lambda pair: self.order.key(pair[0]))
        return out


@dataclass(frozen=True)
class Binomial:
    """Pure difference Y^plus - Y^minus in the presentation variables."""
    plus: tuple[int, ...]
    minus: tuple[int, ...]

    def degree(self, weights) -> int:
        return sum(a * w for a, w in zip(self.plus, weights))


class PresentationRing:
    """Ring of tag variables Y_u, one per generator; extendable in place."""

    def __init__(self, tags: list[str], degrees: list[int]):
        self.tags = list(tags)
        self.degrees = list(degrees)

    def append(self, tag: str, degree: int) -> int:
        self.tags.append(tag)
        self.degrees.append(degree)
        return len(self.tags) - 1

    def __len__(self):
        return len(self.tags)


def toric_kernel(monomials: list[tuple[int, ...]], ring: RingContext) -> list[Binomial]:
    """Binomial generators of the kernel of Y_u -> X^{m_u}."""
    monomials = [tuple(m) for m in monomials]
    if not monomials:
        return []
    if any(not any(m) for m in monomials):
        raise ValueError("monomials must be nonzero")
    p = len(monomials)
    if krull_dim_monomial(monomials) == p:
        return []

    nx = ring.nvars
    order = weight_order((1,) * nx + (0,) * p, degrevlex_order(nx + p))
    basis = _BinomialBasis(order)
    for u, m in enumerate(monomials):
        e_y = [0] * p
        e_y[u] = 1
        basis.add(m + (0,) * p, (0,) * nx + tuple(e_y))
    basis.complete()

    out = []
    for lead, trail in basis.reduced():
        if any(lead[:nx]):
            continue
        plus = lead[nx:]
        minus = trail[nx:]
        psi_plus = [0] * nx
        psi_minus = [0] * nx
        for u in range(p):
            for i in range(nx):
                psi_plus[i] += plus[u] * monomials[u][i]
                psi_minus[i] += minus[u] * monomials[u][i]
        if psi_plus != psi_minus:
            raise AssertionError("binomial does not evaluate to zero under psi")
        out.append(Binomial(plus, minus))
    weights = [ring.degree(m) for m in monomials]
    out.sort(key=lambda b: (b.degree(weights), b.plus, b.minus))
    return _minimalize_binomials(out, weights)


def _minimalize_binomials(binoms: list[Binomial], weights: list[int]) -> list[Binomial]:
    """Greedy degree-ascending pass keeping only needed generators.

    The input generates a weighted-homogeneous ideal, so a generator is
    redundant exactly when it lies in the ideal of the earlier kept ones
    (graded Nakayama).  The kept ones grow one live Groebner basis.
    """
    if len(binoms) <= 1:
        return binoms
    basis = _BinomialBasis(degrevlex_order(len(weights)))
    kept: list[Binomial] = []
    for b in binoms:
        if not kept or not basis.contains(b.plus, b.minus):
            kept.append(b)
            basis.add(b.plus, b.minus)
            basis.complete()
    return kept
