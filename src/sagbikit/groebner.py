"""Buchberger machinery and binomial kernels of monomial maps.

One Buchberger core, `_Basis`, serves polynomials (`_PolynomialBasis`,
over Q or GF(p), behind `buchberger`, `normal_form` and `interreduce`)
and pure differences x^a - x^b (`_BinomialBasis`, coefficient-free: an
S-pair is two shifted monomials, a monomial reduces to a monomial, and
a remainder is zero exactly when the two reduced monomials agree;
Sturmfels, Groebner Bases and Convex Polytopes, 1996, ch. 4 and 12).
Exponents are packed into integers with a guard bit per variable, a
divisor is held as a `_body` (packed lead first), and the order is read
off one integer per exponent (`MonomialOrder.linear_key`).  The core
keeps the live set (elements whose lead no later lead divides), prunes
pairs by the Gebauer-Moeller criteria and takes them in order of their
lcm's degree in a grading.

Truncation: `complete(d)` leaves the pairs whose lcm has degree above d
pending.  For generators homogeneous in the grading, every element of
the ideal of degree at most d then reduces to zero.  So in a
degree-ascending list a generator of degree d is redundant exactly when
it reduces to zero against the basis completed up to d (graded
Nakayama): the one greedy pass, `_Basis.minimal_generators`.

The toric kernel of Y_u -> X^{m_u} is the part free of X of the binomial
ideal (Y_u - X^{m_u}) under a block order with X first; it is zero, and
no basis is computed, when the exponent vectors are independent.  The
elimination is graded by deg X_i = ring.grading[i] and deg Y_u =
deg X^{m_u}, so every input Y_u - X^{m_u} and every S-pair is
homogeneous, and the pair heap works one degree at a time.  The grading
changes only the order in which pairs are taken: the reduced basis is
unique, so the kernel is the one the all-ones grading gives.
"""
from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass
from operator import mul

from .hilbert import krull_dim_monomial
from .orders import MonomialOrder, degrevlex_order, weight_order
from .rings import Polynomial, RingContext

_FIELD = 16  # bits per packed exponent (struct code H); the top bit is a guard


class _Basis:
    """Buchberger pair bookkeeping on packed exponents.

    An exponent vector is packed into one integer, _FIELD bits per
    variable.  Packed exponents keep every guard bit clear, so for
    a, b packed, ((b | G) - a) & G == G holds exactly when a divides b
    (G is the guard mask), and x^a * x^b is a + b.  An exponent that
    reaches 2**(_FIELD - 1) raises OverflowError.

    A subclass fixes the form of an element and supplies `_load` (from
    the caller's form), `_degree` (None unless homogeneous), `_body`
    (the stored form of an element, packed lead first; only `_add`
    appends bodies), `_s_pair`, `_remainder` (full reduction by the
    bodies in `elems`, None for zero) and `_interreduced` (a body with
    its tail reduced, in the caller's form).
    """

    def __init__(self, order: MonomialOrder, grading):
        n = self.nvars = order.nvars
        self.fields = struct.Struct(f"<{n}H")
        ones = self._pack((1,) * n)
        self.guard = ones << (_FIELD - 1)
        self.values = self.guard - ones
        self.grading = tuple(grading)
        self.ranks = order.linear_key((1 << (_FIELD - 1)) - 1)
        self.leads: list[int] = []
        self.bodies: list = []
        self.live: list[int] = []  # elements whose leads no later lead divides
        self.elems: list = []  # bodies of the live ones
        self.pairs: list = []  # heap of (deg lcm, rank lcm, i, j, packed lcm)

    def _pack(self, exp: tuple[int, ...]) -> int:
        if len(exp) != self.nvars:
            raise ValueError("exponent length mismatch")
        if any(e < 0 or e >> (_FIELD - 1) for e in exp):
            raise OverflowError(f"exponent out of range 0..{(1 << (_FIELD - 1)) - 1}: {exp}")
        return int.from_bytes(self.fields.pack(*exp), "little")

    def _unpack(self, m: int) -> tuple[int, ...]:
        return self.fields.unpack(m.to_bytes(2 * self.nvars, "little"))

    def _rank(self, m: int) -> int:
        """Linear key of x^m: ranks compare as the order compares."""
        return sum(map(mul, self.ranks, self._unpack(m)))

    def _deg(self, m: int) -> int:
        return sum(map(mul, self.grading, self._unpack(m)))

    def _divides(self, a: int, b: int) -> bool:
        G = self.guard
        return ((b | G) - a) & G == G

    def _lcm(self, a: int, b: int) -> int:
        G = self.guard
        ge = ((a | G) - b) & G          # guard bits of the fields with a_i >= b_i
        sel = ge - (ge >> (_FIELD - 1))  # value bits of those fields
        return (a & sel) | (b & (self.values ^ sel))

    def add(self, x):
        """Add a generator, unreduced."""
        self._add(self._load(x))

    def _add(self, elem):
        self.bodies.append(self._body(elem))
        lt = self.bodies[-1][0]
        leads = self.leads
        t = len(leads)
        leads.append(lt)
        G = self.guard
        # chain criterion: keep the pair (i, t) only if no other new pair
        # has an lcm strictly dividing its lcm, and only the first of equal
        # lcms; a strict divisor is also a smaller integer, and divides
        # through a minimal one, so only the minimal lcms are tested
        first: dict[int, int] = {}
        for i in self.live:
            first.setdefault(self._lcm(leads[i], lt), i)
        minimal: list[int] = []
        survivors = []
        for L in sorted(first):
            LG = L | G
            for L2 in minimal:
                if (LG - L2) & G == G:
                    break
            else:
                minimal.append(L)
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
            heapq.heappush(pairs, (sum(map(mul, self.grading, e)),
                                   sum(map(mul, self.ranks, e)), i, t, L))
        self.pairs = pairs
        self.live = [i for i in self.live if ((leads[i] | G) - lt) & G != G] + [t]
        self.elems = [self.bodies[i] for i in self.live]

    def complete(self, max_degree: int | None = None):
        """Reduce S-pairs until the elements form a Groebner basis; with
        max_degree, the pairs whose lcm has a higher degree stay pending."""
        while self.pairs and (max_degree is None or self.pairs[0][0] <= max_degree):
            _, rank, i, j, L = heapq.heappop(self.pairs)
            r = self._remainder(self._s_pair(i, j, L, rank))
            if r is not None:
                self._add(r)

    def minimal_generators(self, gens: list) -> list:
        """The generators outside the ideal of the ones kept before them,
        which join the basis; gens must ascend in degree.

        If every generator is homogeneous, one of degree d is tested
        against the basis completed up to degree d, which decides ideal
        membership (see the module docstring); otherwise against the
        completed basis.
        """
        loaded = [self._load(g) for g in gens]
        degrees = [self._degree(x) for x in loaded]
        if None in degrees:
            degrees = [None] * len(loaded)
        kept = []
        for g, x, d in zip(gens, loaded, degrees):
            self.complete(d)
            r = self._remainder(x)
            if r is not None:
                kept.append(g)
                self._add(r)
        return kept

    def reduced(self) -> list:
        """The reduced Groebner basis, ascending in the lead; needs a
        completed basis."""
        leads = [self.leads[i] for i in self.live]
        out = []
        for i in self.live:
            lt = self.leads[i]
            if not any(lj != lt and self._divides(lj, lt) for lj in leads):
                out.append((self._rank(lt), self._interreduced(self.bodies[i])))
        out.sort(key=lambda entry: entry[0])
        return [g for _, g in out]


class _PolynomialBasis(_Basis):
    """Buchberger on polynomials of a ring, over Q or GF(p).

    An element is stored monic as (lead, lead rank, tail), the tail a
    list of (rank, packed exponent, coefficient).  A polynomial under
    reduction is a dict rank -> (packed exponent, coefficient); its
    largest key is its leading term.
    """

    def __init__(self, order: MonomialOrder, ring: RingContext):
        super().__init__(order, ring.grading)
        self.ring = ring

    def _load(self, f: Polynomial) -> dict:
        return {sum(map(mul, self.ranks, e)): (self._pack(e), c) for e, c in f.terms.items()}

    def _poly(self, work: dict | None) -> Polynomial:
        return Polynomial(self.ring, {self._unpack(m): c for m, c in (work or {}).values()})

    def _degree(self, work: dict) -> int | None:
        degrees = {self._deg(m) for m, _ in work.values()}
        return degrees.pop() if len(degrees) == 1 else None

    def _body(self, work: dict) -> tuple:
        k = max(work)
        m, c = work[k]
        inv, coeff = self.ring.cinv(c), self.ring.coeff
        return m, k, [(tk, tm, coeff(tc * inv)) for tk, (tm, tc) in work.items() if tk != k]

    def _subtract(self, work: dict, c, dk: int, dm: int, tail):
        """work -= c * x^dm * tail, where dk is the rank of x^dm."""
        p = self.ring.characteristic
        G = self.guard
        for tk, tm, tc in tail:
            m = tm + dm
            if m & G:
                raise OverflowError("exponent exceeds the packed field width")
            k = tk + dk
            old = work.get(k)
            v = (old[1] if old else 0) - c * tc
            if p:
                v %= p
            if v:
                work[k] = (m, v)
            elif old:
                del work[k]

    def _s_pair(self, i: int, j: int, L: int, rank: int) -> dict:
        work: dict = {}
        for (lead, lk, tail), c in ((self.bodies[i], -1), (self.bodies[j], 1)):
            self._subtract(work, c, rank - lk, L - lead, tail)
        return work

    def _remainder(self, work: dict) -> dict | None:
        G = self.guard
        rem = {}
        while work:
            k = max(work)
            m, c = entry = work.pop(k)
            mg = m | G
            for lead, lk, tail in self.elems:
                if (mg - lead) & G == G:
                    self._subtract(work, c, k - lk, m - lead, tail)
                    break
            else:
                rem[k] = entry
        return rem or None

    def _interreduced(self, body) -> Polynomial:
        lead, lk, tail = body
        rem = self._remainder({tk: (tm, tc) for tk, tm, tc in tail}) or {}
        rem[lk] = (lead, 1)
        return self._poly(rem)


def normal_form(f: Polynomial, basis: list[Polynomial], order: MonomialOrder) -> Polynomial:
    """Full remainder of f on division by the basis (head and tail reduced).

    Each leading term is divided by the first element whose lead divides it.
    """
    basis = [g for g in basis if not g.is_zero()]
    if not basis:
        return f
    reducers = _PolynomialBasis(order, f.ring)
    reducers.elems = [reducers._body(reducers._load(g)) for g in basis]
    return reducers._poly(reducers._remainder(reducers._load(f)))


def interreduce(polys: list[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    """One pass of reducing each generator, in list order, by the current
    others (`normal_form`'s rule), dropping zeros; each is loaded once."""
    polys = [f for f in polys if not f.is_zero()]
    if not polys:
        return []
    basis = _PolynomialBasis(order, polys[0].ring)
    loaded = [basis._load(f) for f in polys]
    bodies = [basis._body(work) for work in loaded]
    for i, work in enumerate(loaded):
        basis.elems = [b for b in bodies[:i] + bodies[i + 1:] if b]
        loaded[i] = basis._remainder(work)
        bodies[i] = loaded[i] and basis._body(loaded[i])
    return [basis._poly(r) for r in loaded if r]


def buchberger(gens: list[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    """Reduced monic Groebner basis, ascending in the lead."""
    gens = [f for f in gens if not f.is_zero()]
    if not gens:
        return []
    basis = _PolynomialBasis(order, gens[0].ring)
    for f in gens:
        basis.add(f)
    basis.complete()
    return basis.reduced()


class _BinomialBasis(_Basis):
    """Buchberger on pure differences x^lead - x^trail, coefficient-free.

    An element is a (lead, trail) pair of packed exponents, and x^m
    reduces by it to x^(m - lead + trail).
    """

    def _load(self, b: "Binomial") -> tuple[int, int]:
        return self._pack(b.plus), self._pack(b.minus)

    def _degree(self, elem) -> int | None:
        a, b = map(self._deg, elem)
        return a if a == b else None

    def _body(self, elem) -> tuple[int, int]:
        a, b = elem
        if a == b:
            raise ValueError("zero binomial")
        return (a, b) if self._rank(a) > self._rank(b) else (b, a)

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

    def _s_pair(self, i: int, j: int, L: int, rank: int) -> tuple[int, int]:
        return self._shift(L, *self.bodies[i]), self._shift(L, *self.bodies[j])

    def _remainder(self, elem) -> tuple[int, int] | None:
        a, b = map(self._reduce, elem)
        return None if a == b else (a, b)

    def _interreduced(self, body) -> tuple[tuple[int, ...], tuple[int, ...]]:
        lead, trail = body
        return self._unpack(lead), self._unpack(self._reduce(trail))


@dataclass(frozen=True)
class Binomial:
    """Pure difference x^plus - x^minus; a kernel element is one in the
    presentation variables, Y^plus - Y^minus."""
    plus: tuple[int, ...]
    minus: tuple[int, ...]

    def degree(self, weights) -> int:
        return sum(a * w for a, w in zip(self.plus, weights))


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
    weights = [ring.degree(m) for m in monomials]
    order = weight_order((1,) * nx + (0,) * p, degrevlex_order(nx + p))
    basis = _BinomialBasis(order, ring.grading + tuple(weights))
    for u, m in enumerate(monomials):
        basis.add(Binomial(m + (0,) * p, (0,) * (nx + u) + (1,) + (0,) * (p - u - 1)))
    basis.complete()

    def psi(e):
        return [sum(k * m[i] for k, m in zip(e, monomials)) for i in range(nx)]

    out = []
    for lead, trail in basis.reduced():
        if any(lead[:nx]):
            continue
        b = Binomial(lead[nx:], trail[nx:])
        if psi(b.plus) != psi(b.minus):
            raise AssertionError("binomial does not evaluate to zero under psi")
        out.append(b)
    out.sort(key=lambda b: (b.degree(weights), b.plus, b.minus))
    return _BinomialBasis(degrevlex_order(p), weights).minimal_generators(out)
