"""Subduction and the SAGBI completion loop.

One loop serves both variants.  A pass subduces tete-a-tetes (binomial
generators of the kernel of the initial monomials) against the family
and appends each nonzero remainder, made monic, as soon as it is found,
so the pass's later tete-a-tetes are subduced against it too and no two
members share an initial monomial; the kernel is recomputed only after a
pass that appended.  The loop's one parameter is a degree window.
Without one (`sagbi_general`) a pass, or round, takes every tete-a-tete
up to the degree bound, and a pass that appends nothing ends the run.
With one (`sagbi_by_degree`, homogeneous input) the window starts at 1
and a pass takes only the tete-a-tetes inside it not yet subduced against
the current family; the window grows by one when a pass appends nothing
or nothing is pending, and the run is complete at the first window that
holds every tete-a-tete with nothing pending.  A round bound stops either
variant before a pass that would exceed it.

A bookkeeper with callbacks `on_new_element(binomial, trace, divisor)`
and `on_relation(binomial, trace)` can observe every subduction outcome;
the defining-ideal module plugs in there.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .groebner import Binomial, toric_kernel
from .orders import MonomialOrder, leading_exponent, leading_term, make_monic
from .rings import Polynomial, power_product


@dataclass
class SubductionTrace:
    """g = sum of coeff * (product of family members)^mult + remainder.

    Each step is (coefficient, factorization) with the factorization a
    dict member-index -> multiplicity.
    """
    steps: list[tuple[object, dict[int, int]]]
    remainder: Polynomial


class GeneratorFamily:
    """Ordered monic generators with their initial monomials, and the
    tag Y_u and degree of each, the variables of the presentation ring."""

    def __init__(self, polys: list[Polynomial], order: MonomialOrder):
        if not polys:
            raise ValueError("empty generator family")
        self.ring = polys[0].ring
        self.order = order
        self.members: list[Polynomial] = []
        self.initials: list[tuple[int, ...]] = []
        self.norm_gcd = 0
        self.tags: list[str] = []
        self.degrees: list[int] = []
        for f in polys:
            self.append(f)
        self.n_original = len(self.members)

    def append(self, f: Polynomial):
        """Append f made monic; returns the coefficient divided out."""
        if f.is_zero():
            raise ValueError("zero generator")
        if f.ring != self.ring:
            raise ValueError("generator in wrong ring")
        monic, divisor = make_monic(self.order, f)
        initial = leading_exponent(self.order, monic)
        if not any(initial):
            raise ValueError("constant generator")
        self.members.append(monic)
        self.initials.append(initial)
        d = self.ring.degree(initial)
        self.norm_gcd = gcd(self.norm_gcd, d)
        self.tags.append(f"Y{len(self.members)}")
        self.degrees.append(d)
        return divisor

    def __len__(self):
        return len(self.members)

    def normalized_degree(self, idx: int) -> int:
        return self.degrees[idx] // self.norm_gcd

    def is_homogeneous(self) -> bool:
        return all(f.is_homogeneous() for f in self.members)

    def phi_monomial(self, exponent: dict[int, int] | tuple[int, ...]) -> Polynomial:
        """Image of a presentation monomial: product of members."""
        return power_product(self.ring, self.members, exponent)

    def phi_binomial(self, b: Binomial) -> Polynomial:
        return self.phi_monomial(b.plus) - self.phi_monomial(b.minus)

    def binomial_degree(self, b: Binomial) -> int:
        return sum(e * self.normalized_degree(i) for i, e in enumerate(b.plus))

    def factor_initial(self, target: tuple[int, ...]) -> dict[int, int] | None:
        """Write target as a sum of initial exponents, or None.

        Among all factorizations the lexicographically smallest
        non-decreasing index sequence is returned, which keeps traces
        and the defining ideal deterministic.
        """
        inits = self.initials
        failed: set[tuple[int, tuple[int, ...]]] = set()
        out: list[int] = []

        def rec(start: int, residual: tuple[int, ...], total: int) -> bool:
            if total == 0:
                return True
            key = (start, residual)
            if key in failed:
                return False
            for u in range(start, len(inits)):
                e = inits[u]
                fits = True
                for a, b in zip(e, residual):
                    if a > b:
                        fits = False
                        break
                if fits:
                    out.append(u)
                    if rec(u, tuple(b - a for a, b in zip(e, residual)),
                           total - sum(e)):
                        return True
                    out.pop()
            failed.add(key)
            return False

        if not rec(0, target, sum(target)):
            return None
        factor: dict[int, int] = {}
        for u in out:
            factor[u] = factor.get(u, 0) + 1
        return factor


def subduct(g: Polynomial, family: GeneratorFamily) -> SubductionTrace:
    """Subduction of g modulo the family.

    A leading monomial that is not a product of initials migrates to the
    remainder, and subduction continues on the lower terms.
    """
    order = family.order
    ring = g.ring
    key = order.key
    steps: list[tuple[object, dict[int, int]]] = []
    remainder_terms: dict[tuple[int, ...], object] = {}
    current = g
    prev_key = None
    while not current.is_zero():
        lead, lc = leading_term(order, current)
        lk = key(lead)
        if prev_key is not None and not lk < prev_key:
            raise AssertionError("subduction failed to descend")
        prev_key = lk
        factor = family.factor_initial(lead)
        if factor is None:
            remainder_terms[lead] = lc
            current = current - Polynomial.monomial(ring, lead, lc)
            continue
        steps.append((lc, factor))
        current = current - family.phi_monomial(factor).scale(lc)
    return SubductionTrace(steps=steps, remainder=Polynomial(ring, remainder_terms))


def tete_a_tetes(family: GeneratorFamily) -> list[Binomial]:
    """Binomial generators of the kernel of Y_u -> in(f_u)."""
    return toric_kernel(family.initials, family.ring)


@dataclass
class SagbiResult:
    basis: GeneratorFamily
    status: str  # "complete" or "truncated"
    rounds: int
    comp_degree: int | None = None

    def max_degree(self) -> int:
        return max(self.basis.normalized_degree(i) for i in range(len(self.basis)))


def _complete(family: GeneratorFamily, window: int | None, round_bound: int | None,
              degree_bound: int | None, bookkeeper) -> SagbiResult:
    """The completion loop; see the module docstring for the window."""
    rounds = 0
    binomials = None
    while True:
        if window is not None and window > degree_bound:
            return SagbiResult(family, "truncated", rounds)
        if binomials is None:
            binomials, done = tete_a_tetes(family), set()
        limit = degree_bound if window is None else window
        pending = [b for b in binomials if (b.plus, b.minus) not in done
                   and (limit is None or family.binomial_degree(b) <= limit)]
        if window is None or pending:
            if round_bound is not None and rounds >= round_bound:
                return SagbiResult(family, "truncated", rounds)
            rounds += 1
            size = len(family)
            for b in pending:
                trace = subduct(family.phi_binomial(b), family)
                done.add((b.plus, b.minus))
                if not trace.remainder.is_zero():
                    divisor = family.append(trace.remainder)
                    if bookkeeper is not None:
                        bookkeeper.on_new_element(b, trace, divisor)
                elif bookkeeper is not None:
                    bookkeeper.on_relation(b, trace)
            if len(family) > size:
                binomials = None
                continue
            if window is None:
                status = "truncated" if len(pending) < len(binomials) else "complete"
                return SagbiResult(family, status, rounds)
        elif all(family.binomial_degree(b) <= window for b in binomials):
            return SagbiResult(family, "complete", rounds, comp_degree=window)
        window += 1


def sagbi_general(family: GeneratorFamily, *, round_bound: int | None = None,
                  degree_bound: int | None = None,
                  bookkeeper=None) -> SagbiResult:
    """Round-based SAGBI completion (no grading assumptions)."""
    return _complete(family, None, round_bound, degree_bound, bookkeeper)


def sagbi_by_degree(family: GeneratorFamily, degree_bound: int,
                    bookkeeper=None, *, round_bound: int | None = None) -> SagbiResult:
    """Degree-by-degree SAGBI completion for graded homogeneous input.

    Completeness is recognized at the first degree with nothing left to
    subduce, which is reported as the completion degree.
    """
    if not family.is_homogeneous():
        raise ValueError("degree-by-degree variant needs homogeneous generators")
    return _complete(family, 1, round_bound, degree_bound, bookkeeper)
