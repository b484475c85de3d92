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
and a pass takes the tete-a-tetes inside it above its floor, the last
window that was subduced against the current family (0 after each
recompute); when a pass appends nothing or nothing is pending the floor
becomes the window and the window grows by one, and the run is complete
at the first window that holds every tete-a-tete with nothing pending.
A round bound stops either variant before a pass that would exceed it.
Each tete-a-tete's degree is read once, when its kernel is computed:
only an append changes the family's degree gcd, and one is followed by a
recompute.

A bookkeeper with callbacks `on_new_element(binomial, trace, divisor)`
and `on_relation(binomial, trace)` can observe every subduction outcome;
the defining-ideal module plugs in there.
"""
from __future__ import annotations

from collections import Counter
from functools import cache
from math import gcd
from operator import le, sub
from typing import NamedTuple

from .groebner import Binomial, toric_kernel
from .orders import MonomialOrder, leading_exponent, leading_term, make_monic
from .rings import Polynomial, power_product


class SubductionTrace(NamedTuple):
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

    def factor_initial(self, target: tuple[int, ...]) -> dict[int, int] | None:
        """Write target as a sum of initial exponents, or None.

        Among all factorizations the lexicographically smallest
        non-decreasing index sequence is returned, which keeps traces
        and the defining ideal deterministic.
        """
        inits = self.initials

        @cache
        def rec(start: int, residual: tuple[int, ...]) -> tuple[int, ...] | None:
            """The smallest index tuple from start on summing to residual."""
            if not any(residual):
                return ()
            for u in range(start, len(inits)):
                if all(map(le, inits[u], residual)):
                    rest = rec(u, tuple(map(sub, residual, inits[u])))
                    if rest is not None:
                        return (u,) + rest
            return None

        found = rec(0, tuple(target))
        return None if found is None else dict(Counter(found))


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


class SagbiResult(NamedTuple):
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
    kernel = None
    while True:
        if window is not None and window > degree_bound:
            return SagbiResult(family, "truncated", rounds)
        if kernel is None:
            g = family.norm_gcd
            kernel = [(b.degree(family.degrees) // g, b) for b in tete_a_tetes(family)]
            floor = 0
        limit = degree_bound if window is None else window
        pending = [b for d, b in kernel if floor < d and (limit is None or d <= limit)]
        if window is None or pending:
            if round_bound is not None and rounds >= round_bound:
                return SagbiResult(family, "truncated", rounds)
            rounds += 1
            size = len(family)
            for b in pending:
                trace = subduct(family.phi_binomial(b), family)
                if not trace.remainder.is_zero():
                    divisor = family.append(trace.remainder)
                    if bookkeeper is not None:
                        bookkeeper.on_new_element(b, trace, divisor)
                elif bookkeeper is not None:
                    bookkeeper.on_relation(b, trace)
            if len(family) > size:
                kernel = None
                continue
            if window is None:
                status = "truncated" if len(pending) < len(kernel) else "complete"
                return SagbiResult(family, status, rounds)
        elif all(d <= window for d, _ in kernel):
            return SagbiResult(family, "complete", rounds, comp_degree=window)
        floor = window
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
