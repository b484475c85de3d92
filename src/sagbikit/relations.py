"""Defining ideals via retract bookkeeping alongside the SAGBI loop.

Every subduction outcome either extends the retract (nonzero remainder:
the new tag variable is rewritten in the original presentation
variables) or contributes a generator of the kernel of the original
presentation (zero remainder).  Relations are stated for the monic
versions of the input generators.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .engine import GeneratorFamily, SagbiResult, sagbi_general
from .groebner import Binomial, _PolynomialBasis, interreduce
from .orders import MonomialOrder, degrevlex_order, make_monic, weight_order
from .rings import Polynomial, RingContext, power_product


class Retract:
    """The completion loop's bookkeeper: rewrites every tag variable as a
    polynomial in the original tags, and collects the relations."""

    def __init__(self, family: GeneratorFamily):
        degrees = tuple(family.normalized_degree(i) for i in range(len(family)))
        self.p0 = RingContext(tuple(family.tags), family.ring.characteristic, degrees)
        self.images: list[Polynomial] = [Polynomial.variable(self.p0, i)
                                         for i in range(self.p0.nvars)]
        self.relations: list[Polynomial] = []
        self._seen: set = set()

    def of_monomial(self, factor) -> Polynomial:
        """Image of a presentation monomial (dict index->mult or tuple)."""
        return power_product(self.p0, self.images, factor)

    def of_combination(self, binomial: Binomial, steps) -> Polynomial:
        """Image of  binomial - sum coeff * Y^step."""
        out = self.of_monomial(binomial.plus) - self.of_monomial(binomial.minus)
        for coeff, factor in steps:
            out = out - self.of_monomial(factor).scale(coeff)
        return out

    def on_new_element(self, binomial, trace, divisor):
        img = self.of_combination(binomial, trace.steps)
        self.images.append(img.scale(img.ring.cinv(divisor)))

    def on_relation(self, binomial, trace):
        rel = self.of_combination(binomial, trace.steps)
        if rel.is_zero():
            return
        key = rel.key()
        if key not in self._seen:
            self._seen.add(key)
            self.relations.append(rel)

    def mismatch(self, family: GeneratorFamily) -> int | None:
        """First u whose pi(rho(Y_u)) is not the stored basis element f_u."""
        originals = family.members[:family.n_original]
        return next((idx for idx, img in enumerate(self.images)
                     if img.substitute(originals) != family.members[idx]), None)


@dataclass
class RelationSet:
    ring: RingContext
    generators: list[Polynomial] = field(default_factory=list)


def _p0_order(ring: RingContext) -> MonomialOrder:
    return weight_order(ring.grading, degrevlex_order(ring.nvars))


def sagbi_with_relations(polys: list[Polynomial], order: MonomialOrder, *,
                         complete=None, round_bound: int | None = None,
                         degree_bound: int | None = None
                         ) -> tuple[SagbiResult, Retract, RelationSet]:
    """Run a completion loop while accumulating the defining ideal.

    `complete` is `sagbi_general` (the default) or `sagbi_by_degree`.
    """
    family = GeneratorFamily(polys, order)
    retract = Retract(family)
    result = (complete or sagbi_general)(family, round_bound=round_bound,
                                         degree_bound=degree_bound, bookkeeper=retract)
    gens = interreduce(retract.relations, _p0_order(retract.p0))
    gens.sort(key=lambda g: (g.degree(), g.key()))
    return result, retract, RelationSet(ring=retract.p0, generators=gens)


def minimize_relations(rels: RelationSet) -> RelationSet:
    """Drop generators lying in the ideal of the kept ones: one
    degree-ascending pass over one growing basis, truncated at each
    generator's degree when all are homogeneous (`groebner`).

    Kept generators come out monic under the presentation order.
    """
    order = _p0_order(rels.ring)
    ordered = sorted(rels.generators, key=lambda g: (g.degree(), g.key()))
    kept = _PolynomialBasis(order, rels.ring).minimal_generators(ordered)
    return RelationSet(ring=rels.ring, generators=[make_monic(order, g)[0] for g in kept])


def verify_relations(family: GeneratorFamily, rels: RelationSet):
    """Substitute the generators into every relation; exact zero required.

    Returns (True, None) or (False, offending polynomial).
    """
    originals = family.members[:family.n_original]
    for g in rels.generators:
        if not g.substitute(originals).is_zero():
            return False, g
    return True, None
