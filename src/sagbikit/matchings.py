"""Coherent matchings as Newton-polytope vertices.

A matching selects one term per generator; it is coherent when some
weight vector selects exactly those terms, which is an exact rational
feasibility problem (`lp.StrictSystem`).  A matching grows by a
generator in one place, `certify`: the matching's system is extended by
the new term's differences (`term_diffs`), its witness is kept when it
clears them, and otherwise the extended system is solved warm from the
matching's own solved system.  That one is solved at most once however
many extensions ask for it, and not at all when every extension is
cleared by the witness or refused by its columns alone (a difference
whose negation is also one).  The depth-first walk of all selections
carries one system per level, and `extend_matching` and the sampled
G(3,7) checks extend one system per matching; in the walk an infeasible
partial selection prunes its subtree (every extension of an infeasible
system is infeasible).

The walk also prunes by symmetry (orderly generation).  H is the set of
elements of the given group whose cell map permutes the generators'
supports; such an element maps selections to selections (generator i's
term to a term of generator pi(i)) and coherent ones to coherent ones,
and the exponent sum along.  A selection is a path of sorted-term
indices.  A prefix P of length L is skipped, before its LP, when some
element of H with pi({0..L-1}) = {0..L-1} maps P to a lexicographically
smaller prefix.  This is exact: the lexicographically smallest path of an
H-orbit of coherent selections is never skipped, since an element that
shrinks one of its prefixes (and maps that prefix's generators among
themselves) shrinks the whole path.  So the kept leaves meet every
H-orbit, and their H-orbits, expanded in `_catalog_from_orbits`, are
exactly the coherent selections.  An H-orbit lies inside one orbit of
the whole group, so one canonical form serves it; an orbit's
representative is still its smallest exponent sum, and its witness is
the one its own path gets from the root (re-walked when that path was
pruned), so catalogs, sizes and witnesses equal those of the unpruned
walk.
"""
from __future__ import annotations

import random
from functools import lru_cache
from math import prod
from operator import mul, sub
from typing import NamedTuple

from .hilbert import semigroup_hilbert
from .lp import StrictSystem, strict_feasible
from .minors import (CanonicalGroup, MatrixRing, Minor, diagonal_order,
                     full_group_generators, minor_polynomial)
from .orders import TieError, leading_exponent, weight_selects
from .rings import Polynomial


class Matching(NamedTuple):
    family: list[Polynomial]
    selection: tuple[tuple[int, ...], ...]
    exponent_sum: tuple[int, ...]
    witness: list[int] | None = None


def _sum_exponents(selection) -> tuple[int, ...]:
    return tuple(map(sum, zip(*selection)))


def make_matching(family, selection, witness=None) -> Matching:
    selection = tuple(tuple(s) for s in selection)
    for f, s in zip(family, selection):
        if s not in f.terms:
            raise ValueError("selected exponent not in the generator's support")
    return Matching(list(family), selection, _sum_exponents(selection), witness)


def matching_from_weight(family, w) -> Matching:
    """Selection by a weight vector; raises TieError when w is not generic."""
    w = list(w)
    selection = tuple(weight_selects(f, w) for f in family)
    return make_matching(family, selection, witness=w)


def diagonal_matching(M: MatrixRing, minor_list) -> Matching:
    """The diagonal order's selection of every minor: its main diagonal."""
    order = diagonal_order(M)
    fam = [mi.polynomial for mi in minor_list]
    return make_matching(fam, [leading_exponent(order, f) for f in fam])


def term_diffs(f: Polynomial, t: tuple[int, ...]) -> list[tuple[int, ...]]:
    """t minus each other term of f, in sorted term order: the differences
    a witness must clear for f to select t."""
    return [tuple(map(sub, t, u)) for u in sorted(f.terms) if u != t]


def selection_diffs(family, selection):
    return [d for f, s in zip(family, selection) for d in term_diffs(f, s)]


def certify(system: StrictSystem, new_diffs,
            witness) -> tuple[StrictSystem, list[int] | None]:
    """The system extended by new_diffs, with an integer w such that
    w . d >= 1 for all its columns, or None when there is none.

    witness, unless None, clears the system's columns; it is returned as
    it is when it clears new_diffs too, and otherwise the extended system
    is solved, warm from the system's own optimal tableau.  Every
    growing coherence test goes through here: the one place where a
    matching grows by a generator.
    """
    child = system.extended(new_diffs)
    if witness is not None and all(sum(map(mul, witness, d)) >= 1 for d in new_diffs):
        return child, witness
    return child, child.solve()


@lru_cache(maxsize=16)
def _homogeneous(family: tuple[Polynomial, ...]) -> bool:
    """Whether every generator is homogeneous, worked out once per family
    (the sampled G(3,7) check extends matchings of one family by many
    different generators)."""
    return all(f.is_homogeneous() for f in family)


def _checked(family, selection, w, homogeneous: bool) -> list[int]:
    """A copy of the witness, re-verified on the polynomials; for a
    homogeneous family shifted by the grading until every entry is
    positive (the grading pairs to zero with every same-degree
    difference, so margins are unchanged)."""
    w = list(w)
    if min(w) < 1 and homogeneous:
        grading = family[0].ring.grading
        lam = max(-((v - 1) // g) for v, g in zip(w, grading))
        w = [v + lam * g for v, g in zip(w, grading)]
    for f, s in zip(family, selection):
        if weight_selects(f, w) != s:
            raise AssertionError("witness fails to select the matching")
    return w


def is_coherent(family, selection) -> list[int] | None:
    """Integral witness selecting the given terms, or None if infeasible."""
    family = list(family)
    selection = [tuple(s) for s in selection]
    w = strict_feasible(selection_diffs(family, selection), family[0].ring.nvars)
    return None if w is None else _checked(family, selection, w,
                                           _homogeneous(tuple(family)))


class OrbitEntry(NamedTuple):
    canonical: tuple[int, ...]
    size: int
    representative: Matching


class VertexCatalog(NamedTuple):
    total: int
    orbits: list[OrbitEntry]
    exhaustive: bool
    meta: dict


def _support_symmetries(family, group: CanonicalGroup):
    """The elements of the group whose cell map permutes the family's
    supports, each as (idx, src, maps): idx is its flat index map, and
    the image of a selection (term indices into the sorted supports) has
    index maps[j][path[src[j]]] at generator j.

    Generators that share a support are matched in order (the k-th onto
    the k-th), so composing symmetries composes their actions and the
    identity acts as the identity.
    """
    term_lists = [sorted(f.terms) for f in family]
    index = [{t: k for k, t in enumerate(terms)} for terms in term_lists]
    slots: dict[frozenset, list[int]] = {}
    for i, terms in enumerate(term_lists):
        slots.setdefault(frozenset(terms), []).append(i)
    out = []
    for idx in group.index_maps:
        src = [0] * len(family)
        maps = [()] * len(family)
        for support, gens in slots.items():
            images = {t: tuple(t[k] for k in idx) for t in support}
            targets = slots.get(frozenset(images.values()), ())
            if len(targets) != len(gens):
                break
            for i, j in zip(gens, targets):
                src[j] = i
                maps[j] = tuple(index[j][images[t]] for t in term_lists[i])
        else:
            out.append((idx, tuple(src), tuple(maps)))
    return out


def _prune_table(symmetries, depth: int) -> list[list[tuple]]:
    """table[L]: the distinct actions on prefixes of length L, other than
    the identity, of the symmetries that map generators 0..L-1 among
    themselves; an action is one (src[j], maps[j]) pair per position j."""
    table = []
    for L in range(depth + 1):
        actions = set()
        for _, src, maps in symmetries:
            if all(s < L for s in src[:L]):
                action = tuple(zip(src[:L], maps[:L]))
                if any(s != j or m != tuple(range(len(m)))
                       for j, (s, m) in enumerate(action)):
                    actions.add(action)
        table.append(sorted(actions))
    return table


def _pruned(path, actions) -> bool:
    """True when some action maps the prefix to a lexicographically
    smaller one, whose subtree the walk has visited first."""
    for action in actions:
        for p, (s, m) in zip(path, action):
            v = m[path[s]]
            if v != p:
                if v < p:
                    return True
                break
    return False


def _walk(diff_lists, nvars, path):
    """The system and witness at a path of term indices, reached from the
    root with the walk's own `certify` steps; the witness is None once a
    step is infeasible.  A leaf's witness depends on its path alone."""
    # the zero witness clears no difference, so the first step is solved
    system, witness = StrictSystem(nvars), [0] * nvars
    for diffs, k in zip(diff_lists, path):
        system, witness = certify(system, diffs[k], witness)
        if witness is None:
            break
    return system, witness


def _diff_lists(family):
    return [[term_diffs(f, t) for t in sorted(f.terms)] for f in family]


def _dfs_vertices(family, nvars, table):
    """The kept leaves, as (path, witness), of the depth-first walk of the
    selections (paths of sorted-term indices) with exact feasibility
    verdicts, pruned by symmetry: a child prefix is skipped before its LP
    when an action of table[L] maps it to a smaller prefix (`_pruned`)."""
    diff_lists = _diff_lists(family)
    leaves: list[tuple[tuple[int, ...], list[int]]] = []
    path: list[int] = []

    def descend(level, system, witness):
        if level == len(family):
            leaves.append((tuple(path), list(witness)))
            return
        actions = table[level + 1]
        for k, new_diffs in enumerate(diff_lists[level]):
            path.append(k)
            if not _pruned(path, actions):
                child, w = certify(system, new_diffs, witness)
                if w is not None:
                    descend(level + 1, child, w)
            path.pop()

    # the root as `_walk` starts it, so re-walked witnesses agree
    descend(0, *_walk(diff_lists, nvars, ()))
    return leaves


def _catalog_from_orbits(family, leaves, symmetries, group: CanonicalGroup,
                         meta: dict) -> VertexCatalog:
    """Every coherent selection is the image of a kept leaf under a
    symmetry; the leaves' orbits are expanded, folded by canonical form
    under the whole group, and each orbit represented by its smallest
    exponent sum, whose witness is that of its own path."""
    term_lists = [sorted(f.terms) for f in family]
    path_at: dict[tuple[int, ...], tuple[int, ...]] = {}
    orbits: dict[tuple[int, ...], list] = {}
    for path, _ in leaves:
        esum = _sum_exponents([terms[k] for terms, k in zip(term_lists, path)])
        # every image shares the leaf's canonical form
        entry = orbits.setdefault(group.canonical(esum), [0, esum])
        for idx, src, maps in symmetries:
            image = tuple(m[path[s]] for s, m in zip(src, maps))
            image_sum = tuple(esum[i] for i in idx)
            known = path_at.get(image_sum)
            if known is None:
                path_at[image_sum] = image
                entry[0] += 1
                if image_sum < entry[1]:
                    entry[1] = image_sum
            elif known != image:
                raise AssertionError("two coherent matchings share a vertex")
    witnesses = dict(leaves)
    diff_lists = _diff_lists(family)
    nvars = family[0].ring.nvars
    entries = []
    for canon in sorted(orbits):
        size, esum = orbits[canon]
        path = path_at[esum]
        witness = witnesses[path] if path in witnesses else \
            _walk(diff_lists, nvars, path)[1]
        selection = [terms[k] for terms, k in zip(term_lists, path)]
        entries.append(OrbitEntry(canon, size, make_matching(family, selection, witness)))
    return VertexCatalog(total=len(path_at), orbits=entries, exhaustive=True,
                         meta=meta)


class SelectionSpaceExceeded(ValueError):
    """The product of the support sizes exceeds the exhaustive cap."""

    def __init__(self, space: int, cap: int):
        self.space = space
        self.cap = cap
        super().__init__(f"selection space {space} exceeds cap {cap}")


def enumerate_vertices_exhaustive(family, group: CanonicalGroup,
                                  cap: int = 1 << 20) -> VertexCatalog:
    """Classify every selection by exact feasibility, one branch per
    symmetry class; a selection space over cap raises SelectionSpaceExceeded."""
    family = list(family)
    space = prod(len(f.terms) for f in family)
    if space > cap:
        raise SelectionSpaceExceeded(space, cap)
    symmetries = _support_symmetries(family, group)
    leaves = _dfs_vertices(family, family[0].ring.nvars,
                           _prune_table(symmetries, len(family)))
    return _catalog_from_orbits(family, leaves, symmetries, group,
                                {"mode": "exhaustive", "selections": space})


class UnpermutedSupports(ValueError):
    """The group does not permute a family's supports."""


def enumerate_vertices_random(family, group: CanonicalGroup, *, trials: int,
                              stall_limit: int, seed: int) -> VertexCatalog:
    """Sample random integer weights; the total is a lower bound.

    The total sums whole-group orbit sizes, so it counts coherent
    matchings only when the group permutes the family's supports; a
    family whose supports it does not permute raises UnpermutedSupports.  The
    full group is tested on its generators.  The sampling box [1, 10k]
    doubles k after every 64 consecutive samples without a new orbit;
    stall_limit consecutive misses stop the search early.
    """
    family = list(family)
    tested = full_group_generators(group.m, group.n) if group.full else group
    if len(_support_symmetries(family, tested)) < len(tested):
        raise UnpermutedSupports("the group does not permute the family's supports")
    nvars = family[0].ring.nvars
    rng = random.Random(seed)
    found: dict[tuple[int, ...], Matching] = {}
    scale = 1
    stall = 0
    used = 0
    for _ in range(trials):
        used += 1
        w = [rng.randint(1, 10 * scale) for _ in range(nvars)]
        try:
            m = matching_from_weight(family, w)
        except TieError:
            stall += 1
        else:
            canon = group.canonical(m.exponent_sum)
            stall = stall + 1 if canon in found else 0
            found.setdefault(canon, m)
        if stall and stall % 64 == 0:
            scale = min(scale * 2, 1 << 20)
        if stall >= stall_limit:
            break
    orbits = [OrbitEntry(canonical=c, size=group.orbit_size(found[c].exponent_sum),
                         representative=found[c]) for c in sorted(found)]
    meta = {"mode": "random", "seed": seed, "trials": trials,
            "samples_used": used, "stall_limit": stall_limit,
            "total_is_lower_bound": True}
    return VertexCatalog(total=sum(e.size for e in orbits), orbits=orbits,
                         exhaustive=False, meta=meta)


def full_support(flat) -> bool:
    """Every entry of a flat exponent matrix is positive."""
    return all(v > 0 for v in flat)


def sagbi_defect(matching: Matching, reference_values, k_max: int,
                 grading: str = "normalized") -> int | None:
    """First degree where the matching's semigroup falls short of the
    reference Hilbert values, or None."""
    ring = matching.family[0].ring
    return first_defect(semigroup_hilbert(matching.selection, k_max, ring, grading).values,
                        reference_values, k_max)


def first_defect(values, reference_values, k_max: int) -> int | None:
    """First degree up to k_max where semigroup Hilbert values fall short
    of the reference ones, or None."""
    if any(v > r for v, r in zip(values[:k_max + 1], reference_values)):
        raise AssertionError("semigroup exceeds the reference Hilbert values")
    return next((k for k in range(k_max + 1) if values[k] < reference_values[k]), None)


def matching_system(matching: Matching) -> StrictSystem:
    """The strict system of the matching's own differences, unsolved."""
    return StrictSystem(matching.family[0].ring.nvars,
                        selection_diffs(matching.family, matching.selection))


def extend_matching(matching: Matching, g: Polynomial, terms=None,
                    system: StrictSystem | None = None) -> list[Matching]:
    """Coherent extensions of the matching by one more generator, over the
    given terms of g (all of them, sorted, by default).

    The matching's witness, if any, is tried first for every term; the
    matching's system (`matching_system`, or the one given, which callers
    extending one matching several times share) is solved at most once,
    and only for a term whose differences hold no column's negation.
    """
    family = matching.family + [g]
    homogeneous = _homogeneous(tuple(matching.family)) and g.is_homogeneous()
    if system is None:
        system = matching_system(matching)
    out = []
    for t in sorted(g.terms) if terms is None else terms:
        _, w = certify(system, term_diffs(g, t), matching.witness)
        if w is not None:
            selection = matching.selection + (t,)
            out.append(make_matching(family, selection,
                                     _checked(family, selection, w, homogeneous)))
    return out


def restrict_matching(matching: Matching, minor_infos: list[Minor],
                      M: MatrixRing, columns) -> tuple[list[Minor], Matching]:
    """Induced matching on the minors supported inside a column subset."""
    columns = sorted(columns)
    colset = set(columns)
    colmap = {c: i for i, c in enumerate(columns)}
    Msub = MatrixRing(M.m, len(columns), M.ring.characteristic)
    # the kept cells, in the submatrix's row-major order
    kept = [M.cell(i, j) for i in range(M.m) for j in columns]
    sub_minors = []
    selection = []
    for minor, s in zip(minor_infos, matching.selection):
        if not set(minor.cols) <= colset:
            continue
        cols2 = tuple(colmap[c] for c in minor.cols)
        sub_minors.append(Minor(minor.rows, cols2,
                                minor_polynomial(Msub, minor.rows, cols2)))
        restricted = tuple(s[k] for k in kept)
        if sum(restricted) != sum(s):
            raise ValueError("selected term leaves the column subset")
        selection.append(restricted)
    witness = None
    if matching.witness is not None:
        witness = [matching.witness[k] for k in kept]
    family = [mi.polynomial for mi in sub_minors]
    return sub_minors, make_matching(family, selection, witness=witness)
