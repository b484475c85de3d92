"""Coherent matchings as Newton-polytope vertices.

A matching selects one term per generator; it is coherent when some
weight vector selects exactly those terms, which is an exact rational
feasibility problem (`lp.StrictSystem`).  A matching grows by a
generator in one place, `certify`: the matching's system is extended by
the new term's differences (`term_diffs`), its witness is kept when it
clears them, and otherwise the extended system is solved warm from the
matching's own solved system, which is solved at most once however many
extensions ask for it.  The depth-first walk of all selections carries
one system per level, and `extend_matching` and the sampled G(3,7)
checks extend one system per matching; in the walk an infeasible partial
selection prunes its subtree (every extension of an infeasible system is
infeasible).
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from math import prod
from operator import mul, sub

from .lp import StrictSystem, strict_feasible
from .minors import CanonicalGroup, MatrixRing, Minor, minor_polynomial
from .orders import TieError, weight_selects
from .rings import Polynomial


@dataclass
class Matching:
    family: list[Polynomial]
    selection: tuple[tuple[int, ...], ...]
    exponent_sum: tuple[int, ...]
    witness: list[int] | None = None
    coherent: bool | None = None


def _sum_exponents(selection) -> tuple[int, ...]:
    out = [0] * len(selection[0])
    for s in selection:
        for i, v in enumerate(s):
            out[i] += v
    return tuple(out)


def make_matching(family, selection, witness=None, coherent=None) -> Matching:
    selection = tuple(tuple(s) for s in selection)
    for f, s in zip(family, selection):
        if s not in f.terms:
            raise ValueError("selected exponent not in the generator's support")
    return Matching(family=list(family), selection=selection,
                    exponent_sum=_sum_exponents(selection),
                    witness=witness, coherent=coherent)


def matching_from_weight(family, w) -> Matching:
    """Selection by a weight vector; raises TieError when w is not generic."""
    w = list(w)
    selection = tuple(weight_selects(f, w) for f in family)
    return make_matching(family, selection, witness=w, coherent=True)


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


def _checked(family, selection, w) -> list[int]:
    """A copy of the witness, re-verified on the polynomials; for a
    homogeneous family shifted by the grading until every entry is
    positive (the grading pairs to zero with every same-degree
    difference, so margins are unchanged)."""
    w = list(w)
    if min(w) < 1 and all(f.is_homogeneous() for f in family):
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
    return None if w is None else _checked(family, selection, w)


@dataclass
class OrbitEntry:
    canonical: tuple[int, ...]
    size: int
    representative: Matching


@dataclass
class VertexCatalog:
    total: int
    orbits: list[OrbitEntry]
    exhaustive: bool
    meta: dict = field(default_factory=dict)

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)


def _dfs_vertices(family, nvars, on_leaf, prefix=()):
    """Depth-first walk of all selections with exact feasibility verdicts.

    A prefix pins the selections of the leading generators, which lets
    independent workers own disjoint subtrees.  The prefix is walked with
    the same `certify` steps as the whole tree, so every leaf gets the
    same witness for any split.
    """
    term_lists = [sorted(f.terms) for f in family]
    diff_lists = [[term_diffs(f, t) for t in terms]
                  for f, terms in zip(family, term_lists)]
    sel: list[tuple[int, ...]] = list(prefix)
    # the zero witness clears no difference, so the first step is solved
    system, witness = StrictSystem(nvars), [0] * nvars
    for level, t in enumerate(prefix):
        system, witness = certify(system, diff_lists[level][term_lists[level].index(t)],
                                  witness)
        if witness is None:
            return

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

    descend(len(prefix), system, witness)


def _subtree_worker(args):
    family, nvars, prefix = args
    leaves: list[tuple[tuple, list[int]]] = []
    _dfs_vertices(family, nvars, lambda s, w: leaves.append((s, w)), prefix)
    return leaves


def _catalog_from_leaves(family, leaves, group: CanonicalGroup, exhaustive: bool,
                         meta: dict) -> VertexCatalog:
    orbits: dict[tuple[int, ...], OrbitEntry] = {}
    seen_sums = set()
    for selection, witness in leaves:
        matching = make_matching(family, selection, witness=witness, coherent=True)
        if matching.exponent_sum in seen_sums:
            raise AssertionError("two coherent matchings share a vertex")
        seen_sums.add(matching.exponent_sum)
        canon = group.canonical(matching.exponent_sum)
        entry = orbits.get(canon)
        if entry is None:
            orbits[canon] = OrbitEntry(canonical=canon, size=1,
                                       representative=matching)
        else:
            entry.size += 1
            if matching.exponent_sum < entry.representative.exponent_sum:
                entry.representative = matching
    if not exhaustive:
        for entry in orbits.values():
            entry.size = group.orbit_size(entry.representative.exponent_sum)
    entries = [orbits[c] for c in sorted(orbits)]
    total = sum(e.size for e in entries)
    return VertexCatalog(total=total, orbits=entries, exhaustive=exhaustive,
                         meta=meta)


def enumerate_vertices_exhaustive(family, group: CanonicalGroup,
                                  cap: int = 1 << 20,
                                  workers: int = 1) -> VertexCatalog:
    """Classify every selection by exact feasibility.

    With workers > 1 the selection tree is split at the leading
    generators and subtrees run in a process pool; the merge order is
    fixed, so reports do not depend on the worker count.
    """
    family = list(family)
    space = prod(len(f.terms) for f in family)
    if space > cap:
        raise ValueError(f"selection space {space} exceeds cap {cap}")
    nvars = family[0].ring.nvars
    leaves: list[tuple[tuple, list[int]]] = []
    if workers <= 1 or len(family) < 4:
        _dfs_vertices(family, nvars, lambda s, w: leaves.append((s, w)))
    else:
        from itertools import product as iproduct
        from multiprocessing import Pool
        depth = 0
        width = 1
        while depth < len(family) - 1 and width < 4 * workers:
            width *= len(family[depth].terms)
            depth += 1
        prefixes = list(iproduct(*[sorted(f.terms) for f in family[:depth]]))
        with Pool(workers) as pool:
            for chunk in pool.imap(_subtree_worker,
                                   [(family, nvars, p) for p in prefixes]):
                leaves.extend(chunk)
    return _catalog_from_leaves(family, leaves, group, True,
                                {"mode": "exhaustive", "selections": space})


def enumerate_vertices_random(family, group: CanonicalGroup, *, trials: int,
                              stall_limit: int, seed: int) -> VertexCatalog:
    """Sample random integer weights; the total is a lower bound.

    The sampling box [1, 10k] doubles k after every 64 consecutive
    samples without a new orbit; stall_limit consecutive misses stop the
    search early.
    """
    family = list(family)
    nvars = family[0].ring.nvars
    rng = random.Random(seed)
    found: dict[tuple[int, ...], tuple[tuple, list[int]]] = {}
    seen_sums: set[tuple[int, ...]] = set()
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
            if m.exponent_sum in seen_sums:
                stall += 1
            else:
                seen_sums.add(m.exponent_sum)
                canon = group.canonical(m.exponent_sum)
                if canon not in found:
                    found[canon] = (m.selection, m.witness)
                    seen_sums.update(group.orbit(m.exponent_sum))
                    stall = 0
                else:
                    stall += 1
        if stall and stall % 64 == 0:
            scale = min(scale * 2, 1 << 20)
        if stall >= stall_limit:
            break
    leaves = [found[c] for c in sorted(found)]
    meta = {"mode": "random", "seed": seed, "trials": trials,
            "samples_used": used, "stall_limit": stall_limit,
            "total_is_lower_bound": True}
    return _catalog_from_leaves(family, leaves, group, False, meta)


def full_support(matrix_or_flat) -> bool:
    if matrix_or_flat and isinstance(matrix_or_flat[0], tuple):
        return all(v > 0 for row in matrix_or_flat for v in row)
    return all(v > 0 for v in matrix_or_flat)


def sagbi_defect(matching: Matching, reference_values, k_max: int,
                 grading: str = "normalized") -> int | None:
    """First degree where the matching's semigroup falls short of the
    reference Hilbert values, or None."""
    from .hilbert import semigroup_hilbert
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
    extending one matching several times share) is solved at most once.
    """
    family = matching.family + [g]
    if system is None:
        system = matching_system(matching)
    out = []
    for t in sorted(g.terms) if terms is None else terms:
        _, w = certify(system, term_diffs(g, t), matching.witness)
        if w is not None:
            selection = matching.selection + (t,)
            out.append(make_matching(family, selection, coherent=True,
                                     witness=_checked(family, selection, w)))
    return out


@lru_cache(maxsize=None)
def _matrix_ring(m: int, n: int, characteristic: int) -> MatrixRing:
    return MatrixRing(m, n, characteristic)


@lru_cache(maxsize=None)
def _sub_minor(m: int, n: int, characteristic: int, rows, cols) -> Minor:
    """Minor of the m x n matrix ring, shared between restrictions (Minor
    is frozen and no caller mutates its Polynomial)."""
    return Minor(rows, cols,
                 minor_polynomial(_matrix_ring(m, n, characteristic), rows, cols))


def restrict_matching(matching: Matching, minor_infos: list[Minor],
                      M: MatrixRing, columns) -> tuple[list[Minor], Matching]:
    """Induced matching on the minors supported inside a column subset."""
    columns = sorted(columns)
    colset = set(columns)
    colmap = {c: i for i, c in enumerate(columns)}
    char = M.ring.characteristic
    Msub = _matrix_ring(M.m, len(columns), char)

    def remap(exp):
        out = [0] * Msub.ring.nvars
        for i in range(M.m):
            for j in range(M.n):
                v = exp[M.cell(i, j)]
                if v:
                    if j not in colset:
                        raise ValueError("selected term leaves the column subset")
                    out[Msub.cell(i, colmap[j])] = v
        return tuple(out)

    sub_minors = []
    selection = []
    for minor, s in zip(minor_infos, matching.selection):
        if not set(minor.cols) <= colset:
            continue
        cols2 = tuple(colmap[c] for c in minor.cols)
        sub_minors.append(_sub_minor(M.m, len(columns), char, minor.rows, cols2))
        selection.append(remap(s))
    witness = None
    if matching.witness is not None:
        witness = [matching.witness[M.cell(i, j)]
                   for i in range(M.m) for j in columns]
    family = [mi.polynomial for mi in sub_minors]
    return sub_minors, make_matching(family, selection, witness=witness,
                                     coherent=matching.coherent)
