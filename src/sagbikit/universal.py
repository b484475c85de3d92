"""Universal-basis verification workflows for algebras of minors.

Three cases: the 2-minors of a 3x3 matrix with determinant multiples,
the Grassmannian of 3-spaces in 6-space via the four structured vertex
types, and sampled coherent matchings for 3x7 with the column
restriction and repair recipe.  Any failed check raises
VerificationError carrying the offending matching.
"""
from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from itertools import product as iproduct
from math import comb
from operator import mul
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

# the case table and its runner live in `cases`; they keep their names here
from .cases import CASES, VerificationError, run_case  # noqa: F401
from .hilbert import RowSpace, expand_series, lex_key, semigroup_hilbert, vector_row
from .matchings import (Matching, certify, diagonal_matching,
                        enumerate_vertices_exhaustive, extend_matching, make_matching,
                        matching_from_weight, matching_system, term_diffs)
from .minors import (MatrixRing, bracket, bracket_name, determinant,
                     full_group, minors, pattern_stabilizer)
from .orders import TieError
from .rings import Polynomial


class CaseReport(NamedTuple):
    case: str
    details: Sequence[str] = ()
    meta: Mapping = MappingProxyType({})


# ---------------------------------------------------------------- A2(3,3)

A233_KMAX = 6


def _zero_cells(flat, m, n):
    return [(i, j) for i in range(m) for j in range(n) if flat[i * n + j] == 0]


def verify_a233() -> CaseReport:
    """Every coherent matching of the 2-minors extends, by determinant
    multiples at its zero cells, to a free-algebra Hilbert function."""
    M = MatrixRing(3, 3)
    fam = [mi.polynomial for mi in minors(2, M)]
    delta = determinant(M)
    group = full_group(3, 3)
    catalog = enumerate_vertices_exhaustive(fam, group)
    if catalog.total != 102 or len(catalog.orbits) != 5:
        raise VerificationError(
            f"expected 102 vertices in 5 orbits, got {catalog.total}/{len(catalog.orbits)}")
    free = [comb(k + 8, 8) for k in range(A233_KMAX + 1)]
    details = []
    for entry in catalog.orbits:
        rep = entry.representative
        extensions = extend_matching(rep, delta)
        if not extensions:
            raise VerificationError("no coherent determinant extension", rep)
        for ext in extensions:
            zeros = _zero_cells(ext.exponent_sum, 3, 3)
            if zeros != _zero_cells(rep.exponent_sum, 3, 3):
                raise VerificationError("determinant term hits a zero cell", ext)
            if len(zeros) > 3:
                raise VerificationError(f"{len(zeros)} additions needed", ext)
            delta_sel = ext.selection[-1]
            additions = []
            for i, j in zeros:
                e = list(delta_sel)
                e[M.cell(i, j)] += 1
                additions.append(tuple(e))
            exps = list(rep.selection) + additions
            values = semigroup_hilbert(exps, A233_KMAX, M.ring).values
            if values != free:
                raise VerificationError(
                    f"repaired Hilbert values {values} != free algebra {free}", ext)
        details.append(f"orbit {entry.canonical}: size {entry.size}, "
                       f"{len(zeros)} additions, {len(extensions)} extensions")
    return CaseReport(case="A233", details=details,
                      meta={"vertices": catalog.total, "orbits": len(catalog.orbits)})


# ---------------------------------------------------------------- G(3,6)

# numerator of the Hilbert series of the Grassmannian of 3-spaces in 6-space
G36_NUMERATOR = (1, 10, 20, 10, 1)
G36_DIM = 10
G36_KMAX = 5
# numerator of the one defective orbit per structured type
G36_BAD_NUMERATOR = (1, 10, 19, 8)

# the four structured vertex types: forgotten cells (0-based), stabilizer
# order, vertex/orbit counts, the all-even representative, and the
# bracket 6-tuple u whose pattern [u1u2u3][u4u5u6]-[u1u2u4][u3u5u6]
# repairs the defective orbit
G36_TYPES = [
    {"name": "type1",
     "zeros": {(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)},
     "stabilizer_order": 36, "vertices": 108, "orbits": 5,
     "bad": ((10, 0, 0, 6, 2, 2), (0, 10, 0, 2, 6, 2), (0, 0, 10, 2, 2, 6)),
     "g": (1, 4, 2, 5, 3, 6)},
    {"name": "type2",
     "zeros": {(1, 0), (2, 0), (2, 1), (0, 4), (0, 5), (1, 5)},
     "stabilizer_order": 4, "vertices": 80, "orbits": 22,
     "bad": ((10, 2, 6, 2, 0, 0), (0, 8, 2, 2, 8, 0), (0, 0, 2, 6, 2, 10)),
     "g": (1, 3, 2, 5, 4, 6)},
    {"name": "type3",
     "zeros": {(1, 0), (2, 1), (2, 2), (0, 3), (0, 4), (1, 4)},
     "stabilizer_order": 4, "vertices": 92, "orbits": 24,
     "bad": ((8, 8, 2, 0, 0, 2), (0, 2, 8, 8, 0, 2), (2, 0, 0, 2, 10, 6)),
     "g": (3, 4, 1, 2, 5, 6)},
    {"name": "type4",
     "zeros": {(0, 0), (0, 1), (1, 2), (1, 3), (2, 4), (2, 5)},
     "stabilizer_order": 48, "vertices": 160, "orbits": 6,
     "bad": ((0, 0, 2, 8, 8, 2), (8, 2, 0, 0, 2, 8), (2, 8, 8, 2, 0, 0)),
     "g": (2, 3, 4, 5, 1, 6)},
]


def bracket_pair(M: MatrixRing, u) -> Polynomial:
    """[u1,u2,u3][u4,u5,u6] - [u1,u2,u4][u3,u5,u6] for 1-based labels."""
    c = [x - 1 for x in u]
    return (bracket(M, (c[0], c[1], c[2])) * bracket(M, (c[3], c[4], c[5]))
            - bracket(M, (c[0], c[1], c[3])) * bracket(M, (c[2], c[4], c[5])))


def bracket_pair_name(u) -> str:
    """The text [u1,u2,u3][u4,u5,u6] that names `bracket_pair(M, u)`."""
    return bracket_name([x - 1 for x in u[:3]]) + bracket_name([x - 1 for x in u[3:]])


def drop_cells(f: Polynomial, M: MatrixRing, cells) -> Polynomial:
    """Set the variables at the given cells to zero."""
    idx = {M.cell(i, j) for i, j in cells}
    return Polynomial(f.ring, {e: c for e, c in f.terms.items()
                               if not any(e[k] for k in idx)})


def g36_reference() -> list[int]:
    return expand_series(G36_NUMERATOR, G36_DIM, G36_KMAX)


def structured_family(M: MatrixRing, zeros) -> list[Polynomial]:
    fam = []
    for mi in minors(3, M):
        f = drop_cells(mi.polynomial, M, zeros)
        if f.is_zero():
            raise VerificationError("structured minor vanished entirely")
        fam.append(f)
    return fam


def verify_g36() -> CaseReport:
    """Per structured type: enumerate vertices, find the unique defective
    orbit, confirm it is the all-even one, and repair it by one orbit
    element of the quadratic bracket difference."""
    M = MatrixRing(3, 6)
    full_minors = [mi.polynomial for mi in minors(3, M)]
    ref = g36_reference()
    bad_ref = expand_series(G36_BAD_NUMERATOR, G36_DIM, G36_KMAX)
    details = []
    meta = {}
    for spec_t in G36_TYPES:
        name = spec_t["name"]
        group = pattern_stabilizer(3, 6, spec_t["zeros"])
        if len(group) != spec_t["stabilizer_order"]:
            raise VerificationError(
                f"{name}: stabilizer order {len(group)} != {spec_t['stabilizer_order']}")
        fam = structured_family(M, spec_t["zeros"])
        catalog = enumerate_vertices_exhaustive(fam, group)
        if (catalog.total, len(catalog.orbits)) != (spec_t["vertices"], spec_t["orbits"]):
            raise VerificationError(
                f"{name}: got {catalog.total} vertices/{len(catalog.orbits)} orbits, "
                f"expected {spec_t['vertices']}/{spec_t['orbits']}")
        defective = []
        for entry in catalog.orbits:
            values = semigroup_hilbert(entry.representative.selection, G36_KMAX,
                                       M.ring).values
            is_even = all(v % 2 == 0 for v in entry.representative.exponent_sum)
            if values == ref:
                if is_even:
                    raise VerificationError(f"{name}: all-even orbit is not defective",
                                            entry.representative)
            else:
                if not is_even:
                    raise VerificationError(
                        f"{name}: defective orbit has an odd coordinate",
                        entry.representative)
                defective.append((entry, values))
        if len(defective) != 1:
            raise VerificationError(f"{name}: {len(defective)} defective orbits")
        entry, bad_values = defective[0]
        if bad_values != bad_ref:
            raise VerificationError(
                f"{name}: defective values {bad_values} != {bad_ref}")
        if group.canonical(M.to_flat(spec_t["bad"])) != entry.canonical:
            raise VerificationError(f"{name}: defective orbit is not the recorded one",
                                    entry.representative)
        # repair: the bracket element is tied to the recorded representative,
        # so push it through a symmetry onto the computed one before
        # extending the matching over the full minors
        bad = entry.representative
        mapped = transport_bracket_tuple(spec_t["bad"], M.to_matrix(bad.exponent_sum),
                                         spec_t["g"], list(range(6)))
        if mapped is None:
            raise VerificationError(f"{name}: representative not conjugate to the "
                                    f"recorded matrix", bad)
        g = bracket_pair(M, mapped)
        base = make_matching(full_minors, bad.selection)
        extensions = extend_matching(base, g)
        if not extensions:
            raise VerificationError(f"{name}: no coherent repair extension", bad)
        fv = {M.cell(i, j) for i, j in spec_t["zeros"]}
        for ext in extensions:
            # a coherent extension can never revive a forgotten variable
            if any(ext.selection[-1][k] for k in fv):
                raise VerificationError(f"{name}: extension uses a forgotten "
                                        f"variable", ext)
            values = semigroup_hilbert(ext.selection, G36_KMAX, M.ring).values
            if values != ref:
                raise VerificationError(f"{name}: repair gives {values} != {ref}", ext)
        details.append(f"{name}: {catalog.total} vertices/{len(catalog.orbits)} orbits, "
                       f"defective all-even orbit repaired by "
                       f"{len(extensions)} extension(s) of "
                       f"{bracket_pair_name(mapped)} minus its straightening partner")
        meta[name] = {"vertices": catalog.total, "orbits": len(catalog.orbits),
                      "extensions": len(extensions)}
    return CaseReport(case="G36", details=details, meta=meta)


# ---------------------------------------------------------------- G(3,7)

def random_coherent_matching(fam, rng) -> Matching:
    """Rejection-sample a generic integer weight vector, entries in 1..10^6."""
    nvars = fam[0].ring.nvars
    while True:
        w = [rng.randint(1, 10 ** 6) for _ in range(nvars)]
        try:
            return matching_from_weight(fam, w)
        except TieError:
            continue


def transport_bracket_tuple(bad_rep, target_matrix, g_tuple, col_labels):
    """Find a symmetry carrying the recorded all-even representative to the
    restriction matrix, and push the bracket 6-tuple through it.  Per row
    placement, each column goes to the first unused equal target column:
    equal columns are interchangeable, so this finds the lexicographically
    first symmetry whenever there is one."""
    for rp in permutations(range(len(bad_rep))):
        placed = list(zip(*[target_matrix[r] for r in rp]))
        cp = []
        for col in zip(*bad_rep):
            k = next((k for k, c in enumerate(placed) if c == col and k not in cp), None)
            if k is None:
                break
            cp.append(k)
        else:
            return tuple(col_labels[cp[c - 1]] + 1 for c in g_tuple)
    return None


@lru_cache(maxsize=None)
def _pair_plan(minor_cols: tuple[tuple[int, ...], ...], n: int):
    """The pairs a <= b of minors, and per column i the minors and the
    pairs (positions in that list) that avoid column i."""
    pairs = list(combinations_with_replacement(range(len(minor_cols)), 2))
    avoiding = [[a for a, cols in enumerate(minor_cols) if i not in cols]
                for i in range(n)]
    pair_positions = [[p for p, (a, b) in enumerate(pairs)
                       if i not in minor_cols[a] and i not in minor_cols[b]]
                      for i in range(n)]
    return pairs, avoiding, pair_positions


def column_restrictions(selection, minor_list, n: int):
    """Degree-2 counts of a matching of t-minors of an m x n matrix and of
    its column restrictions, from one table of packed pairwise sums.

    With every minor of one degree, the degree-2 Hilbert value of the
    matching's semigroup is the number of distinct sums of two selected
    terms.  Returns that count and, per column i, the count and the
    exponent sum of the restriction to the minors that avoid column i:
    what `restrict_matching` and `semigroup_hilbert` give, except that the
    exponent sum stays in the m x n coordinates, where column i is zero.
    """
    pairs, avoiding, pair_positions = _pair_plan(
        tuple(mi.cols for mi in minor_list), n)
    # no entry of a pair sum exceeds twice the largest selected entry
    key = lex_key(len(selection[0]), 2 * max(map(max, selection)))
    packed = [sum(map(mul, key, e)) for e in selection]
    sums = [packed[a] + packed[b] for a, b in pairs]
    per_column = [(len(set(map(sums.__getitem__, positions))),
                   tuple(map(sum, zip(*[selection[a] for a in minors_i]))))
                  for minors_i, positions in zip(avoiding, pair_positions)]
    return len(set(sums)), per_column


def verify_g37_sampled(count: int, seed: int) -> CaseReport:
    """Prop-style sampled check for 3x7: degree-2 defect at most 3, located
    by the all-even restrictions, and repaired by transported bracket
    elements."""
    M7 = MatrixRing(3, 7)
    minors7 = minors(3, M7)
    fam7 = [mi.polynomial for mi in minors7]
    M6 = MatrixRing(3, 6)

    # degree-2 reference values from the two SAGBI diagonal matchings
    diag7 = diagonal_matching(M7, minors7)
    h2_g37 = semigroup_hilbert(diag7.selection, 2, M7.ring).values[2]
    diag6 = diagonal_matching(M6, minors(3, M6))
    h2_g36 = semigroup_hilbert(diag6.selection, 2, M6.ring).values[2]
    if h2_g37 != 490 or h2_g36 != 175:
        raise VerificationError("reference degree-2 dimensions are off")

    rng = random.Random(seed)
    hist = {0: 0, 1: 0, 2: 0, 3: 0}
    details = []
    for sample_idx in range(count):
        T = random_coherent_matching(fam7, rng)
        deg2, per_column = column_restrictions(T.selection, minors7, 7)
        h = h2_g37 - deg2
        if h < 0 or h > 3:
            raise VerificationError(f"sample {sample_idx}: defect {h} outside 0..3", T)
        even_cols = []
        transported = []
        mapped_tuples = []
        for i, (sub2, esum) in enumerate(per_column):
            all_even = all(v % 2 == 0 for v in esum)
            if all_even != (sub2 != h2_g36):
                raise VerificationError(
                    f"sample {sample_idx}: evenness and degree-2 defect disagree "
                    f"on column {i}", T)
            if not all_even:
                continue
            even_cols.append(i)
            cols = [c for c in range(7) if c != i]
            D = tuple(tuple(esum[M7.cell(r, c)] for c in cols) for r in range(3))
            u10 = sum(1 for row in D for v in row if v == 10)
            spec_t = G36_TYPES[4 - u10 - 1]
            mapped = transport_bracket_tuple(spec_t["bad"], D, spec_t["g"], cols)
            if mapped is None:
                raise VerificationError(
                    f"sample {sample_idx}: restriction not conjugate to the "
                    f"recorded type", T)
            mapped_tuples.append(mapped)
            transported.append(bracket_pair(M7, mapped))
        if len(even_cols) != h:
            raise VerificationError(
                f"sample {sample_idx}: {len(even_cols)} all-even restrictions, "
                f"defect {h}", T)
        hist[h] += 1
        if not even_cols:
            continue
        # all coherent augmentations by the transported elements must
        # restore the degree-2 dimension; any coherent augmentation stays
        # inside the rational span of the matching (the Hilbert bound
        # caps the semigroup dimension at 13), so terms outside it are
        # infeasible without an LP call
        span = RowSpace(map(vector_row, T.selection))
        if len(span) != 3 * (7 - 3) + 1:
            raise VerificationError(
                f"sample {sample_idx}: matching rank {len(span)} != 13", T)
        # one system of T's differences serves every extension below; it
        # is solved at most once, and not at all when T's witness clears
        # every candidate or the candidate's differences hold the negation
        # of one of T's or of each other (the LP would only find that
        # infeasible)
        system = matching_system(T)
        term_choices = []
        for g in transported:
            cands = [t for t in sorted(g.terms) if vector_row(t) in span]
            feasible = [ext.selection[-1]
                        for ext in extend_matching(T, g, cands, system)]
            if not feasible:
                raise VerificationError(
                    f"sample {sample_idx}: no coherent extension for a repair", T)
            term_choices.append(feasible)
        combos = list(iproduct(*term_choices))
        any_ok = False
        for combo in combos:
            new = [d for g, t in zip(transported, combo) for d in term_diffs(g, t)]
            if len(combo) > 1 and certify(system, new, T.witness)[1] is None:
                continue
            any_ok = True
            values = semigroup_hilbert(T.selection + combo, 2, M7.ring).values
            if values[2] != h2_g37:
                raise VerificationError(
                    f"sample {sample_idx}: augmentation left degree 2 at "
                    f"{values[2]}", T)
        if not any_ok:
            raise VerificationError(
                f"sample {sample_idx}: no coherent simultaneous augmentation", T)
        details.append(f"sample {sample_idx}: defect {h} repaired by "
                       f"{', '.join(map(bracket_pair_name, mapped_tuples))} "
                       f"({len(combos)} augmentation(s))")
    return CaseReport(case="G37_sampled", details=details,
                      meta={"count": count, "seed": seed, "defect_histogram": hist})
