"""Exact feasibility of strict linear systems  w . d > 0.

Coherence of a term selection reduces to finding a weight vector w with
w . d >= 1 over all difference vectors d (selected exponent minus a
competing one).  By Gordan duality this system is infeasible exactly
when 0 is a convex combination of the d's, which a phase-1 simplex in
standard form decides.  All arithmetic is integer (fraction-free
pivoting), and feasibility is certified by an integer witness whose
margins are re-verified against every column before returning.

A `StrictSystem` grows by columns and is warm-started: adding columns
keeps the current basis primal feasible, so a child system continues
pivoting from its parent's optimal tableau instead of from the
artificial basis.  Before that, two rules read the columns alone.  A
system that holds a column d and also -d (d = 0 included) is
infeasible, since w . d >= 1 and -w . d >= 1 exclude each other; it is
refused without a tableau and without solving its parent.  A new column
that an ancestor already holds is dropped, since it never enters the
basis.  The simplex is the revised one (Dantzig and Orchard-Hays), kept
fraction-free (Bareiss): a tableau holds only den * B^-1 and
den * B^-1 b, and a difference column A, with a trailing 1 for the
convexity row, is priced when needed.  It enters row r as
sum_i T[r][art_i] * A[i] and has reduced cost
sum_i (obj[art_i] - den) * A[i], both integral.  A grown system shares
its parent's rows until its first pivot.  The pivots are those of the
dense tableau [A | I | b], column for column.  `strict_feasible` is the
one-shot entry point.
"""
from __future__ import annotations

from math import gcd
from operator import itemgetter, mul, neg

_BLAND_AFTER = 200
_MAX_PIVOTS = 50000
# basis code of artificial i: _ART + i, above every column index
_ART = 1 << 62


class StrictSystem:
    """The strict system w . d >= 1 over a set of integer difference
    columns of length nvars, which grows by `extended`.

    Each system indexes its own distinct new columns (a dict, in order).
    When `solve` first needs it, two rules read those indexes along the
    ancestor chain before anything is pivoted.  Opposite columns: a
    system with a new column whose negation is among its own new columns
    (a zero column is its own negation) or among an ancestor's is
    infeasible, and so are its children; its parent is not solved for it.
    Repeated columns: a new column that an ancestor already has is
    dropped from the index.

    A system that passes is solved from its parent's optimal tableau
    (solved first and kept for the parent's other children) plus its own
    columns, or from the artificial basis for a system made directly.  A
    solved feasible system holds that optimal phase-1 tableau in revised
    fraction-free form and never changes it, so its children share it.
    Only the basis inverse is kept: for the nvars + 1 constraint rows and
    the objective row, rows holds den * B^-1 (the artificial block) and
    den * B^-1 b (the rhs), short rows of length nvars + 2.  The
    difference columns are kept sparsely in cols, as the row positions of
    their nonzero entries (the convexity row included) and the values
    there; their tableau entries are computed when a pricing or a ratio
    test needs them.  basis codes artificial i as _ART + i, above every
    column index.  witness stays None while the system is unsolved or
    infeasible.
    """

    __slots__ = ("nvars", "_parent", "_new", "_solved",
                 "rows", "basis", "den", "cols", "witness")

    def __init__(self, nvars: int, diffs=()):
        self.nvars = nvars
        self._parent: StrictSystem | None = None
        self._new = dict.fromkeys(map(tuple, diffs))
        if any(len(d) != nvars for d in self._new):
            raise ValueError("difference vector length mismatch")
        self._solved = False
        self.witness: list[int] | None = None

    def extended(self, diffs) -> StrictSystem:
        """This system with the columns of diffs added; self is unchanged."""
        child = StrictSystem(self.nvars, diffs)
        child._parent = self
        return child

    def _optimal(self) -> StrictSystem | None:
        """This system, solved, or None when it is infeasible."""
        if not self._solved:
            self._solved = True
            if self._sifted():
                base = (_root(self.nvars) if self._parent is None
                        else self._parent._optimal())
                if base is not None:
                    self._grow(base)
        return None if self.witness is None else self

    def _sifted(self) -> bool:
        """Drop the new columns an ancestor already has; False when a new
        column's negation is a column too, among the new ones or an
        ancestor's."""
        new = self._new
        negated = {tuple(map(neg, c)) for c in new}
        if not negated.isdisjoint(new.keys()):
            return False
        # one lookup pass per ancestor that shares no column either way
        probe = negated.union(new)
        a = self._parent
        while a is not None:
            if not a._new.keys().isdisjoint(probe):
                if not a._new.keys().isdisjoint(negated):
                    return False
                for c in new.keys() & a._new.keys():
                    del new[c]
            a = a._parent
        return True

    def _grow(self, base: StrictSystem) -> None:
        """Pivot to optimality from base's optimal tableau with this
        system's sifted columns appended, and keep the tableau and its
        witness unless the system is infeasible.  base's reduced costs are
        nonnegative, so the first pricing skips its columns, and the rows
        are shared with base until the first pivot."""
        new = self._new
        if not new:
            self.rows, self.basis, self.den = base.rows, base.basis, base.den
            self.cols, self.witness = base.cols, base.witness
            return
        T, basis, den = base.rows, base.basis, base.den
        start = len(base.cols)
        nrows = len(basis)
        rhs = nrows
        obj = T[nrows]
        cols = base.cols + [(itemgetter(*[i for i, a in enumerate(c) if a], nrows - 1),
                             [a for a in c if a] + [1]) for c in new]

        pivots = 0
        while True:
            # reduced costs: sum_i (obj[art_i] - den) * A[i] for the y
            # columns from start on, then the artificials' own
            cost = [v - den for v in obj[:nrows]]
            reduced = [sum(map(mul, pick(cost), vals))
                       for pick, vals in cols[start:]]
            ny = len(reduced)
            reduced += obj[:nrows]
            # entering column: most negative reduced cost, Bland once
            # degenerate cycling becomes a risk
            if pivots < _BLAND_AFTER:
                j = reduced.index(min(reduced))
                if reduced[j] >= 0:
                    break
            else:
                j = next((j for j, v in enumerate(reduced) if v < 0), -1)
                if j < 0:
                    break
            # the entering column's entries: sum_i T[r][art_i] * A[i] for a
            # y column, the artificial block's column for an artificial
            if j < ny:
                q = start + j
                pick, vals = cols[q]
                column = [sum(map(mul, pick(T[r]), vals)) for r in range(nrows)]
                column.append(reduced[j])
            else:
                q = _ART + j - ny
                column = [row[j - ny] for row in T]
            # ratio test on rows with positive pivot column entry
            p = -1
            pn = pd = 0
            for i in range(nrows):
                tq = column[i]
                if tq > 0:
                    bi = T[i][rhs]
                    if p < 0 or bi * pd < pn * tq or (bi * pd == pn * tq
                                                      and basis[i] < basis[p]):
                        p, pn, pd = i, bi, tq
            if p < 0:
                raise RuntimeError("phase-1 objective unbounded; invalid input")
            piv = column[p]
            Tp = T[p]
            T = [Ti if i == p else
                 [(a * piv - tq * b) // den for a, b in zip(Ti, Tp)] if tq else
                 [a * piv // den for a in Ti]
                 for i, (Ti, tq) in enumerate(zip(T, column))]
            den = piv
            if not pivots:
                basis = list(basis)
            basis[p] = q
            obj = T[nrows]
            start = 0
            pivots += 1
            if pivots > _MAX_PIVOTS:
                raise RuntimeError("simplex pivot limit exceeded")

        # objective value z* = -obj[rhs] / den; zero means 0 lies in the
        # convex hull of the d's, i.e. the strict system has no solution
        if obj[rhs] == 0:
            return

        # dual multipliers give the witness: w_i = obj[artificial i] - den
        w = [obj[i] - den for i in range(nrows - 1)]
        g = gcd(*w)
        if g > 1:
            w = [v // g for v in w]
        # the convexity position picks 0, so each sum is w . d
        padded = w + [0]
        for pick, vals in cols:
            if sum(map(mul, pick(padded), vals)) < 1:
                raise AssertionError("witness verification failed")
        self.rows, self.basis, self.den, self.cols, self.witness = T, basis, den, cols, w

    def solve(self) -> list[int] | None:
        """Integer w with w . d >= 1 for every column d, or None if infeasible."""
        return None if self._optimal() is None else list(self.witness)


def _root(nvars: int) -> StrictSystem:
    """The solved system without columns: the artificial basis, optimal
    with the zero witness."""
    root = StrictSystem(nvars)
    nrows = nvars + 1
    root.rows = [[int(i == r) for i in range(nrows)] + [int(r == nvars)]
                 for r in range(nrows)] + [[0] * nrows + [-1]]
    root.basis = [_ART + i for i in range(nrows)]
    root.den = 1
    root.cols = []
    root.witness = [0] * nvars
    root._solved = True
    return root


def strict_feasible(diffs, nvars: int) -> list[int] | None:
    """Integer w with w . d >= 1 for every d in diffs, or None if infeasible.

    diffs: iterable of integer tuples of length nvars.
    """
    return StrictSystem(nvars, diffs).solve()
