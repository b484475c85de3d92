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
artificial basis.  In fraction-free form a new column A (the difference
with a trailing 1 for the convexity row) enters row r as
sum_i T[r][art_i] * A[i], which stays integral, with reduced cost
sum_i (obj[art_i] - den) * A[i].  `strict_feasible` is the one-shot
entry point; its first tableau is the same as a cold solve's.
"""
from __future__ import annotations

from math import gcd
from operator import itemgetter, mul

_BLAND_AFTER = 200
_MAX_PIVOTS = 50000


class _Tableau:
    """An optimal phase-1 tableau in fraction-free form: the actual
    tableau is rows / den.  Rows 0..nvars are the constraints
    [y columns | artificials | rhs], the last row holds the reduced
    costs of the phase-1 objective (min sum of artificials); cols lists
    the y columns.  A tableau is not changed once it is optimal, so
    systems share it."""

    __slots__ = ("rows", "basis", "den", "cols", "witness")

    def __init__(self, rows, basis, den, cols):
        self.rows = rows
        self.basis = basis
        self.den = den
        self.cols = cols
        self.witness = None

    @classmethod
    def empty(cls, nvars: int) -> _Tableau:
        nrows = nvars + 1
        rows = [[int(i == r) for i in range(nrows)] + [int(r == nvars)]
                for r in range(nrows)]
        rows.append([0] * nrows + [-1])
        t = cls(rows, list(range(nrows)), 1, [])
        t.witness = [0] * nvars
        return t

    def grown(self, new) -> _Tableau | None:
        """The optimal tableau after adding the columns of new that are
        not in this one yet (inserted before the artificials), or None
        when the grown system is infeasible."""
        seen = set(self.cols)
        new = [c for c in dict.fromkeys(new) if c not in seen]
        if not new:
            return self
        m = len(self.cols)
        nrows = len(self.basis)
        # each new column as its nonzero entries: the artificial columns
        # they pick from a row, and their values
        sparse = [(itemgetter(*[i for i, a in enumerate(c) if a], nrows - 1),
                   [a for a in c if a] + [1]) for c in new]

        def entries(art):
            return [sum(map(mul, pick(art), vals)) for pick, vals in sparse]

        rows = [row[:m] + entries(row[m:]) + row[m:] for row in self.rows[:-1]]
        obj = self.rows[-1]
        rows.append(obj[:m] + entries([v - self.den for v in obj[m:m + nrows]])
                    + obj[m:])
        k = len(new)
        basis = [b if b < m else b + k for b in self.basis]
        t = _Tableau(rows, basis, self.den, self.cols + new)
        return t if t._optimize() else None

    def _optimize(self) -> bool:
        """Pivot to optimality from the current (primal feasible) basis;
        False when the system is infeasible, else the witness is set."""
        T = self.rows
        basis = self.basis
        den = self.den
        m = len(self.cols)
        nrows = len(basis)
        ncols = len(T[0])
        rhs = ncols - 1
        objrow = T[nrows]

        pivots = 0
        while True:
            # entering column: most negative reduced cost, Bland once
            # degenerate cycling becomes a risk
            q = -1
            if pivots < _BLAND_AFTER:
                best = 0
                for j in range(ncols - 1):
                    v = objrow[j]
                    if v < best:
                        best = v
                        q = j
            else:
                for j in range(ncols - 1):
                    if objrow[j] < 0:
                        q = j
                        break
            if q < 0:
                break
            # ratio test on rows with positive pivot column entry
            p = -1
            pn = pd = 0
            for i in range(nrows):
                tq = T[i][q]
                if tq > 0:
                    bi = T[i][rhs]
                    if p < 0 or bi * pd < pn * tq or (bi * pd == pn * tq
                                                      and basis[i] < basis[p]):
                        p, pn, pd = i, bi, tq
            if p < 0:
                raise RuntimeError("phase-1 objective unbounded; invalid input")
            piv = T[p][q]
            Tp = T[p]
            if den == 1:
                for i in range(nrows + 1):
                    if i == p:
                        continue
                    Ti = T[i]
                    tq = Ti[q]
                    if tq:
                        T[i] = [a * piv - tq * b for a, b in zip(Ti, Tp)]
                    else:
                        T[i] = [a * piv for a in Ti]
            else:
                for i in range(nrows + 1):
                    if i == p:
                        continue
                    Ti = T[i]
                    tq = Ti[q]
                    if tq:
                        T[i] = [(a * piv - tq * b) // den for a, b in zip(Ti, Tp)]
                    else:
                        T[i] = [a * piv // den for a in Ti]
            den = piv
            basis[p] = q
            objrow = T[nrows]
            pivots += 1
            if pivots > _MAX_PIVOTS:
                raise RuntimeError("simplex pivot limit exceeded")
        self.den = den

        # objective value z* = -objrow[rhs] / den; zero means 0 lies in the
        # convex hull of the d's, i.e. the strict system has no solution
        if objrow[rhs] == 0:
            return False

        # dual multipliers give the witness: w_i = objrow[artificial i] - den
        w = [objrow[m + i] - den for i in range(nrows - 1)]
        g = 0
        for v in w:
            g = gcd(g, v)
        if g > 1:
            w = [v // g for v in w]
        for d in self.cols:
            if sum(map(mul, w, d)) < 1:
                raise AssertionError("witness verification failed")
        self.witness = w
        return True


class StrictSystem:
    """The strict system w . d >= 1 over a set of integer difference
    columns of length nvars, which grows by `extended`.

    A system never changes once made.  Its tableau is built only when
    `solve` needs it: from its parent's optimal tableau (solved first and
    kept for the parent's other children) plus its own columns, or from
    the artificial basis for a system made directly.
    """

    def __init__(self, nvars: int, diffs=()):
        self.nvars = nvars
        self._parent: StrictSystem | None = None
        self._new = [tuple(d) for d in diffs]
        if any(len(d) != nvars for d in self._new):
            raise ValueError("difference vector length mismatch")
        # a zero column is never cleared: the system is infeasible
        self._zero = not all(map(any, self._new))
        self._solved = False
        self._tableau: _Tableau | None = None

    def extended(self, diffs) -> StrictSystem:
        """This system with the columns of diffs added; self is unchanged."""
        child = StrictSystem(self.nvars, diffs)
        child._parent = self
        return child

    def _optimal(self) -> _Tableau | None:
        """This system's optimal tableau, or None when it is infeasible."""
        if not self._solved:
            if self._zero:
                base = None
            elif self._parent is None:
                base = _Tableau.empty(self.nvars)
            else:
                base = self._parent._optimal()
            self._tableau = None if base is None else base.grown(self._new)
            self._solved = True
        return self._tableau

    def solve(self) -> list[int] | None:
        """Integer w with w . d >= 1 for every column d, or None if infeasible."""
        t = self._optimal()
        return None if t is None else list(t.witness)


def strict_feasible(diffs, nvars: int) -> list[int] | None:
    """Integer w with w . d >= 1 for every d in diffs, or None if infeasible.

    diffs: iterable of integer tuples of length nvars.
    """
    return StrictSystem(nvars, diffs).solve()
