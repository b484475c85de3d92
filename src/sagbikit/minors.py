"""Variable matrices, their minors, diagonal orders, and symmetry.

The symmetry group permutes rows and columns and, in the square case,
transposes the matrix; each symmetry is held as its flat index map.
Exponent vectors of the matrix ring are interchangeable with m x n
exponent matrices (row-major flattening).
"""
from __future__ import annotations

from collections import Counter
from itertools import chain, combinations, permutations
from math import factorial, prod
from typing import NamedTuple

from .orders import MonomialOrder, lex_order
from .rings import Polynomial, RingContext


class MatrixRing:
    """Polynomial ring on the entries of an m x n matrix of variables."""

    __slots__ = ("m", "n", "ring")

    def __init__(self, m: int, n: int, characteristic: int = 0):
        if m < 1 or n < 1:
            raise ValueError("matrix dimensions must be positive")
        self.m = m
        self.n = n
        wide = m > 9 or n > 9
        names = [f"X{i + 1}_{j + 1}" if wide else f"X{i + 1}{j + 1}"
                 for i in range(m) for j in range(n)]
        self.ring = RingContext(names, characteristic)

    def cell(self, i: int, j: int) -> int:
        """Flat variable index of entry (i, j), 0-based."""
        return i * self.n + j

    def to_matrix(self, exp: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        n = self.n
        return tuple(tuple(exp[i * n:(i + 1) * n]) for i in range(self.m))

    def to_flat(self, matrix) -> tuple[int, ...]:
        return tuple(v for row in matrix for v in row)


class Minor(NamedTuple):
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    polynomial: Polynomial


def minor_polynomial(M: MatrixRing, rows, cols) -> Polynomial:
    """Leibniz expansion; the identity-permutation (main diagonal) term is +1."""
    rows = tuple(rows)
    cols = tuple(cols)
    t = len(rows)
    if t != len(cols):
        raise ValueError("row and column counts differ")
    terms = {}
    nv = M.ring.nvars
    for perm in permutations(range(t)):
        exp = [0] * nv
        for a in range(t):
            exp[M.cell(rows[a], cols[perm[a]])] += 1
        # the sign is the parity of the inversions
        terms[tuple(exp)] = (-1) ** sum(p > q for p, q in combinations(perm, 2))
    return Polynomial(M.ring, terms)


def minors(t: int, M: MatrixRing) -> list[Minor]:
    """All t-minors in lexicographic (rows, cols) order."""
    if t < 1 or t > min(M.m, M.n):
        raise ValueError(f"t={t} out of range for {M.m}x{M.n}")
    out = []
    for rows in combinations(range(M.m), t):
        for cols in combinations(range(M.n), t):
            out.append(Minor(rows, cols, minor_polynomial(M, rows, cols)))
    return out


def diagonal_order(M: MatrixRing) -> MonomialOrder:
    """Row-major lex; every minor's leading term is its main diagonal."""
    return lex_order(M.ring.nvars)


def submax_lex_order(M: MatrixRing) -> MonomialOrder:
    """Lex with X11 > X22 > ... > Xmm ahead of the remaining variables."""
    if M.m != M.n:
        raise ValueError("square matrix required")
    diag = [M.cell(i, i) for i in range(M.m)]
    rest = [k for k in range(M.ring.nvars) if k not in set(diag)]
    return lex_order(M.ring.nvars, diag + rest)


def bracket(M: MatrixRing, cols) -> Polynomial:
    """Maximal minor on the given (0-based) columns, signed by their order."""
    cols = tuple(cols)
    if len(cols) != M.m or len(set(cols)) != M.m:
        raise ValueError("need m distinct columns")
    # the Leibniz expansion over the columns as given carries the sign
    return minor_polynomial(M, range(M.m), cols)


def bracket_name(cols) -> str:
    return "[" + ",".join(str(c + 1) for c in cols) + "]"


def determinant(M: MatrixRing) -> Polynomial:
    if M.m != M.n:
        raise ValueError("square matrix required")
    return minor_polynomial(M, tuple(range(M.m)), tuple(range(M.n)))


def _index_map(m: int, n: int, row, col, transpose: bool = False) -> tuple[int, ...]:
    """The flat index map of a symmetry: cell (i, j), after transposing
    first when transpose is set (square only), lands at (row[i], col[j]).
    Entry k of the map is the flat cell that lands at k, so a row-major
    flattening maps to tuple(flat[i] for i in idx)."""
    idx = [0] * (m * n)
    for i in range(m):
        for j in range(n):
            a, b = (j, i) if transpose else (i, j)
            idx[row[i] * n + col[j]] = a * n + b
    return tuple(idx)


class CanonicalGroup:
    """A set of symmetries of m x n exponent matrices, each held as its
    flat index map (see _index_map), for fast canonicalization.  Equal
    maps are kept: the count includes them.

    full marks the whole of S_m x S_n (with the transpose when m == n):
    its canonical form is found by sorting columns, per row permutation,
    instead of by a minimum over all index maps."""

    def __init__(self, m: int, n: int, index_maps: list[tuple[int, ...]],
                 full: bool = False):
        self.m = m
        self.n = n
        self.index_maps = index_maps
        self.full = full

    def _placements(self, flat: tuple[int, ...]):
        """The rows of flat's matrix, and the matrices a row permutation is
        applied to: the matrix and, when square, its transpose."""
        n = self.n
        rows = [flat[i:i + n] for i in range(0, len(flat), n)]
        return rows, ([rows, list(zip(*rows))] if self.m == n else [rows])

    def canonical(self, flat: tuple[int, ...]) -> tuple[int, ...]:
        """Lexicographically smallest row-major flattening over the orbit:
        two exponent matrices lie in one orbit exactly when their canonical
        forms agree."""
        if not self.full:
            return min(tuple(flat[i] for i in idx) for idx in self.index_maps)
        rows, mats = self._placements(flat)

        def flattened(mat, row_perm):
            # with the rows placed, the smallest row-major flattening
            # lists the columns in lexicographic order
            cols = sorted(zip(*[mat[i] for i in row_perm]))
            return tuple(chain.from_iterable(zip(*cols)))

        return min(flattened(mat, rp) for mat in mats
                   for rp in permutations(range(self.m)))

    def orbit(self, flat: tuple[int, ...]) -> set[tuple[int, ...]]:
        return {tuple(flat[i] for i in idx) for idx in self.index_maps}

    def orbit_size(self, flat: tuple[int, ...]) -> int:
        """The orbit's size; for the full group |G| / |Stab(flat)|.

        An element with row permutation r fixes the matrix M, or maps it
        to its transpose M^T when it transposes, exactly when its column
        permutation carries the columns of M, with rows permuted by r, onto
        the columns of M (resp. of M^T).  That needs the two to hold the
        same columns with the same multiplicities, and then there are
        prod(multiplicity!) such column permutations."""
        if not self.full:
            return len(self.orbit(flat))
        rows, mats = self._placements(flat)
        targets = [sorted(zip(*mat)) for mat in mats]
        fixing = sum(sorted(zip(*[rows[i] for i in rp])) == target
                     for rp in permutations(range(self.m)) for target in targets)
        ways = prod(map(factorial, Counter(zip(*rows)).values()))
        return len(self) // (fixing * ways)

    def __len__(self):
        return len(self.index_maps)


def full_group(m: int, n: int) -> CanonicalGroup:
    """S_m x S_n, extended by the transpose when m == n: per row and then
    column permutation, the plain map and then, when square, the map
    after transposing."""
    maps = []
    for rp in permutations(range(m)):
        for cp in permutations(range(n)):
            maps.append(_index_map(m, n, rp, cp))
            if m == n:
                maps.append(_index_map(m, n, rp, cp, True))
    return CanonicalGroup(m, n, maps, full=True)


def full_group_generators(m: int, n: int) -> CanonicalGroup:
    """Generators of full_group(m, n): a transposition and a full cycle of
    the rows, the same of the columns, and the transpose when m == n."""
    rows, cols = tuple(range(m)), tuple(range(n))
    maps = [_index_map(m, n, rows[1::-1] + rows[2:], cols),
            _index_map(m, n, rows[1:] + rows[:1], cols),
            _index_map(m, n, rows, cols[1::-1] + cols[2:]),
            _index_map(m, n, rows, cols[1:] + cols[:1])]
    if m == n:
        maps.append(_index_map(m, n, rows, cols, True))
    return CanonicalGroup(m, n, maps)


def pattern_stabilizer(m: int, n: int, zero_cells: set[tuple[int, int]]) -> CanonicalGroup:
    """Row/column permutations preserving a set of zero positions."""
    maps = [_index_map(m, n, rp, cp)
            for rp in permutations(range(m)) for cp in permutations(range(n))
            if all((rp[i], cp[j]) in zero_cells for i, j in zero_cells)]
    return CanonicalGroup(m, n, maps)
