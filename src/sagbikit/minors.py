"""Variable matrices, their minors, diagonal orders, and symmetry.

The symmetry group permutes rows and columns and, in the square case,
transposes the matrix.  Exponent vectors of the matrix ring are
interchangeable with m x n exponent matrices (row-major flattening).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, permutations
from math import comb, factorial, prod

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


@dataclass(frozen=True)
class Minor:
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    polynomial: Polynomial


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


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
        terms[tuple(exp)] = _perm_sign(perm)
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


def Q_matrix(m: int) -> tuple[tuple[int, ...], ...]:
    """d_m * I + all-ones with d_m = (m-1)^2 - 1."""
    if m < 2:
        raise ValueError("m must be at least 2")
    d = (m - 1) ** 2 - 1
    return tuple(tuple((d if i == j else 0) + 1 for j in range(m))
                 for i in range(m))


def B_sets(M: MatrixRing) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Diagonal-path monomial sets controlling dimensions of matchings.

    The big set consists of products X_{1,j_1}...X_{m,j_m} with
    j_1+...+j_m <= n (1-based column labels); the small one is its
    algebraically independent subset of m(n-m)+1 elements.
    """
    m, n = M.m, M.n
    if m > n:
        raise ValueError("need m <= n")
    big = []

    def rec(i, total, exp):
        if i == m:
            big.append(tuple(exp))
            return
        for j in range(1, n + 1):
            if total + j > n - (m - 1 - i):
                break
            exp[M.cell(i, j - 1)] += 1
            rec(i + 1, total + j, exp)
            exp[M.cell(i, j - 1)] -= 1

    rec(0, 0, [0] * M.ring.nvars)
    small = set()
    for i in range(m):
        for j in range(1, n - m + 2):
            exp = [0] * M.ring.nvars
            for k in range(m):
                exp[M.cell(k, 0)] += 1
            exp[M.cell(i, 0)] -= 1
            exp[M.cell(i, j - 1)] += 1
            small.add(tuple(exp))
    small = sorted(small)
    assert len(small) == m * (n - m) + 1
    return big, small


def bracket(M: MatrixRing, cols) -> Polynomial:
    """Maximal minor on the given (0-based) columns, signed by their order."""
    cols = tuple(cols)
    if len(cols) != M.m or len(set(cols)) != M.m:
        raise ValueError("need m distinct columns")
    order = sorted(range(M.m), key=lambda a: cols[a])
    sign = _perm_sign(tuple(order))
    f = minor_polynomial(M, tuple(range(M.m)), tuple(sorted(cols)))
    return f if sign == 1 else -f


def bracket_name(cols) -> str:
    return "[" + ",".join(str(c + 1) for c in cols) + "]"


def _sign_normalized(f: Polynomial) -> Polynomial:
    """Fix a representative of {f, -f}: greatest exponent has coefficient > 0."""
    if f.is_zero():
        return f
    top = max(f.terms)
    return f if f.terms[top] > 0 else -f


def of_orbit(n: int) -> list[Polynomial]:
    """Column-permutation orbit, modulo sign, of the quadratic bracket
    difference [1,2,3][4,5,6] - [1,2,4][3,5,6] inside the 3 x n matrix ring."""
    if n < 6:
        raise ValueError("need n >= 6")
    M = MatrixRing(3, n)
    seen = {}
    for perm in permutations(range(n), 6):
        a, b, c, d, e, f = perm
        g = (bracket(M, (a, b, c)) * bracket(M, (d, e, f))
             - bracket(M, (a, b, d)) * bracket(M, (c, e, f)))
        g = _sign_normalized(g)
        seen.setdefault(g.key(), g)
    return [seen[k] for k in sorted(seen)]


def determinant(M: MatrixRing) -> Polynomial:
    if M.m != M.n:
        raise ValueError("square matrix required")
    return minor_polynomial(M, tuple(range(M.m)), tuple(range(M.n)))


def shape_products(M: MatrixRing, shape) -> list[Polynomial]:
    """All products of minors with the given size profile, e.g. (4, 2) for
    determinant times a 2-minor.  Duplicate products are merged."""
    shape = sorted(shape, reverse=True)
    if not shape:
        raise ValueError("empty shape")
    if shape[0] > min(M.m, M.n):
        raise ValueError("shape entry exceeds the matrix size")
    pools = [[mi.polynomial for mi in minors(t, M)] for t in shape]
    seen: dict = {}
    def rec(idx, acc):
        if idx == len(pools):
            seen.setdefault(acc.key(), acc)
            return
        for f in pools[idx]:
            rec(idx + 1, acc * f if acc is not None else f)
    rec(0, None)
    return [seen[k] for k in sorted(seen)]


def delta_multiples(M: MatrixRing) -> list[Polynomial]:
    """The products X_ij * det for a 3 x 3 matrix."""
    if (M.m, M.n) != (3, 3):
        raise ValueError("3x3 matrix required")
    delta = determinant(M)
    out = []
    for i in range(3):
        for j in range(3):
            exp = [0] * 9
            exp[M.cell(i, j)] = 1
            out.append(delta.mul_monomial(tuple(exp)))
    return out


@dataclass(frozen=True)
class GroupElement:
    """Row permutation, column permutation, optional transpose (square only).

    row[i] is the image of row i; likewise for columns.
    """
    row: tuple[int, ...]
    col: tuple[int, ...]
    transpose: bool = False


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    if g.transpose:
        return GroupElement(tuple(g.row[h.col[i]] for i in range(len(h.col))),
                            tuple(g.col[h.row[i]] for i in range(len(h.row))),
                            not h.transpose)
    return GroupElement(tuple(g.row[h.row[i]] for i in range(len(h.row))),
                        tuple(g.col[h.col[i]] for i in range(len(h.col))),
                        h.transpose)


def act(g: GroupElement, matrix) -> tuple[tuple[int, ...], ...]:
    """Image of an exponent matrix: cell (i, j) lands at (row[i], col[j]),
    after transposing first when the transpose flag is set."""
    base = matrix
    if g.transpose:
        if len(matrix) != len(matrix[0]):
            raise ValueError("transpose needs a square matrix")
        base = tuple(tuple(matrix[j][i] for j in range(len(matrix)))
                     for i in range(len(matrix[0])))
    m = len(base)
    n = len(base[0])
    out = [[0] * n for _ in range(m)]
    for i in range(m):
        gi = g.row[i]
        bi = base[i]
        for j in range(n):
            out[gi][g.col[j]] = bi[j]
    return tuple(tuple(r) for r in out)


class CanonicalGroup:
    """A set of symmetries with precomputed flat index maps for fast
    canonicalization of exponent matrices.

    full marks the whole of S_m x S_n (with the transpose when m == n):
    its canonical form is found by sorting columns, per row permutation,
    instead of by a minimum over all index maps."""

    def __init__(self, m: int, n: int, elements: list[GroupElement],
                 full: bool = False):
        self.m = m
        self.n = n
        self.elements = elements
        self.full = full
        maps = []
        for g in elements:
            idx = [0] * (m * n)
            for i in range(m):
                for j in range(n):
                    a, b = (j, i) if g.transpose else (i, j)
                    idx[g.row[i] * n + g.col[j]] = a * n + b
            maps.append(tuple(idx))
        self.index_maps = maps

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
        return len(self.elements)


def full_group(m: int, n: int) -> CanonicalGroup:
    """S_m x S_n, extended by the transpose when m == n."""
    elems = []
    for rp in permutations(range(m)):
        for cp in permutations(range(n)):
            elems.append(GroupElement(rp, cp, False))
            if m == n:
                elems.append(GroupElement(rp, cp, True))
    return CanonicalGroup(m, n, elems, full=True)


def full_group_generators(m: int, n: int) -> CanonicalGroup:
    """Generators of full_group(m, n): a transposition and a full cycle of
    the rows, the same of the columns, and the transpose when m == n."""
    rows, cols = tuple(range(m)), tuple(range(n))
    elems = [GroupElement(rows[1::-1] + rows[2:], cols),
             GroupElement(rows[1:] + rows[:1], cols),
             GroupElement(rows, cols[1::-1] + cols[2:]),
             GroupElement(rows, cols[1:] + cols[:1])]
    if m == n:
        elems.append(GroupElement(rows, cols, True))
    return CanonicalGroup(m, n, elems)


def pattern_stabilizer(m: int, n: int, zero_cells: set[tuple[int, int]]) -> CanonicalGroup:
    """Row/column permutations preserving a set of zero positions."""
    elems = []
    for rp in permutations(range(m)):
        for cp in permutations(range(n)):
            if all((rp[i], cp[j]) in zero_cells for i, j in zero_cells):
                elems.append(GroupElement(rp, cp, False))
    return CanonicalGroup(m, n, elems)


def matching_row_sum(t: int, m: int, n: int) -> int:
    """Row sum of any matching of the t-minors (multihomogeneity)."""
    return comb(m - 1, t - 1) * comb(n, t)


def matching_col_sum(t: int, m: int, n: int) -> int:
    return comb(m, t) * comb(n - 1, t - 1)
