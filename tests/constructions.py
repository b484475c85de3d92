"""Constructions from the paper (Bruns-Conca, J. Symb. Comput. 120
(2024)) that the test suite checks its facts against; no command builds
them.

- `Q_matrix(m)`: d_m * I + all-ones, the exponent sum of the initial
  terms of the submaximal minors of an m x m matrix under the
  submaximal lex order; for m = 3 it is the canonical form of the one
  full-support orbit of matchings of the 2-minors.
- `B_sets(M)`: the diagonal-path monomials X_{1,j_1}...X_{m,j_m} with
  j_1 + ... + j_m <= n and their algebraically independent subset of
  m(n-m)+1 elements, the Krull dimension that the algebra of every
  matching of the maximal minors attains.
- `of_orbit(n)`: the column-permutation orbit, modulo sign, of the
  quadratic bracket difference [1,2,3][4,5,6] - [1,2,4][3,5,6] (15
  elements for n = 6, 105 for n = 7), the elements that repair the
  defective matchings of the maximal minors in the universal SAGBI
  bases of G(3,6) and G(3,7).
- `shape_products(M, shape)`: products of minors of a given size
  profile, the generator shapes of algebras of non-maximal minors.
- `delta_multiples(M)`: the products X_ij * det of a 3 x 3 matrix that,
  with the 2-minors, make up the universal SAGBI basis of case A233.
- `matching_row_sum` and `matching_col_sum`: the magic row and column
  sums of a matching of t-minors, from multihomogeneity.
- `GroupElement`, `compose` and `act`: a symmetry as a row permutation,
  a column permutation and a transpose flag, acting on exponent
  matrices.  They are the independent oracle for the flat index maps
  that `minors.CanonicalGroup` holds.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import comb

from sagbikit.minors import MatrixRing, determinant, minors
from sagbikit.rings import Polynomial
from sagbikit.universal import bracket_pair


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
    for perm in permutations(range(1, n + 1), 6):
        g = _sign_normalized(bracket_pair(M, perm))
        seen.setdefault(g.key(), g)
    return [seen[k] for k in sorted(seen)]


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
    return [delta * Polynomial.variable(M.ring, M.cell(i, j))
            for i in range(3) for j in range(3)]


def matching_row_sum(t: int, m: int, n: int) -> int:
    """Row sum of any matching of the t-minors (multihomogeneity)."""
    return comb(m - 1, t - 1) * comb(n, t)


def matching_col_sum(t: int, m: int, n: int) -> int:
    return comb(m, t) * comb(n - 1, t - 1)


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
