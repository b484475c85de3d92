"""Monomial orders as total orders on exponent tuples.

Three kinds: lex and degrevlex (each over a permutation of the
variables), and weight orders with a nested tiebreak.  Every order is
realized by a key function mapping exponents to tuples compared
lexicographically, so `max(support, key=order.key)` finds leading terms.
The key is a tuple of integer row dot products, so on exponents with
bounded entries one linear form (`linear_key`) orders them the same way.
"""
from __future__ import annotations

from operator import mul
from typing import Iterable

from .rings import Polynomial


class TieError(ValueError):
    """A weight vector fails to single out one maximal exponent."""

    def __init__(self, tied: list[tuple[int, ...]]):
        self.tied = sorted(tied)
        super().__init__(f"weight vector ties {len(tied)} exponents: {self.tied}")


class MonomialOrder:
    __slots__ = ("kind", "perm", "weights", "tiebreak", "nvars")

    def __init__(self, kind: str, nvars: int, perm=None, weights=None, tiebreak=None):
        self.kind = kind
        self.nvars = nvars
        self.perm = perm
        self.weights = weights
        self.tiebreak = tiebreak

    def key(self, exp: tuple[int, ...]):
        if self.kind == "lex":
            perm = self.perm
            return tuple(exp[p] for p in perm)
        if self.kind == "degrevlex":
            perm = self.perm
            return (sum(exp),) + tuple(-exp[p] for p in reversed(perm))
        # weight order: weighted value first, nested order breaks ties
        w = self.weights
        return (sum(a * b for a, b in zip(w, exp)),) + self.tiebreak.key(exp)

    def rows(self) -> list[tuple[int, ...]]:
        """Integer rows whose dot products with exp give key(exp)."""
        n = self.nvars
        if self.kind == "lex":
            return [tuple(int(i == p) for i in range(n)) for p in self.perm]
        if self.kind == "degrevlex":
            return [(1,) * n] + [tuple(-int(i == p) for i in range(n))
                                 for p in reversed(self.perm)]
        return [self.weights] + self.tiebreak.rows()

    def linear_key(self, bound: int) -> tuple[int, ...]:
        """Integers c such that sum(c_i * e_i) orders exponents as key does,
        for exponents with every entry at most bound.

        A row's dot product lies in [-m, m], m = bound times the largest
        row sum of absolute values, so the difference of two lies in
        [-2m, 2m]; the rows combined as digits in base 2m + 1 compare
        like the key tuples.
        """
        rows = self.rows()
        base = 2 * max(sum(map(abs, r)) for r in rows) * bound + 1
        c = [0] * self.nvars
        for r in rows:
            c = [base * a + b for a, b in zip(c, r)]
        return tuple(c)

    def __repr__(self):
        if self.kind == "weight":
            return f"weight({list(self.weights)}, {self.tiebreak!r})"
        return f"{self.kind}({list(self.perm)})"


def _check_perm(nvars: int, perm) -> tuple[int, ...]:
    if perm is None:
        return tuple(range(nvars))
    perm = tuple(perm)
    if sorted(perm) != list(range(nvars)):
        raise ValueError(f"not a permutation of 0..{nvars - 1}: {perm}")
    return perm


def lex_order(nvars: int, perm: Iterable[int] | None = None) -> MonomialOrder:
    """Lex order; perm lists variable indices from greatest to least."""
    return MonomialOrder("lex", nvars, perm=_check_perm(nvars, perm))


def degrevlex_order(nvars: int, perm: Iterable[int] | None = None) -> MonomialOrder:
    return MonomialOrder("degrevlex", nvars, perm=_check_perm(nvars, perm))


def weight_order(weights: Iterable[int], tiebreak: MonomialOrder) -> MonomialOrder:
    """Weight-then-tiebreak order.

    Weights must be nonnegative so the zero exponent stays minimal; ties
    are resolved by the nested order, which makes the relation total.
    """
    weights = tuple(weights)
    if any(w < 0 for w in weights):
        raise ValueError("weight order entries must be nonnegative")
    if tiebreak.nvars != len(weights):
        raise ValueError("tiebreak order has wrong variable count")
    return MonomialOrder("weight", len(weights), weights=weights, tiebreak=tiebreak)


def leading_term(order: MonomialOrder, f: Polynomial) -> tuple[tuple[int, ...], object]:
    """Maximal exponent of the support with its coefficient."""
    if f.is_zero():
        raise ValueError("zero polynomial has no leading term")
    e = max(f.terms, key=order.key)
    return e, f.terms[e]


def leading_exponent(order: MonomialOrder, f: Polynomial) -> tuple[int, ...]:
    return max(f.terms, key=order.key)


def make_monic(order: MonomialOrder, f: Polynomial) -> tuple[Polynomial, object]:
    """Divide by the leading coefficient; returns (monic, divisor)."""
    _, c = leading_term(order, f)
    if c == 1:
        return f, c
    return f.scale(f.ring.cinv(c)), c


def weight_selects(f: Polynomial, w: Iterable[int]) -> tuple[int, ...]:
    """The unique w-maximal exponent of supp(f); raises TieError otherwise.

    Unlike weight orders, w may have negative entries here.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    w = tuple(w)
    if len(w) != f.ring.nvars:
        raise ValueError("weight length mismatch")
    best = None
    best_val = None
    tied: list[tuple[int, ...]] = []
    for e in f.terms:
        v = sum(map(mul, w, e))
        if best is None or v > best_val:
            best, best_val, tied = e, v, [e]
        elif v == best_val:
            tied.append(e)
    if len(tied) > 1:
        raise TieError(tied)
    return best
