"""Exact sparse multivariate polynomials over Q or a prime field.

Exponents are plain tuples of naturals; a polynomial is a map from
exponent tuples to nonzero coefficients.  All values are immutable after
construction and safe to share.

One rule says what a coefficient is, `RingContext.coeff`: over Q an int
when it is integral and a Fraction with denominator > 1 otherwise, over
GF(p) an int in [0, p).  Polynomial arithmetic is Python's arithmetic on
those values, with each result passed through `coeff`.  `fractions` is
loaded only where the first non-integral rational is made, so a job
whose coefficients stay integers never loads it.
"""
from __future__ import annotations

from operator import add, mul, sub
from typing import Iterable, Mapping


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class RingContext:
    """Polynomial ring data: variable names, characteristic, grading.

    characteristic 0 means coefficients in Q, a prime p coefficients in
    GF(p); `coeff` and `cinv` are the only code that tells them apart.
    The grading assigns a positive degree to each variable (all 1 by
    default).
    """

    __slots__ = ("names", "characteristic", "grading", "_name_index")

    def __init__(self, names: Iterable[str], characteristic: int = 0,
                 grading: Iterable[int] | None = None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        if not names:
            raise ValueError("need at least one variable")
        if characteristic != 0 and not _is_prime(characteristic):
            raise ValueError(f"characteristic must be 0 or prime, got {characteristic}")
        grading = tuple(grading) if grading is not None else (1,) * len(names)
        if len(grading) != len(names):
            raise ValueError("grading length must match variable count")
        if any(g < 1 for g in grading):
            raise ValueError("variable degrees must be >= 1")
        self.names = names
        self.characteristic = characteristic
        self.grading = grading
        self._name_index = {n: i for i, n in enumerate(names)}

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self._name_index[name]

    def degree(self, exp: tuple[int, ...]) -> int:
        return sum(map(mul, self.grading, exp))

    def coeff(self, c):
        """The normal form of a rational c (an int or a Fraction): over Q
        an int when c is integral, else c; over GF(p) an int in [0, p)."""
        p = self.characteristic
        if p:
            if type(c) is int:
                return c % p
            return c.numerator * pow(c.denominator, -1, p) % p
        return c.numerator if c.denominator == 1 else c

    def cinv(self, a):
        """The inverse of a nonzero coefficient, in normal form."""
        p = self.characteristic
        if p:
            return pow(a, -1, p)
        if a == 1 or a == -1:
            return a
        from fractions import Fraction
        return self.coeff(Fraction(1, a))

    def __eq__(self, other):
        return (isinstance(other, RingContext)
                and self.names == other.names
                and self.characteristic == other.characteristic
                and self.grading == other.grading)

    def __hash__(self):
        return hash((self.names, self.characteristic, self.grading))

    def __repr__(self):
        k = "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"
        return f"RingContext({k}[{', '.join(self.names)}])"


def _check_same_ring(a: "Polynomial", b: "Polynomial"):
    if a.ring != b.ring:
        raise ValueError("polynomials live in different rings")


class Polynomial:
    """Immutable sparse polynomial: dict from exponent tuple to nonzero
    coefficient, each in the normal form of `RingContext.coeff`."""

    __slots__ = ("ring", "terms", "_key")

    def __init__(self, ring: RingContext, terms: Mapping[tuple[int, ...], object]):
        clean = {}
        n = ring.nvars
        for e, c in terms.items():
            if len(e) != n:
                raise ValueError(f"exponent length {len(e)} != {n} variables")
            c = ring.coeff(c)
            if c:
                clean[e] = c
        self.ring = ring
        self.terms = clean
        self._key = None

    @staticmethod
    def _of(ring: RingContext, terms: dict) -> "Polynomial":
        """A polynomial on terms already normalized and nonzero, unchecked."""
        res = Polynomial.__new__(Polynomial)
        res.ring, res.terms, res._key = ring, terms, None
        return res

    @staticmethod
    def zero(ring: RingContext) -> "Polynomial":
        return Polynomial(ring, {})

    @staticmethod
    def constant(ring: RingContext, c) -> "Polynomial":
        return Polynomial(ring, {(0,) * ring.nvars: c})

    @staticmethod
    def monomial(ring: RingContext, exp: tuple[int, ...], c=1) -> "Polynomial":
        return Polynomial(ring, {tuple(exp): c})

    @staticmethod
    def variable(ring: RingContext, i: int) -> "Polynomial":
        e = [0] * ring.nvars
        e[i] = 1
        return Polynomial(ring, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def degree(self) -> int:
        """Maximal grading-weighted degree of the support (-1 for 0)."""
        if not self.terms:
            return -1
        deg = self.ring.degree
        return max(deg(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        deg = self.ring.degree
        degs = {deg(e) for e in self.terms}
        return len(degs) == 1

    def _plus(self, other: "Polynomial", op) -> "Polynomial":
        """self op other for op add or sub."""
        _check_same_ring(self, other)
        coeff = self.ring.coeff
        out = dict(self.terms)
        get = out.get
        for e, c in other.terms.items():
            s = coeff(op(get(e, 0), c))
            if s:
                out[e] = s
            else:
                del out[e]
        return Polynomial._of(self.ring, out)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, add)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, sub)

    def __neg__(self) -> "Polynomial":
        coeff = self.ring.coeff
        return Polynomial._of(self.ring, {e: coeff(-c) for e, c in self.terms.items()})

    def scale(self, c) -> "Polynomial":
        coeff = self.ring.coeff
        c = coeff(c)
        return Polynomial._of(self.ring, {e: coeff(v * c) for e, v in self.terms.items()}
                              if c else {})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """Raw products summed first, each sum normalized once."""
        _check_same_ring(self, other)
        out: dict[tuple[int, ...], object] = {}
        get = out.get
        small, large = (self.terms, other.terms)
        if len(small) > len(large):
            small, large = large, small
        for e1, c1 in small.items():
            for e2, c2 in large.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = get(e, 0) + c1 * c2
        coeff = self.ring.coeff
        return Polynomial._of(self.ring, {e: v for e, v in zip(out, map(coeff, out.values()))
                                          if v})

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.ring, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def substitute(self, images: list["Polynomial"]) -> "Polynomial":
        """Evaluate by mapping variable i to images[i] (a ring map on generators)."""
        if len(images) != self.ring.nvars:
            raise ValueError("need one image per variable")
        target = images[0].ring
        out = Polynomial.zero(target)
        for e, c in self.terms.items():
            out = out + power_product(target, images, e).scale(c)
        return out

    def key(self) -> tuple:
        """Canonical hashable form (sorted term list)."""
        if self._key is None:
            self._key = tuple(sorted(self.terms.items()))
        return self._key

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring.names, self.key()))

    def __repr__(self):
        from .formats import poly_to_text
        return poly_to_text(self)


def power_product(ring: RingContext, factors: list[Polynomial],
                  exponent: dict[int, int] | tuple[int, ...]) -> Polynomial:
    """The product of factors[i] ** exponent[i] (exponent a dict or tuple)."""
    if not isinstance(exponent, dict):
        exponent = {i: k for i, k in enumerate(exponent) if k}
    out = Polynomial.constant(ring, 1)
    for i in sorted(exponent):
        out = out * factors[i] ** exponent[i]
    return out
