"""Exact sparse multivariate polynomials over Q or a prime field.

Exponents are plain tuples of naturals; a polynomial is a map from
exponent tuples to nonzero coefficients.  All values are immutable after
construction and safe to share.
"""
from __future__ import annotations

from fractions import Fraction
from operator import mul
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

    characteristic 0 means coefficients are Fractions; a prime p means
    coefficients are ints in [1, p).  The grading assigns a positive
    degree to each variable (all 1 by default).
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

    # coefficient arithmetic, dispatched on characteristic
    def coeff(self, c) -> object:
        """Normalize a raw coefficient into this ring's field."""
        if self.characteristic == 0:
            return c if isinstance(c, Fraction) else Fraction(c)
        if isinstance(c, Fraction):
            num = c.numerator % self.characteristic
            den = c.denominator % self.characteristic
            return num * pow(den, -1, self.characteristic) % self.characteristic
        return c % self.characteristic

    def cadd(self, a, b):
        if self.characteristic == 0:
            return a + b
        return (a + b) % self.characteristic

    def cmul(self, a, b):
        if self.characteristic == 0:
            return a * b
        return (a * b) % self.characteristic

    def cneg(self, a):
        if self.characteristic == 0:
            return -a
        return (-a) % self.characteristic

    def cinv(self, a):
        if self.characteristic == 0:
            return Fraction(1) / a
        return pow(a, -1, self.characteristic)

    def one(self):
        return Fraction(1) if self.characteristic == 0 else 1

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
    """Immutable sparse polynomial: dict from exponent tuple to coefficient."""

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

    def support(self):
        return self.terms.keys()

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

    def __add__(self, other: "Polynomial") -> "Polynomial":
        _check_same_ring(self, other)
        ring = self.ring
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = ring.cadd(out.get(e, 0), c) if e in out else c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = Polynomial.__new__(Polynomial)
        res.ring, res.terms, res._key = ring, out, None
        return res

    def __neg__(self) -> "Polynomial":
        ring = self.ring
        res = Polynomial.__new__(Polynomial)
        res.ring = ring
        res.terms = {e: ring.cneg(c) for e, c in self.terms.items()}
        res._key = None
        return res

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, c) -> "Polynomial":
        ring = self.ring
        c = ring.coeff(c)
        res = Polynomial.__new__(Polynomial)
        res.ring = ring
        res._key = None
        if not c:
            res.terms = {}
        else:
            res.terms = {e: ring.cmul(v, c) for e, v in self.terms.items()}
        return res

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        _check_same_ring(self, other)
        ring = self.ring
        out: dict[tuple[int, ...], object] = {}
        small, large = (self.terms, other.terms)
        if len(small) > len(large):
            small, large = large, small
        for e1, c1 in small.items():
            for e2, c2 in large.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = ring.cmul(c1, c2)
                if e in out:
                    s = ring.cadd(out[e], prod)
                    if s:
                        out[e] = s
                    else:
                        del out[e]
                elif prod:
                    out[e] = prod
        res = Polynomial.__new__(Polynomial)
        res.ring, res.terms, res._key = ring, out, None
        return res

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

    def mul_monomial(self, exp: tuple[int, ...]) -> "Polynomial":
        res = Polynomial.__new__(Polynomial)
        res.ring = self.ring
        res._key = None
        res.terms = {tuple(a + b for a, b in zip(e, exp)): v for e, v in self.terms.items()}
        return res

    def substitute(self, images: list["Polynomial"]) -> "Polynomial":
        """Evaluate by mapping variable i to images[i] (a ring map on generators)."""
        if len(images) != self.ring.nvars:
            raise ValueError("need one image per variable")
        if not images:
            raise ValueError("empty image list")
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
