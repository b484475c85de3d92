"""The text form of polynomials: a parser and a printer.

Grammar for polynomial text (whitespace-insensitive):

    poly   := [sign] term (sign term)*
    term   := factor ('*' factor)*
    factor := coeff | ident ('^' nat)?
    coeff  := nat ('/' nat)?

Identifiers must match the ring's variable names exactly.  Over GF(p)
a denominator must be prime to p.  The parser reads a coefficient as an
int, or as a Fraction for an `a/b` literal, and leaves its normal form to
`RingContext.coeff`; the printer prints that normal form as it is.
"""
from __future__ import annotations

from fractions import Fraction

from .rings import Polynomial, RingContext


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def _advance(self, n: int):
        for ch in self.text[self.pos:self.pos + n]:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n

    def tokens(self):
        text = self.text
        out = []
        while self.pos < len(text):
            ch = text[self.pos]
            if ch.isspace():
                self._advance(1)
                continue
            line, col = self.line, self.col
            if ch in "+-*/^()":
                out.append((ch, ch, line, col))
                self._advance(1)
            elif ch.isdecimal():
                j = self.pos
                while j < len(text) and text[j].isdecimal():
                    j += 1
                out.append(("num", int(text[self.pos:j]), line, col))
                self._advance(j - self.pos)
            elif ch.isalpha() or ch == "_":
                j = self.pos
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                out.append(("ident", text[self.pos:j], line, col))
                self._advance(j - self.pos)
            else:
                raise ParseError(f"unexpected character {ch!r}", line, col)
        out.append(("end", None, self.line, self.col))
        return out


def is_identifier(text: str) -> bool:
    """Whether text reads as one identifier of the grammar, the rule a
    variable name must meet to appear in polynomial text."""
    try:
        toks = _Tokenizer(text).tokens()
    except ParseError:
        return False
    return len(toks) == 2 and toks[0][:2] == ("ident", text)


def parse_polynomial(ring: RingContext, text: str) -> Polynomial:
    toks = _Tokenizer(text).tokens()
    pos = 0

    def peek():
        return toks[pos]

    def take(kind=None):
        nonlocal pos
        t = toks[pos]
        if kind is not None and t[0] != kind:
            raise ParseError(f"expected {kind}, found {t[1]!r}", t[2], t[3])
        pos += 1
        return t

    def parse_factor():
        kind, val, line, col = peek()
        if kind == "num":
            take()
            if peek()[0] == "/":
                take()
                denom = take("num")
                if denom[1] == 0:
                    raise ParseError("zero denominator", denom[2], denom[3])
                if ring.characteristic and denom[1] % ring.characteristic == 0:
                    raise ParseError(f"denominator {denom[1]} is not invertible mod "
                                     f"{ring.characteristic}", denom[2], denom[3])
                return Fraction(val, denom[1]), None
            return val, None
        if kind == "ident":
            take()
            if val not in ring._name_index:
                raise ParseError(f"unknown variable {val!r}", line, col)
            idx = ring.index(val)
            power = 1
            if peek()[0] == "^":
                take()
                power = take("num")[1]
            return None, (idx, power)
        raise ParseError(f"expected coefficient or variable, found {val!r}", line, col)

    def parse_term():
        coeff = 1
        exp = [0] * ring.nvars
        while True:
            c, v = parse_factor()
            if c is not None:
                coeff *= c
            else:
                exp[v[0]] += v[1]
            if peek()[0] == "*":
                take()
                continue
            return tuple(exp), coeff

    terms: dict[tuple[int, ...], object] = {}
    sign = 1
    kind = peek()[0]
    if kind in "+-":
        sign = -1 if kind == "-" else 1
        take()
    while True:
        exp, coeff = parse_term()
        coeff *= sign
        terms[exp] = terms.get(exp, 0) + coeff
        kind, val, line, col = peek()
        if kind == "end":
            break
        if kind == "+":
            sign = 1
        elif kind == "-":
            sign = -1
        else:
            raise ParseError(f"expected '+' or '-', found {val!r}", line, col)
        take()
    return Polynomial(ring, terms)


def poly_to_text(f: Polynomial) -> str:
    if f.is_zero():
        return "0"
    names = f.ring.names
    parts = []
    for e in sorted(f.terms, reverse=True):
        c = f.terms[e]
        factors = [f"{names[i]}^{k}" if k > 1 else names[i]
                   for i, k in enumerate(e) if k]
        neg = c < 0
        mag = -c if neg else c
        body = "*".join(([] if mag == 1 and factors else [str(mag)]) + factors)
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)

