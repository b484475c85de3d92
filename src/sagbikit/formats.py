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

Tokens carry only their offset in the text; the line and column of a
parse error are worked out from the offset when the error is raised.
"""
from __future__ import annotations

from .rings import Polynomial, RingContext


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


def _error(text: str, offset: int, message: str) -> ParseError:
    """A ParseError at text[offset]: lines and columns count from 1, and a
    column counts the characters since the last newline."""
    return ParseError(message, text.count("\n", 0, offset) + 1,
                      offset - text.rfind("\n", 0, offset))


def _tokens(text: str) -> list[tuple[str, object, int]]:
    """The tokens of text as (kind, value, offset), closed by an end token
    at offset len(text)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        j = i + 1
        if ch in "+-*/^()":
            out.append((ch, ch, i))
        elif ch.isdecimal():
            while j < n and text[j].isdecimal():
                j += 1
            out.append(("num", int(text[i:j]), i))
        elif ch.isalpha() or ch == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("ident", text[i:j], i))
        elif not ch.isspace():
            raise _error(text, i, f"unexpected character {ch!r}")
        i = j
    out.append(("end", None, n))
    return out


def _found(kind: str, val) -> str:
    """A token as an error message names it."""
    return "end of text" if kind == "end" else repr(val)


def is_identifier(text: str) -> bool:
    """Whether text reads as one identifier of the grammar, the rule a
    variable name must meet to appear in polynomial text."""
    try:
        toks = _tokens(text)
    except ParseError:
        return False
    return len(toks) == 2 and toks[0][:2] == ("ident", text)


def parse_polynomial(ring: RingContext, text: str) -> Polynomial:
    toks = _tokens(text)
    pos = 0

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def number():
        kind, val, at = take()
        if kind != "num":
            raise _error(text, at, f"expected a number, found {_found(kind, val)}")
        return val, at

    def parse_factor():
        kind, val, at = take()
        if kind == "num":
            if toks[pos][0] != "/":
                return val, None
            take()
            denom, at = number()
            if denom == 0:
                raise _error(text, at, "zero denominator")
            if ring.characteristic and denom % ring.characteristic == 0:
                raise _error(text, at, f"denominator {denom} is not invertible mod "
                                       f"{ring.characteristic}")
            from fractions import Fraction
            return Fraction(val, denom), None
        if kind != "ident":
            raise _error(text, at, "expected coefficient or variable, found "
                               + _found(kind, val))
        if val not in ring._name_index:
            raise _error(text, at, f"unknown variable {val!r}")
        power = 1
        if toks[pos][0] == "^":
            take()
            power = number()[0]
        return None, (ring.index(val), power)

    def parse_term():
        coeff = 1
        exp = [0] * ring.nvars
        while True:
            c, v = parse_factor()
            if c is not None:
                coeff *= c
            else:
                exp[v[0]] += v[1]
            if toks[pos][0] != "*":
                return tuple(exp), coeff
            take()

    terms: dict[tuple[int, ...], object] = {}
    sign = 1
    if toks[0][0] in ("+", "-"):
        sign = -1 if take()[0] == "-" else 1
    while True:
        exp, coeff = parse_term()
        terms[exp] = terms.get(exp, 0) + sign * coeff
        kind, val, at = take()
        if kind == "end":
            return Polynomial(ring, terms)
        if kind not in ("+", "-"):
            raise _error(text, at, f"expected '+' or '-', found {val!r}")
        sign = -1 if kind == "-" else 1


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
