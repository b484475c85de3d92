"""Output checks that do not use sagbikit.

Each check takes a job's standard output and exit code and returns None
when the output is right, or a one-line reason.  Expected values come
from the benchmark's own computations (sympy expansion, hook-content
dimensions, permutation orbits, exact rank) or from properties the
method must have; nothing here imports the program under test.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, prod

import sympy
from sympy.parsing.sympy_parser import parse_expr


class CheckError(Exception):
    pass


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _checked(fn):
    """Turn a check raising CheckError into its reason.  Any other error is
    output the check could not read, which fails the job as well."""
    def run(stdout: str, returncode: int, **params):
        try:
            fn(stdout, returncode, **params)
        except CheckError as exc:
            return str(exc)
        except Exception as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
        return None
    run.__name__ = fn.__name__
    return run


# ------------------------------------------------------------ shared pieces

def hook_content_dim(k: int, n: int, d: int) -> int:
    """Degree-d part of the Grassmannian G(k, n) coordinate ring: the number
    of semistandard tableaux of the k x d rectangle with entries <= n."""
    num = den = 1
    for i in range(k):
        for j in range(d):
            num *= n + j - i
            den *= (d - j - 1) + (k - i - 1) + 1
    return num // den


def rank(rows, p: int = 0) -> int:
    """Exact rank of row vectors (dicts column -> value) over Q, or over
    GF(p) when p is a prime."""
    def norm(v):
        return v % p if p else Fraction(v)

    def inv(v):
        return pow(v, -1, p) if p else 1 / v

    pivots: dict = {}
    r = 0
    for row in rows:
        row = {c: norm(v) for c, v in row.items() if norm(v)}
        while row:
            lead = max(row)
            piv = pivots.get(lead)
            if piv is None:
                scale = inv(row[lead])
                pivots[lead] = {c: norm(v * scale) for c, v in row.items()}
                r += 1
                break
            f = row[lead]
            for c, v in piv.items():
                nv = norm(row.get(c, 0) - f * v)
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    return r


def _parse(text: str, names: dict):
    return parse_expr(text.replace("^", "**"), local_dict=names)


def _job_spec(stdout: str) -> dict:
    for line in stdout.splitlines():
        if line.startswith("# job: "):
            return json.loads(line[len("# job: "):])
    raise CheckError("no job line")


def parse_relations_report(stdout: str) -> dict:
    """Status, basis (tag -> text), retract images and relations."""
    out = {"status": None, "counts": {}, "basis": {}, "images": {}, "rels": []}
    for line in stdout.splitlines():
        if line.startswith("# status: "):
            out["status"] = line[len("# status: "):].split(";")[0]
        elif line.startswith("#") and "\t" in line:
            key, val = line[1:].split("\t", 1)
            out["counts"][key] = int(val)
        elif line.startswith("rel\t"):
            out["rels"].append(line.split("\t", 1)[1])
        elif re.match(r"Y\d+=\t", line):
            tag, text = line.split("\t", 1)
            out["images"][tag[:-1]] = text
        elif re.match(r"Y\d+\t", line):
            tag, text = line.split("\t", 1)
            out["basis"][tag] = text
    return out


# ------------------------------------------------------- maximal minors

@_checked
def check_grassmannian_relations(stdout: str, returncode: int, *, k: int, n: int):
    """Plucker ideal of G(k, n) from `relations --matrix kxn --minors k`."""
    _require(returncode == 0, f"exit code {returncode}")
    rep = parse_relations_report(stdout)
    _require(rep["status"] == "complete", f"status {rep['status']!r}")
    xs = {f"X{i + 1}{j + 1}": sympy.Symbol(f"X{i + 1}{j + 1}")
          for i in range(k) for j in range(n)}
    X = sympy.Matrix(k, n, lambda i, j: xs[f"X{i + 1}{j + 1}"])
    own = [sympy.expand(X[:, list(cols)].det()) for cols in combinations(range(n), k)]
    p = len(own)
    tags = [f"Y{u + 1}" for u in range(p)]
    _require(sorted(rep["basis"]) == sorted(tags) and rep["counts"].get("SAGBI") == p,
             f"basis has {len(rep['basis'])} elements, expected the {p} minors")
    printed = [sympy.expand(_parse(rep["basis"][t], xs)) for t in tags]
    _require(sorted(map(sympy.srepr, printed)) == sorted(map(sympy.srepr, own)),
             "basis elements differ from the expanded minors")
    ys = {t: sympy.Symbol(t) for t in tags}
    subst = dict(zip(ys.values(), printed))
    expected = comb(p + 1, 2) - hook_content_dim(k, n, 2)
    _require(len(rep["rels"]) == expected == rep["counts"].get("rel"),
             f"{len(rep['rels'])} relations, expected C({p + 1},2) - "
             f"{hook_content_dim(k, n, 2)} = {expected}")
    rows = []
    for text in rep["rels"]:
        rel = sympy.Poly(_parse(text, ys), *ys.values())
        _require(rel.is_homogeneous and rel.total_degree() == 2,
                 f"relation is not a quadric: {text}")
        _require(sympy.expand(rel.as_expr().xreplace(subst)) == 0,
                 f"relation does not vanish: {text}")
        rows.append({m: Fraction(int(c.p), int(c.q)) for m, c in rel.terms()})
    _require(rank(rows) == len(rows), "relations are linearly dependent")


# ------------------------------------------------------------ matchings

PAPER_3X4_TOTAL = 3624
PAPER_3X4_ORBITS = 29
PAPER_3X4_FULL_SUPPORT_H = sorted([(1, 6, 9, 4), (1, 6, 10, 4), (1, 6, 11, 5),
                                   (1, 6, 10, 3), (1, 6, 12, 7)])
PAPER_3X4_REFERENCE_H = (1, 6, 15, 10)
PAPER_3X4_DIM = 12


def _series(numerator, dim: int, kmax: int) -> list[int]:
    return [sum(h * comb(kk - j + dim - 1, dim - 1)
                for j, h in enumerate(numerator) if j <= kk)
            for kk in range(kmax + 1)]


def _two_minor_terms(m: int, n: int):
    """Exponent vectors (flat, row-major) of the two terms of each 2-minor."""
    out = []
    for r1, r2 in combinations(range(m), 2):
        for c1, c2 in combinations(range(n), 2):
            terms = []
            for a, b in ((c1, c2), (c2, c1)):
                e = [0] * (m * n)
                e[r1 * n + a] += 1
                e[r2 * n + b] += 1
                terms.append(tuple(e))
            out.append(terms)
    return out


def _permutation_maps(m: int, n: int):
    return [tuple(rp[i] * n + cp[j] for i in range(m) for j in range(n))
            for rp in permutations(range(m)) for cp in permutations(range(n))]


@_checked
def check_matchings_3x4(stdout: str, returncode: int):
    _require(returncode == 0, f"exit code {returncode}")
    data = json.loads(stdout)
    rows = data["rows"]
    m, n = 3, 4
    _require(data["total"] == PAPER_3X4_TOTAL and len(rows) == PAPER_3X4_ORBITS
             == data["orbits"],
             f"{data['total']} vertices in {len(rows)} orbits, paper has "
             f"{PAPER_3X4_TOTAL} in {PAPER_3X4_ORBITS}")
    _require(sum(r["orbit_size"] for r in rows) == PAPER_3X4_TOTAL,
             "orbit sizes do not sum to the vertex count")
    minors2 = _two_minor_terms(m, n)
    maps = _permutation_maps(m, n)
    seen = set()
    full_h = []
    for r in rows:
        canon = tuple(r["canonical"])
        w = r["witness"]
        point = [0] * (m * n)
        picked = []
        for terms in minors2:
            a, b = (sum(x * y for x, y in zip(w, t)) for t in terms)
            _require(a != b, f"witness {w} ties on a 2-minor")
            top = terms[0] if a > b else terms[1]
            picked.append(top)
            point = [x + y for x, y in zip(point, top)]
        orbit = {tuple(point[i] for i in idx) for idx in maps}
        _require(canon in orbit, f"witness of row {canon} picks a point outside its orbit")
        _require(canon == min(orbit), f"row {canon} is not its orbit's smallest point")
        _require(r["orbit_size"] == len(orbit),
                 f"row {canon}: orbit size {r['orbit_size']}, computed {len(orbit)}")
        _require(canon not in seen, f"orbit {canon} listed twice")
        seen.add(canon)
        dim = rank({i: v for i, v in enumerate(t)} for t in picked)
        _require(r["dim"] == dim, f"row {canon}: dim {r['dim']}, computed {dim}")
        full = all(v > 0 for v in canon)
        _require(r["full_support"] == full, f"row {canon}: full_support flag")
        if full:
            _require(dim == PAPER_3X4_DIM, f"full-support row {canon} has dim {dim}")
            full_h.append(tuple(r["h_vector"]))
    _require(sorted(full_h) == PAPER_3X4_FULL_SUPPORT_H,
             f"full-support h-vectors {sorted(full_h)}")
    ref = data["reference"]
    _require(ref == _series(PAPER_3X4_REFERENCE_H, PAPER_3X4_DIM, len(ref) - 1)
             and len(ref) >= 2,
             f"reference {ref} is not (1,6,15,10)/(1-z)^12")


# ------------------------------------------------------- sampled G(3,7)

_SAMPLE = re.compile(r"sample (\d+): defect (\d+) repaired by (.*) \((\d+) augmentation\(s\)\)$")
_PAIR = re.compile(r"\[(\d+),(\d+),(\d+)\]\[(\d+),(\d+),(\d+)\]")


@_checked
def check_g37_sampled(stdout: str, returncode: int, *, count: int, seed: int):
    _require(returncode == 0, f"exit code {returncode}")
    lines = stdout.splitlines()
    _require("PASS" in lines, "no PASS line")
    spec = _job_spec(stdout)
    _require(spec.get("count") == count and spec.get("seed") == seed,
             f"job line does not echo count {count} and seed {seed}")
    indices = []
    for line in lines:
        if not line.startswith("sample "):
            continue
        match = _SAMPLE.match(line)
        _require(match, f"unreadable sample line: {line}")
        idx, defect = int(match.group(1)), int(match.group(2))
        indices.append(idx)
        _require(1 <= defect <= 3, f"sample {idx}: defect {defect} outside 1..3")
        pairs = match.group(3).split(", ")
        _require(len(pairs) == defect,
                 f"sample {idx}: {len(pairs)} bracket pairs for defect {defect}")
        missed = set()
        for pair in pairs:
            pm = _PAIR.fullmatch(pair)
            _require(pm, f"sample {idx}: unreadable bracket pair {pair!r}")
            cols = {int(v) for v in pm.groups()}
            _require(len(cols) == 6 and cols <= set(range(1, 8)),
                     f"sample {idx}: pair {pair} does not use six distinct columns")
            missed |= set(range(1, 8)) - cols
        _require(len(missed) == defect,
                 f"sample {idx}: bracket pairs do not miss distinct columns")
    _require(indices == sorted(set(indices)) and all(0 <= i < count for i in indices),
             "sample indices out of order or range")


# --------------------------------------------------------------- hilbert

def parse_hilbert_values(stdout: str) -> list[int]:
    values = []
    on = False
    for line in stdout.splitlines():
        if line == "k\tH(k)":
            on = True
        elif on and re.fullmatch(r"\d+\t\d+", line):
            k, v = (int(x) for x in line.split("\t"))
            _require(k == len(values), "Hilbert degrees out of order")
            values.append(v)
        elif on:
            break
    return values


@_checked
def check_grassmannian_hilbert(stdout: str, returncode: int, *, k: int, n: int, kmax: int):
    _require(returncode == 0, f"exit code {returncode}")
    values = parse_hilbert_values(stdout)
    expected = [hook_content_dim(k, n, d) for d in range(kmax + 1)]
    _require(values == expected, f"H = {values}, hook-content gives {expected}")


def subalgebra_hilbert_mod_p(gens: list[str], names: list[str], p: int,
                             kmax: int) -> list[int]:
    """Hilbert values over GF(p): rank of the degree-d products of the generators."""
    syms = {v: sympy.Symbol(v) for v in names}
    polys = [sympy.Poly(_parse(g, syms), *syms.values(), modulus=p) for g in gens]
    out = [1]
    for d in range(1, kmax + 1):
        rows = []
        for combo in combinations_with_replacement(range(len(polys)), d):
            f = prod((polys[i] for i in combo), start=sympy.Poly(1, *syms.values(),
                                                                 modulus=p))
            rows.append({mon: int(c) % p for mon, c in f.terms()})
        out.append(rank(rows, p))
    return out


@_checked
def check_hilbert_mod_p(stdout: str, returncode: int, *, gens: list[str],
                        names: list[str], p: int, kmax: int):
    _require(returncode == 0, f"exit code {returncode}")
    values = parse_hilbert_values(stdout)
    expected = subalgebra_hilbert_mod_p(gens, names, p, kmax)
    _require(values == expected, f"H = {values} over GF({p}), rank mod {p} gives {expected}")


# ------------------------------------------------------ xy degree loop

@_checked
def check_xy_degree_loop(stdout: str, returncode: int, *, gens: list[str], bound: int):
    _require(returncode == 0, f"exit code {returncode}")
    rep = parse_relations_report(stdout)
    _require(rep["status"] == "truncated", f"status {rep['status']!r}")
    x, y = sympy.symbols("x y")
    xy = {"x": x, "y": y}
    basis = {t: sympy.expand(_parse(v, xy)) for t, v in rep["basis"].items()}
    _require(len(basis) == rep["counts"].get("SAGBI"), "basis count line")
    originals = []
    for u, g in enumerate(gens):
        poly = sympy.Poly(_parse(g, xy), x, y)
        monic = sympy.expand(poly.as_expr() / poly.LC(order="lex"))
        _require(basis.get(f"Y{u + 1}") == monic,
                 f"Y{u + 1} is not the monic generator {monic}")
        originals.append(monic)
    leads = {sympy.Poly(f, x, y).LM(order="lex").as_expr() for f in basis.values()}
    want = {x * y ** j for j in range(bound)}
    _require(leads == want, f"leading monomials {sorted(map(str, leads))}, "
                            f"expected x, x*y, ..., x*y^{bound - 1}")
    ys = {f"Y{u + 1}": sympy.Symbol(f"Y{u + 1}") for u in range(len(gens))}
    _require(set(rep["images"]) == set(basis) - set(ys),
             "retract images do not match the appended elements")
    subst = {ys[f"Y{u + 1}"]: f for u, f in enumerate(originals)}
    for tag, text in rep["images"].items():
        img = sympy.expand(_parse(text, ys).xreplace(subst))
        _require(img == basis.get(tag), f"retract image of {tag} does not expand to it")
    for text in rep["rels"]:
        _require(sympy.expand(_parse(text, ys).xreplace(subst)) == 0,
                 f"relation does not vanish: {text}")
