"""Command-line surface: sagbi, relations, matchings, verify, hilbert.

Exit codes: 0 success, 1 computational failure (with a counterexample
dump), 2 usage error.  All randomized reports embed the seed and the
sampling parameters; identical job specifications produce byte-identical
reports.
"""
from __future__ import annotations

import argparse
import json
import sys

from .cases import CASES, VerificationError, run_case
from .formats import ParseError, is_identifier, parse_polynomial, poly_to_text
from .minors import MatrixRing, diagonal_order, full_group, minors, submax_lex_order
from .orders import degrevlex_order, leading_exponent, lex_order, weight_order
from .rings import RingContext


class UsageError(ValueError):
    pass


def _int_list(text: str, what: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"{what} expects comma-separated integers, got {text!r}")


def _build_ring(args) -> tuple[RingContext, MatrixRing | None]:
    if args.matrix and args.vars:
        raise UsageError("--matrix and --vars are mutually exclusive")
    if args.matrix:
        if args.var_degrees is not None:
            raise UsageError("--var-degrees applies only to a --vars ring")
        try:
            m, n = (int(v) for v in args.matrix.lower().split("x"))
        except ValueError:
            raise UsageError(f"--matrix expects MxN, got {args.matrix!r}")
        try:
            M = MatrixRing(m, n, args.char)
        except ValueError as exc:
            raise UsageError(f"--matrix {args.matrix}: {exc}")
        return M.ring, M
    if args.vars:
        names = [v.strip() for v in args.vars.split(",") if v.strip()]
        bad = next((v for v in names if not is_identifier(v)), None)
        if bad is not None:
            raise UsageError(f"--vars: {bad!r} is not a variable name (a letter or "
                             "'_', then letters, digits or '_')")
        grading = None
        if args.var_degrees is not None:
            grading = _int_list(args.var_degrees, "--var-degrees")
        try:
            return RingContext(names, args.char, grading), None
        except ValueError as exc:
            raise UsageError(str(exc))
    raise UsageError("a ring is required: --matrix MxN or --vars a,b,c")


def _build_generators(args, ring: RingContext, matrix: MatrixRing | None):
    sources = sum(1 for s in (args.minors, args.gens_file, args.gen) if s)
    if sources != 1:
        raise UsageError("exactly one generator source: --minors, --gens-file or --gen")
    if args.minors:
        if matrix is None:
            raise UsageError("--minors needs a --matrix ring")
        if not 1 <= args.minors <= min(matrix.m, matrix.n):
            raise UsageError(f"--minors {args.minors} is out of range for a "
                             f"{matrix.m}x{matrix.n} matrix")
        return [mi.polynomial for mi in minors(args.minors, matrix)]
    if args.gens_file:
        with open(args.gens_file, encoding="utf-8") as fh:
            try:
                texts = [line.strip() for line in fh if line.strip()]
            except UnicodeDecodeError as exc:
                raise UsageError(f"--gens-file {args.gens_file}: not UTF-8 ({exc})")
    else:
        texts = list(args.gen)
    out = []
    for i, text in enumerate(texts):
        try:
            f = parse_polynomial(ring, text)
        except ParseError as exc:
            raise UsageError(f"generator {i + 1}: {exc}")
        if f.is_zero():
            raise UsageError(f"generator {i + 1} is zero")
        if f.degree() == 0:
            raise UsageError(f"generator {i + 1} is constant")
        out.append(f)
    if not out:
        raise UsageError("empty generator list")
    return out


def _build_order(spec: str, ring: RingContext, matrix: MatrixRing | None):
    kind, _, rest = spec.partition(":")
    n = ring.nvars
    if kind == "diag":
        if matrix is None:
            raise UsageError("order 'diag' needs a matrix ring")
        return diagonal_order(matrix)
    if kind == "submax":
        if matrix is None or matrix.m != matrix.n:
            raise UsageError("order 'submax' needs a square matrix ring")
        return submax_lex_order(matrix)
    if kind in ("lex", "degrevlex"):
        perm = None
        if rest:
            perm = [v - 1 for v in _int_list(rest, f"order {kind!r}")]
        try:
            return lex_order(n, perm) if kind == "lex" else degrevlex_order(n, perm)
        except ValueError:
            raise UsageError(f"order {spec!r}: entries must be a permutation of 1..{n}")
    if kind == "weight":
        if not rest:
            raise UsageError("order 'weight' needs entries, e.g. weight:1,2,3")
        w = _int_list(rest, "order 'weight'")
        if len(w) != n:
            raise UsageError(f"weight length {len(w)} != {n} variables")
        if min(w) < 0:
            raise UsageError("weight entries must be nonnegative")
        return weight_order(w, lex_order(n))
    raise UsageError(f"unknown order {spec!r}")


def _check_homogeneous(gens, what: str):
    if not all(f.is_homogeneous() for f in gens):
        raise UsageError(f"{what} needs homogeneous generators")


def _emit(lines):
    sys.stdout.write("\n".join(lines) + "\n")


def _job_header(cmd, args, extra=()):
    head = [f"# sagbikit {cmd}"]
    # --workers selects nothing, and --config only carries values that are
    # listed under their own keys, so both are left out
    spec = {k: v for k, v in sorted(vars(args).items())
            if k not in ("func", "_parser", "workers", "config") and v is not None}
    head.append(f"# job: {json.dumps(spec, sort_keys=True, default=str)}")
    head.extend(extra)
    return head


# each command imports the layers it computes with when it runs, so a
# process loads no module its command does not use; its first library
# call stays a name bound here (MatrixRing, RingContext or run_case),
# which the set-up timer of bench/job.py rebinds to stop the job

def cmd_sagbi(args) -> int:
    from .engine import GeneratorFamily, sagbi_by_degree, sagbi_general
    from .relations import minimize_relations, sagbi_with_relations, verify_relations
    ring, matrix = _build_ring(args)
    gens = _build_generators(args, ring, matrix)
    order = _build_order(args.order, ring, matrix)
    complete = sagbi_general
    if args.variant in ("deg", "degree"):
        if args.degree_bound is None:
            raise UsageError(f"--variant {args.variant} needs --degree-bound")
        _check_homogeneous(gens, f"--variant {args.variant}")
        complete = sagbi_by_degree
    bounds = {"round_bound": args.round_bound, "degree_bound": args.degree_bound}
    if args.relations:
        result, retract, rels = sagbi_with_relations(gens, order, complete=complete,
                                                     **bounds)
        rels = minimize_relations(rels)
        ok, witness = verify_relations(result.basis, rels)
        if not ok:
            _emit([f"FAIL relation does not vanish: {poly_to_text(witness)}"])
            return 1
        bad = retract.mismatch(result.basis)
        if bad is not None:
            _emit([f"FAIL retract image of {result.basis.tags[bad]} does not "
                   f"reproduce it: {poly_to_text(retract.images[bad])}"])
            return 1
    else:
        result = complete(GeneratorFamily(gens, order), **bounds)
        retract = rels = None
    lines = _job_header("relations" if args.relations else "sagbi", args)
    lines.append(f"# status: {result.status}; rounds: {result.rounds}"
                 + (f"; comp-degree: {result.comp_degree}"
                    if result.comp_degree is not None else ""))
    lines.append(f"#SAGBI\t{len(result.basis)}")
    lines.append(f"#maxdeg\t{result.max_degree()}")
    if rels is not None:
        lines.append(f"#rel\t{len(rels.generators)}")
    for i, f in enumerate(result.basis.members):
        tag = result.basis.tags[i]
        lines.append(f"{tag}\t{poly_to_text(f)}")
        if retract is not None and i >= result.basis.n_original:
            lines.append(f"{tag}=\t{poly_to_text(retract.images[i])}")
    if rels is not None:
        for g in rels.generators:
            lines.append(f"rel\t{poly_to_text(g)}")
    _emit(lines)
    return 0


def _h_vector_text(hv) -> str:
    """An h-vector as (1,7,14); a word such as truncated as it is."""
    return hv if isinstance(hv, str) else "(" + ",".join(map(str, hv)) + ")"


def cmd_matchings(args) -> int:
    from .hilbert import h_vector, krull_dim_monomial, semigroup_hilbert, subalgebra_hilbert
    from .matchings import (SelectionSpaceExceeded, UnpermutedSupports, diagonal_matching,
                            enumerate_vertices_exhaustive, enumerate_vertices_random,
                            first_defect, full_support)
    ring, matrix = _build_ring(args)
    if matrix is None:
        raise UsageError("matchings needs a --matrix ring")
    gens = _build_generators(args, ring, matrix)
    _check_homogeneous(gens, "matchings")
    group = full_group(matrix.m, matrix.n)
    if args.mode == "exhaustive":
        try:
            catalog = enumerate_vertices_exhaustive(gens, group, cap=args.cap)
        except SelectionSpaceExceeded as exc:
            raise UsageError(f"selection space {exc.space} exceeds --cap {exc.cap}; "
                             "raise --cap or use --mode random")
    else:
        if args.seed is None:
            raise UsageError("random mode requires --seed")
        try:
            catalog = enumerate_vertices_random(gens, group, trials=args.trials,
                                                stall_limit=args.stall, seed=args.seed)
        except UnpermutedSupports:
            raise UsageError("random mode needs generators whose supports the row "
                             "and column permutations permute; use --mode exhaustive")
        if not catalog.orbits:
            raise UsageError(f"random mode drew no generic weight in {args.trials} "
                             "trials; raise --trials")
    k_max = args.kmax
    t = min(matrix.m, matrix.n)
    if args.minors == t:
        # maximal minors: they are a SAGBI basis under every diagonal order
        # (row-major lex is one, also for the transpose of a tall matrix),
        # so the diagonal matching's semigroup is the reference
        reference = semigroup_hilbert(
            diagonal_matching(matrix, minors(t, matrix)).selection,
            k_max, ring, args.grading).values
    else:
        # exact linear algebra caps the reference depth
        reference = subalgebra_hilbert(gens, min(k_max, 3), args.grading).values
    rows = []
    for entry in catalog.orbits:
        rep = entry.representative
        values = semigroup_hilbert(rep.selection, k_max, ring, args.grading).values
        defect = first_defect(values, reference)
        dim = krull_dim_monomial(rep.selection)
        hv = h_vector(values, dim)
        rows.append({
            "canonical": list(entry.canonical),
            "orbit_size": entry.size,
            "full_support": full_support(entry.canonical),
            "dim": dim,
            "h_vector": list(hv) if isinstance(hv, tuple) else hv,
            "first_defect": defect,
            "witness": rep.witness,
        })
    if args.format == "json":
        payload = {"total": catalog.total, "orbits": len(rows),
                   "exhaustive": catalog.exhaustive, "meta": catalog.meta,
                   "grading": args.grading, "reference": reference, "rows": rows}
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return 0
    lines = _job_header("matchings", args, (
        f"# total\t{catalog.total}" + ("\t(lower bound)" if not catalog.exhaustive else ""),
        f"# orbits\t{len(rows)}",
        f"# grading\t{args.grading}",
        f"# reference\t{reference}",
        "canonical\torbit_size\tfull_support\tdim\th_vector\tfirst_defect"))
    for r in rows:
        lines.append("\t".join([
            " ".join(str(v) for v in r["canonical"]),
            str(r["orbit_size"]),
            "yes" if r["full_support"] else "no",
            str(r["dim"]), _h_vector_text(r["h_vector"]),
            "none" if r["first_defect"] is None else str(r["first_defect"])]))
    _emit(lines)
    return 0


def cmd_verify(args) -> int:
    kwargs = {}
    if args.case == "G37_sampled":
        if args.seed is None:
            raise UsageError("G37_sampled requires --seed")
        kwargs = {"count": args.count, "seed": args.seed}
    try:
        report = run_case(args.case, **kwargs)
    except VerificationError as exc:
        lines = [f"FAIL {args.case}: {exc}"]
        if exc.matching is not None:
            lines.append("counterexample selection:")
            for s in exc.matching.selection:
                lines.append("  " + " ".join(str(v) for v in s))
        _emit(lines)
        return 1
    lines = _job_header("verify", args, (f"# case: {report.case}", "PASS"))
    lines.extend(report.details)
    _emit(lines)
    return 0


def cmd_hilbert(args) -> int:
    from .hilbert import h_vector, krull_dim_monomial, semigroup_hilbert, subalgebra_hilbert
    ring, matrix = _build_ring(args)
    gens = _build_generators(args, ring, matrix)
    order = _build_order(args.order, ring, matrix)
    if args.kind == "subalgebra":
        _check_homogeneous(gens, "--kind subalgebra")
        values = subalgebra_hilbert(gens, args.kmax, args.grading).values
        summary = []
    else:
        exps = [leading_exponent(order, f) for f in gens]
        values = semigroup_hilbert(exps, args.kmax, ring, args.grading).values
        dim = krull_dim_monomial(exps)
        summary = [f"dim\t{dim}", f"h_vector\t{_h_vector_text(h_vector(values, dim))}"]
    lines = _job_header("hilbert", args, (f"# grading\t{args.grading}", "k\tH(k)"))
    lines.extend(f"{k}\t{v}" for k, v in enumerate(values))
    _emit(lines + summary)
    return 0


def _add_ring_args(p):
    p.add_argument("--config", help="JSON file with default option values")
    p.add_argument("--matrix", help="matrix ring, e.g. 3x4")
    p.add_argument("--vars", help="comma-separated variable names")
    p.add_argument("--var-degrees", help="comma-separated variable degrees")
    p.add_argument("--char", type=int, default=0, help="field characteristic")


def _add_gen_args(p):
    p.add_argument("--minors", type=int, help="generate by t-minors")
    p.add_argument("--gens-file", help="file with one polynomial per line")
    p.add_argument("--gen", action="append", default=[],
                   help="inline polynomial (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sagbikit",
        description="SAGBI bases, defining ideals and coherent matchings "
                    "for subalgebras of polynomial rings")
    sub = ap.add_subparsers(dest="command", required=True)

    # the general variant comes first, as the default
    for name, help_text, variants, relations in (
            ("sagbi", "compute a SAGBI basis", ("gen", "deg"), False),
            ("relations", "SAGBI basis plus defining ideal", ("general", "degree"), True)):
        ps = sub.add_parser(name, help=help_text)
        _add_ring_args(ps)
        _add_gen_args(ps)
        ps.add_argument("--order", default="degrevlex")
        ps.add_argument("--variant", choices=variants, default=variants[0])
        ps.add_argument("--degree-bound", type=int)
        ps.add_argument("--round-bound", type=int)
        ps.set_defaults(func=cmd_sagbi, relations=relations, _parser=ps)

    pm = sub.add_parser("matchings", help="enumerate coherent matchings")
    _add_ring_args(pm)
    _add_gen_args(pm)
    pm.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    pm.add_argument("--cap", type=int, default=1 << 20,
                    help="exhaustive selection-space cap")
    pm.add_argument("--trials", type=int, default=10000)
    pm.add_argument("--stall", type=int, default=2000)
    pm.add_argument("--seed", type=int)
    pm.add_argument("--kmax", type=int, default=7)
    pm.add_argument("--grading", choices=("normalized", "ambient"),
                    default="normalized")
    pm.add_argument("--format", choices=("tsv", "json"), default="tsv")
    pm.add_argument("--workers", type=int, default=1,
                    help="selects nothing: the vertex walk is serial")
    pm.set_defaults(func=cmd_matchings, _parser=pm)

    pv = sub.add_parser("verify", help="run a universal-basis verification case")
    pv.add_argument("--case", choices=tuple(CASES), required=True)
    pv.add_argument("--count", type=int, default=50)
    pv.add_argument("--seed", type=int)
    pv.add_argument("--config", help="JSON file with default option values")
    pv.set_defaults(func=cmd_verify, _parser=pv)

    ph = sub.add_parser("hilbert", help="Hilbert function values")
    _add_ring_args(ph)
    _add_gen_args(ph)
    ph.add_argument("--kind", choices=("subalgebra", "semigroup"),
                    default="subalgebra")
    ph.add_argument("--order", default="degrevlex")
    ph.add_argument("--kmax", type=int, default=6)
    ph.add_argument("--grading", choices=("normalized", "ambient"),
                    default="normalized")
    ph.set_defaults(func=cmd_hilbert, _parser=ph)
    return ap


def _explicit_options(argv) -> set[str]:
    """Destinations given on the command line: parse once more with every
    subcommand default suppressed, so only explicit flags set a value."""
    ap = build_parser()
    for action in ap.parse_args(argv)._parser._actions:
        action.default = argparse.SUPPRESS
    return set(vars(ap.parse_args(argv)))


def _config_value(parser, action, key: str, value):
    """A config value read as its text would be on the command line, through
    the option's type and choices (element by element for a repeatable
    option such as --gen); null leaves an option without a default unset."""
    if value is None and action.default is None:
        return None
    repeated = isinstance(action, argparse._AppendAction)
    if repeated != isinstance(value, list):
        raise UsageError(f"config key {key!r} expects "
                         + ("a list" if repeated else "a single value"))
    try:
        out = [parser._get_value(action, str(v))
               for v in (value if repeated else [value])]
        for v in out:
            parser._check_value(action, v)
    except argparse.ArgumentError as exc:
        raise UsageError(f"config key {key!r}: {exc}")
    return out if repeated else out[0]


def _apply_config(args, argv):
    """Fill defaults from a JSON config file; explicit flags win."""
    if not getattr(args, "config", None):
        return args
    with open(args.config, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise UsageError(f"config file {args.config}: not JSON ({exc})")
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    actions = {a.dest: a for a in args._parser._actions}
    explicit = _explicit_options(argv)
    for key, value in data.items():
        attr = key.replace("-", "_")
        if attr not in actions or attr == "help":
            raise UsageError(f"config key {key!r} is not a {args.command} option")
        if attr not in explicit:
            setattr(args, attr, _config_value(args._parser, actions[attr], key, value))
    return args


# the least value of each integer option, checked for every subcommand
# that has it, in this order
_FLOORS = {"kmax": 0, "round_bound": 0, "degree_bound": 0, "count": 0,
           "workers": 1, "trials": 1, "stall": 1}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args = _apply_config(args, argv)
        for dest, least in _FLOORS.items():
            value = getattr(args, dest, None)
            if value is not None and value < least:
                raise UsageError(f"--{dest.replace('_', '-')} must be "
                                 f"{'positive' if least else 'nonnegative'}, got {value}")
        return args.func(args)
    except (UsageError, OverflowError) as exc:
        # OverflowError: an exponent past the packed field width of the
        # Buchberger core
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
