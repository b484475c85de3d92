"""Spans around the calls into sagbikit's layers, recorded from outside.

`install()` wraps the public functions listed in `TARGETS` and rebinds
every module attribute that still points at an original, so calls made
through `from .x import f` names go through the wrapper as well.  Each
call becomes one span (name, start, end, parent span, value), where the
value is a count read off the result (binomials returned, infeasible
LPs, ...).  Spans stay in memory and are written out once, when the job
ends; `layer_metrics()` turns a span file into the per-layer numbers.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time


# (module, attribute or Class.method, span name, value read off the result)
TARGETS = [
    ("groebner", "toric_kernel", "groebner.toric_kernel", len),
    ("groebner", "buchberger", "groebner.buchberger", None),
    ("groebner", "normal_form", "groebner.normal_form", None),
    ("relations", "minimize_relations", "relations.minimize_relations",
     lambda r: len(r.generators)),
    ("relations", "verify_relations", "relations.verify_relations", None),
    ("relations", "interreduce", "relations.interreduce", None),
    ("engine", "tete_a_tetes", "engine.tete_a_tetes", None),
    ("engine", "subduct", "engine.subduct", lambda t: int(t.remainder.is_zero())),
    ("engine", "sagbi_general", "engine.sagbi_general", lambda r: len(r.basis)),
    ("engine", "sagbi_by_degree", "engine.sagbi_by_degree", lambda r: len(r.basis)),
    ("lp", "strict_feasible", "lp.strict_feasible", lambda w: int(w is None)),
    ("matchings", "enumerate_vertices_exhaustive",
     "matchings.enumerate_vertices_exhaustive", lambda c: c.total),
    ("matchings", "is_coherent", "matchings.is_coherent", None),
    ("matchings", "restrict_matching", "matchings.restrict_matching", None),
    ("matchings", "sagbi_defect", "matchings.sagbi_defect", None),
    ("minors", "CanonicalGroup.canonical", "minors.canonical", None),
    ("hilbert", "semigroup_hilbert", "hilbert.semigroup_hilbert",
     lambda d: sum(d.values)),
    ("hilbert", "subalgebra_hilbert", "hilbert.subalgebra_hilbert", None),
    ("orders", "weight_selects", "orders.weight_selects", None),
    ("rings", "Polynomial.__mul__", "rings.mul", None),
    ("universal", "verify_g37_sampled", "universal.verify_g37_sampled", None),
    ("universal", "transport_bracket_tuple", "universal.transport_bracket_tuple", None),
    ("formats", "poly_to_text", "formats.poly_to_text", None),
    ("cli", "main", "cli.main", None),
]

NAMES = [t[2] for t in TARGETS]


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []

    def wrap(self, name_id: int, fn, value_of):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name_id, start, clock(), parent, 0)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[idx] = (name_id, start, end, parent,
                          value_of(result) if value_of else 0)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target and rebind each module name bound to it."""
        for name_id, (mod_name, attr, _, value_of) in enumerate(TARGETS):
            module = importlib.import_module(f"sagbikit.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name_id, cls.__dict__[meth], value_of))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name_id, original, value_of)
            for mod in list(sys.modules.values()):
                mname = getattr(mod, "__name__", "")
                if mname != "sagbikit" and not mname.startswith("sagbikit."):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": NAMES, "spans": self.spans}, fh)


def _union_length(intervals) -> float:
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def span_totals(names, spans) -> dict:
    """Per span name: inclusive seconds, self seconds, calls, value sum, and
    the number of strict_feasible calls made under vertex enumeration.

    Inclusive time counts only spans without an ancestor of the same name,
    so recursion is not counted twice.  Self time is a span's duration
    minus the part of it covered by its child spans.
    """
    n = len(names)
    incl = [0.0] * n
    self_s = [0.0] * n
    calls = [0] * n
    value = [0] * n
    children: dict[int, list] = {}
    masks = [0] * len(spans)
    for i, (nid, start, end, parent, val) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
            masks[i] = masks[parent] | (1 << spans[parent][0])
    enum_id = names.index("matchings.enumerate_vertices_exhaustive")
    lp_id = names.index("lp.strict_feasible")
    lp_under_enum = 0
    for i, (nid, start, end, parent, val) in enumerate(spans):
        dur = end - start
        calls[nid] += 1
        value[nid] += val
        if not masks[i] >> nid & 1:
            incl[nid] += dur
        self_s[nid] += dur - _union_length(
            (max(s, start), min(e, end)) for s, e in children.get(i, ()))
        if nid == lp_id and masks[i] >> enum_id & 1:
            lp_under_enum += 1
    return {"incl": dict(zip(names, incl)), "self": dict(zip(names, self_s)),
            "calls": dict(zip(names, calls)), "value": dict(zip(names, value)),
            "lp_under_enum": lp_under_enum}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# (metric, kind, span name); kind is inclusive time, self time, call count
# or the sum of the values read off the results
LAYER_METRICS = [
    ("groebner.toric_kernel.s", "incl", "groebner.toric_kernel"),
    ("groebner.toric_kernel.calls", "calls", "groebner.toric_kernel"),
    ("groebner.toric_kernel.binomials", "value", "groebner.toric_kernel"),
    ("groebner.buchberger.s", "incl", "groebner.buchberger"),
    ("groebner.buchberger.self_s", "self", "groebner.buchberger"),
    ("groebner.buchberger.calls", "calls", "groebner.buchberger"),
    ("groebner.normal_form.s", "incl", "groebner.normal_form"),
    ("groebner.normal_form.calls", "calls", "groebner.normal_form"),
    ("relations.minimize_relations.s", "incl", "relations.minimize_relations"),
    ("relations.verify_relations.s", "incl", "relations.verify_relations"),
    ("relations.interreduce.s", "incl", "relations.interreduce"),
    ("relations.generators", "value", "relations.minimize_relations"),
    ("engine.tete_a_tetes.calls", "calls", "engine.tete_a_tetes"),
    ("engine.subduct.s", "incl", "engine.subduct"),
    ("engine.subduct.calls", "calls", "engine.subduct"),
    ("lp.strict_feasible.s", "incl", "lp.strict_feasible"),
    ("lp.strict_feasible.calls", "calls", "lp.strict_feasible"),
    ("matchings.enumerate_vertices_exhaustive.s", "incl",
     "matchings.enumerate_vertices_exhaustive"),
    ("matchings.is_coherent.s", "incl", "matchings.is_coherent"),
    ("matchings.is_coherent.calls", "calls", "matchings.is_coherent"),
    ("matchings.restrict_matching.s", "incl", "matchings.restrict_matching"),
    ("matchings.sagbi_defect.s", "incl", "matchings.sagbi_defect"),
    ("minors.canonical.s", "incl", "minors.canonical"),
    ("minors.canonical.calls", "calls", "minors.canonical"),
    ("hilbert.semigroup_hilbert.s", "incl", "hilbert.semigroup_hilbert"),
    ("hilbert.semigroup_hilbert.calls", "calls", "hilbert.semigroup_hilbert"),
    ("hilbert.semigroup_hilbert.elements", "value", "hilbert.semigroup_hilbert"),
    ("hilbert.subalgebra_hilbert.s", "incl", "hilbert.subalgebra_hilbert"),
    ("hilbert.subalgebra_hilbert.calls", "calls", "hilbert.subalgebra_hilbert"),
    ("orders.weight_selects.s", "incl", "orders.weight_selects"),
    ("orders.weight_selects.calls", "calls", "orders.weight_selects"),
    ("rings.mul.s", "incl", "rings.mul"),
    ("rings.mul.calls", "calls", "rings.mul"),
    ("universal.verify_g37_sampled.self_s", "self", "universal.verify_g37_sampled"),
    ("universal.transport_bracket_tuple.s", "incl",
     "universal.transport_bracket_tuple"),
    ("formats.poly_to_text.s", "incl", "formats.poly_to_text"),
    ("cli.main.self_s", "self", "cli.main"),
]
UNITS = {"incl": "s", "self": "s", "calls": "count", "value": "count"}


def layer_metrics(span_files) -> dict:
    """Per-layer metrics {name: (value, unit)}, summed over span files."""
    totals = None
    for path in span_files:
        with open(path) as fh:
            data = json.load(fh)
        t = span_totals(data["names"], data["spans"])
        if totals is None:
            totals = t
            continue
        for kind in ("incl", "self", "calls", "value"):
            for k, v in t[kind].items():
                totals[kind][k] += v
        totals["lp_under_enum"] += t["lp_under_enum"]
    out = {metric: (totals[kind][span], UNITS[kind])
           for metric, kind, span in LAYER_METRICS}
    calls, value = totals["calls"], totals["value"]
    out["engine.basis_size"] = (value["engine.sagbi_general"]
                                + value["engine.sagbi_by_degree"], "count")
    out["engine.subduct.zero_ratio"] = (
        _ratio(value["engine.subduct"], calls["engine.subduct"]), "ratio")
    out["lp.strict_feasible.infeasible_ratio"] = (
        _ratio(value["lp.strict_feasible"], calls["lp.strict_feasible"]), "ratio")
    out["matchings.lp_calls_per_vertex"] = (
        _ratio(totals["lp_under_enum"],
               value["matchings.enumerate_vertices_exhaustive"]), "ratio")
    return out
