"""The benchmark's workloads: fixed `sagbikit` CLI jobs and their checks.

A workload's round is its list of operations, each one named CLI job run
as its own process.  Every job computes a fixed object of the paper, so no
input depends on the benchmark's seed: g37-sampled keeps the program's
sample seed at 11, because the work of a sample set varies with its seed
(the defective samples carry most of the LPs) and would swamp the metrics.

Six jobs make two workloads of about 20 s a round, so that a run of
about 50 s measures two or three rounds: `algebra`, the polynomial side
(groebner, relations, engine, the subalgebra Hilbert route), and
`matchings`, the polyhedral side (lp, matchings, minors, semigroup counts).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    check: Callable[[str, int], str | None]
    # a fault of the program that makes this operation fail on every run;
    # it is counted as failed, and the run stays correct
    known_fault: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]


G37_COUNT = 200
G37_SEED = 11
XY_GENS = ("x+y", "x*y", "x*y^2")
XY_BOUND = 10
GF2_GENS = ("x+y", "y+z", "x+z")


def _gen_args(gens) -> tuple[str, ...]:
    return tuple(a for g in gens for a in ("--gen", g))


ALGEBRA = (
    Op("g26-relations",
       ("relations", "--matrix", "2x6", "--minors", "2", "--order", "diag"),
       partial(checks.check_grassmannian_relations, k=2, n=6)),
    Op("xy-degree-loop",
       ("relations", "--vars", "x,y", *_gen_args(XY_GENS), "--order", "lex",
        "--variant", "degree", "--degree-bound", str(XY_BOUND)),
       partial(checks.check_xy_degree_loop, gens=list(XY_GENS), bound=XY_BOUND)),
    Op("g36-hilbert",
       ("hilbert", "--matrix", "3x6", "--minors", "3", "--order", "diag",
        "--kind", "subalgebra", "--kmax", "3"),
       partial(checks.check_grassmannian_hilbert, k=3, n=6, kmax=3)),
    Op("gf2-hilbert",
       ("hilbert", "--vars", "x,y,z", *_gen_args(GF2_GENS), "--char", "2",
        "--kind", "subalgebra", "--kmax", "3"),
       partial(checks.check_hilbert_mod_p, gens=list(GF2_GENS),
               names=["x", "y", "z"], p=2, kmax=3),
       known_fault="subalgebra_hilbert ranks over Q in every characteristic"),
)
MATCHINGS = (
    Op("a34-matchings",
       ("matchings", "--matrix", "3x4", "--minors", "2", "--workers", "1",
        "--format", "json"),
       checks.check_matchings_3x4),
    Op("g37-sampled",
       ("verify", "--case", "G37_sampled", "--count", str(G37_COUNT),
        "--seed", str(G37_SEED)),
       partial(checks.check_g37_sampled, count=G37_COUNT, seed=G37_SEED)),
)


WORKLOADS = {w.name: w for w in [
    Workload("algebra",
             "G(2,6) Plucker ideal, degree-10 xy SAGBI loop, G(3,6) subalgebra Hilbert "
             "route, one GF(2) job that fails every time: groebner to hilbert", ALGEBRA),
    Workload("matchings",
             "3x4 2-minor matchings and 200 sampled G(3,7) ones: many small and few "
             "large LPs, canonical forms, deep and shallow semigroup counts", MATCHINGS),
]}
