"""Golden CLI transcripts: stdout must stay byte-identical.

Each case is a README example (with small parameters where the README
one is slow), the G(2,6), G(3,6) and G(3,7) Pluecker relations jobs, and five
runs of the SAGBI completion loop (degree windows, --degree-bound and
--round-bound truncation).  The first ten transcripts in tests/golden/
were captured before the binomial toric kernel replaced the coefficient
elimination, the loop runs before the two loop variants were merged into
one, and the G(3,6) relations before `buchberger` and the relation
minimizer moved onto the shared, degree-truncated Buchberger core.  The
3x3 and 3x7 matchings transcripts differ from their first capture only
in the job line, which no longer lists the worker count.  The 3x4 JSON
transcript pins every witness byte; it was captured with the dense
warm-started tableau, before the simplex took its revised form.  The
semigroup count of a family with free generators of normalized degrees
2 and 3 was captured before `semigroup_hilbert` split free generators off
its enumeration.  The random 3x7 JSON run that stops on --stall pins
samples_used, the canonical forms found and their witnesses; it was
captured while the random search still kept a cache of seen orbit sums.
`matchings-3x4-kmax8.out` (TSV, `--kmax 8`, the same
capture) is not a case here: at about 3 s it is diffed by CI instead.
So is `verify-g37-sampled-200.out`, the benchmark's sampled G(3,7) job
(`--count 200 --seed 11`), captured before the strict systems refused
opposite columns and dropped repeated ones.
`relations-3x7-diag.out`, the 140 quadrics of G(3,7), was captured once
the toric kernel's elimination took its pairs in the grading that makes
every input homogeneous; before that the job took minutes.  CI also runs
it under a 60-s timeout, so a return to the all-ones grading fails there.
The subalgebra Hilbert route's two transcripts, the benchmark's G(3,6)
job at --kmax 3 and the GF(2) job, were captured while the route still
stored its top level of products and kept each pivot as a dict.
Two relations transcripts pin coefficients that no other case prints:
`relations-fractions` (3/2, -1/9 and 1/18 in basis elements and retract
images) and `relations-2x4-gf3` (residues mod 3, such as 2*X12*X21).
Both were captured while every coefficient over Q was a Fraction, before
`RingContext.coeff` made integral ones ints.
`relations-xy-degree.out` was re-captured when a pass began to append each
new element as soon as it is found: the second `x*y^5` (Y7) is gone.  The
same loop at `--degree-bound 10`, the benchmark's job, was captured then.
`relations-interreduce` is the one transcript that sees the interreduction
pass: without it the last relation would read `Y1^2 - Y2^3 - Y3*Y4`, not
`Y1^2 - Y2*Y3 - Y3*Y4`.  It was captured while the pass still called
`normal_form` once per relation.
To re-capture after a deliberate output change, run
`PYTHONPATH=src python tests/test_golden.py NAME...` with the names of the
cases whose output is meant to change (no name re-captures every case),
and review the diff.
"""
from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from sagbikit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "sagbi-3x3-diag": ["sagbi", "--matrix", "3x3", "--minors", "2", "--order", "diag"],
    "relations-3x3-diag": ["relations", "--matrix", "3x3", "--minors", "2",
                           "--order", "diag"],
    "relations-segre": ["relations", "--vars", "y1,y2,z1,z2", "--gen", "y1*z1",
                        "--gen", "y1*z2", "--gen", "y2*z1", "--gen", "y2*z2",
                        "--order", "degrevlex"],
    "matchings-3x3": ["matchings", "--matrix", "3x3", "--minors", "2",
                      "--workers", "1"],
    "matchings-3x4-json": ["matchings", "--matrix", "3x4", "--minors", "2",
                           "--workers", "1", "--format", "json"],
    "matchings-3x7-random": ["matchings", "--matrix", "3x7", "--minors", "3",
                             "--mode", "random", "--trials", "40", "--stall", "20",
                             "--seed", "11", "--kmax", "3", "--workers", "1"],
    "matchings-3x7-random-stall-json": ["matchings", "--matrix", "3x7", "--minors",
                                        "3", "--mode", "random", "--trials", "120",
                                        "--stall", "40", "--seed", "5", "--kmax", "2",
                                        "--format", "json"],
    "verify-a233": ["verify", "--case", "A233"],
    "verify-g36": ["verify", "--case", "G36"],
    "verify-g37-sampled": ["verify", "--case", "G37_sampled", "--count", "50",
                           "--seed", "11"],
    "hilbert-3x6-semigroup": ["hilbert", "--matrix", "3x6", "--minors", "3",
                              "--order", "diag", "--kind", "semigroup",
                              "--kmax", "5"],
    # the benchmark's g36-hilbert and gf2-hilbert jobs
    "hilbert-3x6-subalgebra": ["hilbert", "--matrix", "3x6", "--minors", "3",
                               "--order", "diag", "--kind", "subalgebra",
                               "--kmax", "3"],
    "hilbert-gf2-subalgebra": ["hilbert", "--vars", "x,y,z", "--gen", "x+y",
                               "--gen", "y+z", "--gen", "x+z", "--char", "2",
                               "--kind", "subalgebra", "--kmax", "3"],
    # z^4 and w^6 lie outside the span of the others: free, of degrees 2 and 3
    "hilbert-free-semigroup": ["hilbert", "--vars", "x,y,z,w", "--gen", "x^2",
                               "--gen", "x*y", "--gen", "y^2", "--gen", "z^4",
                               "--gen", "w^6", "--kind", "semigroup",
                               "--kmax", "10"],
    "relations-2x6-diag": ["relations", "--matrix", "2x6", "--minors", "2",
                           "--order", "diag"],
    "relations-3x6-diag": ["relations", "--matrix", "3x6", "--minors", "3",
                           "--order", "diag"],
    "relations-3x7-diag": ["relations", "--matrix", "3x7", "--minors", "3",
                           "--order", "diag"],
    # coefficients 3/2, -1/9 and 1/18 in basis elements and retract images
    "relations-fractions": ["relations", "--vars", "x,y,z", "--gen", "x+y",
                            "--gen", "2*x*y+3*z^2", "--gen", "x^2-1/2*y^2",
                            "--order", "degrevlex", "--round-bound", "2"],
    # residues mod 3, such as 2*X12*X21
    "relations-2x4-gf3": ["relations", "--matrix", "2x4", "--minors", "2",
                          "--order", "diag", "--char", "3"],
    # the completion loop: degree windows, both bounds, comp-degree 3
    "relations-xy-degree": ["relations", "--vars", "x,y", "--gen", "x+y",
                            "--gen", "x*y", "--gen", "x*y^2", "--order", "lex",
                            "--variant", "degree", "--degree-bound", "6"],
    # the benchmark's xy-degree-loop job
    "relations-xy-degree-10": ["relations", "--vars", "x,y", "--gen", "x+y",
                               "--gen", "x*y", "--gen", "x*y^2", "--order", "lex",
                               "--variant", "degree", "--degree-bound", "10"],
    # the interreduction pass rewrites Y2^3 in the last relation as Y2*Y3
    "relations-interreduce": ["relations", "--vars", "x,z", "--gen", "x*z", "--gen", "z",
                              "--gen", "z^2", "--gen", "x^2-z", "--order", "lex"],
    "sagbi-2x4-degree": ["sagbi", "--matrix", "2x4", "--minors", "2",
                         "--order", "diag", "--variant", "deg",
                         "--degree-bound", "8"],
    "sagbi-3x3-degree-bound-2": ["sagbi", "--matrix", "3x3", "--minors", "2",
                                 "--order", "diag", "--degree-bound", "2"],
    "sagbi-3x3-round-bound-1": ["sagbi", "--matrix", "3x3", "--minors", "2",
                                "--order", "diag", "--round-bound", "1"],
}


def _transcript(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_transcript(name):
    code, out = _transcript(CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text()


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown case: {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        code, out = _transcript(CASES[name])
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / f"{name}.out").write_text(out)
        print(f"wrote {name}.out")
