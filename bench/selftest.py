"""Show that every workload's check accepts the program's real output and
rejects a corrupted copy of it.

    python3 bench/selftest.py

Runs each workload's jobs once, then feeds each check its real output and
one or more corrupted outputs.  Exit code 0 when every real output is
judged as expected and every corruption is rejected.
"""
from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, run_cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _replace_once(pattern: str, repl, text: str) -> str:
    new, n = re.subn(pattern, repl, text, count=1, flags=re.M)
    if n != 1:
        raise ValueError(f"corruption pattern {pattern!r} not found")
    return new


def _flip_sign(m) -> str:
    return f"{m.group(1)} {'+' if m.group(2) == '-' else '-'} "


def flip_relation_sign(text: str) -> str:
    return _replace_once(r"^(rel\t.*?) ([+-]) ", _flip_sign, text)


def flip_retract_sign(text: str) -> str:
    return _replace_once(r"^(Y\d+=\t.*?) ([+-]) ", _flip_sign, text)


def orbit_size_off_by_one(text: str) -> str:
    data = json.loads(text)
    data["rows"][0]["orbit_size"] += 1
    data["rows"][1]["orbit_size"] -= 1
    return json.dumps(data)


def drop_bracket_pair(text: str) -> str:
    return _replace_once(r"^(sample \d+: defect [23] repaired by .*), \[[^(]*?\]( \()",
                         r"\1\2", text)


def wrong_hilbert_value(text: str) -> str:
    return _replace_once(r"^2\t(\d+)$", lambda m: f"2\t{int(m.group(1)) + 1}", text)


def mended_gf2_values(text: str) -> str:
    """The GF(2) job's output as it will read once the fault is mended."""
    for k, v in enumerate((1, 2, 3, 4)):
        text = _replace_once(rf"^{k}\t\d+$", f"{k}\t{v}", text)
    return text


# job name -> [(name, corruption, should be accepted)]
CASES = {
    "g26-relations": [("relation with one sign flipped", flip_relation_sign, False)],
    "xy-degree-loop": [("retract image with one sign flipped", flip_retract_sign, False),
                       ("relation with one sign flipped", flip_relation_sign, False)],
    "a34-matchings": [("orbit sizes off by one", orbit_size_off_by_one, False)],
    "g37-sampled": [("defect line missing a bracket pair", drop_bracket_pair, False)],
    "g36-hilbert": [("wrong Hilbert value", wrong_hilbert_value, False)],
    "gf2-hilbert": [("mended GF(2) values", mended_gf2_values, True)],
}


def main() -> int:
    work = ROOT / ".bench_build" / "bench" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    bad = 0
    try:
        for wl in WORKLOADS.values():
            for op in wl.ops:
                res = run_cli(op, work / f"{op.name}.out")
                verdict = op.check(res.stdout, res.returncode)
                ok = (verdict is not None) == bool(op.known_fault)
                bad += not ok
                print(f"{'ok ' if ok else 'BAD'} {wl.name}/{op.name} real output: "
                      f"{'accepted' if verdict is None else 'rejected: ' + verdict}")
                for label, corrupt, accept in CASES[op.name]:
                    verdict = op.check(corrupt(res.stdout), res.returncode)
                    ok = (verdict is None) == accept
                    bad += not ok
                    print(f"{'ok ' if ok else 'BAD'} {wl.name}/{op.name} {label}: "
                          f"{'accepted' if verdict is None else 'rejected: ' + verdict}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest " + ("PASS" if not bad else f"FAIL ({bad})"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
