"""sagbikit benchmark: fixed CLI jobs, timed end to end, checked apart.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

With --trace 0 a run repeats whole rounds of the workload's jobs, one
process at a time, for about S seconds, times set-up several times before
each round, and reports the medians of job_s, setup_s and peak_rss_mb.
With --trace 1 it runs pairs of an untraced round and a round with every
layer traced, and reports the per-layer metrics and the tracing overhead.
Outputs are checked after the timed part.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PER_ROUND = 3
JOB_TIMEOUT_S = 170.0


@dataclass
class JobResult:
    wall_s: float
    returncode: int
    stdout: str
    cpu_s: float = 0.0
    rss_mb: float = 0.0


def run_job(argv: list[str], out_path: Path) -> JobResult:
    """Run one Python process to its end; wall time from spawn to exit,
    and its CPU time (user and system), which leaves out the time the host
    lends this machine's vCPU to other tenants."""
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                cwd=ROOT)
        try:
            proc.wait(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return JobResult(wall, proc.returncode, out_path.read_text(), cpu)


def run_cli(op, out_path: Path) -> JobResult:
    """One timed CLI job, as `python3 -m sagbikit.cli`, with its peak RSS."""
    peak = out_path.with_suffix(".peak")
    peak.unlink(missing_ok=True)
    res = run_job([str(HERE / "job.py"), "run", str(peak), "--", *op.argv], out_path)
    if peak.exists():
        res.rss_mb = int(peak.read_text()) / 1024.0
    return res


def measure_setup(op, work: Path, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        res = run_job([str(HERE / "job.py"), "setup", "--", *op.argv], work / "setup.out")
        if res.returncode != 0:
            raise RuntimeError(f"set-up of {' '.join(op.argv)} exited {res.returncode}")
        times.append(res.wall_s)
    return times


def check_round(ops, results, verdicts: dict) -> list[str | None]:
    """Verdict per operation; identical outputs are checked once."""
    out = []
    for op, res in zip(ops, results):
        key = (op.argv, res.returncode, res.stdout)
        if key not in verdicts:
            verdicts[key] = op.check(res.stdout, res.returncode)
        out.append(verdicts[key])
    return out


def tally(ops, rounds, verdicts) -> tuple[int, int, bool, list[str]]:
    attempted = failed = 0
    correct = True
    notes = []
    for results in rounds:
        for op, reason in zip(ops, check_round(ops, results, verdicts)):
            attempted += 1
            if reason is None:
                if op.known_fault:
                    notes.append(f"known fault no longer shows: {op.known_fault}")
                continue
            failed += 1
            if op.known_fault:
                notes.append(f"failed as expected ({op.known_fault}): {reason}")
            else:
                correct = False
                notes.append(f"FAILED {' '.join(op.argv)}: {reason}")
    return attempted, failed, correct, sorted(set(notes))


def another_round(start: float, done: int, seconds: int) -> bool:
    """Start another round if, at the average round time, it ends by
    `seconds` plus half a round: a run lasts about `seconds` on average."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done / 2 <= seconds and elapsed < 120


def run_untraced(workload, seconds: int, work: Path) -> dict:
    ops = workload.ops
    setup, rounds = [], []
    start = time.perf_counter()
    while True:
        # set-up is timed next to every round, so that its median spans
        # the same stretch of the machine's drift as job_s
        setup += measure_setup(ops[0], work, SETUP_PER_ROUND)
        rounds.append([run_cli(op, work / f"op{i}.out")
                       for i, op in enumerate(ops)])
        if not another_round(start, len(rounds), seconds):
            break
    attempted, failed, correct, notes = tally(ops, rounds, {})
    job = [sum(r.wall_s for r in results) for results in rounds]
    # each job's own peak, summed over the round like its wall time
    rss = [sum(r.rss_mb for r in results) for results in rounds]
    metrics = {
        "job_s": (statistics.median(job), "s", len(job)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (statistics.median(rss), "MB", len(rss)),
    }
    # each job's own medians, wall and CPU seconds, for the human lines only
    per_job = {op.name: (statistics.median(results[i].wall_s for results in rounds),
                         statistics.median(results[i].cpu_s for results in rounds))
               for i, op in enumerate(ops)}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "notes": notes, "per_job": per_job}


def run_traced(workload, seconds: int, work: Path) -> dict:
    """Pairs of an untraced and a traced round for about `seconds`.

    Layer metrics are medians over the traced rounds; the overhead is the
    median over pairs of traced minus untraced round time, so that the
    machine's drift between pairs cancels.
    """
    from tracing import layer_metrics
    ops = workload.ops
    rounds, layers, overhead = [], [], []
    start = time.perf_counter()
    while True:
        plain = [run_cli(op, work / f"op{i}.out") for i, op in enumerate(ops)]
        traced, span_files = [], []
        for i, op in enumerate(ops):
            spans = work / f"spans{i}.json"
            traced.append(run_job([str(HERE / "job.py"), "trace", str(spans), "--",
                                   *op.argv], work / f"traced{i}.out"))
            span_files.append(spans)
        rounds += [plain, traced]
        layers.append(layer_metrics(span_files))
        overhead.append(sum(r.wall_s for r in traced) - sum(r.wall_s for r in plain))
        if not another_round(start, len(overhead), seconds):
            break
    attempted, failed, correct, notes = tally(ops, rounds, {})
    metrics = {}
    for k, (_, unit) in layers[0].items():
        # counts repeat exactly; median_low keeps them whole numbers
        pick = statistics.median_low if unit == "count" else statistics.median
        metrics[k] = (pick(m[k][0] for m in layers), unit, len(layers))
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s", len(overhead))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "notes": notes}


def report_line(res: dict) -> dict:
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u, _) in res["metrics"].items()}}


def print_human(name: str, res: dict) -> None:
    print(f"== {name}: attempted {res['attempted']}, failed {res['failed']}, "
          f"correct {res['correct']}")
    for note in res["notes"]:
        print(f"   {note}")
    for k, (v, unit, n) in res["metrics"].items():
        print(f"   {k:45s} {v:14.6f} {unit:6s} (n={n})")
    for k, (wall, cpu) in res.get("per_job", {}).items():
        print(f"   job {k:41s} {wall:14.6f} s      (median wall; CPU {cpu:.3f} s)")


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description="sagbikit benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    # every workload is a fixed object of the paper: the seed is recorded,
    # no input depends on it
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "sagbikit" / "cli.py").is_file():
        sys.stderr.write(f"no sagbikit sources under {SRC}\n")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / ".bench_build" / "bench" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    print(f"# nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"seed {args.seed}, seconds {args.seconds}, trace {args.trace}")
    try:
        results = {}
        for name in names:
            wl = WORKLOADS[name]
            run = run_traced if args.trace else run_untraced
            res = run(wl, args.seconds, work)
            print_human(name, res)
            results[name] = res
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(names) == 1:
        print(json.dumps(report_line(results[names[0]])))
    else:
        print(json.dumps({name: report_line(res) for name, res in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
