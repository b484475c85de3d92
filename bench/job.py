"""Run one sagbikit CLI job inside this process, for the two measurements
that need hooks in the job's own interpreter.

    python3 bench/job.py run PEAK -- ARGS...     run as `python3 -m sagbikit.cli`
                                                 and write the peak resident
                                                 set (kB) to PEAK at exit
    python3 bench/job.py setup -- ARGS...        exit 0 at the first call
                                                 into a library module
    python3 bench/job.py trace SPANS -- ARGS...  run with every layer traced,
                                                 spans written to SPANS

ARGS are `sagbikit` command-line arguments.  `run` and `trace` exit with
the CLI's own code.  The peak is the process's VmHWM from /proc, which
after exec counts only this job; the rusage maximum the parent gets back
would also count the parent's own pages at fork.
"""
from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


class _SetupDone(Exception):
    pass


def _stop_at_library_calls(cli) -> None:
    """Rebind every library function and class the CLI imported to a stub
    that ends the job; exception classes stay, the CLI catches them."""
    def stop(*args, **kwargs):
        raise _SetupDone

    for name, val in list(vars(cli).items()):
        mod = getattr(val, "__module__", "") or ""
        if not mod.startswith("sagbikit.") or mod == "sagbikit.cli":
            continue
        if isinstance(val, type) and issubclass(val, BaseException):
            continue
        if callable(val):
            setattr(cli, name, stop)


def _write_peak_rss(path: str) -> None:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                Path(path).write_text(line.split()[1])
                return


def main(argv: list[str]) -> int:
    split = argv.index("--")
    mode, opts, cli_args = argv[0], argv[1:split], argv[split + 1:]
    if mode == "run":
        import atexit
        import runpy
        atexit.register(_write_peak_rss, opts[0])
        sys.argv = ["sagbikit", *cli_args]
        runpy.run_module("sagbikit.cli", run_name="__main__", alter_sys=True)
        return 0
    from sagbikit import cli
    if mode == "setup":
        _stop_at_library_calls(cli)
        try:
            cli.main(cli_args)
        except _SetupDone:
            return 0
        sys.stderr.write("job ended before its first library call\n")
        return 3
    if mode == "trace":
        sys.path.insert(0, str(HERE))
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            return cli.main(cli_args)
        finally:
            tracer.dump(opts[0])
    sys.stderr.write(f"unknown mode {mode!r}\n")
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
