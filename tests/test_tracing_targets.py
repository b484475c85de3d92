"""The benchmark's tracer wraps library functions by name; each name must
still resolve.  `bench/tracing.py` is loaded by path, and needs nothing
beyond the standard library.  Both the tracer and the set-up timer of
`bench/job.py` rebind module names, so the CLI must reach each library
call through a name, not through a function stored at import."""
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
JOB = TRACING.parent / "job.py"
G37_JOB = ["verify", "--case", "G37_sampled", "--count", "1", "--seed", "1"]


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("mod_name, attr", [t[:2] for t in _targets()])
def test_tracing_target_resolves(mod_name, attr):
    module = importlib.import_module(f"sagbikit.{mod_name}")
    owner, _, name = attr.rpartition(".")
    holder = getattr(module, owner) if owner else module
    # as the tracer does, a method is taken from its class's own namespace
    assert callable(vars(holder)[name])


def _job(*args):
    return subprocess.run([sys.executable, str(JOB), *args], capture_output=True,
                          text=True)


def test_traced_verify_job_records_its_case(tmp_path):
    spans = tmp_path / "spans.json"
    res = _job("trace", str(spans), "--", *G37_JOB)
    assert res.returncode == 0, res.stderr
    dump = json.loads(spans.read_text())
    traced = {dump["names"][span[0]] for span in dump["spans"]}
    assert "universal.verify_g37_sampled" in traced


def test_setup_of_a_verify_job_stops_at_its_first_library_call():
    res = _job("setup", "--", *G37_JOB)
    assert (res.returncode, res.stdout) == (0, ""), res.stderr
