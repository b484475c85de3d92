"""The benchmark's tracer wraps library functions by name; each name must
still resolve.  `bench/tracing.py` is loaded by path, and needs nothing
beyond the standard library.  Both the tracer and the set-up timer of
`bench/job.py` rebind module names, so the CLI must reach each library
call through a name, not through a function stored at import, and a
command's first library call must come before any module it imports
when it runs."""
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


def _load(path):
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    # registered first: the dataclasses of `bench/workloads.py` look it up
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _targets():
    return _load(TRACING).TARGETS


def _workload_jobs():
    """(op name, argv) of every benchmark operation; `bench/workloads.py`
    imports its sibling `checks` by name."""
    sys.path.insert(0, str(TRACING.parent))
    try:
        workloads = _load(TRACING.parent / "workloads.py").WORKLOADS
    finally:
        sys.path.remove(str(TRACING.parent))
    return [(op.name, list(op.argv)) for w in workloads.values() for op in w.ops]


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


@pytest.mark.parametrize("argv", [
    pytest.param(argv, id=name)
    for name, argv in [*_workload_jobs(), ("A233", ["verify", "--case", "A233"])]])
def test_setup_of_a_verify_job_stops_at_its_first_library_call(argv):
    res = _job("setup", "--", *argv)
    assert (res.returncode, res.stdout) == (0, ""), res.stderr
