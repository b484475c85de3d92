"""The benchmark's tracer wraps library functions by name; each name must
still resolve.  `bench/tracing.py` is loaded by path, and needs nothing
beyond the standard library."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
