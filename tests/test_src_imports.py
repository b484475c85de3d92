"""The library never imports the test helpers: the oracles and the paper
constructions in `tests/` check `src/`, so none of them may become a
runtime dependency of it.  A command line process loads only the
modules its command runs, and `fractions` only when a coefficient is a
non-integral rational."""
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import CASES as GOLDEN_ARGV

SRC = Path(__file__).resolve().parent.parent / "src" / "sagbikit"
TEST_HELPERS = {"oracles", "constructions", "tests"}


def _imported_names(tree):
    """Every module name an import statement mentions, dotted parts split,
    and for `from X import a, b` also a and b."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield from alias.name.split(".")
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield from node.module.split(".")
            for alias in node.names:
                yield alias.name


def test_helper_names_are_caught():
    tree = ast.parse("import tests.oracles\nfrom . import constructions\n"
                     "from oracles import x\nimport math\n")
    assert set(_imported_names(tree)) & TEST_HELPERS == TEST_HELPERS


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_module_imports_no_test_helper(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert not set(_imported_names(tree)) & TEST_HELPERS


def _private_package_names(tree):
    """The underscore-prefixed names a `from` import takes from the
    package: relatively, or from `sagbikit` by its name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "sagbikit"):
            yield from (a.name for a in node.names if a.name.startswith("_"))


def test_private_names_are_caught():
    tree = ast.parse("from .matchings import _walk, walk\n"
                     "from sagbikit.lp import _grow\nfrom argparse import _AppendAction\n")
    assert list(_private_package_names(tree)) == ["_walk", "_grow"]


def test_cli_imports_only_public_names():
    # the command line is a shell over the public library API
    path = SRC / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(_private_package_names(tree)) == []


# the layers a command loads only when it computes with them
HEAVY = ("engine", "groebner", "relations", "matchings", "lp", "universal")
# what `fractions` brings in; a job whose coefficients are integers loads none
RATIONALS = {"fractions", "decimal", "_decimal", "numbers"}
_LOADED = """
import json, sys
before = set(sys.modules)
import sagbikit.cli
argv = json.loads(sys.argv[1])
code = sagbikit.cli.main(argv) if argv else 0
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""


def _loaded_by(argv):
    """The modules a fresh interpreter loads to import the CLI and, when
    argv is given, to run that command, which must succeed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    res = subprocess.run([sys.executable, "-c", _LOADED, json.dumps(argv)],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    code, loaded = json.loads(res.stdout.splitlines()[-1])
    assert code == 0, res.stderr
    return set(loaded)


@pytest.mark.parametrize("argv, absent", [
    ([], ("hilbert", *HEAVY)),
    (["hilbert", "--matrix", "2x3", "--minors", "2", "--kmax", "2"], HEAVY),
    (["hilbert", "--vars", "x,y", "--gen", "x^2", "--gen", "x*y", "--kind", "semigroup"],
     HEAVY),
    (["relations", "--vars", "x,y", "--gen", "x+y", "--gen", "x*y"],
     ("matchings", "lp", "universal")),
    (["sagbi", "--vars", "x,y", "--gen", "x+y", "--gen", "x*y"],
     ("matchings", "lp", "universal")),
    (["matchings", "--matrix", "2x3", "--minors", "2", "--kmax", "2"],
     ("engine", "groebner", "relations", "universal")),
    (["verify", "--case", "A233"], ("engine", "groebner", "relations")),
    (GOLDEN_ARGV["relations-2x4-gf3"], ("matchings", "lp", "universal")),
], ids=["import", "hilbert", "hilbert-semigroup", "relations", "sagbi", "matchings",
        "verify", "relations-gf3"])
def test_a_command_loads_only_the_layers_it_runs(argv, absent):
    loaded = _loaded_by(argv)
    assert "sagbikit.cli" in loaded
    assert not loaded & {f"sagbikit.{name}" for name in absent}
    assert "dataclasses" not in loaded
    assert not loaded & RATIONALS


def test_a_rational_literal_loads_fractions():
    assert "fractions" in _loaded_by(GOLDEN_ARGV["relations-fractions"])


def test_every_package_export_resolves_to_its_owner():
    # the package binds its names lazily; each must still be the object its
    # module defines, also after every module is loaded (a submodule import
    # sets the package attribute of the same name)
    import sagbikit
    for path in SRC.glob("[!_]*.py"):
        importlib.import_module(f"sagbikit.{path.stem}")
    for name in sagbikit.__all__:
        owner = importlib.import_module(f"sagbikit.{sagbikit._OWNER[name]}")
        assert getattr(sagbikit, name) is getattr(owner, name), name
