"""The library never imports the test helpers: the oracles and the paper
constructions in `tests/` check `src/`, so none of them may become a
runtime dependency of it."""
import ast
from pathlib import Path

import pytest

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
