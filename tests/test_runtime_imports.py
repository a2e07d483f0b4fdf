"""The runtime needs numpy alone, as pyproject.toml declares: every import
in the package is relative, numpy, or of the standard library.  scipy and
the other test tools stay in the tests."""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).parents[1] / "src" / "delaysync"


def imported_modules(path):
    """Top-level names of the absolute imports in one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_package_imports_numpy_and_the_standard_library_only(path):
    foreign = {name for name in imported_modules(path)
               if name != "numpy" and name not in sys.stdlib_module_names}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"
