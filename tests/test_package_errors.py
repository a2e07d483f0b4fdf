"""Every error the package raises is a package error: a caller that
catches `DelaySyncError` sees every bad input.  No source file raises a
bare `ValueError`, `TypeError` or `RuntimeError`; the package's errors
derive from them where a caller may expect one."""

import ast
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest

from delaysync import convergence_report, estimate_mu
from delaysync.demos import demo_scenario
from delaysync.errors import ScenarioError

PACKAGE = pathlib.Path(__file__).parents[1] / "src" / "delaysync"
BUILT_IN = {"ValueError", "TypeError", "RuntimeError"}


def raised_built_ins(path):
    """(line, name) of each `raise` of a built-in error in one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BUILT_IN:
                yield node.lineno, exc.id


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_package_raises_only_package_errors(path):
    found = list(raised_built_ins(path))
    assert not found, f"{path.name} raises {found}"


@pytest.mark.parametrize("call, message", [
    (lambda: estimate_mu(np.eye(2), 3.0, 1.0),
     "omega + theta must not exceed pi"),
    (lambda: convergence_report(SimpleNamespace(error=np.ones(5))),
     "trajectory too short to judge (5 steps)"),
    (lambda: demo_scenario(4), "demo case must be one of (1, 2, 3), got 4"),
], ids=["estimate_mu", "convergence_report", "demo_scenario"])
def test_bad_inputs_are_scenario_errors(call, message):
    with pytest.raises(ScenarioError) as err:
        call()
    assert str(err.value) == message
