"""Every error the package raises is a package error: a caller that
catches `DelaySyncError` sees every bad input.  No source file raises a
bare `ValueError`, `TypeError` or `RuntimeError`; the package's errors
derive from them where a caller may expect one."""

import ast
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest

from delaysync import (AgentModel, CommGraph, DelayProfile, convergence_report,
                       design_protocol, estimate_mu, simulate,
                       solve_low_gain_dare)
from delaysync.demos import demo_model, demo_scenario
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


def _run():
    cfg = demo_scenario(1, "full")
    design = design_protocol(cfg.model, 2, mode="full", epsilon=1e-3)
    return simulate(cfg.model, design, cfg.graph, cfg.delays, cfg.x0,
                    cfg.xr0, 20)


@pytest.mark.parametrize("build", [
    lambda: AgentModel(A=np.eye(2), B=np.ones((2, 1)), C=np.eye(2)),
    lambda: CommGraph(adjacency=[[0.0, 0.0], [1.0, 0.0]], roots=[1, 0]),
    lambda: DelayProfile([1, 2]),
    lambda: design_protocol(demo_model("partial"), 2, mode="partial",
                            epsilon=1e-3),
    lambda: solve_low_gain_dare(0.5 * np.eye(2), np.ones((2, 1)), 1e-2),
    _run,
], ids=["AgentModel", "CommGraph", "DelayProfile", "ProtocolDesign",
        "DareSolution", "Trajectory"])
def test_array_holders_compare_by_identity(build):
    # numpy fields have no truth value, so a field-wise == would raise
    a, b = build(), build()
    assert (a == b) is False and (a != b) is True
    assert a == a
    assert hash(a) == hash(a) and len({a, b}) == 2
