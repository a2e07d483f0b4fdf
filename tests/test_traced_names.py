"""Every library function the benchmark's tracer wraps must exist.

`perfbench/tracing.py` names the functions it times as (module, attribute
path) pairs and silently skips names it cannot find, so a rename in the
library would drop a per-layer metric.  This test reads that table (the
file is loaded by path and nothing in it is changed) and resolves each pair
against the library.
"""

import functools
import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("_traced_names", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [pair for pairs in tracing.SPANS.values() for pair in pairs]


@pytest.mark.parametrize("module_name, attr", _traced_names(),
                         ids=lambda name: name)
def test_traced_name_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    target = functools.reduce(getattr, attr.split("."), module)
    assert callable(target)
