"""`design.txt` pinned byte for byte against recorded texts.

The golden files under `tests/data/design_txt/` were written by this
module's `record()` (run `PYTHONPATH=src python tests/test_design_text.py`)
at commit 7d2d92b, before `estimate_mu` skipped any grid point.  They hold
the six bundled demos' `design.txt` and the benchmark agent's swept design
at kappa_bar 0, 1 and 2 in both modes.  Re-record them only in a change
that means to alter a design, and say so in CHANGES.md; a refactor or a
speed-up must leave every byte as it is.
"""

import pathlib

import numpy as np
import pytest

from delaysync import AgentModel, design_protocol
from delaysync.cli import _design_text, _designed
from delaysync.demos import DEMO_CASES, demo_scenario
from delaysync.design import FULL_STATE, PARTIAL_STATE

from conftest import BENCH_A, BENCH_B, BENCH_C

GOLDEN_DIR = pathlib.Path(__file__).parent / "data" / "design_txt"

MODES = (FULL_STATE, PARTIAL_STATE)


def _demo_text(case, mode):
    return _design_text(_designed(demo_scenario(case, mode)))


def _bench_text(kappa_bar, mode):
    C = np.eye(3) if mode == FULL_STATE else BENCH_C
    model = AgentModel(A=BENCH_A, B=BENCH_B, C=C)
    return _design_text(design_protocol(model, kappa_bar, mode=mode))


#: golden file name -> the design text it pins
CASES = {
    **{f"demo-{case}-{mode}.txt": (_demo_text, case, mode)
       for case in DEMO_CASES for mode in MODES},
    **{f"bench-kb{kappa_bar}-{mode}.txt": (_bench_text, kappa_bar, mode)
       for kappa_bar in (0, 1, 2) for mode in MODES},
}


def _text(name):
    make, *args = CASES[name]
    return make(*args)


@pytest.mark.parametrize("name", sorted(CASES))
def test_design_text_matches_golden(name):
    golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert _text(name) == golden


def record():
    """Write every golden text from the current library."""
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in sorted(CASES):
        (GOLDEN_DIR / name).write_text(_text(name), encoding="utf-8")


if __name__ == "__main__":
    record()
