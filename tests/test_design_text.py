"""`design.txt` pinned byte for byte against recorded texts.

The golden files under `tests/data/design_txt/` were written by this
module's `record()` (run `PYTHONPATH=src python tests/test_design_text.py`).
Those of the six bundled demos' `design.txt` and of the benchmark agent's
swept design at kappa_bar 0, 1 and 2 in both modes date from commit
7d2d92b, before `estimate_mu` skipped any grid point.  Those of two
models of the benchmark's random family (`perfbench/data/models.json`),
the contractive scalar family-0 at kappa_bar 6 and the 3-state family-5
with a unit-circle pair at kappa_bar 1 (eps* = 10**-4.75), date from
commit 602bf7f, before `estimate_mu` bounded sigma_min squared.
Re-record them only in a change that means to alter a design, and say so
in CHANGES.md; a refactor or a speed-up must leave every byte as it is.
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


#: (A, B, kappa_bar) of the benchmark family's models, as in
#: perfbench/data/models.json, designed in full-state mode
FAMILY = {
    "family-0": ([[0.02725023917627245]], [[-1.4182046378124729]], 6),
    "family-5": ([[0.34260691049466835, -0.9321220812768864,
                   -0.061835592740062645],
                  [0.9325378499486104, 0.34862285506342533,
                   -0.09393304039646014],
                  [-0.055212076094746626, 0.09797287002505237,
                   -0.2200186833590312]],
                 [[0.1509318048160953], [0.429422560959906],
                  [-0.2615464524218912]], 1),
}


def _family_text(label):
    A, B, kappa_bar = FAMILY[label]
    model = AgentModel(A=A, B=B, C=np.eye(len(A)))
    return _design_text(design_protocol(model, kappa_bar))


#: golden file name -> the design text it pins
CASES = {
    **{f"demo-{case}-{mode}.txt": (_demo_text, case, mode)
       for case in DEMO_CASES for mode in MODES},
    **{f"bench-kb{kappa_bar}-{mode}.txt": (_bench_text, kappa_bar, mode)
       for kappa_bar in (0, 1, 2) for mode in MODES},
    **{f"{label}-full.txt": (_family_text, label) for label in FAMILY},
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
