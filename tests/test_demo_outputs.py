"""Every file the bundled demos write, pinned by its sha256.

`tests/data/demo_outputs.json` was written by this module's `record()`
(run `PYTHONPATH=src python tests/test_demo_outputs.py`).  It holds the
sha256 of each of the five files of the six `delaysync demo` runs, and of
the `plotdata.csv` of one `delaysync simulate` run with plot data, each
run in process through `cli.main`.  `config.json` is hashed with its
output directory replaced by `"<out>"`.  Re-record only in a change that
means to alter an output, and say so in CHANGES.md; a refactor or a
speed-up must leave every byte as it is.

Beside each file's sha256 the record keeps a short digest of each block
of `BLOCK_LINES` lines, so that a mismatch names the first differing
line's block without a stored copy of the file.
"""

import dataclasses
import hashlib
import json
import pathlib
import tempfile

import pytest

from delaysync import write_config
from delaysync.cli import main
from delaysync.demos import DEMO_CASES, demo_scenario
from delaysync.design import FULL_STATE, PARTIAL_STATE

RECORD = pathlib.Path(__file__).parent / "data" / "demo_outputs.json"

DEMO_FILES = ("config.json", "design.txt", "trajectory.csv", "report.txt",
              "report.json")

#: lines per block digest
BLOCK_LINES = 1000

#: the `simulate` run whose plotdata.csv is pinned
PLOT_CASE = (2, PARTIAL_STATE)


def _demo(case, mode, out):
    """{file name: bytes} of `delaysync demo` written to `out`."""
    assert main(["demo", "--case", str(case), "--mode", mode,
                 "--out", str(out)]) == 0
    files = {name: (out / name).read_bytes() for name in DEMO_FILES}
    where = json.dumps(str(out)).encode()
    assert files["config.json"].count(where) == 1
    files["config.json"] = files["config.json"].replace(where, b'"<out>"')
    return files


def _plot(case, mode, out):
    """{"plotdata.csv": bytes} of `delaysync simulate` with plot data."""
    cfg = dataclasses.replace(demo_scenario(case, mode), emit_plot_data=True)
    path = out.parent / f"{out.name}.json"
    write_config(cfg, path)
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    return {"plotdata.csv": (out / "plotdata.csv").read_bytes()}


#: run name -> how its files are made
RUNS = {
    **{f"demo-{case}-{mode}": (_demo, case, mode)
       for case in DEMO_CASES for mode in (FULL_STATE, PARTIAL_STATE)},
    f"simulate-{PLOT_CASE[0]}-{PLOT_CASE[1]}-plot": (_plot, *PLOT_CASE),
}


def _outputs(run, directory):
    make, *args = RUNS[run]
    return make(*args, pathlib.Path(directory) / run)


def _blocks(data):
    lines = data.splitlines(keepends=True)
    return [hashlib.sha256(b"".join(lines[at:at + BLOCK_LINES])).hexdigest()[:12]
            for at in range(0, len(lines), BLOCK_LINES)]


def _entry(data):
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "blocks": _blocks(data)}


def _first_difference(data, want):
    """Where `data` first departs from the recorded `want`."""
    got = _blocks(data)
    for index, (new, old) in enumerate(zip(got, want["blocks"])):
        if new != old:
            first = index * BLOCK_LINES + 1
            return (f"first differing line within lines {first}-"
                    f"{first + BLOCK_LINES - 1}")
    shorter = min(len(got), len(want["blocks"]))
    return (f"{len(got)} blocks of {BLOCK_LINES} lines against "
            f"{len(want['blocks'])} recorded; the first {shorter} agree")


@pytest.mark.parametrize("run", sorted(RUNS))
def test_outputs_match_record(run, tmp_path):
    want = json.loads(RECORD.read_text(encoding="utf-8"))[run]
    files = _outputs(run, tmp_path)
    assert sorted(files) == sorted(want)
    mismatched = [f"{name}: {_first_difference(data, want[name])}"
                  for name, data in sorted(files.items())
                  if hashlib.sha256(data).hexdigest() != want[name]["sha256"]]
    assert not mismatched, f"{run}: " + "; ".join(mismatched)


def record():
    """Write every run's file hashes from the current library."""
    with tempfile.TemporaryDirectory() as directory:
        entries = {run: {name: _entry(data) for name, data
                         in sorted(_outputs(run, directory).items())}
                   for run in sorted(RUNS)}
    RECORD.parent.mkdir(parents=True, exist_ok=True)
    RECORD.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
