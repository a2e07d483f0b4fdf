"""Shape of the committed benchmark records (`BENCH_*.json` at the root).

Each record holds the final JSON lines of `perfbench/run.py` runs of a
parent commit and a change.  A record must say what it compared and how,
every run in it must have passed the benchmark's correctness checks, and
a claimed gain must name a workload and a metric the benchmark declares
in `BENCHMARK.json`.  A record without a claim carries `"claim": null`.
"""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

REQUIRED_KEYS = {"parent_commit", "change", "command", "environment", "tier1",
                 "workloads"}


def _runs(node):
    """Every run line in a record: a dict that reports `correct` or
    `failed`."""
    if isinstance(node, dict):
        if "correct" in node or "failed" in node:
            yield node
        for value in node.values():
            yield from _runs(value)
    elif isinstance(node, list):
        for value in node:
            yield from _runs(value)


def _load(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_what_it_compared(path):
    record = _load(path)
    assert REQUIRED_KEYS <= set(record), REQUIRED_KEYS - set(record)


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_every_recorded_run_passed(path):
    runs = list(_runs(_load(path)))
    assert runs
    bad = [run for run in runs
           if run.get("correct") is not True or run.get("failed") != 0]
    assert not bad, f"{len(bad)} of {len(runs)} runs failed or were wrong"


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_claim_names_a_declared_workload_and_metric(path):
    claim = _load(path).get("claim", False)
    if claim is None:
        return
    assert isinstance(claim, dict), "claim must be a dict or null"
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    metrics = {m["name"] for m in BENCHMARK["end_to_end"]
               + BENCHMARK["per_layer"]}
    assert claim.get("workload") in workloads
    assert claim.get("metric") in metrics
