"""Tests of the benchmark itself: deterministic inputs, checks that catch
perturbed outputs, tracing that restores the library, and metric names
that match BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess

import numpy as np
import pytest

import delaysync as ds
from delaysync import cli

from perfbench import checks, inputs, metrics, tracing
from perfbench.workloads import Run, design_and_simulate

from conftest import ROOT


def _strip_paths(items):
    return [{k: v for k, v in item.items() if k != "out_dir"} for item in items]


@pytest.mark.parametrize("make", [inputs.design_inputs, inputs.sim_inputs])
def test_generators_are_deterministic(make):
    assert make(5, "out") == make(5, "out")
    assert _strip_paths(make(5, "out")) != _strip_paths(make(6, "out"))


def test_cli_inputs_are_deterministic():
    demos_a, data_a, rng_a = inputs.cli_inputs(5, "out")
    demos_b, data_b, rng_b = inputs.cli_inputs(5, "out")
    assert data_a == data_b and demos_a == demos_b
    assert rng_a.permutation(6).tolist() == rng_b.permutation(6).tolist()
    assert inputs.cli_inputs(6, "out")[1] != data_a


def test_generated_graphs_are_rooted():
    for item in inputs.sim_inputs(3, "out"):
        cfg = ds.parse_config(item["scenario"])
        assert ds.is_rooted(cfg.graph)


def _small_run(tmp_path, kappa):
    adj, roots = inputs.rooted_chain(np.random.default_rng(0), 4)
    data = inputs.scenario(inputs.BENCH_A, inputs.BENCH_B, np.eye(3).tolist(),
                           "full", adj.tolist(), roots, kappa, 2, 12,
                           np.ones((4, 3)).tolist(), [0.0, 1.0, 0.0],
                           str(tmp_path), epsilon=1e-3, emit_plot_data=True)
    return data, design_and_simulate(ds.parse_config(data))


def test_design_txt_check_catches_changes():
    text = "mode: full\nepsilon_star: 1e-05\nepsilon: 1e-05\n"
    assert checks.check_design_txt(text, text, 1e-5) is None
    assert checks.check_design_txt(text, text.replace("full", "fulL"), 1e-5)
    assert checks.check_design_txt(text, text, 1e-6)


def test_trajectory_checks_catch_perturbations(tmp_path):
    data, traj = _small_run(tmp_path, [0, 0, 0, 0])
    final = traj.x[-1]
    assert checks.check_close(final, final.copy(), "final") is None
    assert checks.check_close(final + 1e-9, final, "final")
    assert checks.check_finite(traj) is None
    traj.x[3, 1, 2] = np.nan
    assert checks.check_finite(traj)

    _, traj = _small_run(tmp_path, [0, 0, 0, 0])
    graph = data["graph"]
    A = data["model"]["A"]
    assert checks.check_error_oracle(traj, graph["adjacency"],
                                     graph["roots"], A) is None
    traj.protocol[5, 0, 0] += 1e-6
    assert checks.check_error_oracle(traj, graph["adjacency"],
                                     graph["roots"], A)


@pytest.mark.parametrize("writer,header,rows", [
    (cli.write_trajectory_csv, checks.TRAJECTORY_HEADER,
     lambda t, k: checks.trajectory_rows(t.x, t.x_ref, t.u, k)),
    (cli.write_plotdata_csv, checks.PLOTDATA_HEADER,
     lambda t, k: checks.plotdata_rows(t.x, t.x_ref, t.u, t.error, k)),
])
def test_csv_check_catches_perturbations(tmp_path, writer, header, rows):
    _, traj = _small_run(tmp_path, [1, 2, 0, 1])
    steps = traj.x.shape[0]
    expected = {k: rows(traj, k) for k in checks.checkpoints(steps - 1)}
    path = tmp_path / "out.csv"
    writer(traj, path)
    assert checks.check_csv(path, header, steps, expected) is None
    lines = path.read_text().splitlines(keepends=True)

    def rewrite(new_lines):
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(new_lines))
        return checks.check_csv(bad, header, steps, expected)

    per_step = len(expected[0])
    last = 1 + (steps - 1) * per_step  # first row of the final step
    fields = lines[last].rstrip("\r\n").split(",")
    fields[-1] = repr(float(fields[-1]) + 1e-6)
    assert rewrite(lines[:last] + [",".join(fields) + "\r\n"]
                   + lines[last + 1:])
    assert rewrite(lines[:-1])
    assert rewrite(["k,agent\r\n"] + lines[1:])


def test_failed_check_counts_as_failed_operation():
    run = Run()
    run.op("light", "a", lambda: 1, lambda out: None)
    run.op("light", "a", lambda: 1, lambda out: "wrong output")
    run.op("light", "a", lambda: 1 / 0, lambda out: None)
    assert (run.attempted, run.failed) == (3, 2)


def test_tracer_restores_the_library_and_reports_absent_names(monkeypatch):
    original = ds.design.solve_low_gain_dare
    monkeypatch.setitem(tracing.SPANS, "cli.write_plotdata_csv",
                        [("delaysync.cli", "no_such_writer")])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ds.design.solve_low_gain_dare is not original
        assert ds.riccati.solve_low_gain_dare is ds.design.solve_low_gain_dare
        ds.design_protocol(ds.demo_model("full"), 2, epsilon=1e-3)
    finally:
        tracer.uninstall()
    assert ds.design.solve_low_gain_dare is original
    assert tracer.absent == ["cli.write_plotdata_csv"]
    values = metrics.per_layer_values(tracer, 1, 1.0, 1.0, 1.0)
    assert "cli.write_plotdata_csv.self_pct" not in values
    assert values["riccati.solve_low_gain_dare.calls"] == 1
    assert values["design.design_protocol.total_pct"] > 0


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_metric_tables():
    spec = _spec()
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in metrics.END_TO_END]
    assert spec["per_layer"] == [{"name": n, "unit": u, "better": b}
                                 for n, u, b, _ in metrics.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(metrics.ALIASES)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, key):
    spec = _spec()
    proc = subprocess.run(
        [*spec["command"], "--workload", "design-sweep",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert ({name: entry["unit"] for name, entry in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in spec[key]})
