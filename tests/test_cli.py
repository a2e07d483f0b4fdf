import csv
import dataclasses
import json
import re
import reprlib
import tracemalloc

import numpy as np
import pytest

from delaysync import (CommGraph, DelayProfile, Trajectory, load_config,
                       parse_config, simulate, write_config)
from delaysync.cli import main
from delaysync.config import config_to_dict
from delaysync.demos import demo_scenario
from delaysync.errors import ScenarioError
from delaysync.verify import StabilityCertificate
import delaysync.cli as cli_mod


def demo_config_file(tmp_path, case=1, mode="full", **tweaks):
    cfg = demo_scenario(case, mode, out_dir=str(tmp_path / "out"))
    data = config_to_dict(cfg)
    for dotted, value in tweaks.items():
        section, key = dotted.split(".")
        data.setdefault(section, {})[key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data, indent=2))
    return path


def reference_trajectory_csv(traj, path):
    """The csv.writer implementation the streaming writer replaced.  It
    computes each agent's error itself, as the benchmark's checker does,
    and reads no `Trajectory.agent_error`."""
    steps, n_agents, n = traj.x.shape
    m = traj.u.shape[2]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "agent", "component", "x", "xr", "u", "error"])
        for k in range(steps):
            xr = traj.x_ref[k]
            for c in range(n):
                writer.writerow([k, 0, c, repr(float(xr[c])),
                                 repr(float(xr[c])), repr(0.0), repr(0.0)])
            for i in range(n_agents):
                err = float(np.sqrt(((traj.x[k, i] - xr) ** 2).sum()))
                for c in range(n):
                    u_val = float(traj.u[k, i, c]) if c < m else 0.0
                    writer.writerow([k, i + 1, c, repr(float(traj.x[k, i, c])),
                                     repr(float(xr[c])), repr(u_val),
                                     repr(err)])


def reference_plotdata_csv(traj, path):
    """The csv.writer implementation the streaming writer replaced."""
    steps, n_agents, n = traj.x.shape
    m = traj.u.shape[2]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "series", "value"])
        for k in range(steps):
            writer.writerow([k, "error", repr(float(traj.error[k]))])
            for c in range(n):
                writer.writerow([k, f"exo.x{c}", repr(float(traj.x_ref[k, c]))])
            for i in range(n_agents):
                for c in range(n):
                    writer.writerow([k, f"agent{i + 1}.x{c}",
                                     repr(float(traj.x[k, i, c]))])
                for c in range(m):
                    writer.writerow([k, f"agent{i + 1}.u{c}",
                                     repr(float(traj.u[k, i, c]))])


def write_both_csvs(traj, path):
    """The combined pass `simulate` runs with plot data: both files at once."""
    cli_mod._write_csvs(traj, path, path.with_name("plot_" + path.name))


def assert_writers_match_reference(traj, tmp_path):
    # each public writer alone, and the combined pass writing both files
    write_both_csvs(traj, tmp_path / "both.csv")
    for writer, reference, combined in (
            (cli_mod.write_trajectory_csv, reference_trajectory_csv,
             "both.csv"),
            (cli_mod.write_plotdata_csv, reference_plotdata_csv,
             "plot_both.csv")):
        writer(traj, tmp_path / "new.csv")
        reference(traj, tmp_path / "ref.csv")
        expected = (tmp_path / "ref.csv").read_bytes()
        assert (tmp_path / "new.csv").read_bytes() == expected, \
            writer.__name__
        assert (tmp_path / combined).read_bytes() == expected, \
            f"combined pass, {writer.__name__}"


class TestWritersMatchReference:
    # past the first step where Python's s ** 0.5 is one ulp off np.sqrt(s):
    # demo 2 full at step 30, demo 3 partial at 57; a writer that took its
    # own root of the squared deviation would fail here
    @pytest.mark.parametrize("case,mode,k_max", [(2, "full", 40),
                                                 (3, "partial", 60)])
    def test_demo_bytes(self, tmp_path, case, mode, k_max):
        cfg = demo_scenario(case, mode)
        traj = simulate(cfg.model, cli_mod._designed(cfg), cfg.graph,
                        cfg.delays, cfg.x0, cfg.xr0, k_max)
        sums = ((traj.x - traj.x_ref[:, None, :]) ** 2).sum(axis=2)
        assert any(np.sqrt(s) != s ** 0.5 for s in sums.ravel().tolist())
        assert_writers_match_reference(traj, tmp_path)

    @pytest.mark.parametrize("n,m", [(1, 2), (2, 2), (3, 1)])
    def test_synthetic_bytes(self, tmp_path, n, m):
        rng = np.random.default_rng(n * 10 + m)
        steps, n_agents = 4, 2
        x = rng.standard_normal((steps, n_agents, n)) * 10.0 ** rng.integers(
            -20, 20, (steps, n_agents, n))
        u = rng.standard_normal((steps, n_agents, m))
        u[0, 0, 0] = -0.0
        x_ref = rng.standard_normal((steps, n))
        traj = Trajectory(x=x, protocol=np.zeros_like(x), observer=None,
                          x_ref=x_ref, u=u, error=rng.random(steps),
                          agent_error=np.linalg.norm(x - x_ref[:, None, :],
                                                     axis=2))
        assert_writers_match_reference(traj, tmp_path)

    # the writers format a block of cli._BLOCK steps at a time
    @pytest.mark.parametrize("steps", [
        1, cli_mod._BLOCK, cli_mod._BLOCK + 1, 2 * cli_mod._BLOCK + 3])
    @pytest.mark.parametrize("n_agents,n,m", [(1, 2, 2), (2, 2, 3),
                                              (3, 3, 1)])
    def test_block_boundaries(self, tmp_path, steps, n_agents, n, m):
        rng = np.random.default_rng(steps * 100 + n_agents * 10 + n)
        x = rng.standard_normal((steps, n_agents, n)) * 10.0 ** rng.integers(
            -20, 20, (steps, n_agents, n))
        u = rng.standard_normal((steps, n_agents, m))
        for k in {0, steps - 1, min(cli_mod._BLOCK, steps - 1)}:
            x[k, -1, -1] = u[k, 0, 0] = -0.0
        x_ref = rng.standard_normal((steps, n))
        traj = Trajectory(x=x, protocol=np.zeros_like(x), observer=None,
                          x_ref=x_ref, u=u, error=rng.random(steps),
                          agent_error=np.linalg.norm(x - x_ref[:, None, :],
                                                     axis=2))
        assert_writers_match_reference(traj, tmp_path)


@pytest.mark.parametrize("writer", [cli_mod.write_trajectory_csv,
                                    cli_mod.write_plotdata_csv,
                                    write_both_csvs])
def test_writer_memory_does_not_grow_with_horizon(tmp_path, writer):
    # the writers stream: 24 blocks of demo 3 peak as two blocks do (the
    # whole horizon would cost seconds under tracemalloc and show no more)
    cfg = demo_scenario(3, "full")
    run = simulate(cfg.model, cli_mod._designed(cfg), cfg.graph,
                   cfg.delays, cfg.x0, cfg.xr0, cfg.k_max)

    def first(blocks):
        return dataclasses.replace(run, **{
            name: getattr(run, name)[:blocks * cli_mod._BLOCK]
            for name in ("x", "protocol", "x_ref", "u", "error",
                         "agent_error")})
    traj, two_blocks = first(24), first(2)
    assert traj.x.shape[0] > 20 * cli_mod._BLOCK

    def peak(trajectory):
        tracemalloc.start()
        try:
            writer(trajectory, tmp_path / "out.csv")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(traj) <= 1.5 * peak(two_blocks)


class TestConfigRoundTrip:
    @pytest.mark.parametrize("case,mode", [(1, "full"), (2, "partial")])
    def test_write_then_load_is_identity(self, tmp_path, case, mode):
        cfg = demo_scenario(case, mode, out_dir="results")
        path = tmp_path / "cfg.json"
        write_config(cfg, path)
        assert config_to_dict(load_config(path)) == config_to_dict(cfg)

    def test_large_sparse_graph_written_as_edges(self, tmp_path):
        # a 400-agent rooted chain with fractional weights: its edges come
        # back as written, and no dense N x N matrix is written
        n = 400
        graph = CommGraph.from_edges(n, np.arange(1, n), np.arange(n - 1),
                                     1.0 + np.arange(n - 1) / 7.0,
                                     np.arange(n) == 0)
        cfg = dataclasses.replace(
            demo_scenario(1, "full"), graph=graph,
            delays=DelayProfile(np.arange(n) % 3, kappa_bar=2),
            x0=np.linspace(-1.0, 1.0, 3 * n).reshape(n, 3))
        path = tmp_path / "cfg.json"
        write_config(cfg, path)
        written = json.loads(path.read_text())["graph"]
        assert sorted(written) == ["edges", "roots"]
        assert config_to_dict(load_config(path)) == config_to_dict(cfg)

    def test_round_trip_preserves_overrides(self, tmp_path):
        cfg = demo_scenario(1, "full")
        data = config_to_dict(cfg)
        data["protocol"]["epsilon"] = 0.25
        data["output"]["emit_plot_data"] = True
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        loaded = load_config(path)
        assert loaded.epsilon == 0.25
        assert loaded.emit_plot_data
        write_config(loaded, path)
        assert config_to_dict(load_config(path)) == config_to_dict(loaded)

    def test_one_changed_entry_compares_unequal(self):
        cfg = demo_scenario(1, "full")
        adj = cfg.graph.adjacency.copy()
        adj[0, 1] = 0.5
        kappa = cfg.delays.kappa.copy()
        kappa[0] = 0
        changed = [
            dataclasses.replace(cfg, graph=CommGraph(adjacency=adj,
                                                     roots=cfg.graph.roots)),
            dataclasses.replace(cfg, delays=DelayProfile(kappa=kappa,
                                                         kappa_bar=2)),
            dataclasses.replace(cfg, delays=DelayProfile(
                kappa=cfg.delays.kappa, kappa_bar=3)),
        ]
        for other in changed:
            assert config_to_dict(other) != config_to_dict(cfg)
        assert config_to_dict(demo_scenario(1, "full")) == config_to_dict(cfg)


class TestValidation:
    def test_loads_bundled_case1(self, tmp_path):
        cfg = load_config(demo_config_file(tmp_path))
        assert cfg.graph.n_agents == 3
        assert list(cfg.delays.kappa) == [1, 1, 2]

    def test_collects_every_problem(self):
        data = config_to_dict(demo_scenario(1, "full"))
        data["delays"]["kappa"] = [1, 1]          # wrong length
        data["sim"]["k_max"] = -5                 # bad horizon
        with pytest.raises(ScenarioError) as err:
            parse_config(data)
        problems = "\n".join(err.value.problems)
        assert "delays.kappa" in problems and "graph.adjacency" in problems
        assert "sim.k_max" in problems
        assert len(err.value.problems) >= 2

    def test_reports_every_bad_field(self):
        # one bad value in every field at once: each is reported, by name
        data = config_to_dict(demo_scenario(1, "full"))
        data["model"]["A"][0][0] = float("nan")
        data["mode"] = "both"
        data["graph"]["roots"] = [2, 0, 0]
        data["delays"]["kappa"] = [1, "1", 2]
        data["protocol"] = {"epsilon": 2.0, "rho": -1.0}
        data["sim"] = {"k_max": 5, "x0": "x", "xr0": [[0.0]]}
        data["output"] = {"directory": 3, "emit_plot_data": None}
        with pytest.raises(ScenarioError) as err:
            parse_config(data)
        for name in ("model.A", "mode", "graph.roots", "delays.kappa",
                     "protocol.epsilon", "protocol.rho", "sim.k_max",
                     "sim.x0", "sim.xr0", "output.directory",
                     "output.emit_plot_data"):
            section, _, key = name.partition(".")
            named = rf"^{section}\b" + (rf".*\b{key}\b" if key else "")
            assert any(re.search(named, p) for p in err.value.problems), name

    @pytest.mark.parametrize("command", ["design", "verify"])
    def test_empty_output_directory_refused(self, tmp_path, capsys, command):
        # "" would load, and then every command would fail on the path
        path = demo_config_file(tmp_path, **{"output.directory": ""})
        assert main([command, "--config", str(path)]) == 1
        assert capsys.readouterr().err == ("config error: output.directory: "
                                           "must be a non-empty string, "
                                           "got ''\n")

    @pytest.mark.parametrize("name", ["model.A", "model.B",
                                      "graph.adjacency", "sim.x0"])
    @pytest.mark.parametrize("entry", ["0.5", True, 10 ** 400])
    def test_quoted_or_boolean_matrix_entries_named(self, name, entry):
        # json keeps "0.5" a string and true a boolean; neither is read as
        # a number, as for the delays, nor is an integer no float can hold
        data = config_to_dict(demo_scenario(1, "full"))
        section, key = name.split(".")
        data[section][key][0][0] = entry
        with pytest.raises(ScenarioError) as err:
            parse_config(data)
        # the number rule's own message, under the section: the entry's
        # index and value, the field named once
        at = f"entry (0, 0) is {reprlib.repr(entry)}"
        assert err.value.problems == [
            f"{section}: {key} has an entry beyond the float range: {at}"
            if entry == 10 ** 400 else
            f"{section}: non-numeric or boolean {key}: {at}"]

    def test_ragged_model_matrix_named(self):
        data = config_to_dict(demo_scenario(1, "full"))
        data["model"]["A"][1] = [0.0]
        with pytest.raises(ScenarioError, match="model.A: not a numeric"):
            parse_config(data)

    def test_negative_weight_named(self):
        data = config_to_dict(demo_scenario(1, "full"))
        data["graph"]["adjacency"][0][1] = -1.0
        with pytest.raises(ScenarioError, match="non-negative"):
            parse_config(data)

    def test_full_mode_requires_identity_output(self):
        data = config_to_dict(demo_scenario(1, "full"))
        data["model"]["C"] = [[1.0, 0.0, 0.0]]
        with pytest.raises(ScenarioError, match="identity"):
            parse_config(data)

    def test_mode_read_by_the_design_rule(self):
        # the designer's mode rule and message, under the field's name
        data = config_to_dict(demo_scenario(1, "full"))
        data["mode"] = "Full"
        with pytest.raises(ScenarioError) as err:
            parse_config(data)
        assert err.value.problems == [
            "mode: mode must be 'full' or 'partial', got 'Full'"]

    @pytest.mark.parametrize("key", ["epsilon"])
    def test_protocol_rejects_booleans(self, key):
        data = config_to_dict(demo_scenario(1, "full"))
        data["protocol"][key] = True
        with pytest.raises(ScenarioError, match=f"protocol.{key}: .*True"):
            parse_config(data)

    @pytest.mark.parametrize("rows, problem", [
        ([[1, 0, 1.0], [2, 1, 1.0], [0, 2, 1.0]], None),
        ([[1, 0, 1.0], [2, 2, 1.0]],
         "graph: edges must not be self-loops: entry 1 is (2, 2, 1.0)"),
        ([[1, 0, 1.0], [2, 1, 1.0], [1, 0, 2.0]],
         "graph: edges must not repeat a (dst, src) pair: "
         "entry 2 is (1, 0, 2.0)"),
        ([[1, 0, 1.0], [0, 3, 1.0]],
         "graph: edges must join agents in [0, 3): entry 1 is (0, 3, 1.0)"),
        ([[1, 0, 1.0], [2, 1, 0.0]],
         "graph: edges must have finite positive weights: "
         "entry 1 is (2, 1, 0.0)"),
        ([[1, 0, 1.0], [2.5, 1, 1.0]],
         "graph: non-integer edge destinations: entry 1 is 2.5"),
        ([[1, 0, 1.0], [2, True, 1.0]],
         "graph: non-numeric or boolean edges: entry (1, 1) is True"),
        ([[1, 0], [2, 1]],
         "graph.edges: each row must be [i, j, a_ij], got rows of 2"),
        ([[1, 0, 1.0], [2, 1]], "graph.edges: not a numeric array of row "
                                "arrays"),
    ])
    def test_edge_rows_read_by_the_graph_rules(self, rows, problem):
        # graph.edges in place of graph.adjacency: N is the roots' length,
        # and the first bad edge is named by its row and value
        data = config_to_dict(demo_scenario(1, "full"))
        adjacency = data["graph"].pop("adjacency")
        data["graph"]["edges"] = rows
        if problem is None:
            got = parse_config(data).graph
            want = parse_config(config_to_dict(demo_scenario(1, "full")))
            assert got.adjacency.tolist() == adjacency
            assert config_to_dict(want) == config_to_dict(
                dataclasses.replace(want, graph=got))
            return
        with pytest.raises(ScenarioError) as err:
            parse_config(data)
        assert err.value.problems == [problem]

    def test_graph_needs_exactly_one_form(self):
        data = config_to_dict(demo_scenario(1, "full"))
        data["graph"]["edges"] = [[1, 0, 1.0], [2, 1, 1.0], [0, 2, 1.0]]
        with pytest.raises(ScenarioError) as err:
            parse_config(data)
        assert err.value.problems == [
            "graph: give exactly one of adjacency and edges"]

    @pytest.mark.parametrize("name", [
        "model.A", "model.B", "model.C", "mode", "graph.adjacency",
        "graph.roots", "delays.kappa", "sim.k_max", "sim.x0", "sim.xr0"])
    def test_missing_required_key_named(self, name):
        # an absent key is reported as missing, not read as a bad None
        data = config_to_dict(demo_scenario(1, "full"))
        section, _, key = name.rpartition(".")
        del (data[section] if section else data)[key]
        with pytest.raises(ScenarioError) as err:
            parse_config(data)
        assert err.value.problems == [f"{name}: missing key"]

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"model\": [,]\n}")
        with pytest.raises(ScenarioError, match="line 2"):
            load_config(path)

    def test_non_utf8_file_is_a_config_error(self, tmp_path, capsys):
        # one config error naming the first byte that does not decode
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"model": "\xff"}')
        assert main(["design", "--config", str(path)]) == 1
        assert capsys.readouterr().err \
            == "config error: not UTF-8 text at byte 11\n"

    def test_deep_nesting_is_a_config_error(self, tmp_path, capsys):
        # json.load recurses once per level: a RecursionError, not a
        # traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        assert main(["design", "--config", str(path)]) == 1
        assert capsys.readouterr().err == ("config error: arrays or objects "
                                           "nested too deep to parse\n")


class TestCommands:
    def test_design_prints_and_writes(self, tmp_path, capsys):
        path = demo_config_file(tmp_path)
        assert main(["design", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "epsilon_star:" in out and "rho:" in out
        assert (tmp_path / "out" / "design.txt").exists()

    def test_design_prints_pinned_epsilon(self, tmp_path, capsys):
        path = demo_config_file(tmp_path, **{"protocol.epsilon": 0.01})
        assert main(["design", "--config", str(path)]) == 0
        assert "epsilon: 0.01" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("rho", ["nan", "inf"])
    def test_design_rejects_non_finite_rho_flag(self, tmp_path, capsys, rho):
        # rho comes only from (kappa_bar, omega_max): a pinned one, finite or
        # not, is refused as an unknown key before any value rule runs
        path = demo_config_file(tmp_path, **{"protocol.rho": float(rho)})
        assert main(["design", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: protocol.rho: unknown key\n"
        assert not (tmp_path / "out" / "design.txt").exists()

    def test_design_names_every_misspelled_key(self, tmp_path, capsys):
        # a key the loader does not read would silently run the defaults
        data = config_to_dict(demo_scenario(1, "full",
                                            out_dir=str(tmp_path / "out")))
        data["output"]["emit_plotdata"] = True
        data["sim"]["kmax"] = 400
        data["extra"] = {}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        assert main(["design", "--config", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: extra: unknown section",
            "config error: sim.kmax: unknown key",
            "config error: output.emit_plotdata: unknown key"]
        assert not (tmp_path / "out" / "design.txt").exists()

    def test_design_takes_only_a_config(self, capsys):
        assert main(["design", "--help"]) == 0
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert flags == {"--help", "--config"}

    def test_simulate_takes_its_horizon_from_the_config(self, tmp_path,
                                                       capsys):
        # sim.k_max is the one horizon: no flag overrides it or its rule
        assert main(["simulate", "--help"]) == 0
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert flags == {"--help", "--config", "--out"}
        path = demo_config_file(tmp_path)
        assert main(["simulate", "--config", str(path), "--out",
                     str(tmp_path / "run"), "--kmax", "50"]) == 1
        assert not (tmp_path / "run").exists()

    def test_simulate_writes_schema_csv(self, tmp_path):
        path = demo_config_file(tmp_path, **{"sim.k_max": 50})
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--out",
                     str(out)]) == 0
        with open(out / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "agent", "component", "x", "xr", "u", "error"]
        body = rows[1:]
        assert len(body) == 51 * 4 * 3  # steps x (exosystem + 3 agents) x n
        agents = {int(r[1]) for r in body}
        assert agents == {0, 1, 2, 3}
        exo = [r for r in body if r[1] == "0"]
        assert all(r[3] == r[4] and float(r[6]) == 0.0 for r in exo)
        float(body[0][3])  # every value column parses as a float
        assert (out / "design.txt").exists()
        assert not (out / "plotdata.csv").exists()

    def test_simulate_emits_plotdata_when_configured(self, tmp_path):
        # both files of the one combined pass equal the reference writers'
        # on the same run, across a partial last block and past step 57,
        # where Python's s ** 0.5 is first one ulp off np.sqrt on this demo
        path = demo_config_file(tmp_path, 3, "partial", **{
            "output.emit_plot_data": True,
            "sim.k_max": 2 * cli_mod._BLOCK + 3})
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--out",
                     str(out)]) == 0
        cfg = load_config(path)
        traj = simulate(cfg.model, cli_mod._designed(cfg), cfg.graph,
                        cfg.delays, cfg.x0, cfg.xr0, cfg.k_max)
        for name, reference in (("trajectory.csv", reference_trajectory_csv),
                                ("plotdata.csv", reference_plotdata_csv)):
            reference(traj, tmp_path / name)
            assert (out / name).read_bytes() \
                == (tmp_path / name).read_bytes(), name

    @pytest.mark.parametrize("case,mode,k_max", [(2, "full", 40),
                                                 (3, "partial", 60)])
    def test_both_files_write_the_library_errors(self, tmp_path, case, mode,
                                                 k_max):
        # every agent's error in trajectory.csv is its agent_error, and the
        # worst of them, read back as a float, is plotdata.csv's error
        path = demo_config_file(tmp_path, case, mode, **{
            "output.emit_plot_data": True, "sim.k_max": k_max})
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--out",
                     str(out)]) == 0
        cfg = load_config(path)
        traj = simulate(cfg.model, cli_mod._designed(cfg), cfg.graph,
                        cfg.delays, cfg.x0, cfg.xr0, cfg.k_max)
        agents = [[] for _ in range(k_max + 1)]
        with open(out / "trajectory.csv", newline="") as fh:
            for k, i, *_, error in list(csv.reader(fh))[1:]:
                if i != "0":
                    agents[int(k)].append((int(i), error))
        with open(out / "plotdata.csv", newline="") as fh:
            worst = [value for _, series, value in list(csv.reader(fh))[1:]
                     if series == "error"]
        assert len(worst) == k_max + 1
        for k, (errors, plotted) in enumerate(zip(agents, worst)):
            assert repr(max(float(e) for _, e in errors)) == plotted, k
            for i, error in errors:
                assert error == repr(float(traj.agent_error[k, i - 1])), \
                    (k, i)

    def test_verify_passes_on_demo(self, tmp_path, capsys):
        path = demo_config_file(tmp_path)
        assert main(["verify", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "certificate: PASS" in out.splitlines()
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        cert = report["certificate"]
        assert cert["passed"] is True
        assert len(cert["radii"]) == 3 and cert["observer_radius"] is None
        assert cert["margin"] == 1.0 - max(cert["radii"])
        assert (tmp_path / "out" / "report.txt").read_text() == out
        # the certificate has no frequency grid to set
        assert main(["verify", "--config", str(path),
                     "--omega-points", "10"]) == 1

    def test_verify_fails_on_diverging_design(self, tmp_path, capsys):
        # case 1 pinned at epsilon = 1e-2: its own run (delays 1, 1, 2)
        # diverges, because the loop delayed by two steps is unstable
        path = demo_config_file(tmp_path, **{"protocol.epsilon": 1e-2})
        assert main(["verify", "--config", str(path)]) == 2
        out = capsys.readouterr().out
        assert "certificate: FAIL" in out.splitlines()
        assert "worst_kappa: 2" in out.splitlines()
        assert "reason: delayed loop at kappa = 2" in out

    def test_verify_exit_two_on_failed_certificate(self, tmp_path,
                                                   monkeypatch):
        failed = StabilityCertificate(passed=False, radii=(1.5,), margin=-0.5,
                                      worst_kappa=0, observer_radius=None,
                                      threshold=1e-6, reason="forced for test")
        monkeypatch.setattr(cli_mod, "closed_loop_certificate",
                            lambda design: failed)
        path = demo_config_file(tmp_path)
        assert main(["verify", "--config", str(path)]) == 2

    def test_demo_writes_every_artifact(self, tmp_path):
        out = tmp_path / "demo"
        assert main(["demo", "--case", "1", "--mode", "full",
                     "--out", str(out)]) == 0
        for name in ("config.json", "design.txt", "trajectory.csv",
                     "report.txt", "report.json"):
            assert (out / name).exists()

    @pytest.mark.parametrize("case", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["full", "partial"])
    def test_demo_cases_converge(self, tmp_path, case, mode):
        out = tmp_path / f"demo{case}{mode}"
        assert main(["demo", "--case", str(case), "--mode", mode,
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["certificate"]["passed"] is True
        assert report["convergence"]["converged"] is True

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        assert main(["design", "--config", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_config_lists_problems(self, tmp_path, capsys):
        path = demo_config_file(tmp_path, **{"delays.kappa": [1, 1]})
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "x")]) == 1
        assert "delays.kappa" in capsys.readouterr().err

    def test_diverging_run_names_step_and_agent(self, tmp_path, capsys):
        path = demo_config_file(tmp_path, **{"protocol.epsilon": 0.1,
                                             "sim.k_max": 3000})
        assert main(["simulate", "--config", str(path), "--out",
                     str(tmp_path / "x")]) == 1
        assert re.search(r"non-finite from step \d+ \(agent \d\)",
                         capsys.readouterr().err)

    def test_impossible_horizon_is_a_config_error(self, tmp_path, capsys):
        # refused from the record's size before anything is allocated
        path = demo_config_file(tmp_path, **{"sim.k_max": 10 ** 12})
        assert main(["simulate", "--config", str(path), "--out",
                     str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: sim.k_max = 1000000000000 needs")
        assert "Traceback" not in err

    def test_consecutive_calls_share_one_parser(self, tmp_path, capsys):
        # the parser is built once per process; every call still parses
        # afresh, with the exit codes and output of a new parser
        path = str(demo_config_file(tmp_path))
        calls = [["--help"], ["frobnicate"], ["design", "--config", path],
                 ["verify", "--config", path]]
        rounds = [[(main(argv), capsys.readouterr()) for argv in calls]
                  for _ in range(2)]
        assert [code for code, _ in rounds[0]] == [0, 1, 0, 0]
        assert rounds[0] == rounds[1]
        for (_, got), argv in zip(rounds[0][:2], calls):
            with pytest.raises(SystemExit):
                cli_mod.build_parser().parse_args(argv)
            assert got == capsys.readouterr()
        assert rounds[0][2][1].out.startswith("mode: full\n")
        assert rounds[0][3][1].out.startswith("certificate: PASS\n")

    def test_simulate_reads_an_edge_list(self, tmp_path):
        # demo 3's graph as graph.edges rows: the same run, byte for byte
        files = {}
        for form in ("adjacency", "edges"):
            data = config_to_dict(demo_scenario(3, "partial"))
            data["sim"]["k_max"] = 60
            if form == "edges":
                adj = data["graph"].pop("adjacency")
                data["graph"]["edges"] = [[i, j, a] for i, row in
                                          enumerate(adj)
                                          for j, a in enumerate(row) if a]
            path = tmp_path / f"{form}.json"
            path.write_text(json.dumps(data))
            out = tmp_path / form
            assert main(["simulate", "--config", str(path), "--out",
                         str(out)]) == 0
            files[form] = [(out / name).read_bytes()
                           for name in ("design.txt", "trajectory.csv")]
        assert files["adjacency"] == files["edges"]

    def test_bad_usage_maps_to_one(self, capsys):
        assert main(["design"]) == 1          # missing required --config
        assert main(["frobnicate"]) == 1      # unknown command
        assert main(["--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("field", ["graph.roots", "delays.kappa"])
    def test_ragged_list_is_config_error(self, tmp_path, capsys, field):
        path = demo_config_file(tmp_path, **{field: [[1], [0, 1], 1]})
        assert main(["verify", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and "Traceback" not in err

    def test_inadmissible_scenario_is_config_error(self, tmp_path, capsys):
        path = demo_config_file(tmp_path, **{"delays.kappa": [3, 1, 1],
                                             "delays.kappa_bar": 3})
        assert main(["design", "--config", str(path)]) == 1
        assert "delay_admissibility" in capsys.readouterr().err
