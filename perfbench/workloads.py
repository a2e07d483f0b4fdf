"""The three workloads and the closed loop that measures them.

Each workload is a closed loop: one caller in one process issues its
operations back to back, each after the previous one returned.  A round is
one pass over every input of the workload; `round` is a generator that
yields after each operation, so the runner can stop between operations
once the first round is complete.  Every operation's output is checked
outside its timed region.
"""

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys
import time
import traceback

import numpy as np

import delaysync as ds
from delaysync import cli

from . import checks, inputs, metrics

#: fresh-process set-up: the import every CLI call pays, plus parsing the
#: workload's scenario files
SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import delaysync.cli; from delaysync.config import load_config; "
               "[load_config(p) for p in sys.argv[2:]]")
#: probes per run, spread evenly over the measured time so that their
#: median sees the same machine as the operations do
SETUP_REPEATS = 9

#: the sim-scale reference run recorded in data/reference.json
REFERENCE_SEED = 0

#: number of steps of the zero-delay oracle runs
ORACLE_STEPS = 100


def load_reference():
    with open(os.path.join(inputs.DATA_DIR, "reference.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(argv):
    """delaysync's command line, in this process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_failure(name, result):
    rc, _, err = result
    if rc != 0:
        return f"{name} exited {rc}: {err.strip()[:200]}"
    return None


def design_and_simulate(cfg):
    """What scripts/epsilon_sweep.py does per point: design with the
    scenario's pinned epsilon, then run the closed loop."""
    design = ds.design_protocol(cfg.model, cfg.delays.kappa_bar,
                                mode=cfg.mode, epsilon=cfg.epsilon)
    return ds.simulate(cfg.model, design, cfg.graph, cfg.delays, cfg.x0,
                       cfg.xr0, cfg.k_max)


class Run:
    """Counts, samples and failures of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.timed = False
        self.samples = {"light": {}, "heavy": {}}  # kind -> input -> times
        self.work = {"light": 0, "heavy": 0}
        self.setup_times = []
        self.kernel_times = []
        self.tracer = None

    def fail(self, problem):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def op(self, kind, label, action, check, work=0):
        """Run one operation on input `label`: time action(), then check
        its output.  Kind None marks an untimed operation.

        An exception is a failed operation, not the end of the run: it is
        recorded with its traceback's last line and the loop goes on.
        """
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_op()
        t0 = time.perf_counter()
        try:
            out = action()
        except Exception:  # the loop must outlive one bad operation
            last = traceback.format_exc().strip().splitlines()[-1]
            self.fail(f"{kind or 'untimed'} operation {label} raised {last}")
            return
        elapsed = time.perf_counter() - t0
        if self.timed and kind is not None:
            self.samples[kind].setdefault(label, []).append(elapsed)
            self.work[kind] += work
        try:
            problem = check(out)
        except Exception as exc:  # a check that cannot read the output
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            self.fail(problem)

    def setup_probe(self, src_dir, files):
        """One fresh process importing the CLI and loading `files`; its
        wall time goes to self.setup_times."""
        def action():
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_PROBE, src_dir, *files],
                capture_output=True, text=True, timeout=120)
            self.setup_times.append(time.perf_counter() - t0)
            return proc.returncode, proc.stdout, proc.stderr
        self.op(None, "set-up probe", action,
                lambda out: cli_failure("set-up probe", out))


class DesignSweep:
    """`delaysync design` and `delaysync verify` on the benchmark agent in
    both modes and on a family of random admissible models."""

    name = "design-sweep"
    kernel = "design"

    def prepare(self, seed, out_dir):
        self.items = inputs.design_inputs(seed, out_dir)
        for item in self.items:
            item["path"] = inputs.write_scenario(
                item["scenario"], os.path.join(out_dir, item["label"] + ".json"))
        self.first_text = {}
        return [item["path"] for item in self.items]

    def _check_design(self, item, result):
        problem = cli_failure("design", result)
        if problem:
            return problem
        with open(os.path.join(item["out_dir"], "design.txt"),
                  encoding="utf-8") as fh:
            text = fh.read()
        first = self.first_text.setdefault(item["label"], text)
        return checks.check_design_txt(text, first, item["epsilon_star"])

    def warm_up(self, run):
        for _ in self.round(run):
            pass

    def round(self, run):
        for item in self.items:
            path = item["path"]
            run.op("light", item["label"],
                   lambda: run_cli(["design", "--config", path]),
                   lambda out: self._check_design(item, out))
            yield
            run.op("heavy", item["label"],
                   lambda: run_cli(["verify", "--config", path]),
                   lambda out: checks.check_verify_output(out[0], out[1]))
            yield

    def final_checks(self, run):
        pass

    def aliases(self, run, values):
        out = {}
        for kind, command in (("light", "design"), ("heavy", "verify")):
            samples = metrics.pooled(run.samples[kind])
            tail = metrics.tail(samples)
            out[f"{command}_s.p50"] = float(np.median(samples))
            out[f"{command}_s.tail"] = tail[1] if tail else None
        return out


class SimScale:
    """Library simulate() at N = 10 over thousands of steps and at N = 400
    over hundreds, in both modes, on seeded rooted graphs and delays."""

    name = "sim-scale"
    kernel = "simulation"

    def prepare(self, seed, out_dir):
        self.items = inputs.sim_inputs(seed, out_dir)
        for item in self.items:
            item["path"] = inputs.write_scenario(
                item["scenario"], os.path.join(out_dir, item["label"] + ".json"))
            item["cfg"] = ds.load_config(item["path"])
        self.final = {}
        return [item["path"] for item in self.items]

    def _check(self, item, traj):
        problem = checks.check_finite(traj)
        if problem:
            return problem
        first = self.final.setdefault(item["label"], traj.x[-1].copy())
        if not np.array_equal(traj.x[-1], first):
            return f"{item['label']}: final state differs between repetitions"
        return None

    def warm_up(self, run):
        for _ in self.round(run):
            pass

    def round(self, run):
        for item in self.items:
            run.op(item["kind"], item["label"],
                   lambda: design_and_simulate(item["cfg"]),
                   lambda traj: self._check(item, traj),
                   work=item["agents"] * item["steps"])
            yield

    def final_checks(self, run):
        reference = load_reference()["sim"]
        for item in inputs.sim_inputs(REFERENCE_SEED, "."):
            cfg = ds.parse_config(item["scenario"])
            want = reference[item["label"]]
            run.op(None, None, lambda: design_and_simulate(cfg),
                   lambda traj: checks.check_close(
                       traj.x[-1], want, f"reference run {item['label']}"))
        sizes = set()
        for item in self.items:  # one zero-delay full-state run per size
            if item["scenario"]["mode"] != "full" or item["agents"] in sizes:
                continue
            sizes.add(item["agents"])
            data = copy.deepcopy(item["scenario"])
            data["delays"]["kappa"] = [0] * item["agents"]
            data["sim"]["k_max"] = ORACLE_STEPS
            cfg = ds.parse_config(data)
            graph = data["graph"]
            run.op(None, None, lambda: design_and_simulate(cfg),
                   lambda traj: checks.check_error_oracle(
                       traj, graph["adjacency"], graph["roots"],
                       data["model"]["A"]))

    def aliases(self, run, values):
        return {
            "sim_agent_steps_per_s.n10":
                run.work["light"] / sum(metrics.pooled(run.samples["light"])),
            "sim_agent_steps_per_s.n400":
                run.work["heavy"] / sum(metrics.pooled(run.samples["heavy"])),
        }


class CliExport:
    """The six bundled demos, each followed by a `delaysync simulate` with
    plot data, through the command line; the CSV writers do most of the
    work."""

    name = "cli-export"
    kernel = "export"

    def prepare(self, seed, out_dir):
        self.out_dir = out_dir
        self.demos, scenario, self.rng = inputs.cli_inputs(seed, out_dir)
        self.path = inputs.write_scenario(
            scenario, os.path.join(out_dir, "case3-plot.json"))
        self.demo_ref = load_reference()["demos"]
        return [self.path]

    def warm_up(self, run):
        cfg = ds.load_config(self.path)
        run.op(None, None, lambda: design_and_simulate(cfg),
               self._expect_simulate)
        self._demo(run, *self.demos[0])
        self._simulate(run)

    def _expect_simulate(self, traj):
        steps = traj.x.shape[0]
        self.sim_expected = (
            {k: checks.trajectory_rows(traj.x, traj.x_ref, traj.u, k)
             for k in checks.checkpoints(steps - 1)},
            {k: checks.plotdata_rows(traj.x, traj.x_ref, traj.u, traj.error, k)
             for k in checks.checkpoints(steps - 1)},
            steps)
        return checks.check_finite(traj)

    def _check_demo(self, case, mode, out, result):
        problem = cli_failure("demo", result)
        if problem:
            return problem
        problem = checks.check_report_json(os.path.join(out, "report.json"))
        if problem:
            return problem
        ref = self.demo_ref[f"{case}-{mode}"]
        return checks.check_csv(
            os.path.join(out, "trajectory.csv"), checks.TRAJECTORY_HEADER,
            ref["steps"], {int(k): rows for k, rows in ref["rows"].items()})

    def _check_simulate(self, out, result):
        problem = cli_failure("simulate", result)
        if problem:
            return problem
        traj_rows, plot_rows, steps = self.sim_expected
        return (checks.check_csv(os.path.join(out, "trajectory.csv"),
                                 checks.TRAJECTORY_HEADER, steps, traj_rows)
                or checks.check_csv(os.path.join(out, "plotdata.csv"),
                                    checks.PLOTDATA_HEADER, steps, plot_rows))

    def _demo(self, run, case, mode):
        out = os.path.join(self.out_dir, f"demo-{case}-{mode}")
        run.op("heavy", f"{case}-{mode}",
               lambda: run_cli(["demo", "--case", str(case), "--mode", mode,
                                "--out", out]),
               lambda result: self._check_demo(case, mode, out, result))

    def _simulate(self, run):
        out = os.path.join(self.out_dir, "simulate")
        run.op("light", "simulate",
               lambda: run_cli(["simulate", "--config", self.path,
                                "--out", out]),
               lambda result: self._check_simulate(out, result))

    def round(self, run):
        for i in self.rng.permutation(len(self.demos)):
            self._demo(run, *self.demos[i])
            yield
            self._simulate(run)
            yield

    def final_checks(self, run):
        pass

    def aliases(self, run, values):
        return {"demo_all_s": sum(float(np.median(times)) for times
                                  in run.samples["heavy"].values()),
                "simulate_cli_s": float(np.median(
                    metrics.pooled(run.samples["light"])))}


WORKLOADS = {w.name: w for w in (DesignSweep, SimScale, CliExport)}


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
