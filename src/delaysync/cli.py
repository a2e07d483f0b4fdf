"""Command-line front end: design, simulate, verify, and demo.

Exit codes: 0 success, 1 usage or configuration error, 2 certificate or
convergence failure.  File outputs:

  design.txt      designed parameters, one key per line
  trajectory.csv  long-format run record with header
                  k,agent,component,x,xr,u,error (agent 0 is the reference)
  plotdata.csv    optional tidy series (k,series,value) for external plotting
  report.txt      stability certificate: verdict, margin, per-delay radii
  report.json     the same report, machine-readable
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .config import load_config, write_config
from .demos import DEMO_CASES, demo_scenario
from .design import FULL_STATE, PARTIAL_STATE, design_protocol
from .dynamics import simulate
from .errors import DelaySyncError, ScenarioError
from .verify import closed_loop_certificate, convergence_report


def _design_text(design):
    lines = [
        f"mode: {design.mode}",
        f"epsilon_star: {design.epsilon_star!r}",
        f"epsilon: {design.epsilon_star!r}",
        f"rho: {design.rho!r}",
        f"omega_max: {design.omega_max!r}",
        f"kappa_bar: {design.kappa_bar}",
        f"delay_bound_sup: "
        f"{math.pi / (2 * design.omega_max) if design.omega_max > 0 else math.inf!r}",
        f"theta: {design.theta!r}",
        f"mu: {design.mu!r}",
        f"K: {design.K.tolist()!r}",
        f"P: {design.P.tolist()!r}",
        f"F: {design.F.tolist()!r}" if design.F is not None else "F: none",
    ]
    return "\n".join(lines) + "\n"


def write_design_txt(design, path):
    """Write design.txt; returns its text."""
    text = _design_text(design)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


#: steps gathered per numpy call; a block's values bound the writers' memory
_BLOCK = 32


def _write_blocks(path, header, lines, steps, block_values):
    """Write `header`, then per step k the `lines`, templates that read k as
    `{k}` and the step's values by position.  `block_values(a, b)` gives
    steps a..b-1 as one row of values each, so that numpy gathers a block of
    steps at a time.  Each value is formatted once, as its `repr`; lines
    end in CRLF."""
    step = "".join(line + "\r\n" for line in lines).format
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\r\n")
        for a in range(0, steps, _BLOCK):
            rows = block_values(a, min(a + _BLOCK, steps)).tolist()
            fh.writelines(step(*map(repr, row), k=k)
                          for k, row in enumerate(rows, a))


def write_trajectory_csv(traj, path):
    """One row per (step, agent, state component); agent 0 is the reference,
    with zero u and error.  `u` is zero-padded past m and cut to n.

    A step's distinct values are the states of every node, the first
    min(m, n) inputs and each agent's error norm, Python's `s ** 0.5` of
    its squared deviation summed over the components; each is formatted
    once and its rows repeat it."""
    steps, n_agents, n = traj.x.shape
    p = min(traj.u.shape[2], n)
    u_at, err_at = (n_agents + 1) * n, (n_agents + 1) * n + n_agents * p
    lines = [f"{{k}},0,{c},{{{c}}},{{{c}}},0.0,0.0" for c in range(n)] + [
        f"{{k}},{i},{c},{{{i * n + c}}},{{{c}}},"
        + (f"{{{u_at + (i - 1) * p + c}}}" if c < p else "0.0")
        + f",{{{err_at + i - 1}}}"
        for i in range(1, n_agents + 1) for c in range(n)]

    def block_values(a, b):
        x, xr = traj.x[a:b], traj.x_ref[a:b]
        sq = ((x - xr[:, None, :]) ** 2).sum(axis=2).ravel().tolist()
        return np.hstack([xr, x.reshape(b - a, -1),
                          traj.u[a:b, :, :p].reshape(b - a, -1),
                          np.reshape([s ** 0.5 for s in sq], (b - a, -1))])
    _write_blocks(path, "k,agent,component,x,xr,u,error", lines, steps,
                  block_values)


def write_plotdata_csv(traj, path):
    """One row per (step, series): `error`, the reference's `exo.x{c}`, then
    per agent i its states `agent{i}.x{c}` and all m inputs `agent{i}.u{c}`."""
    steps, n_agents, n = traj.x.shape
    names = ["error"] + [f"exo.x{c}" for c in range(n)] + [
        f"agent{i}.{var}{c}" for i in range(1, n_agents + 1)
        for var, dim in (("x", n), ("u", traj.u.shape[2])) for c in range(dim)]
    _write_blocks(path, "k,series,value",
                  [f"{{k}},{name},{{{j}}}" for j, name in enumerate(names)],
                  steps, lambda a, b: np.hstack([
                      traj.error[a:b, None], traj.x_ref[a:b],
                      np.concatenate([traj.x[a:b], traj.u[a:b]],
                                     axis=2).reshape(b - a, -1)]))


def _report_text(report):
    lines = [
        f"certificate: {'PASS' if report.passed else 'FAIL'}",
        f"margin: {report.margin!r}",
        f"threshold: {report.threshold!r}",
        f"worst_kappa: {report.worst_kappa}",
        f"radii: {list(report.radii)!r}",
        f"observer_radius: {report.observer_radius!r}",
    ]
    if report.reason:
        lines.append(f"reason: {report.reason}")
    return "\n".join(lines) + "\n"


def write_report(report, txt_path, json_path, convergence=None):
    """Write report.txt and report.json; returns the text of report.txt."""
    text = _report_text(report)
    payload = {"certificate": dataclasses.asdict(report)}
    if convergence is not None:
        text += (f"converged: {'yes' if convergence.converged else 'no'}\n"
                 f"final_error: {convergence.final_error!r}\n"
                 f"decay_ratio: {convergence.decay_ratio!r}\n")
        payload["convergence"] = dataclasses.asdict(convergence)
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return text


def _designed(cfg):
    return design_protocol(cfg.model, cfg.delays.kappa_bar, mode=cfg.mode,
                           epsilon=cfg.epsilon)


def _path(directory, name):
    """`directory`/`name`, creating the directory."""
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, name)


def cmd_design(args):
    cfg = load_config(args.config)
    design = _designed(cfg)
    sys.stdout.write(write_design_txt(design, _path(cfg.out_dir,
                                                    "design.txt")))
    return 0


def cmd_simulate(args):
    cfg = load_config(args.config)
    design = _designed(cfg)
    traj = simulate(cfg.model, design, cfg.graph, cfg.delays,
                    cfg.x0, cfg.xr0, cfg.k_max)
    write_design_txt(design, _path(args.out, "design.txt"))
    write_trajectory_csv(traj, _path(args.out, "trajectory.csv"))
    if cfg.emit_plot_data:
        write_plotdata_csv(traj, _path(args.out, "plotdata.csv"))
    print(f"simulated {cfg.k_max} steps over {cfg.graph.n_agents} agents; "
          f"final sync error {traj.error[-1]:.6e}")
    return 0


def cmd_verify(args):
    cfg = load_config(args.config)
    design = _designed(cfg)
    report = closed_loop_certificate(design)
    sys.stdout.write(write_report(report, _path(cfg.out_dir, "report.txt"),
                                  _path(cfg.out_dir, "report.json")))
    return 0 if report.passed else 2


def cmd_demo(args):
    cfg = demo_scenario(args.case, args.mode, out_dir=args.out)
    write_config(cfg, _path(args.out, "config.json"))
    design = _designed(cfg)
    write_design_txt(design, _path(args.out, "design.txt"))
    traj = simulate(cfg.model, design, cfg.graph, cfg.delays,
                    cfg.x0, cfg.xr0, cfg.k_max)
    write_trajectory_csv(traj, _path(args.out, "trajectory.csv"))
    report = closed_loop_certificate(design)
    conv = convergence_report(traj, tol=1e-3 * (1.0 + traj.error[0]))
    write_report(report, _path(args.out, "report.txt"),
                 _path(args.out, "report.json"), convergence=conv)
    ok = report.passed and conv.converged
    print(f"demo case {args.case} ({args.mode}): certificate "
          f"{'PASS' if report.passed else 'FAIL'}, "
          f"{'converged' if conv.converged else 'not converged'} "
          f"(final error {conv.final_error:.3e})")
    return 0 if ok else 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="delaysync",
        description="Design, simulate, and certify scale-free synchronization "
                    "protocols for delayed discrete-time multi-agent systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="design a protocol from a scenario")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("simulate", help="run the closed loop and export CSVs")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="exact closed-loop stability certificate")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("demo", help="run a bundled example end to end")
    p.add_argument("--case", type=int, choices=DEMO_CASES, required=True)
    p.add_argument("--mode", choices=(FULL_STATE, PARTIAL_STATE),
                   required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_demo)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except ScenarioError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    except (DelaySyncError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
