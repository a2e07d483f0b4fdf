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
        f"epsilon: {design.epsilon!r}",
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_design_text(design))


def _write_rows(path, header, labels, width, tables):
    """Write `header`, then per step k one line `k,label,values` per label.

    `tables` yields each step's values, `width` per label.  Lines go out one
    at a time: formatting a whole step as one string raised the peak RSS.  A
    float's `str` is its `repr`; lines end in CRLF."""
    rows = [f"{{k}},{label}" + ",{}" * width + "\r\n" for label in labels]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\r\n")
        for k, table in enumerate(tables):
            for row, values in zip(rows, table.reshape(-1, width).tolist()):
                fh.write(row.format(*values, k=k))


def write_trajectory_csv(traj, path):
    """One row per (step, agent, state component); agent 0 is the reference,
    with zero u and error.  `u` is zero-padded past m and cut to n."""
    steps, n_agents, n = traj.x.shape
    table = np.zeros((n_agents + 1, n, 4))  # x, xr, u and error of each node

    def fill(k):
        table[:, :, 0] = np.vstack([traj.x_ref[k], traj.x[k]])
        table[:, :, 1] = traj.x_ref[k]
        table[1:, :traj.u.shape[2], 2] = traj.u[k, :, :n]
        sq = ((traj.x[k] - traj.x_ref[k]) ** 2).sum(axis=1).tolist()
        table[1:, :, 3] = [[s ** 0.5] for s in sq]
        return table
    _write_rows(path, "k,agent,component,x,xr,u,error",
                [f"{i},{c}" for i in range(n_agents + 1) for c in range(n)],
                4, map(fill, range(steps)))


def write_plotdata_csv(traj, path):
    """One row per (step, series): `error`, the reference's `exo.x{c}`, then
    per agent i its states `agent{i}.x{c}` and all m inputs `agent{i}.u{c}`."""
    steps, n_agents, n = traj.x.shape
    names = ["error"] + [f"exo.x{c}" for c in range(n)] + [
        f"agent{i}.{var}{c}" for i in range(1, n_agents + 1)
        for var, dim in (("x", n), ("u", traj.u.shape[2])) for c in range(dim)]
    _write_rows(path, "k,series,value", names, 1, (np.concatenate(
        [traj.error[k:k + 1], traj.x_ref[k],
         np.hstack([traj.x[k], traj.u[k]]).ravel()]) for k in range(steps)))


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
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(_report_text(report))
        if convergence is not None:
            fh.write(f"converged: {'yes' if convergence.converged else 'no'}\n")
            fh.write(f"final_error: {convergence.final_error!r}\n")
            fh.write(f"decay_ratio: {convergence.decay_ratio!r}\n")
    payload = {"certificate": dataclasses.asdict(report)}
    if convergence is not None:
        payload["convergence"] = dataclasses.asdict(convergence)
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _designed(cfg, epsilon=None, rho=None):
    return design_protocol(
        cfg.model, cfg.delays.kappa_bar, mode=cfg.mode,
        epsilon=epsilon if epsilon is not None else cfg.epsilon,
        rho=rho if rho is not None else cfg.rho)


def _ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


def cmd_design(args):
    cfg = load_config(args.config)
    design = _designed(cfg, epsilon=args.epsilon, rho=args.rho)
    text = _design_text(design)
    sys.stdout.write(text)
    out_dir = _ensure_dir(cfg.out_dir)
    write_design_txt(design, os.path.join(out_dir, "design.txt"))
    return 0


def cmd_simulate(args):
    cfg = load_config(args.config)
    design = _designed(cfg)
    k_max = args.kmax if args.kmax is not None else cfg.k_max
    traj = simulate(cfg.model, design, cfg.graph, cfg.delays,
                    cfg.x0, cfg.xr0, k_max)
    out_dir = _ensure_dir(args.out)
    write_design_txt(design, os.path.join(out_dir, "design.txt"))
    write_trajectory_csv(traj, os.path.join(out_dir, "trajectory.csv"))
    if cfg.emit_plot_data:
        write_plotdata_csv(traj, os.path.join(out_dir, "plotdata.csv"))
    print(f"simulated {k_max} steps over {cfg.graph.n_agents} agents; "
          f"final sync error {traj.error[-1]:.6e}")
    return 0


def cmd_verify(args):
    cfg = load_config(args.config)
    design = _designed(cfg)
    report = closed_loop_certificate(design)
    out_dir = _ensure_dir(cfg.out_dir)
    write_report(report, os.path.join(out_dir, "report.txt"),
                 os.path.join(out_dir, "report.json"))
    sys.stdout.write(_report_text(report))
    return 0 if report.passed else 2


def cmd_demo(args):
    cfg = demo_scenario(args.case, args.mode, out_dir=args.out)
    out_dir = _ensure_dir(args.out)
    write_config(cfg, os.path.join(out_dir, "config.json"))
    design = _designed(cfg)
    write_design_txt(design, os.path.join(out_dir, "design.txt"))
    traj = simulate(cfg.model, design, cfg.graph, cfg.delays,
                    cfg.x0, cfg.xr0, cfg.k_max)
    write_trajectory_csv(traj, os.path.join(out_dir, "trajectory.csv"))
    report = closed_loop_certificate(design)
    conv = convergence_report(traj, tol=1e-3 * (1.0 + traj.error[0]))
    write_report(report, os.path.join(out_dir, "report.txt"),
                 os.path.join(out_dir, "report.json"), convergence=conv)
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
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("simulate", help="run the closed loop and export CSVs")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kmax", type=int, default=None)
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
