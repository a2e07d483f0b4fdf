"""Command-line front end: design, simulate, verify, and demo.

Exit codes: 0 success, 1 usage or configuration error, 2 certificate or
convergence failure.  File outputs:

  design.txt      designed parameters, one key per line
  trajectory.csv  long-format run record with header
                  k,agent,component,x,xr,u,error (agent 0 is the reference)
  plotdata.csv    optional tidy series (k,series,value) for external plotting;
                  with it on, `simulate` writes both CSVs in one pass and
                  formats each value once for both files
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


def _compile(items):
    """A step's layout, value columns (ints) and literal strings in file
    order starting with a column, compiled into the function that gives a
    block's text from its rows of strings: per step, each column's string
    followed by the literals up to the next column."""
    cols, lits = [], []
    for item in items:
        if isinstance(item, str):
            lits[-1] += item
        else:
            cols.append(item)
            lits.append("")
    lits = np.array(lits, dtype=object)

    def text(rows):
        out = np.empty((rows.shape[0], len(cols), 2), dtype=object)
        out[:, :, 0] = rows[:, cols]
        out[:, :, 1] = lits
        return "".join(out.ravel().tolist())
    return text


def _block_strings(traj, a, b, held_u, norms, error):
    """Steps a..b-1 as one row of strings each: the `repr` of x_ref, every
    agent's x and its first `held_u` inputs, then, if asked, every agent's
    `Trajectory.agent_error` and the worst, `Trajectory.error`; last, k."""
    values = [traj.x_ref[a:b], traj.x[a:b].reshape(b - a, -1),
              traj.u[a:b, :, :held_u].reshape(b - a, -1)]
    if norms:
        values.append(traj.agent_error[a:b])
    if error:
        values.append(traj.error[a:b, None])
    strings = np.array(list(map(repr, np.hstack(values).ravel().tolist())),
                       dtype=object).reshape(b - a, -1)
    rows = np.empty((b - a, strings.shape[1] + 1), dtype=object)
    rows[:, :-1] = strings
    rows[:, -1] = list(map(str, range(a, b)))
    return rows


def _write_csvs(traj, trajectory_path=None, plotdata_path=None):
    """Write trajectory.csv, plotdata.csv or both in one pass.

    Per block of steps, `_block_strings` formats each value the requested
    files read once, as its `repr`, and both files take their strings
    from that one row per step.  Each file's step layout is compiled once
    into value columns, k among them, and the literals between them, so
    that a block's text is one gather and one join.  Lines end in CRLF."""
    steps, n_agents, n = traj.x.shape
    m = traj.u.shape[2]
    p = min(m, n)
    norms, error = trajectory_path is not None, plotdata_path is not None
    held_u = m if error else p
    # the columns of _block_strings' rows
    x_at = n
    u_at = x_at + n_agents * n
    norm_at = u_at + n_agents * held_u
    error_at = norm_at + n_agents * norms
    k_at = error_at + error

    def x(i, c):
        return x_at + (i - 1) * n + c

    def u(i, c):
        return u_at + (i - 1) * held_u + c

    files = []
    if norms:
        items = []
        for c in range(n):
            items += [k_at, f",0,{c},", c, ",", c, ",0.0,0.0\r\n"]
        for i in range(1, n_agents + 1):
            for c in range(n):
                items += [k_at, f",{i},{c},", x(i, c), ",", c, ",",
                          u(i, c) if c < p else "0.0", ",",
                          norm_at + i - 1, "\r\n"]
        files.append((trajectory_path, "k,agent,component,x,xr,u,error",
                      _compile(items)))
    if error:
        items = [k_at, ",error,", error_at, "\r\n"]
        for c in range(n):
            items += [k_at, f",exo.x{c},", c, "\r\n"]
        for i in range(1, n_agents + 1):
            for c in range(n):
                items += [k_at, f",agent{i}.x{c},", x(i, c), "\r\n"]
            for c in range(m):
                items += [k_at, f",agent{i}.u{c},", u(i, c), "\r\n"]
        files.append((plotdata_path, "k,series,value", _compile(items)))

    handles = []
    try:
        for path, header, _ in files:
            handles.append(open(path, "w", encoding="utf-8", newline=""))
            handles[-1].write(header + "\r\n")
        for a in range(0, steps, _BLOCK):
            rows = _block_strings(traj, a, min(a + _BLOCK, steps), held_u,
                                  norms, error)
            for fh, (_, _, text) in zip(handles, files):
                fh.write(text(rows))
    finally:
        for fh in handles:
            fh.close()


def write_trajectory_csv(traj, path):
    """One row per (step, agent, state component); agent 0 is the reference,
    with zero u and error.  `u` is zero-padded past m and cut to n.

    A step's distinct values are the states of every node, the first
    min(m, n) inputs and each agent's `Trajectory.agent_error`; each is
    formatted once and its rows repeat it."""
    _write_csvs(traj, trajectory_path=path)


def write_plotdata_csv(traj, path):
    """One row per (step, series): `error`, the reference's `exo.x{c}`, then
    per agent i its states `agent{i}.x{c}` and all m inputs `agent{i}.u{c}`."""
    _write_csvs(traj, plotdata_path=path)


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
    _write_csvs(traj, _path(args.out, "trajectory.csv"),
                _path(args.out, "plotdata.csv") if cfg.emit_plot_data
                else None)
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
