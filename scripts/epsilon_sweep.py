#!/usr/bin/env python3
"""Convergence speed versus the low-gain weight epsilon.

For the benchmark three-agent cycle, pin epsilon across a grid, design the
protocol, and record how many steps the sync error needs to fall below
1e-3.  Larger epsilon converges faster, but only up to a point: past it the
delayed loop goes unstable even though the undelayed loop A - rho B K is
still fine (the certificate margin turns negative there), which is why
the automatic sweep picks epsilon far below the naive choice.

Usage: python scripts/epsilon_sweep.py [--csv PATH]
"""

import argparse
import csv

import numpy as np

from delaysync import closed_loop_certificate, design_protocol, simulate
from delaysync.demos import demo_scenario
from delaysync.errors import DelaySyncError, NumericError


def steps_to_tolerance(error, tol=1e-3):
    below = np.flatnonzero(error < tol)
    return int(below[0]) if below.size else None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv", default=None,
                        help="also write the table to this CSV file")
    args = parser.parse_args()

    cfg = demo_scenario(1, "full")
    rows = []
    print(f"{'epsilon':>9} {'|K|':>10} {'cert margin':>12} {'steps<1e-3':>11}")
    for eps in (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 1e-5):
        try:
            design = design_protocol(cfg.model, cfg.delays.kappa_bar,
                                     mode="full", epsilon=eps)
        except DelaySyncError as exc:
            print(f"{eps:>9.0e} rejected: {exc}")
            continue
        cert = closed_loop_certificate(design)
        try:
            traj = simulate(cfg.model, design, cfg.graph, cfg.delays,
                            cfg.x0, cfg.xr0, 20000)
        except NumericError:
            verdict = "diverged"
        else:
            steps = steps_to_tolerance(traj.error)
            verdict = steps if steps is not None else ">20000"
        rows.append({"epsilon": eps,
                     "gain_norm": float(np.linalg.norm(design.K, 2)),
                     "cert_margin": cert.margin,
                     "steps_below_1e3": verdict})
        print(f"{eps:>9.0e} {rows[-1]['gain_norm']:>10.3e} "
              f"{cert.margin:>12.3e} {verdict:>11}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
