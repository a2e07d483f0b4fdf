#!/usr/bin/env python3
"""Run every bundled demo end to end and print a summary table.

Usage: python scripts/run_demos.py [--kmax K]
"""

import argparse
import time

from delaysync import (closed_loop_certificate, convergence_report,
                       design_protocol, simulate)
from delaysync.demos import DEMO_CASES, demo_scenario


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kmax", type=int, default=None,
                        help="override the simulation horizon")
    args = parser.parse_args()

    print(f"{'case':>4} {'mode':>8} {'epsilon':>9} {'rho':>7} "
          f"{'final err':>10} {'cert margin':>12} {'converged':>9} {'secs':>6}")
    for case in DEMO_CASES:
        for mode in ("full", "partial"):
            t0 = time.perf_counter()
            cfg = demo_scenario(case, mode)
            design = design_protocol(cfg.model, cfg.delays.kappa_bar,
                                     mode=mode, epsilon=cfg.epsilon)
            k_max = args.kmax or cfg.k_max
            traj = simulate(cfg.model, design, cfg.graph, cfg.delays,
                            cfg.x0, cfg.xr0, k_max)
            cert = closed_loop_certificate(design)
            conv = convergence_report(
                traj, tol=1e-3 * (1 + traj.error[0]))
            print(f"{case:>4} {mode:>8} {design.epsilon:>9.0e} "
                  f"{design.rho:>7.4f} {conv.final_error:>10.3e} "
                  f"{cert.margin:>12.3e} "
                  f"{'yes' if conv.converged else 'NO':>9} "
                  f"{time.perf_counter() - t0:>6.2f}")


if __name__ == "__main__":
    main()
