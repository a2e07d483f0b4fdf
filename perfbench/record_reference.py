#!/usr/bin/env python3
"""Record the benchmark's reference data from the library as it is now.

    python3 perfbench/record_reference.py

Writes perfbench/data/models.json (the family of random admissible models
the design-sweep workload uses, with the epsilon* each must give) and
perfbench/data/reference.json (sim-scale final states for the reference
seed and the demos' trajectory.csv rows at their checkpoint steps).  Run
it only at a commit whose outputs are trusted: every later run is checked
against these files.
"""

import json
import math
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import delaysync as ds  # noqa: E402
from delaysync.errors import DelaySyncError  # noqa: E402
from delaysync.riccati import is_stabilizable  # noqa: E402

from perfbench import checks, inputs, workloads  # noqa: E402

FAMILY_SEED = 2020
FAMILY_SIZE = 6

#: keep kappa_bar * omega_max this far below pi/2, so that the delay
#: margin is not so thin that the epsilon sweep runs out
DELAY_MARGIN = 0.8

#: a model joins the family only if this many random orthogonal changes
#: of coordinates all give the same epsilon*
ROTATION_TRIALS = 20


def _rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _candidate(rng):
    """Random (A, B): a block mix of rotations (on or inside the unit
    circle) and stable scalars in random orthogonal coordinates."""
    target = int(rng.integers(1, 5))
    blocks, n = [], 0
    while n < target:
        if target - n >= 2 and rng.random() < 0.6:
            radius = 1.0 if rng.random() < 0.5 else float(rng.uniform(0.3, 0.95))
            blocks.append(radius * _rotation(float(rng.uniform(0.1, math.pi - 0.1))))
            n += 2
        else:
            blocks.append(np.array([[float(rng.uniform(-0.95, 0.95))]]))
            n += 1
    D = np.zeros((n, n))
    at = 0
    for b in blocks:
        D[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    T = inputs.random_orthogonal(rng, n)
    return T @ D @ T.T, rng.normal(size=(n, 1))


def _epsilon_star(A, B, kappa_bar):
    model = ds.AgentModel(A=A, B=B, C=np.eye(A.shape[0]))
    design = ds.design_protocol(model, kappa_bar, mode="full")
    if not ds.closed_loop_certificate(design).passed:
        raise DelaySyncError("certificate failed")
    return design.epsilon_star


def family():
    rng = np.random.default_rng(FAMILY_SEED)
    models, seen = [], set()
    while len(models) < FAMILY_SIZE:
        A, B = _candidate(rng)
        if not is_stabilizable(A, B):
            continue
        w = ds.omega_max(A)
        kappa_bar = max(k for k in range(7) if ds.delay_admissible(A, k))
        if kappa_bar * w > DELAY_MARGIN * math.pi / 2:
            continue
        if (A.shape[0], kappa_bar) in seen:  # one model per shape and bound
            continue
        try:
            eps = _epsilon_star(A, B, kappa_bar)
            for _ in range(ROTATION_TRIALS):
                T = inputs.random_orthogonal(rng, A.shape[0])
                if _epsilon_star(T @ A @ T.T, T @ B, kappa_bar) != eps:
                    raise DelaySyncError("epsilon* depends on coordinates")
        except DelaySyncError:
            continue
        seen.add((A.shape[0], kappa_bar))
        models.append({"label": f"family-{len(models)}", "A": A.tolist(),
                       "B": B.tolist(), "kappa_bar": kappa_bar,
                       "epsilon_star": eps})
    return models


def sim_reference():
    out = {}
    for item in inputs.sim_inputs(workloads.REFERENCE_SEED, "."):
        traj = workloads.design_and_simulate(ds.parse_config(item["scenario"]))
        out[item["label"]] = traj.x[-1].tolist()
    return out


def _floats(rows):
    return [[float(v) if isinstance(v, float) else v for v in row]
            for row in rows]


def demo_reference():
    out = {}
    for case in (1, 2, 3):
        for mode in inputs.MODES:
            cfg = ds.demo_scenario(case, mode)
            traj = workloads.design_and_simulate(cfg)
            out[f"{case}-{mode}"] = {
                "steps": cfg.k_max + 1,
                "rows": {str(k): _floats(checks.trajectory_rows(
                    traj.x, traj.x_ref, traj.u, k))
                    for k in checks.checkpoints(cfg.k_max)}}
    return out


def main():
    models = family()
    with open(os.path.join(inputs.DATA_DIR, "models.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"family_seed": FAMILY_SEED, "models": models}, fh, indent=1)
        fh.write("\n")
    for m in models:
        print(f"{m['label']}: n={len(m['A'])} kappa_bar={m['kappa_bar']} "
              f"epsilon*={m['epsilon_star']:.3e}")
    reference = {"reference_seed": workloads.REFERENCE_SEED,
                 "sim": sim_reference(), "demos": demo_reference()}
    with open(os.path.join(inputs.DATA_DIR, "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump(reference, fh)
        fh.write("\n")


if __name__ == "__main__":
    main()
