"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with its runtime.  Run with `pytest tests/test_acceptance.py -s` to see
the lines as they complete."""

import itertools
import math
import time

import numpy as np

from delaysync import (AgentModel, CommGraph, DelayProfile,
                       closed_loop_certificate, convergence_report,
                       delay_admissible, design_protocol, is_rooted,
                       is_schur_stable, omega_max, simulate,
                       solve_low_gain_dare)
from delaysync.cli import _design_text
from delaysync.demos import _initial_states, demo_model, demo_scenario
from delaysync.network import network_matrices
from delaysync.spectral import spectral_radius

from conftest import (BENCH_A, BENCH_B, cycle3_graph, random_admissible_model,
                      rotation)

XR0 = np.array([0.0, 1.0, 0.0])
GOLDEN = (1 + math.sqrt(5)) / 2


def _report(criterion, ok, elapsed, limit, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} "
          f"({elapsed:.3f}s / limit {limit:g}s) {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"
    assert elapsed < limit, (
        f"criterion {criterion} exceeded its runtime limit: "
        f"{elapsed:.3f}s >= {limit:g}s")


def test_criterion_1_peak_angle_and_delay_bound():
    omega_max(np.zeros((2, 2)))  # warm the numeric backend outside the timer
    t0 = time.perf_counter()
    w = omega_max(BENCH_A)
    angle_ok = abs(w - math.pi / 6) < 1e-9
    admissible_ok = all(delay_admissible(BENCH_A, k) for k in (0, 1, 2))
    boundary_ok = not delay_admissible(BENCH_A, 3)
    elapsed = time.perf_counter() - t0
    _report(1, angle_ok and admissible_ok and boundary_ok, elapsed, 0.1,
            f"omega_max={w!r}, admissible up to 2, 3 rejected")


def test_criterion_2_riccati_residuals():
    t0 = time.perf_counter()
    eps_grid = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
    worst = 0.0
    for eps in eps_grid:
        worst = max(worst, solve_low_gain_dare(BENCH_A, BENCH_B, eps).residual)
    rng = np.random.default_rng(2024)
    for _ in range(20):
        A, B = random_admissible_model(rng)
        for eps in eps_grid:
            worst = max(worst, solve_low_gain_dare(A, B, eps).residual)
    scalar = solve_low_gain_dare(np.eye(1), np.eye(1), 1.0)
    scalar_ok = abs(scalar.P[0, 0] - GOLDEN) < 1e-12
    elapsed = time.perf_counter() - t0
    _report(2, worst <= 1e-10 and scalar_ok, elapsed, 5.0,
            f"worst residual {worst:.2e}, scalar P within 1e-12")


def test_criterion_3_gain_disc_soundness():
    # Lin's low-gain disc: for gamma = lambda_max(B'P_delta B), every complex
    # loop gain z in the open disc centred at 1 + 1/gamma with radius
    # sqrt(1 + gamma)/gamma keeps A - z B K_delta Schur stable
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    violations = 0
    checked = 0
    for _ in range(5):
        A, B = random_admissible_model(rng)
        for delta in (1.0, 0.1, 0.01):
            sol = solve_low_gain_dare(A, B, delta)
            gamma = float(np.linalg.eigvalsh(B.T @ sol.P @ B).max())
            center = 1.0 + 1.0 / gamma
            radius = float(np.sqrt(1.0 + gamma) / gamma)
            samples = 0
            while samples < 100:
                z = complex(rng.uniform(center - radius, center + radius),
                            rng.uniform(-radius, radius))
                if not abs(z - center) < radius:  # rejection sampling
                    continue
                samples += 1
                checked += 1
                if not is_schur_stable(A - z * (B @ sol.K)):
                    violations += 1
    elapsed = time.perf_counter() - t0
    _report(3, violations == 0, elapsed, 10.0,
            f"{checked} sampled gains, {violations} violations")


def test_criterion_4_rootedness_equivalence():
    t0 = time.perf_counter()
    offdiag = [(i, j) for i in range(3) for j in range(3) if i != j]
    cases = 0
    mismatches = 0
    for bits in itertools.product((0.0, 1.0), repeat=6):
        adj = np.zeros((3, 3))
        for value, (i, j) in zip(bits, offdiag):
            adj[i, j] = value
        for root_bits in itertools.product((False, True), repeat=3):
            if not any(root_bits):
                continue
            cases += 1
            graph = CommGraph(adjacency=adj, roots=np.array(root_bits))
            # independent reachability oracle
            seen = set(np.flatnonzero(graph.roots))
            frontier = list(seen)
            while frontier:
                j = frontier.pop()
                for i in np.flatnonzero(adj[:, j] > 0):
                    if i not in seen:
                        seen.add(i)
                        frontier.append(i)
            by_search = len(seen) == 3
            by_spectrum = spectral_radius(
                network_matrices(graph).substochastic) < 1.0 - 1e-9
            if by_search != by_spectrum or is_rooted(graph) != by_search:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(4, cases == 448 and mismatches == 0, elapsed, 1.0,
            f"{cases} cases, {mismatches} mismatches")


def test_criterion_5_bundled_demos_converge():
    t0 = time.perf_counter()
    failures = []
    for case in (1, 2, 3):
        for mode in ("full", "partial"):
            cfg = demo_scenario(case, mode)
            design = design_protocol(cfg.model, cfg.delays.kappa_bar,
                                     mode=mode, epsilon=cfg.epsilon)
            traj = simulate(cfg.model, design, cfg.graph, cfg.delays,
                            cfg.x0, cfg.xr0, 5000)
            e0 = traj.error[0]
            peak = traj.error.max()
            tail = traj.error[-len(traj.error) // 10:].max()
            if not (traj.error[-1] < 1e-3 * (1 + e0) and tail < 0.01 * peak):
                failures.append((case, mode, traj.error[-1], tail / peak))
    elapsed = time.perf_counter() - t0
    _report(5, not failures, elapsed, 30.0,
            f"6 runs at 5000 steps{'' if not failures else f'; failing: {failures}'}")


def _battery():
    """Designs exercised by the certificate/consistency criterion, each with
    a simulation horizon long enough for its closed-loop decay rate.

    The fully swept benchmark design (epsilon* ~ 2e-7) is validated
    separately in test_verify: its dominant delayed root sits at ~0.9997,
    so twenty runs long enough to converge would dominate this criterion's
    runtime budget.
    """
    rot_model = AgentModel(A=rotation(math.pi / 4),
                           B=np.array([[1.0], [0.0]]), C=np.eye(2))
    stable_model = AgentModel(A=0.6 * np.eye(3) + np.diag([0.1, 0.1], 1),
                              B=np.array([[1.0], [0.0], [1.0]]), C=np.eye(3))
    return [
        ("bench-full-pinned",
         design_protocol(demo_model("full"), 2, mode="full", epsilon=1e-3),
         2500),
        ("bench-partial-pinned",
         design_protocol(demo_model("partial"), 2, mode="partial",
                         epsilon=1e-5), 6000),
        ("rotation-swept",
         design_protocol(rot_model, 1, mode="full"), 3000),
        ("stable-swept",
         design_protocol(stable_model, 3, mode="full"), 800),
    ]


def test_criterion_6_certificates_and_random_delays():
    t0 = time.perf_counter()
    rng = np.random.default_rng(61)
    graph = cycle3_graph()
    problems = []
    for name, design, horizon in _battery():
        report = closed_loop_certificate(design)
        if not report.passed:
            problems.append(f"{name}: certificate failed "
                            f"(margin {report.margin:.2e}, {report.reason})")
            continue
        n = design.model.n
        x0 = _initial_states(3)[:, :n]
        xr0 = XR0[:n]
        for trial in range(20):
            kappa = rng.integers(0, design.kappa_bar + 1, size=3)
            traj = simulate(design.model, design, graph,
                            DelayProfile(kappa=kappa,
                                         kappa_bar=design.kappa_bar),
                            x0, xr0, horizon)
            conv = convergence_report(traj)
            if not conv.converged:
                problems.append(f"{name} trial {trial} kappa={kappa.tolist()}"
                                f": final {conv.final_error:.2e}")
    elapsed = time.perf_counter() - t0
    _report(6, not problems, elapsed, 60.0,
            "4 designs x (certificate + 20 random delay profiles)"
            + ("" if not problems else f"; {problems[:3]}"))


def test_criterion_7_error_system_oracle():
    t0 = time.perf_counter()
    design = design_protocol(demo_model("full"), 2, mode="full", epsilon=1e-3)
    graph = cycle3_graph()
    traj = simulate(design.model, design, graph,
                    DelayProfile([0, 0, 0], 0),
                    _initial_states(3), XR0, 200)
    D_kron = np.kron(network_matrices(graph).substochastic, design.model.A)
    e = (traj.x - traj.x_ref[:, None, :] - traj.protocol).reshape(201, -1)
    worst = max(np.abs(e[k + 1] - D_kron @ e[k]).max() for k in range(200))
    elapsed = time.perf_counter() - t0
    _report(7, worst <= 1e-10, elapsed, 30.0,
            f"max per-step deviation {worst:.2e}")


def test_criterion_8_scale_free_design():
    t0 = time.perf_counter()
    model = demo_model("full")
    first = _design_text(design_protocol(model, 2, mode="full", epsilon=1e-3))
    second = _design_text(design_protocol(model, 2, mode="full", epsilon=1e-3))
    bytes_ok = first.encode() == second.encode()

    design = design_protocol(model, 2, mode="full", epsilon=1e-3)
    graphs = [cycle3_graph(),
              demo_scenario(2, "full").graph,
              demo_scenario(3, "full").graph]
    chain = np.zeros((40, 40))
    for i in range(39):
        chain[i + 1, i] = 1.0
    graphs.append(CommGraph(adjacency=chain,
                            roots=np.array([True] + [False] * 39)))
    sims_ok = True
    sizes = []
    for graph in graphs:
        N = graph.n_agents
        sizes.append(N)
        delays = DelayProfile([i % 3 for i in range(N)], 2)
        traj = simulate(model, design, graph, delays, _initial_states(N),
                        XR0, 2500)
        if not convergence_report(traj).converged:
            sims_ok = False
    elapsed = time.perf_counter() - t0
    _report(8, bytes_ok and sims_ok, elapsed, 60.0,
            f"design serialization byte-identical; one design converged on "
            f"N={sizes}")
