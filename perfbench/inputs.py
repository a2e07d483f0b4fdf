"""Seeded input generators for the benchmark workloads.

Everything here depends only on numpy and the seed, never on the program
under test, so a change to the library cannot change what the benchmark
feeds it.  Scenario files follow the JSON schema documented in the
repository README and are written directly, not through the library's own
serializer.
"""

import json
import math
import os

import numpy as np

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

#: benchmark agent: spectrum {exp(+-j pi/6), 1/2}, delay tolerance 2
BENCH_A = [[0.5, 1.0, 1.0],
           [0.0, math.sqrt(3) / 2, -0.5],
           [0.0, 0.5, math.sqrt(3) / 2]]
BENCH_B = [[1.0], [1.0], [0.0]]
BENCH_C_PARTIAL = [[1.0, 0.0, 0.0]]
BENCH_KAPPA_BAR = 2

#: pinned low-gain weight of the simulation workloads
SIM_EPSILON = 1e-3

#: (label, agents, steps, operation kind) of the sim-scale instances
SIM_INSTANCES = (("n10a", 10, 2000, "light"), ("n10b", 10, 2000, "light"),
                 ("n400", 400, 200, "heavy"))

MODES = ("full", "partial")

# stream tags keep the workloads' random draws independent of each other
_DESIGN_TAG, _SIM_TAG, _CLI_TAG = 1, 2, 3


def _eye(n):
    return np.eye(n).tolist()


def scenario(A, B, C, mode, adjacency, roots, kappa, kappa_bar, k_max, x0,
             xr0, out_dir, epsilon=None, emit_plot_data=False):
    """A scenario dict in the documented JSON schema."""
    data = {
        "model": {"A": A, "B": B, "C": C},
        "mode": mode,
        "graph": {"adjacency": adjacency, "roots": roots},
        "delays": {"kappa": kappa, "kappa_bar": kappa_bar},
        "sim": {"k_max": k_max, "x0": x0, "xr0": xr0},
        "output": {"directory": out_dir, "emit_plot_data": emit_plot_data},
    }
    if epsilon is not None:
        data["protocol"] = {"epsilon": epsilon}
    return data


def write_scenario(data, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def random_orthogonal(rng, n):
    """Haar-distributed orthogonal matrix (QR with the sign fix)."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def load_family():
    """The fixed family of admissible random models (see record_reference)."""
    with open(os.path.join(DATA_DIR, "models.json"), encoding="utf-8") as fh:
        return json.load(fh)["models"]


def design_inputs(seed, out_root):
    """design-sweep inputs: the benchmark agent in both modes, then every
    family model in its own seeded orthogonal coordinates.

    A change of coordinates x -> T x with T orthogonal leaves the design
    problem's difficulty (and epsilon*) unchanged while changing every
    matrix entry, so the seed varies the numbers without varying the cost.
    Returns a list of dicts with the input's label, scenario and the
    epsilon* it must produce.
    """
    rng = np.random.default_rng([seed, _DESIGN_TAG])
    items = [("bench-full", BENCH_A, BENCH_B, _eye(3), "full"),
             ("bench-partial", BENCH_A, BENCH_B, BENCH_C_PARTIAL, "partial")]
    kappa_bars = [BENCH_KAPPA_BAR, BENCH_KAPPA_BAR]
    eps_stars = [10.0 ** -6.75, 10.0 ** -6.75]
    for model in load_family():
        A = np.asarray(model["A"])
        T = random_orthogonal(rng, A.shape[0])
        items.append((model["label"], (T @ A @ T.T).tolist(),
                      (T @ np.asarray(model["B"])).tolist(),
                      _eye(A.shape[0]), "full"))
        kappa_bars.append(model["kappa_bar"])
        eps_stars.append(model["epsilon_star"])
    inputs = []
    for (label, A, B, C, mode), kb, eps_star in zip(items, kappa_bars,
                                                     eps_stars):
        n = len(A)
        out_dir = os.path.join(out_root, label)
        # graph, delays and sim sections are required by the schema but
        # unused by design and verify
        data = scenario(A, B, C, mode, [[0.0, 0.0], [1.0, 0.0]], [1, 0],
                        [0, 0], kb, 10, [[0.0] * n] * 2, [0.0] * n, out_dir)
        inputs.append({"label": label, "scenario": data,
                       "epsilon_star": eps_star, "out_dir": out_dir})
    return inputs


def rooted_chain(rng, n_agents):
    """Chain 1 -> 2 -> ... -> N plus N/10 random shortcuts, agent 1 the
    only root, so every agent is reachable from the root."""
    adj = np.zeros((n_agents, n_agents))
    idx = np.arange(n_agents - 1)
    adj[idx + 1, idx] = 1.0
    added = 0
    while added < n_agents // 10:
        i, j = (int(v) for v in rng.choice(n_agents, size=2, replace=False))
        if adj[i, j] == 0.0:
            adj[i, j] = 1.0
            added += 1
    roots = [1] + [0] * (n_agents - 1)
    return adj, roots


def sim_inputs(seed, out_root):
    """sim-scale inputs: for every entry of SIM_INSTANCES, one seeded graph,
    delay profile in [0, 2] and initial state, written in both modes."""
    rng = np.random.default_rng([seed, _SIM_TAG])
    inputs = []
    for label, n_agents, k_max, kind in SIM_INSTANCES:
        adj, roots = rooted_chain(rng, n_agents)
        kappa = rng.integers(0, BENCH_KAPPA_BAR + 1, size=n_agents).tolist()
        x0 = rng.uniform(-2.0, 2.0, size=(n_agents, 3)).tolist()
        xr0 = rng.uniform(-1.0, 1.0, size=3).tolist()
        for mode in MODES:
            C = _eye(3) if mode == "full" else BENCH_C_PARTIAL
            data = scenario(BENCH_A, BENCH_B, C, mode, adj.tolist(), roots,
                            kappa, BENCH_KAPPA_BAR, k_max, x0, xr0, out_root,
                            epsilon=SIM_EPSILON)
            inputs.append({"label": f"{label}-{mode}", "scenario": data,
                           "agents": n_agents, "steps": k_max, "kind": kind})
    return inputs


#: bundled demo case 3: ten agents, chain plus three shortcuts, unit delays
CASE3_ADJ_EDGES = [(i + 1, i) for i in range(9)] + [(0, 4), (0, 9), (4, 9)]

#: horizon of the simulate command: a fifth of the demos', so that it can
#: run after every demo and its fastest run is picked from many
SIMULATE_K_MAX = 1000


def cli_inputs(seed, out_root):
    """cli-export inputs: the six bundled demos, the case-3 scenario with
    plot data enabled and a seeded initial state, and the generator that
    shuffles the demos' order in every round."""
    rng = np.random.default_rng([seed, _CLI_TAG])
    demos = [(case, mode) for case in (1, 2, 3) for mode in MODES]
    adj = np.zeros((10, 10))
    for i, j in CASE3_ADJ_EDGES:
        adj[i, j] = 1.0
    x0 = rng.uniform(-2.0, 2.0, size=(10, 3)).tolist()
    data = scenario(BENCH_A, BENCH_B, _eye(3), "full", adj.tolist(),
                    [1] + [0] * 9, [1] * 10, BENCH_KAPPA_BAR, SIMULATE_K_MAX,
                    x0, [0.0, 1.0, 0.0], out_root, epsilon=SIM_EPSILON,
                    emit_plot_data=True)
    return demos, data, rng
