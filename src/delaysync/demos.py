"""Bundled demo scenarios.

All three cases share one benchmark agent: a third-order model whose
spectrum is {e^{+j pi/6}, e^{-j pi/6}, 1/2}, so the reference oscillates
forever and the delay tolerance works out to kappa_bar <= 2.  The cases
differ in network size, topology, and delay profile:

  1.  three agents on a directed cycle, delays (1, 1, 2)
  2.  five agents on a chain with two shortcuts, delays (2, 2, 2, 1, 2)
  3.  ten agents on a chain with three shortcuts, unit delays everywhere

Node 1 is the root (it measures the reference) in every case.  Initial
conditions are fixed literals so each demo is bit-reproducible.
"""

import math

import numpy as np

from .config import ScenarioConfig
from .design import FULL_STATE, PARTIAL_STATE, AgentModel, _check_mode
from .dynamics import DelayProfile
from .errors import ScenarioError
from .network import CommGraph

DEMO_CASES = (1, 2, 3)

#: epsilon per (case, mode); case 2's output-coupling run needs a smaller one
_DEMO_EPSILON = {
    (1, FULL_STATE): 1e-3, (1, PARTIAL_STATE): 1e-3,
    (2, FULL_STATE): 1e-3, (2, PARTIAL_STATE): 1e-5,
    (3, FULL_STATE): 1e-3, (3, PARTIAL_STATE): 1e-3,
}

_DEMO_K_MAX = 5000


def demo_model(mode=FULL_STATE):
    """Benchmark agent: one stable mode at 1/2 plus an undamped oscillator
    at angle pi/6.  Output coupling measures the first state only."""
    A = [[0.5, 1.0, 1.0],
         [0.0, math.sqrt(3) / 2, -0.5],
         [0.0, 0.5, math.sqrt(3) / 2]]
    B = [[1.0], [1.0], [0.0]]
    C = np.eye(3) if _check_mode(mode) == FULL_STATE else [[1.0, 0.0, 0.0]]
    return AgentModel(A=np.asarray(A), B=np.asarray(B), C=np.asarray(C))


def _initial_states(n_agents):
    # deterministic spread, alternating sign, growing with the agent index
    return np.array([[((-1.0) ** i) * (1.0 + 0.5 * i),
                      2.0 - 0.3 * i,
                      0.25 * i - 1.0] for i in range(n_agents)])


def _demo_graph(case):
    if case == 1:
        adj = np.zeros((3, 3))
        adj[1, 0] = adj[2, 1] = adj[0, 2] = 1.0
        kappa = [1, 1, 2]
    elif case == 2:
        adj = np.zeros((5, 5))
        for i in range(4):
            adj[i + 1, i] = 1.0
        adj[0, 2] = adj[2, 4] = 1.0
        kappa = [2, 2, 2, 1, 2]
    elif case == 3:
        adj = np.zeros((10, 10))
        for i in range(9):
            adj[i + 1, i] = 1.0
        adj[0, 4] = adj[0, 9] = adj[4, 9] = 1.0
        kappa = [1] * 10
    else:
        raise ScenarioError(f"demo case must be one of {DEMO_CASES}, "
                            f"got {case}")
    roots = np.zeros(adj.shape[0], dtype=bool)
    roots[0] = True
    return CommGraph(adjacency=adj, roots=roots), kappa


def demo_scenario(case, mode=FULL_STATE, out_dir="."):
    """A ready-to-run ScenarioConfig for one of the bundled cases."""
    model = demo_model(mode)
    graph, kappa = _demo_graph(case)
    return ScenarioConfig(
        model=model, mode=mode, graph=graph,
        delays=DelayProfile(kappa, kappa_bar=2),
        k_max=_DEMO_K_MAX,
        x0=_initial_states(graph.n_agents),
        xr0=np.array([0.0, 1.0, 0.0]),
        epsilon=_DEMO_EPSILON[(case, mode)],
        out_dir=out_dir)
