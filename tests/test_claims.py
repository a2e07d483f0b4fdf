"""The abstract's claims, tested directly rather than through finite runs.

"One design for any number of agents, any graph and any delays up to the
bound": on seeded random agents, each design's closed loop is stable on
every rooted graph drawn and every delay profile up to its bound, at the
spectral radius the cascade formula predicts.

"The delay bound depends only on the agent dynamics": the designer reads
the model, not the coordinates its state is written in.  Under an
orthogonal change of coordinates x' = T x, the model (T A T', T B, C T')
gets the same swept epsilon (the same grid point, exactly), and its
omega_max, rho, theta, mu and certificate radii agree to rounding.  In
full-state mode the agents exchange the whole state in either
coordinates, so C stays the identity.
"""

import itertools

import numpy as np
import pytest

from delaysync import (AgentModel, CommGraph, closed_loop_certificate,
                       delay_admissible, design_protocol)
from delaysync.errors import DesignError
from delaysync.network import is_rooted, network_matrices
from delaysync.spectral import spectral_radius

from conftest import (BENCH_A, BENCH_B, BENCH_C, monolithic_full,
                      monolithic_partial, random_admissible_model)

#: relative agreement of the designed quantities across coordinates
RTOL = 1e-9


def _agents():
    """(A, B, C, kappa_bar): the bench agent at kappa_bar = 2, then four
    seeded random draws, each at its largest admissible bound up to 3."""
    agents = [(BENCH_A, BENCH_B, BENCH_C, 2)]
    rng = np.random.default_rng(0)
    for _ in range(4):
        A, B, C = random_admissible_model(rng, with_output=True)
        agents.append((A, B, C, max(k for k in range(4)
                                    if delay_admissible(A, k))))
    return agents


AGENTS = _agents()


@pytest.mark.parametrize("mode", ["full", "partial"])
@pytest.mark.parametrize("index", range(len(AGENTS)))
def test_design_is_coordinate_free(index, mode):
    A, B, C, kappa_bar = AGENTS[index]
    n = A.shape[0]
    T, _ = np.linalg.qr(np.random.default_rng(index).normal(size=(n, n)))
    C, C_moved = (C, C @ T.T) if mode == "partial" else (np.eye(n),) * 2
    before, after = (design_protocol(AgentModel(A=a, B=b, C=c), kappa_bar,
                                     mode=mode)
                     for a, b, c in ((A, B, C), (T @ A @ T.T, T @ B, C_moved)))
    assert after.epsilon_star == before.epsilon_star
    for name in ("omega_max", "rho", "theta", "mu"):
        assert getattr(after, name) == pytest.approx(
            getattr(before, name), rel=RTOL, abs=0), name
    cert_before, cert_after = map(closed_loop_certificate, (before, after))
    np.testing.assert_allclose(cert_after.radii, cert_before.radii,
                               rtol=RTOL, atol=0)
    if mode == "full":
        assert cert_before.observer_radius is cert_after.observer_radius is None
    else:
        assert cert_after.observer_radius == pytest.approx(
            cert_before.observer_radius, rel=RTOL, abs=0)


def _rooted_graph(rng, n_agents=3):
    """A random weighted digraph with random roots, drawn until rooted."""
    while True:
        adj = np.where(rng.random((n_agents, n_agents)) < 0.5,
                       rng.uniform(0.1, 2.0, (n_agents, n_agents)), 0.0)
        np.fill_diagonal(adj, 0.0)
        roots = rng.random(n_agents) < 0.4
        if roots.any() and is_rooted(graph := CommGraph(adjacency=adj,
                                                         roots=roots)):
            return graph


def test_one_design_stabilizes_every_graph_and_profile():
    # ten seeded agents, each with three rooted graphs of three agents; a
    # swept design per admissible kappa_bar in 0..2 and mode, checked on
    # every profile in {0..kappa_bar}^3: rho(M) of the lifted closed loop
    # (without the reference) is below one and is the cascade's
    # max(rho(S) rho(A), r_kappa_i for each agent, rho(A - F C))
    rng = np.random.default_rng(0)
    designed = at_floor = checks = 0
    for _ in range(10):
        A, B, C = random_admissible_model(rng, with_output=True)
        n = A.shape[0]
        graphs = [_rooted_graph(rng) for _ in range(3)]
        for kappa_bar, mode in itertools.product(range(3),
                                                 ("full", "partial")):
            if not delay_admissible(A, kappa_bar):
                continue
            model = AgentModel(A=A, B=B,
                               C=C if mode == "partial" else np.eye(n))
            try:
                design = design_protocol(model, kappa_bar, mode=mode)
            except DesignError as exc:  # EPSILON_SWEEP ends above the
                assert exc.stage == "epsilon"  # epsilon this draw needs
                at_floor += 1
                continue
            designed += 1
            cert = closed_loop_certificate(design)
            extra = [cert.observer_radius] if mode == "partial" else []
            monolithic = (monolithic_partial if mode == "partial"
                          else monolithic_full)
            for graph in graphs:
                error_loop = (spectral_radius(network_matrices(graph)
                                              .substochastic)
                              * spectral_radius(A))
                for kappa in itertools.product(range(kappa_bar + 1),
                                               repeat=3):
                    M = monolithic(design, graph, list(kappa))[:-n, :-n]
                    radius = spectral_radius(M)
                    cascade = max([error_loop, *extra,
                                   *(cert.radii[k] for k in kappa)])
                    assert radius < 1.0, (mode, kappa_bar, kappa)
                    assert abs(radius - cascade) <= 1e-9, (mode, kappa)
                    checks += 1
    # two draws stop at the end of the epsilon grid: the known floor of
    # EPSILON_SWEEP, counted, not avoided
    assert (designed, at_floor, checks) == (56, 2, 1836)
