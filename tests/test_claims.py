"""The abstract's claims, tested directly rather than through finite runs.

"The delay bound depends only on the agent dynamics": the designer reads
the model, not the coordinates its state is written in.  Under an
orthogonal change of coordinates x' = T x, the model (T A T', T B, C T')
gets the same swept epsilon (the same grid point, exactly), and its
omega_max, rho, theta, mu and certificate radii agree to rounding.  In
full-state mode the agents exchange the whole state in either
coordinates, so C stays the identity.
"""

import numpy as np
import pytest

from delaysync import (AgentModel, closed_loop_certificate, delay_admissible,
                       design_protocol)

from conftest import BENCH_A, BENCH_B, BENCH_C, random_admissible_model

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
