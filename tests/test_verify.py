import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaysync import (DelayProfile, closed_loop_certificate,
                       convergence_report, design_protocol, simulate)
from delaysync.demos import (DEMO_CASES, demo_model, demo_scenario,
                             _initial_states)
from delaysync.errors import GridSizeError
from delaysync.riccati import solve_low_gain_dare
from delaysync.spectral import spectral_radius
from delaysync.verify import (CERTIFICATE_THRESHOLD, delay_loop_radii,
                              frequency_sweep_certificate)

from conftest import (companion_radii, cycle3_graph, random_admissible_model,
                      rotation)
from test_acceptance import _battery

XR0 = np.array([0.0, 1.0, 0.0])


@pytest.fixture(scope="module")
def bench_design():
    return design_protocol(demo_model("full"), 2, mode="full", epsilon=1e-3)


class TestFrequencySweep:
    def test_trivial_contraction_passes(self):
        rep = frequency_sweep_certificate(np.array([[0.5]]), np.zeros((1, 1)),
                                          [0, 1, 2])
        assert rep.passed
        # sigma_min(e^{jw} - 0.5) bottoms out at w = 0
        assert rep.min_margin == pytest.approx(0.5, abs=1e-6)

    def test_scalar_delayed_gain_passes_below_one(self):
        # x(k+1) = -0.9 x(k - kappa) is stable for either delay; the margin
        # is 1 - 0.9 at the aligned frequency
        rep = frequency_sweep_certificate(np.zeros((1, 1)),
                                          np.array([[-0.9]]), [0, 1])
        assert rep.passed
        assert rep.min_margin == pytest.approx(0.1, abs=1e-6)
        # cross-check by running both recursions
        for kappa in (0, 1):
            hist = [1.0] * (kappa + 1)
            for _ in range(500):
                hist = [-0.9 * hist[-1]] + hist[:-1]
            assert abs(hist[0]) < 1e-2

    def test_undelayed_instability_fails_with_reason(self):
        rep = frequency_sweep_certificate(np.zeros((1, 1)),
                                          np.array([[-1.2]]), [1])
        assert not rep.passed
        assert rep.reason == "undelayed system unstable"
        assert rep.min_margin == 0.0

    def test_report_invariant(self):
        rep = frequency_sweep_certificate(np.array([[0.3]]),
                                          np.array([[0.2]]), [0, 1])
        assert rep.passed == (rep.min_margin > rep.threshold)
        assert rep.kappa_combinations == 2
        assert rep.argmin_kappa in ((0,), (1,))

    def test_evaluation_budget_guard(self):
        with pytest.raises(GridSizeError):
            frequency_sweep_certificate(np.array([[0.1]]), np.array([[0.01]]),
                                        range(1000), omega_points=4096)


class TestClosedLoopCertificate:
    def test_bench_design_passes(self, bench_design):
        rep = closed_loop_certificate(bench_design)
        assert rep.passed
        assert len(rep.radii) == 3
        assert rep.margin == 1.0 - max(rep.radii)
        assert rep.radii[rep.worst_kappa] == max(rep.radii)
        assert rep.observer_radius is None

    def test_zero_gain_fails_when_dynamics_not_schur(self, bench_design):
        silent = dataclasses.replace(bench_design, rho=0.0)
        rep = closed_loop_certificate(silent)
        assert not rep.passed
        # with no feedback every delayed loop keeps A's unit-circle modes
        np.testing.assert_allclose(rep.radii, 1.0, atol=1e-12)
        assert rep.reason.startswith("delayed loop at kappa = ")

    @pytest.mark.parametrize("mode", ["full", "partial"])
    @pytest.mark.parametrize("epsilon", [1e-2, 3e-2, 1e-1, 0.3, 1.0])
    def test_pinned_large_epsilon_fails(self, mode, epsilon):
        # the undelayed loop is fine; the loop delayed by kappa_bar = 2 is not
        design = design_protocol(demo_model(mode), 2, mode=mode,
                                 epsilon=epsilon)
        rep = closed_loop_certificate(design)
        assert not rep.passed
        assert rep.radii[0] < 1.0 < rep.radii[2]
        assert rep.worst_kappa == 2
        assert rep.reason == (f"delayed loop at kappa = 2 has spectral "
                              f"radius {rep.radii[2]!r}")

    def test_radius_matches_simulated_growth(self):
        # the case-1 run at epsilon = 1e-2 (delays 1, 1, 2) grows at the
        # kappa = 2 loop's rate
        design = design_protocol(demo_model("full"), 2, mode="full",
                                 epsilon=1e-2)
        rep = closed_loop_certificate(design)
        traj = simulate(design.model, design, cycle3_graph(),
                        DelayProfile.from_list([1, 1, 2], 2),
                        _initial_states(3), XR0, 3000)
        rate = (traj.error[3000] / traj.error[2000]) ** (1 / 1000)
        assert rate == pytest.approx(rep.radii[2], rel=1e-4)

    def test_observer_radius_in_partial_mode(self):
        design = design_protocol(demo_model("partial"), 2, mode="partial",
                                 epsilon=1e-3)
        rep = closed_loop_certificate(design)
        A, C = design.model.A, design.model.C
        assert rep.observer_radius == spectral_radius(A - design.F @ C)
        assert rep.margin == 1.0 - max(*rep.radii, rep.observer_radius)
        unobserved = dataclasses.replace(design, F=np.zeros_like(design.F))
        rep = closed_loop_certificate(unobserved)
        assert not rep.passed
        assert rep.reason.startswith("observer loop A - F C")

    def test_verdict_matches_frequency_sweep(self):
        # both pass on every shipped and tested design
        designs = [design for _, design, _ in _battery()]
        for case in DEMO_CASES:
            for mode in ("full", "partial"):
                cfg = demo_scenario(case, mode)
                designs.append(design_protocol(
                    cfg.model, cfg.delays.kappa_bar, mode=mode,
                    epsilon=cfg.epsilon))
        for design in designs:
            sweep = frequency_sweep_certificate(
                design.model.A, -design.rho * design.model.B @ design.K,
                range(design.kappa_bar + 1))
            assert closed_loop_certificate(design).passed and sweep.passed


class TestStackedLifts:
    def test_stack_of_gains_matches_each_gain(self):
        # the sweep decomposes one stacked lift per delay; each member's
        # radius must be the one the certificate computes from its gain
        rng = np.random.default_rng(22)
        for _ in range(40):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 3))
            kappa_bar = int(rng.integers(0, 5))
            A, B = rng.normal(size=(n, n)), rng.normal(size=(n, m))
            gains = rng.normal(size=(int(rng.integers(1, 9)), m, n))
            stacked = delay_loop_radii(A, B, gains, kappa_bar)
            for i, gain in enumerate(gains):
                assert [r[i] for r in stacked] \
                    == list(delay_loop_radii(A, B, gain, kappa_bar))


class TestInputDelayLift:
    """The certificate lifts x(k+1) = A x(k) + B G x(k - kappa) over the
    delayed inputs, order n + m kappa; the companion lift over the delayed
    states, order n (kappa + 1), has the same nonzero spectrum."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([1, 2]),
           kappa_bar=st.integers(0, 7), stack=st.integers(1, 9))
    def test_radii_match_companion_lift(self, seed, m, kappa_bar, stack):
        rng = np.random.default_rng(seed)
        A, B = random_admissible_model(rng, n_max=5, m=m)
        scale = 10.0 ** rng.uniform(-4.0, 0.5, size=(stack, 1, 1))
        G = scale * rng.normal(size=(stack, m, A.shape[0]))
        want = companion_radii(A, B @ G, kappa_bar)
        stacked = delay_loop_radii(A, B, G, kappa_bar)
        single = delay_loop_radii(A, B, G[0], kappa_bar)
        for kappa in range(kappa_bar + 1):
            np.testing.assert_allclose(stacked[kappa], want[kappa],
                                       rtol=1e-13, atol=0)
            np.testing.assert_allclose(single[kappa], want[kappa][0],
                                       rtol=1e-13, atol=0)

    def test_lift_orders(self, monkeypatch):
        # one decomposition per delay, of order n + m kappa
        eigvals, orders = np.linalg.eigvals, []

        def recorded(M):
            orders.append(np.shape(M))
            return eigvals(M)

        monkeypatch.setattr(np.linalg, "eigvals", recorded)
        B = np.ones((4, 2))
        delay_loop_radii(0.5 * np.eye(4), B, np.zeros((3, 2, 4)), 3)
        assert orders == [(3, 4, 4), (3, 6, 6), (3, 8, 8), (3, 10, 10)]

    def test_certificate_radii_match_companion_lift(self):
        design = design_protocol(demo_model("full"), 2, mode="full")
        rep = closed_loop_certificate(design)
        want = companion_radii(design.model.A,
                               -design.rho * (design.model.B @ design.K), 2)
        np.testing.assert_allclose(rep.radii, want, rtol=1e-13, atol=0)


class TestPinnedEpsilonTradeoff:
    """Larger pinned epsilon converges faster only up to a point.

    On the benchmark agent at kappa_bar = 2 the certificate margin peaks
    at epsilon = 1e-3; past it the delayed loop slows down (and from 1e-2
    on it diverges, see `test_pinned_large_epsilon_fails`), below it the
    low gain does.  The margin alone orders the convergence speed.
    """

    EPSILONS = (3e-3, 1e-3, 3e-4, 1e-4, 1e-5)

    def test_margin_orders_convergence_speed(self):
        cfg = demo_scenario(1, "full")
        margins, steps = [], []
        for epsilon in self.EPSILONS:
            design = design_protocol(cfg.model, 2, mode="full",
                                     epsilon=epsilon)
            rep = closed_loop_certificate(design)
            assert rep.passed, (epsilon, rep.reason)
            margins.append(rep.margin)
            traj = simulate(cfg.model, design, cfg.graph, cfg.delays,
                            cfg.x0, cfg.xr0, 3500)
            below = np.flatnonzero(traj.error < 1e-3)
            assert below.size, f"epsilon = {epsilon} did not reach 1e-3"
            steps.append(int(below[0]))
        assert self.EPSILONS[int(np.argmax(margins))] == 1e-3
        by_margin = sorted(range(len(margins)), key=lambda i: -margins[i])
        by_speed = sorted(range(len(steps)), key=lambda i: steps[i])
        assert by_margin == by_speed, (margins, steps)
        assert len(set(steps)) == len(steps)


class TestDelayBoundTightness:
    """The abstract's delay bound on the benchmark agent is tight.

    omega_max = pi/6 gives the bound kappa_bar < 3.  Over a decade grid of
    epsilon and a log grid of rho, no low-gain design passes the
    certificate's test at kappa_bar = 3, while some pass at kappa_bar = 2.
    """

    @staticmethod
    def best_radius(kappa_bar):
        model = demo_model("full")
        gains = [solve_low_gain_dare(model.A, model.B, 10.0 ** -p).K
                 for p in range(1, 10)]
        return min(max(delay_loop_radii(model.A, model.B, -rho * K,
                                        kappa_bar))
                   for K in gains for rho in np.geomspace(0.05, 20.0, 20))

    def test_no_design_passes_at_the_bound(self):
        assert not 1.0 - self.best_radius(3) > CERTIFICATE_THRESHOLD

    def test_some_design_passes_below_the_bound(self):
        assert 1.0 - self.best_radius(2) > CERTIFICATE_THRESHOLD


class TestSweptDesign:
    """The fully automatic design (no pinned epsilon) on the benchmark model.

    Its epsilon* lands near 2e-7, which puts the slowest delayed root around
    0.9997; one long run at the worst-case delay profile checks that the
    certificate's verdict matches reality.
    """

    def test_certificate_and_worst_delay_convergence(self):
        design = design_protocol(demo_model("full"), 2, mode="full")
        assert not hasattr(design, "epsilon")  # held once, as epsilon_star
        rep = closed_loop_certificate(design)
        assert rep.passed
        np.testing.assert_allclose(rep.radii,
                                   [0.9994057, 0.9994855, 0.9997041],
                                   rtol=0, atol=1e-6)
        traj = simulate(design.model, design, cycle3_graph(),
                        DelayProfile.from_list([2, 2, 2], 2),
                        _initial_states(3), XR0, 36000)
        conv = convergence_report(traj)
        assert conv.converged, f"final error {conv.final_error:.3e}"


class TestConvergenceReport:
    def test_synchronized_run(self, bench_design):
        g = cycle3_graph()
        traj = simulate(bench_design.model, bench_design, g,
                        DelayProfile.from_list([1, 1, 2], 2),
                        np.tile(XR0, (3, 1)), XR0, 60)
        rep = convergence_report(traj)
        assert rep.converged
        assert rep.final_error == 0.0

    def test_bench_run_converges_at_default_tolerance(self, bench_design):
        traj = simulate(bench_design.model, bench_design, cycle3_graph(),
                        DelayProfile.from_list([1, 1, 2], 2),
                        _initial_states(3), XR0, 3000)
        rep = convergence_report(traj, tol=1e-3)
        assert rep.converged
        assert rep.decay_ratio < 1e-6

    def test_weak_gain_does_not_converge(self):
        # fast oscillator with the loop gain overridden far below its
        # designed value: the delayed loop barely moves the error
        model_A = rotation(1.5)
        from delaysync import AgentModel
        model = AgentModel(A=model_A, B=np.array([[1.0], [0.0]]),
                           C=np.eye(2))
        good = design_protocol(model, 1, mode="full", epsilon=1e-3)
        weak = dataclasses.replace(good, rho=0.1)
        traj = simulate(model, weak, cycle3_graph(),
                        DelayProfile.from_list([1, 1, 1], 1),
                        np.array([[2.0, -1.0], [-2.0, 1.5], [1.0, 2.0]]),
                        np.array([0.0, 1.0]), 2000)
        rep = convergence_report(traj)
        assert not rep.converged
        assert rep.final_error > 1.0

    def test_short_series_rejected(self, bench_design):
        traj = simulate(bench_design.model, bench_design, cycle3_graph(),
                        DelayProfile.from_list([1, 1, 2], 2),
                        _initial_states(3), XR0, 5)
        with pytest.raises(ValueError):
            convergence_report(traj)
