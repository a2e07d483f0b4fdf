import inspect
import math

import numpy as np
import pytest

import delaysync.design
from delaysync import (AgentModel, choose_epsilon_star, choose_rho,
                       choose_theta, delay_admissible, design_observer,
                       design_protocol, estimate_mu, is_schur_stable,
                       omega_max, validate_assumptions)
from delaysync.demos import demo_model
from delaysync.design import EPSILON_SWEEP, _low_band_stable
from delaysync.errors import AssumptionError, DesignError
from delaysync.riccati import solve_low_gain_dare
from delaysync.spectral import spectral_radius

from conftest import BENCH_A, BENCH_B, BENCH_C, BENCH_F, block_diag, rotation


class TestDelayAdmissible:
    def test_stable_dynamics_admit_any_bound(self):
        A = 0.5 * np.eye(3)
        for kappa_bar in (0, 1, 10, 1000):
            assert delay_admissible(A, kappa_bar)

    def test_bench_bound_is_three(self):
        for kappa_bar in (0, 1, 2):
            assert delay_admissible(BENCH_A, kappa_bar)
        assert not delay_admissible(BENCH_A, 3)

    def test_quarter_turn_boundary(self):
        # omega_max = pi/2, so even a single delay step hits the boundary
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert delay_admissible(A, 0)
        assert not delay_admissible(A, 1)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            delay_admissible(BENCH_A, -1)


class TestChooseRho:
    def test_delay_free_floor(self):
        assert choose_rho(0, 0.0) == pytest.approx(0.525)
        assert choose_rho(5, 0.0) == pytest.approx(0.525)

    def test_bench_pair(self):
        # cos(2 * pi/6) = 1/2, so the critical gain is exactly 1
        assert choose_rho(2, math.pi / 6) == pytest.approx(1.05)

    def test_blows_up_near_boundary(self):
        assert choose_rho(1, 1.56) > 10.0

    def test_satisfies_gain_condition(self):
        for kappa_bar, w in [(0, 0.0), (1, 0.3), (2, math.pi / 6), (3, 0.5)]:
            rho = choose_rho(kappa_bar, w)
            assert rho * math.cos(kappa_bar * w) > 0.5

    def test_inadmissible_product_rejected(self):
        with pytest.raises(DesignError):
            choose_rho(1, math.pi / 2)


class TestChooseTheta:
    def test_delay_free_covers_whole_band(self):
        assert choose_theta(0.525, 0, 0.2) == pytest.approx(math.pi - 0.2)

    def test_bench_substitution_identity(self):
        # theta is defined by rho cos(kappa_bar (omega + theta)) = 0.51
        theta = choose_theta(1.05, 2, math.pi / 6)
        assert theta > 0
        assert 1.05 * math.cos(2 * (math.pi / 6 + theta)) \
            == pytest.approx(0.51, abs=1e-12)

    def test_larger_rho_widens_band(self):
        base = choose_theta(1.05, 2, math.pi / 6)
        assert choose_theta(2.1, 2, math.pi / 6) > base

    def test_band_capped_at_pi(self):
        theta = choose_theta(100.0, 1, 0.1)
        assert 0.1 + theta <= math.pi + 1e-12

    def test_tiny_headroom_still_positive(self):
        # rho barely above critical: safety shrinks instead of failing
        w = math.pi / 6
        rho = 0.5 / math.cos(2 * w) * 1.001
        theta = choose_theta(rho, 2, w)
        assert theta > 0
        assert rho * math.cos(2 * (w + theta)) > 0.5

    def test_rho_below_bound_rejected(self):
        with pytest.raises(DesignError):
            choose_theta(0.9, 2, math.pi / 6)


class TestEstimateMu:
    def test_zero_dynamics(self):
        # sigma_min(e^{jw} I) = 1 for every w, times the 0.9 safety factor
        theta = choose_theta(0.525, 0, 0.0)
        assert estimate_mu(np.zeros((3, 3)), 0.0, theta) == pytest.approx(0.9)

    def test_bench_reproducible(self):
        theta = choose_theta(1.05, 2, math.pi / 6)
        first = estimate_mu(BENCH_A, math.pi / 6, theta)
        assert first > 0
        assert estimate_mu(BENCH_A, math.pi / 6, theta) == first

    def test_wider_band_never_shrinks_mu(self):
        w = math.pi / 6
        theta = choose_theta(1.05, 2, w)
        assert estimate_mu(BENCH_A, w, theta / 2) <= \
            estimate_mu(BENCH_A, w, theta) + 1e-15


class TestChooseEpsilonStar:
    def test_zero_dynamics_accepts_top_of_sweep(self):
        A = np.zeros((2, 2))
        B = np.array([[1.0], [0.0]])
        sol = choose_epsilon_star(A, B, 0.525, 0.9, 0, 0.0, math.pi)
        assert sol.epsilon >= 1e-2

    def test_bench_sweep_accepts_and_is_monotone(self):
        w = math.pi / 6
        rho = 1.05
        theta = choose_theta(rho, 2, w)
        mu = estimate_mu(BENCH_A, w, theta)
        accepted = choose_epsilon_star(BENCH_A, BENCH_B, rho, mu, 2, w, theta)
        eps_star = accepted.epsilon
        assert eps_star > 0
        # the accepted solution is the solve at eps*
        sol = solve_low_gain_dare(BENCH_A, BENCH_B, eps_star)
        assert np.array_equal(accepted.K, sol.K)
        assert np.array_equal(accepted.P, sol.P)
        # every sweep point at or below the accepted value is also accepted
        for eps in [e for e in EPSILON_SWEEP if e <= eps_star]:
            sol = solve_low_gain_dare(BENCH_A, BENCH_B, eps)
            BK = BENCH_B @ sol.K
            assert rho * np.linalg.norm(BK, 2) <= mu / 2
            assert _low_band_stable(BENCH_A, BK, rho, 2, w, theta)

    def test_exhausted_sweep_reports_diagnostics(self):
        with pytest.raises(DesignError, match="condition"):
            choose_epsilon_star(BENCH_A, BENCH_B, 1.05, 1e-15, 2,
                                math.pi / 6, 0.008)


class TestDesignObserver:
    def test_identity_output(self):
        F = design_observer(BENCH_A, np.eye(3))
        assert spectral_radius(BENCH_A - F @ np.eye(3)) <= 0.9

    def test_bench_output(self):
        F = design_observer(BENCH_A, BENCH_C)
        assert F.shape == (3, 1)
        assert spectral_radius(BENCH_A - F @ BENCH_C) <= 0.9

    def test_known_good_injection_is_schur(self):
        # reference gain (2.1321, 0.5469, 1.0299): a valid but not required output
        assert is_schur_stable(BENCH_A - BENCH_F @ BENCH_C)

    def test_detectable_with_unobservable_stable_mode(self):
        A = block_diag([np.array([[0.3]]), rotation(math.pi / 4)])
        C = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        F = design_observer(A, C)
        assert spectral_radius(A - F @ C) <= 0.9

    def test_undetectable_rejected(self):
        A = block_diag([rotation(0.5), np.array([[0.2]])])
        C = np.array([[0.0, 0.0, 1.0]])  # boundary modes unobserved
        with pytest.raises(AssumptionError):
            design_observer(A, C)


class TestDesignProtocol:
    def test_bench_full_state_pinned(self, bench_full):
        d = design_protocol(bench_full, 2, mode="full", epsilon=1e-3)
        assert d.mode == "full"
        assert d.epsilon == pytest.approx(1e-3)
        assert d.rho == pytest.approx(1.05)
        assert d.F is None
        assert is_schur_stable(BENCH_A - d.rho * BENCH_B @ d.K)
        assert d.rho * math.cos(d.kappa_bar * d.omega_max) > 0.5

    def test_bench_partial_state_pinned(self, bench_partial):
        d = design_protocol(bench_partial, 2, mode="partial", epsilon=1e-5)
        assert d.F is not None
        assert spectral_radius(BENCH_A - d.F @ BENCH_C) <= 0.9
        assert is_schur_stable(BENCH_A - d.rho * BENCH_B @ d.K)

    def test_inadmissible_delay_bound_rejected(self, bench_full):
        with pytest.raises(DesignError) as err:
            design_protocol(bench_full, 3)
        assert err.value.stage == "delay_admissibility"

    def test_pinned_rho_validated(self, bench_full):
        with pytest.raises(DesignError):
            design_protocol(bench_full, 2, epsilon=1e-3, rho=0.8)

    def test_pinned_epsilon_validated(self, bench_full):
        with pytest.raises(DesignError):
            design_protocol(bench_full, 2, epsilon=2.0)

    def test_bad_mode_rejected(self, bench_full):
        with pytest.raises(ValueError):
            design_protocol(bench_full, 2, mode="both")

    def test_assumption_gate(self):
        bad = AgentModel(A=1.5 * np.eye(2), B=np.ones((2, 1)), C=np.eye(2))
        with pytest.raises(AssumptionError):
            design_protocol(bad, 1)

    def test_pure_function_of_inputs(self, bench_full):
        d1 = design_protocol(bench_full, 2, mode="full", epsilon=1e-3)
        d2 = design_protocol(bench_full, 2, mode="full", epsilon=1e-3)
        assert np.array_equal(d1.K, d2.K)
        assert np.array_equal(d1.P, d2.P)
        assert (d1.epsilon_star, d1.rho, d1.theta, d1.mu) \
            == (d2.epsilon_star, d2.rho, d2.theta, d2.mu)

    def test_scale_free_signature(self):
        # the designer cannot read the network: no graph/N/delay-profile args
        params = set(inspect.signature(design_protocol).parameters)
        assert params == {"model", "kappa_bar", "mode", "epsilon", "rho"}

    def test_epsilon_star_ignores_output_map_in_full_mode(self):
        A = 0.5 * np.eye(3)
        B = np.array([[1.0], [0.0], [1.0]])
        m1 = AgentModel(A=A, B=B, C=np.eye(3))
        m2 = AgentModel(A=A, B=B, C=np.array([[1.0, 2.0, 3.0]]))
        d1 = design_protocol(m1, 1, mode="full")
        d2 = design_protocol(m2, 1, mode="full")
        assert d1.epsilon_star == d2.epsilon_star

    def test_validate_assumptions_names_failures(self):
        bad = AgentModel(A=np.eye(2), B=np.zeros((2, 1)), C=np.zeros((1, 2)))
        with pytest.raises(AssumptionError) as err:
            validate_assumptions(bad)
        msg = str(err.value)
        assert "stabilizable" in msg and "detectable" in msg

    def test_one_solve_per_sweep_point(self, monkeypatch):
        # the swept design reuses the solution the sweep accepted, and a
        # pinned epsilon is solved exactly once
        model = demo_model("full")
        calls = []

        def counting(A, B, epsilon):
            calls.append(epsilon)
            return solve_low_gain_dare(A, B, epsilon)

        monkeypatch.setattr(delaysync.design, "solve_low_gain_dare", counting)
        d = design_protocol(model, 2)
        assert calls == list(EPSILON_SWEEP[:24])
        assert d.epsilon == d.epsilon_star == EPSILON_SWEEP[23]
        assert d.epsilon == pytest.approx(10.0 ** -6.75)
        w = omega_max(model.A)
        theta = choose_theta(d.rho, 2, w)
        accepted = choose_epsilon_star(model.A, model.B, d.rho,
                                       estimate_mu(model.A, w, theta), 2, w,
                                       theta)
        assert np.array_equal(d.K, accepted.K)
        assert np.array_equal(d.P, accepted.P)

        calls.clear()
        design_protocol(model, 2, epsilon=1e-3)
        assert calls == [1e-3]

    def test_omega_max_consistency(self, bench_full):
        d = design_protocol(bench_full, 2, epsilon=1e-3)
        assert d.omega_max == omega_max(BENCH_A)
