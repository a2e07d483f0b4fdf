import math

import numpy as np
import pytest
import scipy.linalg

from delaysync import (check_lambda_stabilized, dare_residual, feedback_gain,
                       gain_disc, is_schur_stable, solve_low_gain_dare)
from delaysync.errors import AssumptionError, DegenerateInputError
from delaysync.riccati import is_detectable, is_stabilizable

from conftest import BENCH_A, BENCH_B, random_admissible_model, rotation

GOLDEN = (1 + math.sqrt(5)) / 2  # scalar solution of P^2 = eps (1 + P) at eps=1


class TestSolveLowGainDare:
    def test_zero_dynamics_gives_eps_identity(self):
        sol = solve_low_gain_dare(np.zeros((1, 1)), np.ones((1, 1)), 0.25)
        assert sol.P[0, 0] == pytest.approx(0.25, abs=1e-14)
        assert sol.K[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_scalar_closed_form(self):
        # eps = 1, A = B = 1: P^2 - P - 1 = 0, the golden ratio
        sol = solve_low_gain_dare(np.eye(1), np.eye(1), 1.0)
        assert sol.P[0, 0] == pytest.approx(GOLDEN, abs=1e-12)
        assert sol.K[0, 0] == pytest.approx(GOLDEN / (1 + GOLDEN), abs=1e-12)

    def test_bench_residual_and_margin(self):
        sol = solve_low_gain_dare(BENCH_A, BENCH_B, 1e-3)
        assert sol.residual <= 1e-12
        assert dare_residual(BENCH_A, BENCH_B, sol.P, 1e-3) <= 1e-12
        assert is_schur_stable(BENCH_A - 1.05 * BENCH_B @ sol.K)

    @pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
    def test_matches_scipy_oracle(self, eps):
        sol = solve_low_gain_dare(BENCH_A, BENCH_B, eps)
        ref = scipy.linalg.solve_discrete_are(BENCH_A, BENCH_B,
                                              eps * np.eye(3), np.eye(1))
        np.testing.assert_allclose(sol.P, ref, rtol=1e-8, atol=1e-12)

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            A, B = random_admissible_model(rng)
            sol = solve_low_gain_dare(A, B, 1e-2)
            np.testing.assert_allclose(sol.P, sol.P.T, atol=1e-10)
            assert np.linalg.eigvalsh(sol.P).min() > 0
            assert is_schur_stable(A - B @ sol.K)
            # the stored gain is exactly the gain recomputed from P
            assert np.array_equal(sol.K, feedback_gain(A, B, sol.P))

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            A, B = random_admissible_model(rng)
            P_small = solve_low_gain_dare(A, B, 1e-3).P
            P_large = solve_low_gain_dare(A, B, 1e-1).P
            assert np.linalg.eigvalsh(P_large - P_small).min() >= -1e-9

    def test_low_gain_limit_strictly_decreasing(self):
        A = rotation(0.9)  # neutrally stable test dynamics
        B = np.array([[1.0], [0.5]])
        norms = [np.linalg.norm(solve_low_gain_dare(A, B, 10.0 ** -e).K, 2)
                 for e in range(1, 7)]
        assert all(a > b for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-2

    def test_epsilon_domain(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                solve_low_gain_dare(np.eye(1), np.eye(1), bad)

    def test_unstabilizable_rejected(self):
        with pytest.raises(AssumptionError):
            solve_low_gain_dare(np.eye(1), np.zeros((1, 1)), 0.5)

    def test_spectrum_outside_disc_rejected(self):
        with pytest.raises(AssumptionError):
            solve_low_gain_dare(1.5 * np.eye(1), np.eye(1), 0.5)


class TestGeneralDare:
    def test_matches_scipy_on_general_weights(self):
        # the general case of the one Riccati family: two inputs, so
        # I + B'PB is a matrix and BB' has rank two
        rng = np.random.default_rng(9)
        A, B = random_admissible_model(rng, n_max=3, m=2)
        n = A.shape[0]
        for eps in (1e-1, 1e-3):
            sol = solve_low_gain_dare(A, B, eps)
            assert sol.residual <= 1e-12
            assert sol.K.shape == (2, n)
            ref = scipy.linalg.solve_discrete_are(A, B, eps * np.eye(n),
                                                  np.eye(2))
            np.testing.assert_allclose(sol.P, ref, rtol=1e-8, atol=1e-10)


class TestFeedbackGain:
    def test_zero_solution(self):
        assert feedback_gain(np.eye(2), np.ones((2, 1)), np.zeros((2, 2))) \
            == pytest.approx(np.zeros((1, 2)))

    def test_scalar(self):
        K = feedback_gain(np.eye(1), np.eye(1), GOLDEN * np.eye(1))
        assert K[0, 0] == pytest.approx(GOLDEN / (1 + GOLDEN), abs=1e-12)

    def test_zero_input_matrix(self):
        K = feedback_gain(np.eye(2), np.zeros((2, 1)), np.eye(2))
        np.testing.assert_allclose(K, np.zeros((1, 2)))


class TestGainDisc:
    def test_scalar_golden_geometry(self):
        disc = gain_disc(solve_low_gain_dare(np.eye(1), np.eye(1), 1.0))
        assert disc.gamma == pytest.approx(GOLDEN, abs=1e-12)
        assert disc.center == pytest.approx(1 + 1 / GOLDEN, abs=1e-12)
        # sqrt(1 + phi) = phi, so the radius is exactly one
        assert disc.radius == pytest.approx(1.0, abs=1e-12)
        assert disc.contains(1.0)

    def test_disc_grows_to_cover_half_plane(self):
        lam = 0.6
        hits = [gain_disc(solve_low_gain_dare(np.eye(1), np.eye(1), d))
                .contains(lam)
                for d in (1.0, 0.5, 0.1, 0.05, 0.01, 0.001)]
        assert hits[-1]
        first = hits.index(True)
        assert all(hits[first:])  # once inside, stays inside as delta shrinks

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInputError):
            gain_disc(solve_low_gain_dare(0.5 * np.eye(2), np.zeros((2, 1)),
                                          0.5))


class TestLambdaStabilized:
    def test_zero_gain_reduces_to_A(self):
        A, B = 0.5 * np.eye(2), np.ones((2, 1))
        assert check_lambda_stabilized(A, B, solve_low_gain_dare(A, B, 0.5),
                                       0.0)

    def test_scalar_cases(self):
        # A = B = 1, delta = 1: loop is 1 - lam * phi/(1+phi) = 1 - 0.618 lam
        one = np.eye(1)
        sol = solve_low_gain_dare(one, one, 1.0)
        assert check_lambda_stabilized(one, one, sol, 1.0)
        assert check_lambda_stabilized(one, one, sol, 3.0)
        assert not check_lambda_stabilized(one, one, sol, 4.0)

    def test_disc_membership_implies_stable(self):
        rng = np.random.default_rng(17)
        A, B = random_admissible_model(rng)
        sol = solve_low_gain_dare(A, B, 0.1)
        disc = gain_disc(sol)
        for _ in range(50):
            while True:  # rejection sampling from the bounding box
                z = complex(rng.uniform(disc.center - disc.radius,
                                        disc.center + disc.radius),
                            rng.uniform(-disc.radius, disc.radius))
                if disc.contains(z):
                    break
            assert check_lambda_stabilized(A, B, sol, z)


class TestPbh:
    def test_stabilizable_examples(self):
        assert is_stabilizable(BENCH_A, BENCH_B)
        assert not is_stabilizable(np.eye(2), np.zeros((2, 1)))
        # unstable mode in the uncontrollable subspace
        A = np.diag([1.0, 0.5])
        B = np.array([[0.0], [1.0]])
        assert not is_stabilizable(A, B)
        # stable uncontrollable mode is fine
        assert is_stabilizable(np.diag([0.5, 1.0]), np.array([[0.0], [1.0]]))

    def test_detectable_examples(self):
        assert is_detectable(BENCH_A, np.array([[1.0, 0.0, 0.0]]))
        assert not is_detectable(np.eye(2), np.zeros((1, 2)))
