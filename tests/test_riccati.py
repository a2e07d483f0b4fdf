import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import conftest
import delaysync.riccati
from delaysync import (AgentModel, check_lambda_stabilized, dare_residual,
                       feedback_gain, gain_disc, is_schur_stable, omega_max,
                       solve_low_gain_dare)
from delaysync.design import _SWEEP_CHUNK, EPSILON_SWEEP, estimate_mu
from delaysync.errors import (AssumptionError, ConvergenceError,
                              DegenerateInputError, DimensionError,
                              ScenarioError)
from delaysync.riccati import (DARE_MAX_ITER, _doubling, _frobenius,
                               _low_gain_dare, _polish, is_detectable,
                               is_stabilizable)

from conftest import (BENCH_A, BENCH_B, _serial_low_gain_dare, _serial_polish,
                      random_admissible_model, rotation)

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
        # the closed-disc rule and its message are omega_max's
        with pytest.raises(AssumptionError) as err:
            solve_low_gain_dare(1.5 * np.eye(1), np.eye(1), 0.5)
        with pytest.raises(AssumptionError) as owner:
            omega_max(1.5 * np.eye(1))
        assert str(err.value) == str(owner.value)


#: every public reader of model matrices, called on (A, B, C, P), and the
#: matrices it reads
READERS = {
    "AgentModel": (lambda A, B, C, P: AgentModel(A=A, B=B, C=C), "ABC"),
    "solve_low_gain_dare": (
        lambda A, B, C, P: solve_low_gain_dare(A, B, 0.5), "AB"),
    "is_stabilizable": (lambda A, B, C, P: is_stabilizable(A, B), "AB"),
    "is_detectable": (lambda A, B, C, P: is_detectable(A, C), "AC"),
    "feedback_gain": (lambda A, B, C, P: feedback_gain(A, B, P), "ABP"),
    "dare_residual": (lambda A, B, C, P: dare_residual(A, B, P, 0.5), "ABP"),
    "estimate_mu": (lambda A, B, C, P: estimate_mu(A, 0.0, 1.0), "A"),
}


def test_c_rule_has_one_text_and_checks_a_first():
    # AgentModel and is_detectable share one C check, behind the A check
    with pytest.raises(DimensionError,
                       match=r"^A must be square, got shape \(1, 3\)$"):
        is_detectable(np.ones((1, 3)), np.ones((1, 3)))
    messages = set()
    for read in (lambda C: AgentModel(A=np.eye(2), B=np.ones((2, 1)), C=C),
                 lambda C: is_detectable(np.eye(2), C)):
        with pytest.raises(DimensionError) as err:
            read(np.ones((1, 3)))
        messages.add(str(err.value))
    assert messages == {"C must be qx2, got shape (1, 3)"}


@pytest.mark.parametrize("entry", [True, "0.5"])
@pytest.mark.parametrize("reader, name", [
    (reader, name) for reader, (_, names) in READERS.items()
    for name in names])
def test_matrices_read_by_the_real_number_rule(reader, name, entry):
    # the rule AgentModel applies holds for the public Riccati API too:
    # a flag or a quoted number is named, never read as a number
    matrices = {"A": [[0.5, 0.0], [0.0, 0.8]], "B": [[1.0], [1.0]],
                "C": [[1.0, 0.0]], "P": [[1.0, 0.0], [0.0, 1.0]]}
    matrices[name][-1][-1] = entry
    at = "(0, 1)" if name == "C" else "(1, 0)" if name == "B" else "(1, 1)"
    with pytest.raises(ScenarioError) as err:
        READERS[reader][0](**matrices)
    assert str(err.value) == (f"non-numeric or boolean {name}: entry {at} "
                              f"is {entry!r}")


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


def _outcome(solve, *args):
    """A solve's DareSolution, or the message of its ConvergenceError."""
    try:
        return solve(*args)
    except ConvergenceError as exc:
        return str(exc)


def _stacked(A, B, epsilons, H=None, iterations=None):
    """Outcome per point of the stacked polish, by default of the stacked
    doubling's H: its DareSolution or its ConvergenceError's message."""
    if H is None:
        H, iterations = _doubling(A, B, epsilons)
    return [str(sol) if isinstance(sol, ConvergenceError) else sol
            for sol in _polish(A, B, epsilons, H, iterations)]


def _assert_bit_identical(got, want):
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return
    assert np.array_equal(got.P, want.P)
    assert np.array_equal(got.K, want.K)
    assert (got.epsilon, got.gamma, got.residual, got.iterations) \
        == (want.epsilon, want.gamma, want.residual, want.iterations)


def _sweep_stacks():
    """(start, stop) of the whole sweep as one stack and of the sweep's
    own chunks: the top point alone, then _SWEEP_CHUNK at a time."""
    bounds = (0, *range(1, len(EPSILON_SWEEP), _SWEEP_CHUNK),
              len(EPSILON_SWEEP))
    return [(0, len(EPSILON_SWEEP)), *zip(bounds, bounds[1:])]


class TestStackedDoubling:
    """The doubling and the polish run on a stack of epsilons; every point
    must come out as the serial doubling-plus-polish at that epsilon alone
    gives it."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2]))
    def test_reproduces_serial_oracle(self, seed, m):
        A, B = random_admissible_model(np.random.default_rng(seed), n_max=6,
                                       m=m)
        want = [_outcome(_serial_low_gain_dare, A, B, eps)
                for eps in EPSILON_SWEEP]
        for lo, hi in _sweep_stacks():
            for got, serial in zip(_stacked(A, B, EPSILON_SWEEP[lo:hi]),
                                   want[lo:hi]):
                _assert_bit_identical(got, serial)
        for eps, serial in zip(EPSILON_SWEEP[:2], want):
            _assert_bit_identical(_outcome(_low_gain_dare, A, B, eps), serial)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda k: st.integers(1, 7).flatmap(
        lambda n: arrays(np.float64, (k, n, n), elements=st.floats(
            -1e3, 1e3, allow_nan=False, allow_subnormal=False)))))
    def test_stopping_norm_is_numpys_frobenius_norm(self, stack):
        # the stopping test must see the very norm the serial test took;
        # a sum of squares or an einsum differs in the last bit
        assert _frobenius(stack).tolist() \
            == [np.linalg.norm(M, "fro") for M in stack]

    def test_points_freeze_at_different_steps(self):
        # the bench agent's sweep stops its doubling anywhere from step 8
        # to 18, so the whole-sweep stack drops points along the way
        _, iterations = _doubling(BENCH_A, BENCH_B, EPSILON_SWEEP)
        assert np.unique(iterations).size > 3
        for lo, hi in _sweep_stacks():
            for got, eps in zip(_stacked(BENCH_A, BENCH_B,
                                         EPSILON_SWEEP[lo:hi]),
                                EPSILON_SWEEP[lo:hi]):
                _assert_bit_identical(
                    got, _serial_low_gain_dare(BENCH_A, BENCH_B, eps))

    @pytest.mark.parametrize("budget", [5, 12])
    def test_iteration_budget_as_in_serial_oracle(self, monkeypatch, budget):
        # a budget below a point's doubling steps freezes it unconverged,
        # mid-stack at 12, and its polish fails as the serial solve failed
        for module in (delaysync.riccati, conftest):
            monkeypatch.setattr(module, "DARE_MAX_ITER", budget)
        outcomes = []
        for lo, hi in _sweep_stacks():
            for got, eps in zip(_stacked(BENCH_A, BENCH_B,
                                         EPSILON_SWEEP[lo:hi]),
                                EPSILON_SWEEP[lo:hi]):
                _assert_bit_identical(got, _outcome(
                    _serial_low_gain_dare, BENCH_A, BENCH_B, eps))
                outcomes.append(isinstance(got, str))
        if budget == 5:
            assert all(outcomes)
        else:
            assert 0 < sum(outcomes) < len(outcomes)


#: weakly actuated models whose doubled H misses DARE_TOL at the larger
#: epsilons, so the fixed-point polish runs: it converges, stalls at the
#: rounding floor of a large P, or runs out of budget
WEAK = [(np.eye(1), 1e-4 * np.eye(1)), (np.eye(1), 1e-5 * np.eye(1)),
        (np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[0.0], [1e-3]]))]


class TestStackedPolish:
    """Only the points above DARE_TOL run the fixed-point polish, each with
    its own steps, stall count and budget, as the serial polish ran them."""

    @pytest.mark.parametrize("budget", [None, 100])
    def test_fixed_point_polish_as_in_serial_oracle(self, monkeypatch,
                                                    budget):
        if budget is not None:
            for module in (delaysync.riccati, conftest):
                monkeypatch.setattr(module, "DARE_MAX_ITER", budget)
        epsilons = (1.0, 1e-2, 1e-3, 1e-4)
        kinds = set()
        for A, B in WEAK:
            doubled = _doubling(A, B, epsilons)[1]
            for got, eps, steps in zip(_stacked(A, B, epsilons), epsilons,
                                       doubled):
                _assert_bit_identical(
                    got, _outcome(_serial_low_gain_dare, A, B, eps))
                kinds.add(got.split(" at residual")[0].split(" (")[0]
                          if isinstance(got, str)
                          else "polished" if got.iterations > steps
                          else "doubled")
        want = {"doubled", "polished", "DARE polish stalled"}
        if budget is not None:
            want.add(f"DARE solver exhausted {budget} iterations")
        assert kinds == want

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2]))
    def test_perturbed_stack_as_in_serial_oracle(self, seed, m):
        # starting points off the doubling's, near the end of the budget:
        # the stack mixes points that converge, run out and stall
        rng = np.random.default_rng(seed)
        A, B = random_admissible_model(rng, n_max=5, m=m)
        B = B * 10.0 ** rng.uniform(-3.0, 0.0)
        epsilons = rng.choice(EPSILON_SWEEP, size=6, replace=False)
        H, _ = _doubling(A, B, epsilons)
        E = rng.normal(size=H.shape)
        H = H + 10.0 ** rng.uniform(-14.0, -6.0, size=(6, 1, 1)) \
            * np.abs(H).max() * (E + E.mT)
        iterations = DARE_MAX_ITER - rng.integers(0, 60, size=6)
        for got, eps, P, count in zip(_stacked(A, B, epsilons, H, iterations),
                                      epsilons, H, iterations):
            _assert_bit_identical(got, _outcome(_serial_polish, A, B, eps, P,
                                                int(count)))
