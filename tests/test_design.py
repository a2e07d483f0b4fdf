import inspect
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import delaysync.design
import delaysync.riccati
from delaysync import (AgentModel, choose_rho, choose_theta,
                       closed_loop_certificate, delay_admissible,
                       design_protocol, estimate_mu, is_schur_stable,
                       omega_max, validate_assumptions)
from delaysync.demos import demo_model, demo_scenario
from delaysync.design import (EPSILON_SWEEP, MU_GRID_POINTS,
                              choose_epsilon_star, design_observer)
from delaysync.errors import (AssumptionError, ConvergenceError,
                              DesignError, DimensionError, ScenarioError)
from delaysync.riccati import solve_low_gain_dare
from delaysync.spectral import spectral_radius
from delaysync.verify import CERTIFICATE_THRESHOLD, delay_loop_radii

from conftest import (BENCH_A, BENCH_B, BENCH_C, BENCH_F,
                      _serial_low_gain_dare, _serial_sweep, block_diag,
                      random_admissible_model, rotation)
from test_acceptance import _battery

#: the stage tags design_protocol's DesignError can carry: not "theta",
#: which choose_rho's rho always clears (headroom at least 0.025)
DESIGN_STAGES = {"delay_admissibility", "mu", "epsilon", "observer"}

#: the random model family the benchmark designs, with each recorded eps*
FAMILY = json.loads((pathlib.Path(__file__).parents[1] / "perfbench" / "data"
                     / "models.json").read_text())["models"]


class TestAgentModel:
    @pytest.mark.parametrize("A", [[[1], [2, 3]], [[1.0], [2.0, [3.0]]],
                                   [np.zeros(1), np.zeros(2)]])
    def test_ragged_rows_rejected(self, A):
        with pytest.raises(DimensionError, match="A has rows of unequal"):
            AgentModel(A=A, B=[[1.0]], C=[[1.0]])

    @pytest.mark.parametrize("name", ["A", "B", "C"])
    @pytest.mark.parametrize("entry", ["0.5", True, np.True_, None, 1j])
    def test_entries_must_be_real_numbers(self, name, entry):
        # a quoted number or a flag is not a matrix entry, as for delays
        parts = {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], name: [[entry]]}
        with pytest.raises(ScenarioError, match=f"non-numeric or boolean "
                                                f"{name}"):
            AgentModel(**parts)

    def test_boolean_array_rejected(self):
        with pytest.raises(ScenarioError, match="boolean"):
            AgentModel(A=np.array([[True]]), B=[[1.0]], C=[[1.0]])

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(ScenarioError, match="beyond the float range"):
            AgentModel(A=[[10 ** 400]], B=[[1.0]], C=[[1.0]])

    def test_bad_entry_named_briefly(self):
        # a 301 x 300 A with a row of flags: the first is named, by index
        # and value, and the message does not repeat the matrix
        A = np.zeros((301, 300)).tolist()
        A[300] = [True] * 300
        with pytest.raises(ScenarioError) as err:
            AgentModel(A=A, B=[[1.0]], C=[[1.0]])
        assert str(err.value) == ("non-numeric or boolean A: "
                                  "entry (300, 0) is True")
        with pytest.raises(ScenarioError) as err:
            AgentModel(A=[[0.5, 10 ** 400]], B=[[1.0]], C=[[1.0]])
        assert len(str(err.value)) < 100

    def test_numbers_accepted(self):
        m = AgentModel(A=[[1, 0.5], [np.float32(0.25), np.int8(2)]],
                       B=np.array([[1], [0]]), C=[np.array([1.0, 0.0])])
        assert m.A.dtype == m.B.dtype == m.C.dtype == np.float64
        assert m.A.tolist() == [[1.0, 0.5], [0.25, 2.0]]


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
        with pytest.raises(ValueError):  # choose_rho applies the same rule
            choose_rho(-1, 0.3)


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
        # choose_rho owns the rule design_protocol reports
        with pytest.raises(DesignError) as err:
            choose_rho(1, math.pi / 2)
        assert err.value.stage == "delay_admissibility"
        assert str(err.value).endswith("(omega_max = 1.5708, bound 1)")


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

    def test_band_on_an_eigenvalue_fails_at_mu_stage(self, monkeypatch):
        # eigenvalue -1 with kappa_bar = 0: theta = 0 and the band is the
        # single point pi, where sigma_min is rounding noise (about 1e-16);
        # the design fails at the mu stage, before any Riccati solve
        solves = []
        monkeypatch.setattr(delaysync.design, "_doubling",
                            lambda A, B, epsilons: solves.append(epsilons))
        model = AgentModel(A=np.diag([-1.0, 0.5]), B=np.ones((2, 1)),
                           C=np.eye(2))
        with pytest.raises(DesignError, match="rounding level") as info:
            design_protocol(model, 0)
        assert info.value.stage == "mu"
        assert solves == []


def _full_grid_mu(A, omega, theta):
    """estimate_mu's value as its first version computed it, decomposing all
    MU_GRID_POINTS grid matrices: the oracle it must equal bit for bit."""
    A = np.asarray(A, dtype=float)
    grid = np.linspace(omega + theta, math.pi, MU_GRID_POINTS)
    M = np.exp(1j * grid)[:, None, None] * np.eye(A.shape[0])[None] - A[None]
    return 0.9 * float(np.linalg.svd(M, compute_uv=False)[:, -1].min())


def _band(A, kappa_bar):
    """(omega_max, theta) of A's designed band at kappa_bar."""
    w = omega_max(A)
    return w, choose_theta(choose_rho(kappa_bar, w), kappa_bar, w)


@pytest.fixture
def svd_matrices(monkeypatch):
    """Counts the matrices numpy's batched (3-d) SVD calls decompose."""
    count = [0]
    svd = np.linalg.svd

    def counted(M, *args, **kwargs):
        if np.ndim(M) == 3:
            count[0] += M.shape[0]
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return count


class TestEstimateMuIsTheFullGridMinimum:
    def test_random_models(self):
        rng = np.random.default_rng(19)
        tested = 0
        while tested < 300:
            A, _ = random_admissible_model(rng, n_max=6)
            kappa_bar = int(rng.integers(0, 8))
            if not delay_admissible(A, kappa_bar):
                continue
            w, theta = _band(A, kappa_bar)
            assert estimate_mu(A, w, theta) == _full_grid_mu(A, w, theta)
            tested += 1
        # contractive models, where sigma_min varies slowly over the band
        # and the squared bound prunes most intervals
        for _ in range(100):
            n = int(rng.integers(1, 7))
            A = rng.normal(size=(n, n))
            A *= rng.uniform(0.01, 0.9) / np.linalg.norm(A, 2)
            w, theta = _band(A, int(rng.integers(0, 8)))
            assert estimate_mu(A, w, theta) == _full_grid_mu(A, w, theta)

    @pytest.mark.parametrize("kappa_bar", [0, 1, 2])
    def test_bench_agent(self, kappa_bar):
        w, theta = _band(BENCH_A, kappa_bar)
        assert estimate_mu(BENCH_A, w, theta) == \
            _full_grid_mu(BENCH_A, w, theta)

    def test_flat_sigma_decomposes_every_angle(self, svd_matrices):
        # A = 0: sigma_min is 1 at every angle, so no interval can be skipped
        A = np.zeros((2, 2))
        w, theta = _band(A, 1)
        full = _full_grid_mu(A, w, theta)
        svd_matrices[0] = 0
        assert estimate_mu(A, w, theta) == full
        assert svd_matrices[0] == MU_GRID_POINTS

    @pytest.mark.parametrize("a", [-0.9, 0.0, 0.3, 1.0])
    @pytest.mark.parametrize("kappa_bar", [0, 3])
    def test_scalar_models(self, a, kappa_bar):
        A = np.array([[a]])
        w, theta = _band(A, kappa_bar)
        assert estimate_mu(A, w, theta) == _full_grid_mu(A, w, theta)

    @pytest.mark.parametrize("angle", [0.3, math.pi / 6, 2.0])
    def test_band_one_grid_step_from_an_eigenvalue(self, angle):
        # the band's first grid point sits one grid step past e^{j angle},
        # where sigma_min falls to about one step
        A = rotation(angle)
        theta = (math.pi - angle) / MU_GRID_POINTS
        assert estimate_mu(A, angle, theta) == _full_grid_mu(A, angle, theta)

    def test_narrow_dip_inside_the_band(self):
        # a lightly damped mode at angle 2.0 puts a dip of width about 1e-3
        # between two coarse grid points
        A = block_diag([0.999 * rotation(2.0), np.array([[0.5]])])
        assert estimate_mu(A, 1.0, 0.5) == _full_grid_mu(A, 1.0, 0.5)

    @pytest.mark.parametrize("kappa_bar, most", [(2, 100), (0, 2)])
    def test_bench_agent_decomposes_few_matrices(self, svd_matrices,
                                                 kappa_bar, most):
        w, theta = _band(BENCH_A, kappa_bar)
        estimate_mu(BENCH_A, w, theta)
        assert 0 < svd_matrices[0] <= most

    def test_contractive_scalar_decomposes_few_matrices(self, svd_matrices):
        # the benchmark family's model family-0 at kappa_bar 6: sigma_min
        # rises by about 0.03 over a band of about 3.1, so the 1-Lipschitz
        # bound alone left 465 of its 2000 angles to decompose
        A = np.array([[0.02725023917627245]])
        w, theta = _band(A, 6)
        full = _full_grid_mu(A, w, theta)
        svd_matrices[0] = 0
        assert estimate_mu(A, w, theta) == full
        assert 0 < svd_matrices[0] <= 100

    @pytest.mark.parametrize("angle", [0.5, 2.0])
    def test_minimum_below_the_squared_rounding(self, angle):
        # a mode at radius 1 - 1e-7 on the band's second grid angle: the
        # grid minimum is about 1e-7, its square far below the squared
        # bound's slack, which then decides which intervals stay live
        grid = np.linspace(angle, math.pi, MU_GRID_POINTS)
        A = block_diag([(1.0 - 1e-7) * rotation(grid[1]),
                        np.array([[0.5]])])
        full = _full_grid_mu(A, angle, 0.0)
        assert full < 1e-6
        assert estimate_mu(A, angle, 0.0) == full


class TestChooseEpsilonStar:
    def test_zero_dynamics_accepts_top_of_sweep(self):
        A = np.zeros((2, 2))
        B = np.array([[1.0], [0.0]])
        sol = choose_epsilon_star(A, B, 0.525, 0.9, 0)
        assert sol.epsilon >= 1e-2

    def test_bench_sweep_accepts_and_is_monotone(self):
        w = math.pi / 6
        rho = 1.05
        theta = choose_theta(rho, 2, w)
        mu = estimate_mu(BENCH_A, w, theta)
        accepted = choose_epsilon_star(BENCH_A, BENCH_B, rho, mu, 2)
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
            radii = delay_loop_radii(BENCH_A, BENCH_B, -rho * sol.K, 2)
            assert 1.0 - max(radii) > CERTIFICATE_THRESHOLD

    def test_exhausted_sweep_reports_diagnostics(self):
        with pytest.raises(DesignError, match="condition"):
            choose_epsilon_star(BENCH_A, BENCH_B, 1.05, 1e-15, 2)

    @pytest.mark.parametrize("mu, kappa_bar, failing", [
        (1e-30, 2, "a"),  # no gain is below the floor
        (1e9, 4, "b"),    # past the delay bound no delayed loop is stable
        (4e-3, 4, "b"),   # and the gain is below the floor only low down
    ])
    def test_exhausted_sweep_names_last_point(self, mu, kappa_bar, failing):
        # the message judges the grid's last point as the one-by-one scan
        # did, lifts included, though the sweep decomposes lifts only for
        # points whose gain passes condition (a)
        rho = 1.05
        with pytest.raises(DesignError) as info:
            choose_epsilon_star(BENCH_A, BENCH_B, rho, mu, kappa_bar)
        sol = _serial_low_gain_dare(BENCH_A, BENCH_B, EPSILON_SWEEP[-1])
        a = rho * np.linalg.norm(BENCH_B @ sol.K, 2) <= mu / 2.0
        radius = max(delay_loop_radii(BENCH_A, BENCH_B, -rho * sol.K,
                                      kappa_bar))
        b = 1.0 - radius > CERTIFICATE_THRESHOLD
        assert not (a if failing == "a" else b)
        assert info.value.stage == "epsilon"
        assert str(info.value) == (
            "[epsilon] sweep exhausted without an acceptable epsilon; at "
            f"eps=1.000e-08 gain condition(a)={a}, delayed-loop condition"
            f"(b)={b} (largest lift radius {radius:.9g}, mu={mu:.3e}, "
            f"rho={rho:.6g})")

    def test_stalled_solve_fails_only_its_point(self, monkeypatch):
        # a Riccati solve that stalls at the first sweep point fails that
        # point only: eps* of the bench agent and the recorded family is
        # unchanged, or the next point where eps* was the first
        models = [(BENCH_A, BENCH_B, 2, 10.0 ** -6.75)] + [
            (np.array(e["A"]), np.array(e["B"]), e["kappa_bar"],
             e["epsilon_star"]) for e in FAMILY]
        polish = delaysync.design._polish
        stalled = []

        def stall_first(A, B, epsilons, H, iterations):
            sols = polish(A, B, epsilons, H, iterations)
            for i, eps in enumerate(epsilons):
                if eps == EPSILON_SWEEP[0]:
                    stalled.append(eps)
                    sols[i] = ConvergenceError("DARE polish stalled")
            return sols

        monkeypatch.setattr(delaysync.design, "_polish", stall_first)
        for A, B, kappa_bar, eps_star in models:
            d = design_protocol(AgentModel(A=A, B=B, C=np.eye(A.shape[0])),
                                kappa_bar)
            if eps_star == EPSILON_SWEEP[0]:
                eps_star = EPSILON_SWEEP[1]
            assert d.epsilon_star == eps_star
        assert len(stalled) == len(models)

    def test_exhausted_sweep_names_stalled_solves(self, monkeypatch):
        def stall(A, B, epsilons, H, iterations):
            return [ConvergenceError("DARE polish stalled") for _ in epsilons]

        monkeypatch.setattr(delaysync.design, "_polish", stall)
        with pytest.raises(DesignError, match=(
                r"did not converge at 29 of 29 points, first at "
                r"eps=1\.000e-01 \(DARE polish stalled\)")) as info:
            choose_epsilon_star(BENCH_A, BENCH_B, 1.05, 1.0, 2)
        assert info.value.stage == "epsilon"

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda k: st.integers(1, 7).flatmap(
        lambda n: arrays(np.float64, (k, n, n), elements=st.floats(
            -1e3, 1e3, allow_nan=False, allow_subnormal=False)))))
    def test_gain_norm_is_numpys_two_norm(self, stack):
        # condition (a) judges a stack's gains by numpy's stacked 2-norm
        # (one batched SVD); it must see the very norm the one-by-one scan
        # took
        assert np.linalg.norm(stack, 2, axis=(-2, -1)).tolist() \
            == [np.linalg.norm(M, 2) for M in stack]

    def test_delayed_loops_stable_when_gain_floor_never_binds(self):
        # with mu = 1e9 only the delayed-loop condition decides; the
        # largest sweep points have r_2 > 1 on the bench agent
        sol = choose_epsilon_star(BENCH_A, BENCH_B, 1.05, 1e9, 2)
        radii = delay_loop_radii(BENCH_A, BENCH_B, -1.05 * sol.K, 2)
        assert max(radii) < 1.0 - CERTIFICATE_THRESHOLD
        assert sol.epsilon == EPSILON_SWEEP[5]
        assert sol.epsilon == pytest.approx(10.0 ** -2.25)
        above = solve_low_gain_dare(BENCH_A, BENCH_B, EPSILON_SWEEP[4])
        assert delay_loop_radii(BENCH_A, BENCH_B, -1.05 * above.K, 2)[2] > 1


def assert_linear_scan(design):
    """The stacked sweep accepts, at the design's rho, mu and kappa_bar, the
    point the one-by-one scan of the serial solver accepted, with the same
    solution bit for bit; returns that solution."""
    A, B = design.model.A, design.model.B
    args = (design.rho, design.mu, design.kappa_bar)
    got = choose_epsilon_star(A, B, *args)
    want = _serial_sweep(A, B, *args)
    assert got.epsilon == want.epsilon
    assert np.array_equal(got.K, want.K)
    assert np.array_equal(got.P, want.P)
    return want


class TestStackedSweepIsTheLinearScan:
    @pytest.mark.parametrize("mode", ["full", "partial"])
    def test_bench_agent(self, mode):
        d = design_protocol(demo_model(mode), 2, mode=mode)
        want = assert_linear_scan(d)
        assert d.epsilon_star == want.epsilon == EPSILON_SWEEP[23]
        assert np.array_equal(d.K, want.K)

    def test_acceptance_battery(self):
        for _, design, _ in _battery():
            assert_linear_scan(design)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([1, 2]),
           data=st.data())
    def test_gain_condition_first_holds_anywhere(self, seed, m, data):
        # mu/2 drawn between consecutive gains rho*||BK|| of the serial
        # scan, so that condition (a) first holds at any grid index or
        # nowhere: the sweep, which decomposes lifts only past (a), accepts
        # the serial scan's point bit for bit, or both exhaust
        A, B = random_admissible_model(np.random.default_rng(seed), m=m)
        kappa_max = 3
        while not delay_admissible(A, kappa_max):
            kappa_max -= 1
        kappa_bar = data.draw(st.integers(0, kappa_max), label="kappa_bar")
        rho = choose_rho(kappa_bar, omega_max(A))
        gains = []
        for eps in EPSILON_SWEEP:
            try:
                K = _serial_low_gain_dare(A, B, eps).K
            except ConvergenceError:
                continue
            gains.append(rho * np.linalg.norm(B @ K, 2))
        levels = sorted(set(gains), reverse=True)
        at = data.draw(st.integers(0, len(levels)), label="level")
        upper = levels[at - 1] if at else 2.0 * levels[0]
        lower = levels[at] if at < len(levels) else 0.5 * levels[-1]
        mu = 2.0 * data.draw(st.floats(lower, upper, exclude_max=True),
                             label="mu/2")
        want = _serial_sweep(A, B, rho, mu, kappa_bar)
        if want is None:
            with pytest.raises(DesignError, match="sweep exhausted"):
                choose_epsilon_star(A, B, rho, mu, kappa_bar)
            return
        got = choose_epsilon_star(A, B, rho, mu, kappa_bar)
        assert got.epsilon == want.epsilon
        assert np.array_equal(got.K, want.K)
        assert np.array_equal(got.P, want.P)


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
        # design_protocol validates the model before the observer stage
        A = block_diag([rotation(0.5), np.array([[0.2]])])
        C = np.array([[0.0, 0.0, 1.0]])  # boundary modes unobserved
        model = AgentModel(A=A, B=np.ones((3, 1)), C=C)
        with pytest.raises(AssumptionError, match=r"^\(C, A\) is not "
                           "detectable$"):
            design_protocol(model, 1, mode="partial")

    def test_spectrum_outside_disc_rejected_after_detectability(self):
        # both failures are named in one message, detectability first
        model = AgentModel(A=np.diag([1.5, 0.2]), B=np.array([[1.0], [0.0]]),
                           C=np.array([[0.0, 1.0]]))
        with pytest.raises(AssumptionError, match=(
                r"\(C, A\) is not detectable; A has an eigenvalue outside "
                "the closed unit disc")):
            design_protocol(model, 1, mode="partial")


class TestDesignProtocol:
    def test_bench_full_state_pinned(self, bench_full):
        d = design_protocol(bench_full, 2, mode="full", epsilon=1e-3)
        assert d.mode == "full"
        assert d.epsilon_star == pytest.approx(1e-3)
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

    def test_pinned_epsilon_validated(self, bench_full):
        # the solver's epsilon range, read before any design stage runs
        with pytest.raises(ScenarioError) as err:
            design_protocol(bench_full, 2, epsilon=2.0)
        assert str(err.value) == "epsilon must be in (0, 1], got 2.0"

    def test_bad_mode_rejected(self, bench_full):
        with pytest.raises(ValueError):
            design_protocol(bench_full, 2, mode="both")

    @pytest.mark.parametrize("make", [
        lambda mode: design_protocol(demo_model("full"), 2, mode=mode),
        demo_model, lambda mode: demo_scenario(1, mode)],
        ids=["design_protocol", "demo_model", "demo_scenario"])
    def test_one_mode_rule(self, make):
        # a misspelled mode is refused, never read as the other mode
        with pytest.raises(ValueError) as err:
            make("Full")
        assert str(err.value) == "mode must be 'full' or 'partial', got 'Full'"

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
        assert params == {"model", "kappa_bar", "mode", "epsilon"}

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
        # pinned epsilon is solved exactly once, by the checked solver.  The
        # stages are counted through their module attributes, where the
        # benchmark's tracer wraps them, so a stage the designer stops
        # calling by that name shows here.  The sweep doubles and polishes
        # the top point alone and then all the rest as one stack,
        # polishing every point it doubled.  It decomposes lifts, of order
        # n + m kappa, once per delay and only for the points whose gain
        # passes condition (a): on the bench agent none at the top point
        # and the six points 23..28 of the second stack, of which index 23
        # is accepted
        calls = {name: [] for name in ("_doubling", "_polish",
                                       "_low_gain_dare", "solve_low_gain_dare",
                                       "choose_epsilon_star",
                                       "design_observer")}

        def counting(name):
            original = getattr(delaysync.design, name)

            def counted(*args):
                calls[name].append(args)
                return original(*args)
            monkeypatch.setattr(delaysync.design, name, counted)

        def solved(name):
            return [args[2] for args in calls[name]]

        for name in calls:
            counting(name)
        eigvals, lifts = np.linalg.eigvals, []

        def stacked_eigvals(M):
            if np.ndim(M) == 3:
                lifts.append(M.shape)
            return eigvals(M)

        monkeypatch.setattr(np.linalg, "eigvals", stacked_eigvals)
        model = demo_model("full")
        d = design_protocol(model, 2)
        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        stacks = [EPSILON_SWEEP[:1], EPSILON_SWEEP[1:]]
        assert solved("_doubling") == solved("_polish") == stacks
        assert lifts == [(6, order, order) for order in (3, 4, 5)]
        assert len(calls["choose_epsilon_star"]) == 1
        assert calls["_low_gain_dare"] == calls["solve_low_gain_dare"] \
            == calls["design_observer"] == []
        assert d.epsilon_star == EPSILON_SWEEP[23]
        assert d.epsilon_star == pytest.approx(10.0 ** -6.75)
        w = omega_max(model.A)
        theta = choose_theta(d.rho, 2, w)
        accepted = choose_epsilon_star(model.A, model.B, d.rho,
                                       estimate_mu(model.A, w, theta), 2)
        assert np.array_equal(d.K, accepted.K)
        assert np.array_equal(d.P, accepted.P)

        for args in calls.values():
            args.clear()
        design_protocol(model, 2, epsilon=1e-3)
        assert solved("solve_low_gain_dare") == [1e-3]
        assert calls["_doubling"] == calls["_polish"] \
            == calls["choose_epsilon_star"] == calls["design_observer"] == []

        for args in calls.values():
            args.clear()
        design_protocol(demo_model("partial"), 2, mode="partial")
        assert len(calls["choose_epsilon_star"]) == 1
        assert len(calls["design_observer"]) == 1
        assert solved("_low_gain_dare") == [0.1]
        assert calls["solve_low_gain_dare"] == []

    @pytest.mark.parametrize("mode, pbh_tests", [("full", 2), ("partial", 2)])
    def test_model_facts_decided_once(self, monkeypatch, mode, pbh_tests):
        # the stabilizability and detectability PBH tests run once each, up
        # front; the sweep and the observer then solve without re-checking
        pbh = delaysync.riccati.is_stabilizable
        calls = []

        def counting(A, B):
            calls.append(A.shape)
            return pbh(A, B)

        for module in (delaysync.riccati, delaysync.design):
            monkeypatch.setattr(module, "is_stabilizable", counting)
        d = design_protocol(demo_model(mode), 2, mode=mode)
        assert d.epsilon_star == pytest.approx(10.0 ** -6.75)
        assert len(calls) == pbh_tests

        # an unstabilizable pair is still rejected before any solve
        solves = []
        monkeypatch.setattr(delaysync.design, "_doubling",
                            lambda A, B, epsilons: solves.append(epsilons))
        bad = AgentModel(A=np.eye(1), B=np.zeros((1, 1)), C=np.eye(1))
        with pytest.raises(AssumptionError, match="not stabilizable"):
            design_protocol(bad, 2, mode=mode)
        assert solves == []

    def test_omega_max_consistency(self, bench_full):
        d = design_protocol(bench_full, 2, epsilon=1e-3)
        assert d.omega_max == omega_max(BENCH_A)

    @pytest.mark.parametrize("entry", FAMILY, ids=[e["label"] for e in FAMILY])
    def test_reproduces_recorded_family_epsilon_star(self, entry):
        A, B = np.array(entry["A"]), np.array(entry["B"])
        d = design_protocol(AgentModel(A=A, B=B, C=np.eye(A.shape[0])),
                            entry["kappa_bar"])
        assert d.epsilon_star == entry["epsilon_star"]
        assert assert_linear_scan(d).epsilon == d.epsilon_star

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([1, 2]),
           partial=st.booleans(), data=st.data())
    def test_swept_design_passes_certificate(self, seed, m, partial, data):
        # the sweep accepts epsilon by the certificate's own test, so a
        # swept design either fails with a stage tag or certifies
        rng = np.random.default_rng(seed)
        if partial:
            A, B, C = random_admissible_model(rng, m=m, with_output=True)
        else:
            A, B = random_admissible_model(rng, m=m)
            C = np.eye(A.shape[0])
        kappa_max = 6
        while not delay_admissible(A, kappa_max):
            kappa_max -= 1
        kappa_bar = data.draw(st.integers(0, kappa_max), label="kappa_bar")
        try:
            d = design_protocol(AgentModel(A=A, B=B, C=C), kappa_bar,
                                mode="partial" if partial else "full")
        except DesignError as err:
            assert err.stage in DESIGN_STAGES
            return
        cert = closed_loop_certificate(d)
        assert cert.passed, (kappa_bar, cert.reason)
