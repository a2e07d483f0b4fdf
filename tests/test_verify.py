import dataclasses

import numpy as np
import pytest

from delaysync import (DelayProfile, closed_loop_certificate,
                       convergence_report, design_protocol,
                       frequency_sweep_certificate, simulate)
from delaysync.demos import demo_model, _initial_states
from delaysync.errors import GridSizeError

from conftest import cycle3_graph, rotation

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
        assert rep.kappa_combinations == 3

    def test_zero_gain_fails_when_dynamics_not_schur(self, bench_design):
        silent = dataclasses.replace(bench_design, rho=0.0)
        rep = closed_loop_certificate(silent)
        assert not rep.passed
        assert rep.reason == "undelayed system unstable"

    def test_grid_refinement_stable(self, bench_design):
        coarse = closed_loop_certificate(bench_design, omega_points=4096)
        fine = closed_loop_certificate(bench_design, omega_points=8192)
        assert abs(fine.min_margin - coarse.min_margin) \
            < 0.10 * coarse.min_margin


class TestSweptDesign:
    """The fully automatic design (no pinned epsilon) on the benchmark model.

    Its epsilon* lands near 2e-7, which puts the slowest delayed root around
    0.9997; one long run at the worst-case delay profile checks that the
    certificate's verdict matches reality.
    """

    def test_certificate_and_worst_delay_convergence(self):
        design = design_protocol(demo_model("full"), 2, mode="full")
        assert design.epsilon_star == design.epsilon
        rep = closed_loop_certificate(design)
        assert rep.passed
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
