import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaysync import (AgentModel, CommGraph, DelayProfile, InputHistory,
                       ProtocolDesign, design_protocol, simulate, sync_error)
from delaysync.demos import demo_model, demo_scenario, _initial_states
from delaysync.dynamics import (control_input, extra_exchange_full,
                                extra_exchange_partial, network_measurement)
from delaysync.errors import NumericError, ScenarioError
from delaysync.network import network_matrices

from conftest import cycle3_graph

XR0 = np.array([0.0, 1.0, 0.0])


@pytest.fixture(scope="module")
def full_design():
    return design_protocol(demo_model("full"), 2, mode="full", epsilon=1e-3)


@pytest.fixture(scope="module")
def partial_design():
    return design_protocol(demo_model("partial"), 2, mode="partial",
                           epsilon=1e-3)


def scalar_design(mode):
    """Hand-sized synthetic design for single-agent step arithmetic."""
    model = AgentModel(A=[[0.8]], B=[[2.0]], C=[[0.5]])
    return ProtocolDesign(mode=mode, model=model, epsilon_star=0.1,
                          epsilon=0.1, rho=0.5, K=np.array([[0.3]]),
                          P=np.eye(1), F=np.array([[0.6]]), omega_max=0.0,
                          kappa_bar=1, theta=1.0, mu=1.0)


class TestDelayProfile:
    def test_bound_defaults_to_max(self):
        prof = DelayProfile.from_list([1, 0, 2])
        assert prof.kappa_bar == 2

    def test_negative_delay_rejected(self):
        with pytest.raises(ScenarioError):
            DelayProfile.from_list([1, -1])

    def test_bound_below_max_rejected(self):
        with pytest.raises(ScenarioError):
            DelayProfile(kappa=np.array([3]), kappa_bar=2)


class TestInputHistory:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=5),
           st.integers(0, 12))
    def test_reads_own_delay(self, kappas, steps):
        hist = InputHistory(len(kappas), 2, max(kappas), steps)
        kap = np.array(kappas)
        for k in range(steps + 1):
            hist.push(np.full((len(kappas), 2), float(k + 1)))  # stamp k -> k+1
            got = hist.read(kap)
            for i, ki in enumerate(kappas):
                expected = float(k + 1 - ki) if k - ki >= 0 else 0.0
                assert got[i, 0] == expected
        np.testing.assert_array_equal(hist.recorded[:, 0, 0],
                                      np.arange(1.0, steps + 2))


class TestExosystem:
    def test_zero_fixed(self, full_design):
        traj = run_case1(full_design, [1, 1, 2], 5, xr0=np.zeros(3))
        np.testing.assert_array_equal(traj.x_ref, np.zeros((6, 3)))

    def test_basis_vector_reads_column(self, full_design):
        traj = run_case1(full_design, [1, 1, 2], 1)
        np.testing.assert_allclose(traj.x_ref[1], [1.0, math.sqrt(3) / 2, 0.5])

    def test_reference_stays_bounded(self, full_design):
        # undamped oscillator drives one stable mode: no growth over 10^4 steps
        traj = run_case1(full_design, [1, 1, 2], 10_000)
        assert np.linalg.norm(traj.x_ref, axis=1).max() < 5.0


class TestMeasurements:
    def test_synchronized_network_measures_zero(self):
        g = cycle3_graph()
        states = np.tile(XR0, (3, 1))
        np.testing.assert_allclose(
            network_measurement(g, network_matrices(g), states, XR0),
            np.zeros((3, 3)), atol=1e-15)

    def test_single_rooted_agent_halves_offset(self):
        g = CommGraph(adjacency=np.zeros((1, 1)), roots=np.array([True]))
        v = np.array([2.0, -4.0, 6.0])
        got = network_measurement(g, network_matrices(g),
                                  (XR0 + v)[None, :], XR0)
        np.testing.assert_allclose(got, (v / 2.0)[None, :])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        adj = rng.uniform(0, 2, size=(4, 4)) * (1 - np.eye(4))
        g = CommGraph(adjacency=adj, roots=np.array([1, 0, 1, 0], dtype=bool))
        C = rng.normal(size=(2, 3))
        states = rng.normal(size=(4, 3))
        xr = rng.normal(size=3)
        got = network_measurement(g, network_matrices(g), states, C @ xr,
                                  C=C)
        y = states @ C.T
        yr = C @ xr
        for i in range(4):
            acc = np.zeros(2)
            for j in range(4):
                acc += adj[i, j] * (y[i] - y[j])
            acc += g.roots[i] * (y[i] - yr)
            np.testing.assert_allclose(got[i], acc / (2 + adj[i].sum()),
                                       atol=1e-12)

    def test_exchange_zero_states(self):
        net = network_matrices(cycle3_graph())
        np.testing.assert_array_equal(
            extra_exchange_full(net, np.zeros((3, 3))), np.zeros((3, 3)))
        z1, z2 = extra_exchange_partial(net, np.zeros((3, 3)),
                                        np.zeros((3, 1)))
        assert not z1.any() and not z2.any()

    def test_exchange_constant_states_rootless_rows_vanish(self):
        g = CommGraph(adjacency=cycle3_graph().adjacency,
                      roots=np.zeros(3, dtype=bool))
        out = extra_exchange_full(network_matrices(g),
                                  np.tile([1.0, 2.0, 3.0], (3, 1)))
        np.testing.assert_allclose(out, np.zeros((3, 3)), atol=1e-15)

    def test_exchange_matches_brute_force(self):
        rng = np.random.default_rng(29)
        g = cycle3_graph()
        chi = rng.normal(size=(3, 3))
        u_del = rng.normal(size=(3, 1))
        net = network_matrices(g)
        z1, z2 = extra_exchange_partial(net, chi, u_del)
        for i in range(3):
            acc1, acc2 = np.zeros(3), np.zeros(1)
            for j in range(3):
                acc1 += net.expanded_laplacian[i, j] * chi[j]
                acc2 += net.expanded_laplacian[i, j] * u_del[j]
            scale = 1.0 / (2 + net.in_degrees[i])
            np.testing.assert_allclose(z1[i], acc1 * scale, atol=1e-12)
            np.testing.assert_allclose(z2[i], acc2 * scale, atol=1e-12)
        np.testing.assert_allclose(extra_exchange_full(net, chi), z1)


def run_scalar(mode, k_max, kappa=0, x0=0.9, xr0=0.5):
    """The scalar design on one rooted agent: scale 1/2, expanded Laplacian 1."""
    d = scalar_design(mode)
    g = CommGraph(adjacency=np.zeros((1, 1)), roots=np.array([True]))
    return simulate(d.model, d, g, DelayProfile.from_list([kappa], 1),
                    np.array([[x0]]), np.array([xr0]), k_max)


class TestProtocolSteps:
    def test_full_state_rest_is_fixed(self):
        traj = run_scalar("full", 2, x0=0.0, xr0=0.0)
        assert not traj.x.any() and not traj.protocol.any() and not traj.u.any()

    def test_full_state_hand_arithmetic(self):
        traj = run_scalar("full", 2)
        # chi' = 0.8 chi + 2 u_del + 0.8 ((x - xr)/2 - chi/2), u = -0.15 chi
        chi, x, u = traj.protocol[:, 0, 0], traj.x[:, 0, 0], traj.u[:, 0, 0]
        assert chi[1] == pytest.approx(0.16, abs=1e-15)   # 0.8*0.2
        assert u[1] == pytest.approx(-0.024, abs=1e-15)
        # 0.8*0.16 + 2*(-0.024) + 0.8*(0.16 - 0.08)
        assert chi[2] == pytest.approx(0.144, abs=1e-15)
        assert x[2] == pytest.approx(0.528, abs=1e-15)    # 0.8*0.72 - 2*0.024
        assert u[2] == pytest.approx(-0.0216, abs=1e-15)

    def test_full_state_delay_holds_input_back(self):
        traj = run_scalar("full", 2, kappa=1)
        # u(0) = 0 reaches the plant at step 1 instead of u(1) = -0.024
        assert traj.protocol[2, 0, 0] == pytest.approx(0.192, abs=1e-15)
        assert traj.x[2, 0, 0] == pytest.approx(0.576, abs=1e-15)

    def test_partial_state_hand_arithmetic(self):
        traj = run_scalar("partial", 3)
        # xhat' = 0.8 xhat + 2 u_del/2 + 0.6 (0.5 (x - xr)/2 - 0.5 xhat)
        # chi'  = 0.8 chi + 2 u_del + 0.8 (xhat - chi/2)
        xhat, chi = traj.observer[:, 0, 0], traj.protocol[:, 0, 0]
        assert xhat[1] == pytest.approx(0.06, abs=1e-15)  # 0.6*0.1
        assert chi[1] == 0.0
        # 0.8*0.06 + 0.6*(0.08 - 0.03)
        assert xhat[2] == pytest.approx(0.078, abs=1e-15)
        assert chi[2] == pytest.approx(0.048, abs=1e-15)  # 0.8*0.06
        assert traj.u[2, 0, 0] == pytest.approx(-0.0072, abs=1e-15)
        # 0.8*0.078 + 2*(-0.0036) + 0.6*(0.064 - 0.039)
        assert xhat[3] == pytest.approx(0.0702, abs=1e-15)
        # 0.8*0.048 + 2*(-0.0072) + 0.8*(0.078 - 0.024)
        assert chi[3] == pytest.approx(0.0672, abs=1e-15)

    def test_control_input_sign_and_scale(self):
        d = scalar_design("full")
        assert control_input(d, np.array([[2.0]]))[0, 0] \
            == pytest.approx(-0.3)


def run_case1(design, kappa, k_max, x0=None, xr0=XR0):
    g = cycle3_graph()
    x0 = _initial_states(3) if x0 is None else x0
    return simulate(design.model, design, g, DelayProfile.from_list(kappa),
                    x0, xr0, k_max)


class TestSimulate:
    def test_synchronized_start_stays_synchronized(self, full_design,
                                                   partial_design):
        x0 = np.tile(XR0, (3, 1))
        for design in (full_design, partial_design):
            traj = run_case1(design, [1, 1, 2], 60, x0=x0)
            np.testing.assert_allclose(traj.error, np.zeros(61), atol=1e-12)

    def test_case1_converges(self, full_design):
        traj = run_case1(full_design, [1, 1, 2], 1500)
        assert traj.error[0] > 1.0
        assert traj.error[-1] < 1e-3

    def test_determinism_bit_exact(self, full_design):
        t1 = run_case1(full_design, [1, 1, 2], 120)
        t2 = run_case1(full_design, [1, 1, 2], 120)
        assert np.array_equal(t1.x, t2.x)
        assert np.array_equal(t1.protocol, t2.protocol)
        assert np.array_equal(t1.u, t2.u)
        assert np.array_equal(t1.error, t2.error)

    def test_causality_before_first_delay(self, full_design):
        t_a = run_case1(full_design, [1, 1, 2], 6)
        t_b = run_case1(full_design, [2, 2, 2], 6)
        # min delay is 1: nothing can differ through step 1
        np.testing.assert_array_equal(t_a.x[:2], t_b.x[:2])
        np.testing.assert_array_equal(t_a.protocol[:2], t_b.protocol[:2])
        assert not np.allclose(t_a.x, t_b.x)

    def test_sync_error_matches_definition(self, full_design):
        traj = run_case1(full_design, [1, 1, 2], 40)
        np.testing.assert_array_equal(sync_error(traj), traj.error)
        k = 17
        by_hand = max(np.linalg.norm(traj.x[k, i] - traj.x_ref[k])
                      for i in range(3))
        assert traj.error[k] == pytest.approx(by_hand, rel=1e-15)

    def test_unrooted_graph_rejected(self, full_design):
        g = CommGraph(adjacency=np.zeros((2, 2)),
                      roots=np.array([True, False]))
        with pytest.raises(ScenarioError, match="rooted"):
            simulate(full_design.model, full_design, g,
                     DelayProfile.from_list([0, 0]),
                     np.zeros((2, 3)), XR0, 20)

    def test_delays_beyond_design_rejected(self, full_design):
        with pytest.raises(ScenarioError, match="tolerance"):
            run_case1(full_design, [3, 1, 1], 20)

    def test_wrong_initial_shape_rejected(self, full_design):
        with pytest.raises(ScenarioError, match="x0"):
            simulate(full_design.model, full_design, cycle3_graph(),
                     DelayProfile.from_list([1, 1, 2]),
                     np.zeros((2, 3)), XR0, 20)


@st.composite
def rooted_graphs(draw, max_agents=5):
    """Random weighted digraphs, rooted through a spanning tree out of the
    rooted agent 0."""
    N = draw(st.integers(1, max_agents))
    weight = st.floats(0.1, 2.0)
    adj = np.array(draw(st.lists(
        st.lists(st.one_of(st.just(0.0), weight), min_size=N, max_size=N),
        min_size=N, max_size=N)))
    for i in range(1, N):
        adj[i, draw(st.integers(0, i - 1))] = draw(weight)
    np.fill_diagonal(adj, 0.0)
    roots = [True] + draw(st.lists(st.booleans(), min_size=N - 1,
                                   max_size=N - 1))
    return CommGraph(adjacency=adj, roots=np.array(roots))


class TestDelayedOracles:
    @settings(max_examples=30, deadline=None)
    @given(graph=rooted_graphs(), partial=st.booleans(), data=st.data())
    def test_plant_and_input_laws(self, full_design, partial_design, graph,
                                  partial, data):
        design = partial_design if partial else full_design
        A, B = design.model.A, design.model.B
        N, k_max = graph.n_agents, 30
        kappa = data.draw(st.lists(st.integers(0, 2), min_size=N, max_size=N))
        x0 = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=3 * N,
                                         max_size=3 * N))).reshape(N, 3)
        traj = simulate(design.model, design, graph,
                        DelayProfile.from_list(kappa, 2), x0, XR0, k_max)
        # u(k) = -rho chi(k) K'
        np.testing.assert_allclose(traj.u,
                                   -design.rho * traj.protocol @ design.K.T,
                                   rtol=0, atol=1e-12)
        # x_i(k+1) = A x_i(k) + B u_i(k - kappa_i), zero inputs before step 0
        for k in range(k_max):
            for i, ki in enumerate(kappa):
                u_del = traj.u[k - ki, i] if k >= ki else np.zeros(1)
                np.testing.assert_allclose(traj.x[k + 1, i],
                                           A @ traj.x[k, i] + B @ u_del,
                                           rtol=0, atol=1e-12)


class TestDivergence:
    def test_raises_at_first_non_finite_step(self):
        # pinned epsilon far above the swept one: the delayed loop blows up
        cfg = demo_scenario(1, "full")
        design = design_protocol(cfg.model, 2, mode="full", epsilon=0.1)

        def run(k_max):
            return simulate(cfg.model, design, cfg.graph, cfg.delays, cfg.x0,
                            cfg.xr0, k_max)

        with pytest.raises(NumericError, match=r"non-finite from step \d+ "
                                               r"\(agent \d\)") as info:
            run(3000)
        step = int(re.search(r"step (\d+)", str(info.value)).group(1))
        assert 0 < step <= 3000
        assert np.isfinite(run(step - 1).error).all()

    def test_non_finite_initial_state_names_agent(self, full_design):
        x0 = _initial_states(3)
        x0[1, 2] = np.nan
        with pytest.raises(NumericError, match=r"step 0 \(agent 1\)"):
            run_case1(full_design, [1, 1, 2], 10, x0=x0)


def monolithic_full(design, graph):
    """Independent zero-delay closed-loop matrix over [x; chi; x_ref],
    assembled directly from Kronecker products."""
    A, B, K = design.model.A, design.model.B, design.K
    n = A.shape[0]
    N = graph.n_agents
    net = network_matrices(graph)
    W = net.scale[:, None] * net.expanded_laplacian
    w = net.scale * graph.roots
    eyeN = np.eye(N)
    BK = B @ K
    rows = [
        np.hstack([np.kron(eyeN, A), -design.rho * np.kron(eyeN, BK),
                   np.zeros((N * n, n))]),
        np.hstack([np.kron(W, A),
                   np.kron(eyeN, A - design.rho * BK) - np.kron(W, A),
                   -np.kron(w[:, None], A)]),
        np.hstack([np.zeros((n, 2 * N * n)), A]),
    ]
    return np.vstack(rows)


def monolithic_partial(design, graph):
    """Zero-delay closed-loop matrix over [x; xhat; chi; x_ref]."""
    A, B, C, F, K = (design.model.A, design.model.B, design.model.C,
                     design.F, design.K)
    n = A.shape[0]
    N = graph.n_agents
    net = network_matrices(graph)
    W = net.scale[:, None] * net.expanded_laplacian
    w = net.scale * graph.roots
    eyeN = np.eye(N)
    BK, FC = B @ K, F @ C
    Z = np.zeros((N * n, N * n))
    rows = [
        np.hstack([np.kron(eyeN, A), Z, -design.rho * np.kron(eyeN, BK),
                   np.zeros((N * n, n))]),
        np.hstack([np.kron(W, FC), np.kron(eyeN, A - FC),
                   -design.rho * np.kron(W, BK), -np.kron(w[:, None], FC)]),
        np.hstack([Z, np.kron(eyeN, A),
                   np.kron(eyeN, A - design.rho * BK) - np.kron(W, A),
                   np.zeros((N * n, n))]),
        np.hstack([np.zeros((n, 3 * N * n)), A]),
    ]
    return np.vstack(rows)


class TestZeroDelayOracles:
    def test_full_state_matches_monolithic(self, full_design):
        g = cycle3_graph()
        traj = run_case1(full_design, [0, 0, 0], 200)
        M = monolithic_full(full_design, g)
        z = np.concatenate([_initial_states(3).ravel(), np.zeros(9), XR0])
        for k in range(201):
            np.testing.assert_allclose(traj.x[k].ravel(), z[:9], atol=1e-10)
            np.testing.assert_allclose(traj.protocol[k].ravel(), z[9:18],
                                       atol=1e-10)
            np.testing.assert_allclose(traj.x_ref[k], z[18:], atol=1e-10)
            z = M @ z

    def test_partial_state_matches_monolithic(self, partial_design):
        g = cycle3_graph()
        traj = run_case1(partial_design, [0, 0, 0], 200)
        M = monolithic_partial(partial_design, g)
        z = np.concatenate([_initial_states(3).ravel(), np.zeros(18), XR0])
        for k in range(201):
            np.testing.assert_allclose(traj.x[k].ravel(), z[:9], atol=1e-10)
            np.testing.assert_allclose(traj.observer[k].ravel(), z[9:18],
                                       atol=1e-10)
            np.testing.assert_allclose(traj.protocol[k].ravel(), z[18:27],
                                       atol=1e-10)
            z = M @ z

    def test_error_system_iterates_substochastic_kron(self, full_design):
        # with zero delays, e = (x - x_ref) - chi obeys
        # e(k+1) = kron(substochastic, A) e(k)
        g = cycle3_graph()
        traj = run_case1(full_design, [0, 0, 0], 200)
        D_kron = np.kron(network_matrices(g).substochastic,
                         full_design.model.A)
        e = (traj.x - traj.x_ref[:, None, :] - traj.protocol).reshape(201, -1)
        for k in range(200):
            np.testing.assert_allclose(e[k + 1], D_kron @ e[k], atol=1e-10)
