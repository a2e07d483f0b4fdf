import contextlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from delaysync import (AgentModel, CommGraph, DelayProfile, ProtocolDesign,
                       closed_loop_certificate, design_protocol, simulate)
from delaysync import dynamics
from delaysync.demos import demo_model, demo_scenario, _initial_states
from delaysync.dynamics import (InputHistory, control_input,
                                extra_exchange_full, extra_exchange_partial,
                                network_measurement)
from delaysync.errors import DimensionError, NumericError, ScenarioError
from delaysync.network import network_matrices
from delaysync.spectral import spectral_radius

from conftest import chain_with_shortcuts, cycle3_graph

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
    return ProtocolDesign(mode=mode, model=model, epsilon_star=0.1, rho=0.5,
                          K=np.array([[0.3]]), P=np.eye(1),
                          F=np.array([[0.6]]), omega_max=0.0, kappa_bar=1,
                          theta=1.0, mu=1.0)


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

    @pytest.mark.parametrize("kappa, kappa_bar", [
        ([0.5, 2.9], None), ([0, 2], 2.7), ([1, np.nan], 2), ([1], np.inf)])
    def test_non_integer_delays_rejected(self, kappa, kappa_bar):
        # never truncated: the delayed reads index the record by these values
        with pytest.raises(ScenarioError, match="non-integer"):
            DelayProfile.from_list(kappa, kappa_bar)

    @pytest.mark.parametrize("kappa, kappa_bar", [
        (['1', 0], '2'), ([1, 0], '2'), ([b'1', 0], None),
        ({'a': 1}, None), ([1j, 0], None), ([None, 1], 1)])
    def test_non_numeric_delays_rejected(self, kappa, kappa_bar):
        # strings and other objects are not delays either
        with pytest.raises(ScenarioError, match="non-numeric"):
            DelayProfile(kappa=kappa, kappa_bar=kappa_bar)
        with pytest.raises(ScenarioError, match="non-numeric"):
            DelayProfile.from_list(kappa, kappa_bar)

    @pytest.mark.parametrize("kappa", [[[1], [2, 3]], [[1], [0, 1], 1]])
    def test_ragged_delays_rejected(self, kappa):
        # the error a ragged AgentModel or CommGraph input raises
        with pytest.raises(DimensionError, match="kappa has rows of unequal"):
            DelayProfile(kappa=kappa, kappa_bar=3)
        with pytest.raises(DimensionError, match="kappa has rows of unequal"):
            DelayProfile.from_list(kappa)

    @pytest.mark.parametrize("kappa, named", [
        ([1] * 500 + ['1'], "non-numeric or boolean kappa: entry 500 is '1'"),
        ([0.5] * 500, "non-integer kappa: entry 0 is 0.5")])
    def test_bad_delay_named_briefly(self, kappa, named):
        # the first bad entry is named; the message does not repeat the list
        with pytest.raises(ScenarioError) as err:
            DelayProfile.from_list(kappa)
        assert str(err.value) == named

    @pytest.mark.parametrize("kappa, kappa_bar", [
        (np.array([True, False]), 1), ([1, 0], True), ([1, 0], np.True_),
        (np.array([True, False]), True), ([True, 2], None)])
    def test_boolean_delays_rejected(self, kappa, kappa_bar):
        # a flag is not a delay, as in the scenario schema, even as one
        # entry of a list of integers
        with pytest.raises(ScenarioError, match="boolean"):
            DelayProfile(kappa=kappa, kappa_bar=kappa_bar)
        with pytest.raises(ScenarioError, match="boolean"):
            DelayProfile.from_list(kappa, kappa_bar)

    def test_non_scalar_bound_rejected(self):
        with pytest.raises(DimensionError, match="kappa_bar"):
            DelayProfile(kappa=[1, 0], kappa_bar=np.array([2]))

    @pytest.mark.parametrize("kappa, kappa_bar, beyond", [
        ([1e19, 1], None, r"kappa .*\[1e\+19\]"),
        ([1, 0], 1e19, r"kappa_bar .*\[1e\+19\]"),
        ([-1e19, 1], 1, r"kappa .*\[-1e\+19\]"),
        ([2 ** 70, 1], None, r"kappa .*\[1\.18\d*e\+21\]"),
        (np.array([2 ** 63, 1], dtype=np.uint64), None,
         r"kappa .*\[9223372036854775808\]")])
    def test_delays_beyond_int64_rejected(self, kappa, kappa_bar, beyond):
        # a whole float beyond int64 casts to garbage: it is named instead
        with pytest.raises(ScenarioError, match="beyond the integer range"):
            DelayProfile.from_list(kappa, kappa_bar)
        with pytest.raises(ScenarioError, match=beyond):
            DelayProfile.from_list(kappa, kappa_bar)

    def test_largest_int64_delay_accepted(self):
        prof = DelayProfile.from_list(
            np.array([2 ** 63 - 1, 0], dtype=np.uint64))
        assert prof.kappa_bar == 2 ** 63 - 1

    def test_whole_floats_accepted(self):
        prof = DelayProfile.from_list([1.0, 0.0, 2.0], 3.0)
        np.testing.assert_array_equal(prof.kappa, [1, 0, 2])
        assert prof.kappa.dtype.kind == "i"
        assert prof.kappa_bar == 3 and isinstance(prof.kappa_bar, int)


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


def assert_stays_synchronized(*designs):
    x0 = np.tile(XR0, (3, 1))
    for design in designs:
        traj = run_case1(design, [1, 1, 2], 60, x0=x0)
        np.testing.assert_allclose(traj.error, np.zeros(61), atol=1e-12)


class TestSimulate:
    def test_synchronized_start_stays_synchronized(self, full_design,
                                                   partial_design):
        assert_stays_synchronized(full_design, partial_design)

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
        # error(k) = max_i ||x_i(k) - x_ref(k)||
        traj = run_case1(full_design, [1, 1, 2], 40)
        for k in range(41):
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
        with pytest.raises(ScenarioError, match="k_max"):
            run_case1(full_design, [1, 1, 2], -1)


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
        check_plant_and_input_laws(partial_design if partial else full_design,
                                   graph, data)


def check_plant_and_input_laws(design, graph, data):
    """The input law and each agent's delayed plant law on a simulated run
    with drawn delays, bound and initial states."""
    A, B = design.model.A, design.model.B
    N, k_max = graph.n_agents, 30
    kappa = data.draw(st.lists(st.integers(0, 2), min_size=N, max_size=N))
    x0 = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=3 * N,
                                     max_size=3 * N))).reshape(N, 3)
    # the bound sets the record's zero padding: from none to spare rows
    kappa_bar = data.draw(st.integers(max(kappa), 2))
    traj = simulate(design.model, design, graph,
                    DelayProfile.from_list(kappa, kappa_bar), x0, XR0,
                    k_max)
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

    def test_stops_at_first_non_finite_step(self, monkeypatch):
        # case 1 at epsilon 0.1: the sync error overflows from step 2277 and
        # the states from step 4545, far before the horizon
        cfg = demo_scenario(1, "full")
        design = design_protocol(cfg.model, 2, mode="full", epsilon=0.1)
        prefixes = []
        agent_errors = dynamics._agent_errors

        def recording(x, x_ref):
            # the loop hands over the steps it ran, up to the one it stopped at
            prefixes.append(len(x))
            return agent_errors(x, x_ref)

        monkeypatch.setattr(dynamics, "_agent_errors", recording)
        k_max = 20000
        with pytest.raises(NumericError) as info:
            simulate(cfg.model, design, cfg.graph, cfg.delays, cfg.x0,
                     cfg.xr0, k_max)
        assert str(info.value) == ("simulation diverged: a state, input or "
                                   "the sync error is non-finite from step "
                                   "2277 (agent 2)")
        assert len(prefixes) == 1
        assert 2277 < prefixes[0] < k_max

    def test_non_finite_initial_state_names_agent(self, full_design):
        x0 = _initial_states(3)
        x0[1, 2] = np.nan
        with pytest.raises(NumericError, match=r"step 0 \(agent 1\)"):
            run_case1(full_design, [1, 1, 2], 10, x0=x0)


def _delayed_input_map(design, kappa):
    """-rho (E_d kron BK) side by side for d = 0..max(kappa), where E_d
    selects the agents with delay d: maps the protocol-state history
    [chi(k); chi(k-1); ...] to B u_i(k - kappa_i) stacked over agents."""
    BK = design.model.B @ design.K
    kappa = np.asarray(kappa)
    return np.hstack([-design.rho * np.kron(np.diag(kappa == d), BK)
                      for d in range(kappa.max() + 1)])


def _history_shift(Nn, depth):
    """Rows of the lifted history below its head: chi(k-d) moves down."""
    return np.eye(depth * Nn, k=-Nn)[Nn:]


def monolithic_full(design, graph, kappa):
    """Independent closed-loop matrix over [x; chi(k); ...; chi(k - max
    kappa); x_ref] for the delay profile kappa, assembled directly from
    Kronecker products."""
    A = design.model.A
    n = A.shape[0]
    N = graph.n_agents
    net = network_matrices(graph)
    W = net.scale[:, None] * net.expanded_laplacian
    w = net.scale * graph.roots
    eyeN = np.eye(N)
    delayed = _delayed_input_map(design, kappa)
    depth = delayed.shape[1] // (N * n)
    head = delayed.copy()
    head[:, :N * n] += np.kron(eyeN, A) - np.kron(W, A)
    rows = [
        np.hstack([np.kron(eyeN, A), delayed, np.zeros((N * n, n))]),
        np.hstack([np.kron(W, A), head, -np.kron(w[:, None], A)]),
        np.hstack([np.zeros(((depth - 1) * N * n, N * n)),
                   _history_shift(N * n, depth),
                   np.zeros(((depth - 1) * N * n, n))]),
        np.hstack([np.zeros((n, (depth + 1) * N * n)), A]),
    ]
    return np.vstack(rows)


def monolithic_partial(design, graph, kappa):
    """Closed-loop matrix over [x; xhat; chi(k); ...; chi(k - max kappa);
    x_ref] for the delay profile kappa."""
    A, C, F = design.model.A, design.model.C, design.F
    n = A.shape[0]
    N = graph.n_agents
    net = network_matrices(graph)
    W = net.scale[:, None] * net.expanded_laplacian
    w = net.scale * graph.roots
    eyeN = np.eye(N)
    FC = F @ C
    Z = np.zeros((N * n, N * n))
    delayed = _delayed_input_map(design, kappa)
    depth = delayed.shape[1] // (N * n)
    head = delayed.copy()
    head[:, :N * n] += np.kron(eyeN, A) - np.kron(W, A)
    rows = [
        np.hstack([np.kron(eyeN, A), Z, delayed, np.zeros((N * n, n))]),
        np.hstack([np.kron(W, FC), np.kron(eyeN, A - FC),
                   np.kron(W, np.eye(n)) @ delayed,
                   -np.kron(w[:, None], FC)]),
        np.hstack([Z, np.kron(eyeN, A), head, np.zeros((N * n, n))]),
        np.hstack([np.zeros(((depth - 1) * N * n, 2 * N * n)),
                   _history_shift(N * n, depth),
                   np.zeros(((depth - 1) * N * n, n))]),
        np.hstack([np.zeros((n, (depth + 2) * N * n)), A]),
    ]
    return np.vstack(rows)


class TestZeroDelayOracles:
    def test_full_state_matches_monolithic(self, full_design):
        g = cycle3_graph()
        traj = run_case1(full_design, [0, 0, 0], 200)
        M = monolithic_full(full_design, g, [0, 0, 0])
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
        M = monolithic_partial(partial_design, g, [0, 0, 0])
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


def assert_matches_lift(design, graph, kappa, x0, xr0, k_max):
    """simulate against M^k z0 of the lifted closed-loop matrix, within
    1e-12 of the lifted state's scale at every step."""
    partial = design.mode == "partial"
    N, n = x0.shape
    traj = simulate(design.model, design, graph,
                    DelayProfile.from_list(kappa, design.kappa_bar), x0, xr0,
                    k_max)
    M = (monolithic_partial if partial else monolithic_full)(design, graph,
                                                             kappa)
    Nn = N * n
    z = np.zeros(M.shape[0])
    z[:Nn], z[-n:] = x0.ravel(), xr0
    chi_at = 2 * Nn if partial else Nn
    for k in range(k_max + 1):
        scale = max(1.0, np.abs(z).max())
        got = [traj.x[k].ravel(), traj.protocol[k].ravel(), traj.x_ref[k]]
        want = [z[:Nn], z[chi_at:chi_at + Nn], z[-n:]]
        if partial:
            got.append(traj.observer[k].ravel())
            want.append(z[Nn:2 * Nn])
        for actual, expected in zip(got, want):
            assert np.abs(actual - expected).max() <= 1e-12 * scale, k
        z = M @ z


def check_random_lift(design, graph, data):
    """assert_matches_lift on drawn delays 0..2 and initial states."""
    N = graph.n_agents
    kappa = data.draw(st.lists(st.integers(0, 2), min_size=N, max_size=N))
    coords = st.floats(-2.0, 2.0)
    x0 = np.array(data.draw(st.lists(coords, min_size=3 * N,
                                     max_size=3 * N))).reshape(N, 3)
    xr0 = np.array(data.draw(st.lists(coords, min_size=3, max_size=3)))
    assert_matches_lift(design, graph, kappa, x0, xr0, 40)


class TestDelayedMonolithic:
    @pytest.mark.parametrize("partial", [False, True])
    def test_simulate_matches_lifted_matrix(self, full_design, partial_design,
                                            partial):
        design = partial_design if partial else full_design
        assert_matches_lift(design, cycle3_graph(), [1, 1, 2],
                            _initial_states(3), XR0, 60)

    @settings(max_examples=40, deadline=None)
    @given(graph=rooted_graphs(max_agents=4), partial=st.booleans(),
           data=st.data())
    def test_simulate_matches_lifted_matrix_on_random_graphs(
            self, full_design, partial_design, graph, partial, data):
        # weighted graphs with one or more roots, delays 0..2: the stacked
        # step with the reference as node N against the lifted matrix
        check_random_lift(partial_design if partial else full_design, graph,
                          data)

    @settings(max_examples=40, deadline=None)
    @given(graph=rooted_graphs(max_agents=4), partial=st.booleans(),
           data=st.data())
    def test_lifted_radius_is_cascade_formula(self, full_design,
                                              partial_design, graph, partial,
                                              data):
        # the loop is a cascade: the error system S kron A, one delayed loop
        # per agent at its own delay, and the observer error under A - F C
        design = partial_design if partial else full_design
        monolithic = monolithic_partial if partial else monolithic_full
        N, n = graph.n_agents, design.model.n
        kappa = data.draw(st.lists(st.integers(0, 2), min_size=N, max_size=N))
        M = monolithic(design, graph, kappa)[:-n, :-n]  # without x_ref
        cert = closed_loop_certificate(design)
        loops = [spectral_radius(network_matrices(graph).substochastic)
                 * spectral_radius(design.model.A)]
        loops += [cert.radii[k] for k in kappa]
        if partial:
            loops.append(cert.observer_radius)
        assert abs(spectral_radius(M) - max(loops)) <= 1e-9


def extended_laplacian(graph):
    """L_ext: the expanded Laplacian, the column -roots for the reference
    and a zero row for it."""
    N = graph.n_agents
    lap_ext = np.zeros((N + 1, N + 1))
    lap_ext[:N, :N] = network_matrices(graph).expanded_laplacian
    lap_ext[:N, N] = -graph.roots.astype(float)
    return lap_ext


@contextlib.contextmanager
def forced(use_edges):
    """A context in which `simulate` takes the given product whatever the
    graph's size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_use_edge_product",
                   lambda n_agents, n_edges: use_edges)
        yield


class TestLaplacianProduct:
    def test_rule_keeps_dense_graphs_dense(self):
        rng = np.random.default_rng(0)
        chain10 = chain_with_shortcuts(rng, 10)
        chain400 = chain_with_shortcuts(rng, 400)
        complete = CommGraph(adjacency=1.0 - np.eye(400),
                             roots=np.arange(400) == 0)
        assert chain400.edge_dst.size == 439
        picks = [dynamics._use_edge_product(g.n_agents, g.edge_dst.size)
                 for g in (chain10, chain400, complete)]
        assert picks == [False, True, False]

    @settings(max_examples=60, deadline=None)
    @given(graph=rooted_graphs(max_agents=8), width=st.sampled_from([7, 10]),
           data=st.data())
    def test_both_products_match_dense_oracle(self, graph, width, data):
        N = graph.n_agents
        V = data.draw(arrays(np.float64, (N + 1, width),
                             elements=st.floats(-2.0, 2.0)))
        lap_ext = extended_laplacian(graph)
        want = lap_ext @ V
        bound = 1e-12 * max(1.0, (np.abs(lap_ext) @ np.abs(V)).max())
        for use_edges in (False, True):
            with forced(use_edges):
                got = dynamics._laplacian_product(graph, width)(V)
            assert np.abs(got - want).max() <= bound, use_edges


@pytest.fixture(scope="class")
def edge_product():
    """`simulate` on the edge product, which the rule takes only on graphs
    of 100 agents or more, so that the small-graph oracles reach it."""
    with forced(True):
        yield


@pytest.mark.usefixtures("edge_product")
class TestEdgeProductOracles:
    def test_synchronized_start_stays_synchronized(self, full_design,
                                                   partial_design):
        assert_stays_synchronized(full_design, partial_design)

    @pytest.mark.parametrize("partial", [False, True])
    def test_simulate_matches_lifted_matrix(self, full_design, partial_design,
                                            partial):
        design = partial_design if partial else full_design
        assert_matches_lift(design, cycle3_graph(), [1, 1, 2],
                            _initial_states(3), XR0, 60)

    @settings(max_examples=40, deadline=None)
    @given(graph=rooted_graphs(max_agents=4), partial=st.booleans(),
           data=st.data())
    def test_simulate_matches_lifted_matrix_on_random_graphs(
            self, full_design, partial_design, graph, partial, data):
        check_random_lift(partial_design if partial else full_design, graph,
                          data)

    @settings(max_examples=30, deadline=None)
    @given(graph=rooted_graphs(), partial=st.booleans(), data=st.data())
    def test_plant_and_input_laws(self, full_design, partial_design, graph,
                                  partial, data):
        check_plant_and_input_laws(partial_design if partial else full_design,
                                   graph, data)


class TestLargeGraph:
    def test_chain_of_2000_follows_the_cascade(self, full_design):
        # zero delays, so e = (x - x_ref) - chi obeys e(k+1) = (S kron A) e(k)
        # with S = I - diag(1 / (2 + d_in)) L_exp, applied here over the
        # edges: a dense Kronecker product would take 288 MB
        N, k_max = 2000, 200
        graph = chain_with_shortcuts(np.random.default_rng(5), N)
        assert dynamics._use_edge_product(N, graph.edge_dst.size)
        x0 = np.random.default_rng(6).uniform(-2.0, 2.0, size=(N, 3))
        delays = DelayProfile.from_list(np.zeros(N, dtype=int))
        tracemalloc.start()
        try:
            traj = simulate(full_design.model, full_design, graph, delays,
                            x0, XR0, k_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # no N x N array on the run's path: one would take 32 MB
        record = (k_max + 1) * (N + 1) * 7 * 8
        assert peak < record + 8e6, (peak, record)

        adj = graph.adjacency
        dst, src = np.nonzero(adj)
        weight = adj[dst, src][:, None]
        d_in = adj.sum(axis=1)
        diag = (d_in + graph.roots)[:, None]
        scale = 1.0 / (2.0 + d_in)[:, None]
        A = full_design.model.A
        e = traj.x - traj.x_ref[:, None, :] - traj.protocol
        assert np.abs(e[0]).max() > 1.0
        for k in range(k_max):
            mixed = np.zeros((N, 3))
            np.add.at(mixed, dst, weight * e[k, src])
            Se = e[k] - scale * (diag * e[k] - mixed)
            err = np.abs(e[k + 1] - Se @ A.T).max()
            assert err <= 1e-12 * max(1.0, np.abs(e[k]).max()), (k, err)
