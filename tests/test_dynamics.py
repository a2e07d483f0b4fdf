import contextlib
import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from delaysync import (AgentModel, CommGraph, DelayProfile, ProtocolDesign,
                       closed_loop_certificate, design_protocol, load_config,
                       simulate)
from delaysync import dynamics
from delaysync.demos import demo_model, demo_scenario, _initial_states
from delaysync.dynamics import (InputHistory, control_input,
                                extra_exchange_full, extra_exchange_partial,
                                network_measurement)
from delaysync.errors import DimensionError, NumericError, ScenarioError
from delaysync.network import network_matrices
from delaysync.spectral import spectral_radius

import conftest
from conftest import (_concatenate_simulate, chain_with_shortcuts,
                      cycle3_graph, laplacian_product_oracle,
                      monolithic_full, monolithic_partial)

XR0 = np.array([0.0, 1.0, 0.0])


@pytest.fixture(scope="module")
def full_design():
    return design_protocol(demo_model("full"), 2, mode="full", epsilon=1e-3)


@pytest.fixture(scope="module")
def partial_design():
    return design_protocol(demo_model("partial"), 2, mode="partial",
                           epsilon=1e-3)


def scalar_design(mode):
    """Hand-sized synthetic design for single-agent step arithmetic: the
    observer gain F, and with it partial mode, only when mode asks for it."""
    model = AgentModel(A=[[0.8]], B=[[2.0]], C=[[0.5]])
    F = np.array([[0.6]]) if mode == "partial" else None
    return ProtocolDesign(model=model, epsilon_star=0.1, rho=0.5,
                          K=np.array([[0.3]]), P=np.eye(1), F=F,
                          omega_max=0.0, kappa_bar=1, theta=1.0, mu=1.0)


class TestDelayProfile:
    def test_bound_defaults_to_max(self):
        prof = DelayProfile([1, 0, 2])
        assert prof.kappa_bar == 2

    def test_negative_delay_rejected(self):
        with pytest.raises(ScenarioError):
            DelayProfile([1, -1])

    def test_bound_below_max_rejected(self):
        with pytest.raises(ScenarioError):
            DelayProfile(kappa=np.array([3]), kappa_bar=2)

    @pytest.mark.parametrize("kappa, kappa_bar", [
        ([0.5, 2.9], None), ([0, 2], 2.7), ([1, np.nan], 2), ([1], np.inf)])
    def test_non_integer_delays_rejected(self, kappa, kappa_bar):
        # never truncated: the delayed reads index the record by these values
        with pytest.raises(ScenarioError, match="non-integer"):
            DelayProfile(kappa, kappa_bar)

    @pytest.mark.parametrize("kappa, kappa_bar", [
        (['1', 0], '2'), ([1, 0], '2'), ([b'1', 0], None),
        ({'a': 1}, None), ([1j, 0], None), ([None, 1], 1)])
    def test_non_numeric_delays_rejected(self, kappa, kappa_bar):
        # strings and other objects are not delays either
        with pytest.raises(ScenarioError, match="non-numeric"):
            DelayProfile(kappa, kappa_bar)

    @pytest.mark.parametrize("kappa", [[[1], [2, 3]], [[1], [0, 1], 1]])
    def test_ragged_delays_rejected(self, kappa):
        # the error a ragged AgentModel or CommGraph input raises
        with pytest.raises(DimensionError, match="kappa has rows of unequal"):
            DelayProfile(kappa=kappa, kappa_bar=3)
        with pytest.raises(DimensionError, match="kappa has rows of unequal"):
            DelayProfile(kappa)

    @pytest.mark.parametrize("kappa, named", [
        ([1] * 500 + ['1'], "non-numeric or boolean kappa: entry 500 is '1'"),
        ([0.5] * 500, "non-integer kappa: entry 0 is 0.5")])
    def test_bad_delay_named_briefly(self, kappa, named):
        # the first bad entry is named; the message does not repeat the list
        with pytest.raises(ScenarioError) as err:
            DelayProfile(kappa)
        assert str(err.value) == named

    @pytest.mark.parametrize("kappa, kappa_bar", [
        (np.array([True, False]), 1), ([1, 0], True), ([1, 0], np.True_),
        (np.array([True, False]), True), ([True, 2], None)])
    def test_boolean_delays_rejected(self, kappa, kappa_bar):
        # a flag is not a delay, as in the scenario schema, even as one
        # entry of a list of integers
        with pytest.raises(ScenarioError, match="boolean"):
            DelayProfile(kappa, kappa_bar)

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
            DelayProfile(kappa, kappa_bar)
        with pytest.raises(ScenarioError, match=beyond):
            DelayProfile(kappa, kappa_bar)

    def test_largest_int64_delay_accepted(self):
        prof = DelayProfile(
            np.array([2 ** 63 - 1, 0], dtype=np.uint64))
        assert prof.kappa_bar == 2 ** 63 - 1

    def test_whole_floats_accepted(self):
        prof = DelayProfile([1.0, 0.0, 2.0], 3.0)
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
    return simulate(d.model, d, g, DelayProfile([kappa], 1),
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

    @pytest.mark.parametrize("partial", [False, True])
    def test_first_steps_match_brute_force_sums(self, full_design,
                                                partial_design, partial):
        # the sums of TestMeasurements' brute-force tests, taken through
        # simulate's first steps on a weighted graph with two roots; the
        # partial-mode inputs, and with them their exchange, are zero up
        # to step 2
        design = partial_design if partial else full_design
        A, B, C = design.model.A, design.model.B, design.model.C
        rng = np.random.default_rng(31)
        adj = rng.uniform(0, 2, size=(4, 4)) * (1 - np.eye(4))
        roots = np.array([1, 0, 1, 0], dtype=bool)
        traj = simulate(design.model, design,
                        CommGraph(adjacency=adj, roots=roots),
                        DelayProfile([0, 0, 0, 0]), rng.normal(size=(4, 3)),
                        rng.normal(size=3), 3)
        for k in range(3):
            x, chi, u, xr = (traj.x[k], traj.protocol[k], traj.u[k],
                             traj.x_ref[k])
            for i in range(4):
                s = 1.0 / (2 + adj[i].sum())
                # scaled relative measurement and the exchanged protocol
                # states and inputs, the reference's own row being zero
                meas = roots[i] * (C @ x[i] - C @ xr)
                mix_chi, mix_u = roots[i] * chi[i], roots[i] * u[i]
                for j in range(4):
                    meas = meas + adj[i, j] * (C @ x[i] - C @ x[j])
                    mix_chi = mix_chi + adj[i, j] * (chi[i] - chi[j])
                    mix_u = mix_u + adj[i, j] * (u[i] - u[j])
                if partial:
                    xhat = traj.observer[k, i]
                    chi_next = A @ chi[i] + B @ u[i] \
                        + A @ (xhat - s * mix_chi)
                    xhat_next = A @ xhat + B @ (s * mix_u) \
                        + design.F @ (s * meas - C @ xhat)
                    np.testing.assert_allclose(traj.observer[k + 1, i],
                                               xhat_next, rtol=0, atol=1e-12)
                else:
                    chi_next = A @ chi[i] + B @ u[i] \
                        + A @ (s * (meas - mix_chi))
                np.testing.assert_allclose(traj.protocol[k + 1, i], chi_next,
                                           rtol=0, atol=1e-12)
                np.testing.assert_allclose(traj.x[k + 1, i],
                                           A @ x[i] + B @ u[i],
                                           rtol=0, atol=1e-12)
                np.testing.assert_allclose(
                    traj.u[k + 1, i],
                    -design.rho * design.K @ traj.protocol[k + 1, i],
                    rtol=0, atol=1e-12)
            np.testing.assert_allclose(traj.x_ref[k + 1], A @ xr,
                                       rtol=0, atol=1e-12)

    def test_control_input_sign_and_scale(self):
        d = scalar_design("full")
        assert control_input(d, np.array([[2.0]]))[0, 0] \
            == pytest.approx(-0.3)


def run_case1(design, kappa, k_max, x0=None, xr0=XR0):
    g = cycle3_graph()
    x0 = _initial_states(3) if x0 is None else x0
    return simulate(design.model, design, g, DelayProfile(kappa),
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
                     DelayProfile([0, 0]),
                     np.zeros((2, 3)), XR0, 20)

    def test_delays_beyond_design_rejected(self, full_design):
        with pytest.raises(ScenarioError, match="tolerance"):
            run_case1(full_design, [3, 1, 1], 20)

    def test_wrong_initial_shape_rejected(self, full_design):
        with pytest.raises(ScenarioError, match="x0"):
            simulate(full_design.model, full_design, cycle3_graph(),
                     DelayProfile([1, 1, 2]),
                     np.zeros((2, 3)), XR0, 20)
        with pytest.raises(ScenarioError, match="k_max"):
            run_case1(full_design, [1, 1, 2], -1)

    def test_record_beyond_memory_refused_before_allocating(
            self, full_design):
        # 10**12 steps of four nodes at width 7 would be a 204 TiB record
        # and 22 TiB of errors; the refusal is decided on their computed size
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioError, match=r"^sim\.k_max = "
                               r"1000000000000 needs 230,968\.0 GiB for the "
                               r"run record and its errors, beyond the "):
                run_case1(full_design, [1, 1, 2], 10 ** 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_record_size_is_checked_exactly(self, full_design, monkeypatch):
        # 8 (kappa_bar + k_max + 1)(N + 1)(w + m) bytes of record and
        # 8 (k_max + 1) N of errors: 8 * 13 * 4 * 7 + 8 * 11 * 3 for ten
        # steps of case 1; a memory of that many bytes holds them
        size = 8 * (2 + 10 + 1) * (3 + 1) * (6 + 1) + 8 * (10 + 1) * 3
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": size}
        monkeypatch.setattr(dynamics.os, "sysconf", pages.__getitem__)
        run_case1(full_design, [1, 1, 2], 10)
        pages["SC_PHYS_PAGES"] = size - 1
        with pytest.raises(ScenarioError, match="sim.k_max = 10 "):
            run_case1(full_design, [1, 1, 2], 10)

    @pytest.mark.parametrize("x0_entry,xr0,named", [
        (0.0, ['0', True, 0.0], r"xr0: entry 0 is '0'"),
        (0.0, [0.0, True, 0.0], r"xr0: entry 1 is True"),
        ('2', [0.0, 0.0, 0.0], r"x0: entry \(1, 1\) is '2'")])
    def test_quoted_or_boolean_initial_states_named(self, full_design,
                                                    x0_entry, xr0, named):
        # np.asarray(..., dtype=float) would start the run from them
        x0 = _initial_states(3).tolist()
        x0[1][1] = x0_entry
        with pytest.raises(ScenarioError, match="non-numeric or boolean "
                                                + named):
            run_case1(full_design, [1, 1, 2], 20, x0=x0, xr0=xr0)


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
                    DelayProfile(kappa, kappa_bar), x0, XR0,
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


def diverging_case1():
    """simulate's arguments but k_max for demo 1 at epsilon 0.1, far above
    the swept one: the sync error overflows from step 2277 and the states
    from step 4545."""
    cfg = demo_scenario(1, "full")
    design = design_protocol(cfg.model, 2, mode="full", epsilon=0.1)
    return cfg.model, design, cfg.graph, cfg.delays, cfg.x0, cfg.xr0


def outcome(run):
    """What a run returned, or the message it raised."""
    try:
        return run()
    except NumericError as err:
        return str(err)


def assert_same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert_bit_identical(got, want)


def use_blocks(monkeypatch, steps):
    """Size `simulate`'s blocks to `steps` steps on the 3-agent full-state
    runs: 4 nodes of 2 n + m = 7 entries make 28 entries per step."""
    monkeypatch.setattr(dynamics, "_BLOCK_ENTRIES", 28 * steps)


def counting(make, calls):
    """`make` with every product it returns counted in calls[0]."""
    def made(*args):
        product = make(*args)

        def counted(*operands):
            calls[0] += 1
            return product(*operands)
        return counted
    return made


@contextlib.contextmanager
def counted_products():
    """A context that counts the graph products of the runs inside it:
    `simulate`'s writes of W and the oracle loop's products alike."""
    calls = [0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_laplacian_product",
                   counting(dynamics._laplacian_product, calls))
        mp.setattr(conftest, "laplacian_product_oracle",
                   counting(conftest.laplacian_product_oracle, calls))
        yield calls


def assert_bit_identical(got, want):
    for field in dataclasses.fields(dynamics.Trajectory):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if b is None:
            assert a is None, field.name
        else:
            assert (a.shape, a.dtype) == (b.shape, b.dtype), field.name
            assert a.tobytes() == b.tobytes(), field.name


class TestDivergence:
    def test_raises_at_first_non_finite_step(self):
        def run(k_max):
            return simulate(*diverging_case1(), k_max)

        with pytest.raises(NumericError, match=r"non-finite from step \d+ "
                                               r"\(agent \d\)") as info:
            run(3000)
        step = int(re.search(r"step (\d+)", str(info.value)).group(1))
        assert 0 < step <= 3000
        assert np.isfinite(run(step - 1).error).all()

    def test_stops_at_first_non_finite_step(self, monkeypatch):
        # the run is tested once per block of steps; the block's size must
        # not move the step it names
        for block in (1, 7, 32):
            use_blocks(monkeypatch, block)
            assert outcome(lambda: simulate(*diverging_case1(), 20000)) == (
                "simulation diverged: a state, input or the sync error is "
                "non-finite from step 2277 (agent 2)"), block

    @pytest.mark.parametrize("block", [1, 7, 32])
    def test_stops_within_one_block(self, monkeypatch, block):
        # the sync error is non-finite from step 2277 and the states only
        # from step 4545: the run stops in the block that holds step 2277
        use_blocks(monkeypatch, block)
        with counted_products() as calls:
            with pytest.raises(NumericError, match=r"step 2277 \(agent 2\)"):
                simulate(*diverging_case1(), 20000)
        assert 2277 <= calls[0] <= 2277 + block

    def test_non_finite_initial_state_names_agent(self, monkeypatch,
                                                  full_design):
        x0 = _initial_states(3)
        x0[1, 2] = np.nan
        for block in (1, 7, 32):
            use_blocks(monkeypatch, block)
            with pytest.raises(NumericError, match=r"step 0 \(agent 1\)"):
                run_case1(full_design, [1, 1, 2], 10, x0=x0)

    @pytest.mark.parametrize("block", [1, 7, 32])
    def test_horizon_at_first_non_finite_input(self, monkeypatch, block):
        use_blocks(monkeypatch, block)
        args = diverging_case1()
        # the per-step loop stops at the first step whose inputs are
        # non-finite, after one product per step before it
        with counted_products() as calls:
            outcome(lambda: _concatenate_simulate(*args, 20000))
        first_bad_input = calls[0]
        assert 2277 < first_bad_input < 20000
        # around the first non-finite error and the first non-finite input
        for first_bad in (2277, first_bad_input):
            for k_max in (first_bad - 1, first_bad, first_bad + 1):
                assert_same_outcome(
                    outcome(lambda: simulate(*args, k_max)),
                    outcome(lambda: _concatenate_simulate(*args, k_max)))


@pytest.mark.parametrize("demo, mode, epsilon, step, agent",
                         [(1, "full", 0.1, 2277, 2),
                          (3, "partial", 1.0, 1697, 6)])
def test_edge_product_diverges_at_the_oracles_step(demo, mode, epsilon,
                                                   step, agent):
    # the edge sum writes only the columns of W that T reads; a diverging
    # run still names the step and agent the whole-V product names
    cfg = demo_scenario(demo, mode)
    design = design_protocol(cfg.model, 2, mode=mode, epsilon=epsilon)
    args = (cfg.model, design, cfg.graph, cfg.delays, cfg.x0, cfg.xr0, 20000)
    want = ("simulation diverged: a state, input or the sync error is "
            f"non-finite from step {step} (agent {agent})")
    with forced(True):
        assert outcome(lambda: _concatenate_simulate(*args)) == want
        assert outcome(lambda: simulate(*args)) == want


def test_agent_error_of_eight_components_is_within_two_ulp():
    # the block pass sums the squared components in order; numpy's norm
    # reduces 8 or more of them pairwise, which may round differently
    rng = np.random.default_rng(8)
    Q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    model = AgentModel(A=0.95 * Q, B=rng.normal(size=(8, 1)), C=np.eye(8))
    design = design_protocol(model, 1, mode="full", epsilon=1e-3)
    traj = simulate(model, design, cycle3_graph(), DelayProfile([0, 1, 1]),
                    rng.uniform(-2.0, 2.0, size=(3, 8)),
                    rng.uniform(-2.0, 2.0, size=8), 60)
    norm = np.linalg.norm(traj.x - traj.x_ref[:, None, :], axis=2)
    np.testing.assert_array_max_ulp(traj.agent_error, norm, maxulp=2)


def block_steps(n_agents, design):
    """`simulate`'s block length: max(1, _BLOCK_ENTRIES // ((N + 1)(w + m)))
    with w = 2 n in full mode and 3 n in partial mode."""
    n, m = design.model.n, design.model.m
    w = (3 if design.mode == "partial" else 2) * n
    return max(1, dynamics._BLOCK_ENTRIES // ((n_agents + 1) * (w + m)))


#: horizons as (blocks, extra steps) of a case's block length b
BLOCK_HORIZONS = {"b-1": (1, -1), "b": (1, 0), "b+1": (1, 1), "2b+1": (2, 1)}


class TestStepLoopOracle:
    """The buffered step loop against the per-step concatenating one, bit
    for bit, at horizons that straddle each case's block length b and at
    a few fixed ones."""

    @pytest.mark.parametrize("k_max", [0, 1, 31, 32, 33, 65, *BLOCK_HORIZONS])
    @pytest.mark.parametrize("partial", [False, True])
    @pytest.mark.parametrize("n_agents", [10, 300])
    def test_matches_concatenating_loop(self, full_design, partial_design,
                                        n_agents, partial, k_max):
        design = partial_design if partial else full_design
        rng = np.random.default_rng(n_agents)
        if n_agents == 10:
            # demo 3's graph: the dense product
            graph = demo_scenario(3, "full").graph
        else:
            graph = chain_with_shortcuts(rng, n_agents)
            assert block_steps(n_agents, design) == (21 if partial else 31)
        assert dynamics._use_edge_product(
            n_agents, graph.edge_dst.size) == (n_agents == 300)
        if k_max in BLOCK_HORIZONS:
            blocks, extra = BLOCK_HORIZONS[k_max]
            k_max = blocks * block_steps(n_agents, design) + extra
        delays = DelayProfile(rng.integers(0, 3, size=n_agents), 2)
        x0 = rng.uniform(-2.0, 2.0, size=(n_agents, 3))
        args = (design.model, design, graph, delays, x0, XR0, k_max)
        assert_bit_identical(simulate(*args), _concatenate_simulate(*args))


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
                    DelayProfile(kappa, design.kappa_bar), x0, xr0,
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
        # the dense product writes all of W, the edge sum only the columns
        # asked for; each written column is the old product's, bit for bit
        N = graph.n_agents
        V = data.draw(arrays(np.float64, (N + 1, width),
                             elements=st.floats(-2.0, 2.0)))
        columns = np.array(sorted(data.draw(st.sets(
            st.integers(0, width - 1), min_size=1))))
        lap_ext = extended_laplacian(graph)
        scale = np.append(1.0 / (2.0 + graph.in_degrees), 0.0)[:, None]
        want = scale * (lap_ext @ V)
        bound = 1e-12 * max(1.0, (np.abs(lap_ext) @ np.abs(V)).max())
        for use_edges in (False, True):
            VW = np.zeros((N + 1, 2 * width))
            VW[:, :width] = V
            with forced(use_edges):
                dynamics._laplacian_product(graph, VW, columns)()
                old = scale * laplacian_product_oracle(graph, width)(V)
            written = columns if use_edges else np.arange(width)
            unread = np.setdiff1d(np.arange(width), written)
            W = VW[:, width:]
            assert VW[:, :width].tobytes() == V.tobytes(), use_edges
            assert np.abs(W[:, written] - want[:, written]).max() <= bound
            assert W[:, written].tobytes() == old[:, written].tobytes()
            assert not W[:, unread].any(), use_edges

    @pytest.mark.parametrize("partial, read", [(False, 6), (True, 5)])
    def test_transition_reads_part_of_w(self, full_design, partial_design,
                                        partial, read):
        # of the 7 (full) or 10 (partial) columns of W, T reads in full mode
        # the coupled states and protocol states, in partial mode the
        # protocol states, the measured first state and the exchanged
        # input; the edge sum writes only those
        design = partial_design if partial else full_design
        T, _ = dynamics._block_transition(design.model, design, partial)
        width = T.shape[1]
        assert np.flatnonzero(T[width:].any(axis=1)).size == read


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
        delays = DelayProfile(np.zeros(N, dtype=int))
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

    def test_ten_thousand_agents_on_the_edge_list(self, full_design,
                                                  tmp_path):
        # a chain with N/10 random shortcuts, drawn as the benchmark's
        # rooted_chain draws them but kept as edges: a dense adjacency
        # alone would take 763 MiB, the run's record takes 107 MiB
        N, k_max = 10_000, 200
        rng = np.random.default_rng(11)
        edges = dict.fromkeys((i + 1, i) for i in range(N - 1))
        while len(edges) < N - 1 + N // 10:
            i, j = (int(v) for v in rng.choice(N, size=2, replace=False))
            edges[i, j] = None
        dst, src = np.array(list(edges)).T
        weight = np.ones(dst.size)
        roots = np.arange(N) == 0
        x0 = rng.uniform(-2.0, 2.0, size=(N, 3))
        delays = DelayProfile(np.zeros(N, dtype=int))
        tracemalloc.start()
        try:
            graph = CommGraph.from_edges(N, dst, src, weight, roots)
            traj = simulate(full_design.model, full_design, graph, delays,
                            x0, XR0, k_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        record = (k_max + 1) * (N + 1) * 7 * 8
        assert peak < record + 100 * 2 ** 20, (peak, record)

        # the same graph read from a scenario file's graph.edges rows
        model = full_design.model
        path = tmp_path / "edges.json"
        path.write_text(json.dumps({
            "model": {"A": model.A.tolist(), "B": model.B.tolist(),
                      "C": model.C.tolist()},
            "mode": "full",
            "graph": {"edges": [[i, j, 1.0] for i, j in edges],
                      "roots": roots.astype(int).tolist()},
            "delays": {"kappa": [0] * N},
            "sim": {"k_max": k_max, "x0": x0.tolist(),
                    "xr0": XR0.tolist()}}))
        loaded = load_config(path).graph
        for name in ("roots", "in_degrees", "edge_dst", "edge_src",
                     "edge_weight"):
            assert getattr(loaded, name).tobytes() \
                == getattr(graph, name).tobytes(), name
        assert loaded.n_agents == N

        # zero delays, so e = (x - x_ref) - chi obeys e(k+1) = S e(k) A'
        # with S = I - diag(1 / (2 + d_in)) (D_in + diag(roots) - Adj),
        # here a scipy sparse matrix built from the drawn edges
        adj = scipy.sparse.csr_matrix((weight, (dst, src)), shape=(N, N))
        d_in = np.asarray(adj.sum(axis=1)).ravel()
        S = (scipy.sparse.identity(N) - scipy.sparse.diags(1.0 / (2.0 + d_in))
             @ (scipy.sparse.diags(d_in + roots) - adj)).tocsr()
        e = traj.x - traj.x_ref[:, None, :] - traj.protocol
        assert np.abs(e[0]).max() > 1.0
        for k in range(k_max):
            err = np.abs(e[k + 1] - (S @ e[k]) @ model.A.T).max()
            assert err <= 1e-12 * max(1.0, np.abs(e[k]).max()), (k, err)
