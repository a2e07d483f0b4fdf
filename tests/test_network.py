import functools
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from delaysync import (CommGraph, DelayProfile, design_protocol, dynamics,
                       is_rooted, simulate)
from delaysync.demos import demo_model
from delaysync.errors import DimensionError, ScenarioError
from delaysync.network import network_matrices
from delaysync.spectral import spectral_radius

from conftest import BENCH_A, cycle3_graph


def graph_strategy(max_n=8):
    # zero or any finite weight up to 1e300, subnormals included: in-degrees
    # stay finite for n <= 8, so every graph here is a valid CommGraph
    def build(n):
        weights = arrays(np.float64, (n, n),
                         elements=st.floats(0, 1e300, allow_subnormal=True))
        roots = st.lists(st.booleans(), min_size=n, max_size=n)
        return st.tuples(weights, roots).map(
            lambda wr: CommGraph(
                adjacency=wr[0] * (1 - np.eye(n)),
                roots=np.array(wr[1], dtype=bool)))
    return st.integers(1, max_n).flatmap(build)


class TestCommGraph:
    def test_rejects_self_loops(self):
        with pytest.raises(ScenarioError):
            CommGraph(adjacency=np.eye(2), roots=np.array([True, False]))

    def test_rejects_negative_weights(self):
        adj = np.array([[0.0, -1.0], [0.0, 0.0]])
        with pytest.raises(ScenarioError):
            CommGraph(adjacency=adj, roots=np.array([True, False]))

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_rejects_non_finite_weights(self, weight):
        adj = np.array([[0.0, 0.0], [weight, 0.0]])
        with pytest.raises(ScenarioError, match="finite"):
            CommGraph(adjacency=adj, roots=np.array([True, False]))

    def test_rejects_empty_graph(self):
        # an empty graph would count as rooted and fail deep inside simulate
        with pytest.raises(DimensionError, match="at least one agent"):
            CommGraph(adjacency=np.zeros((0, 0)), roots=np.zeros(0, bool))

    def test_rejects_bad_root_length(self):
        with pytest.raises(DimensionError):
            CommGraph(adjacency=np.zeros((2, 2)), roots=np.array([True]))

    @pytest.mark.parametrize("roots", [[0.5, 7.0], [np.nan, 1.0], [2, 0],
                                       [-1, 1], ["1", "0"], [None, 1],
                                       [1j, 0], [[1], [0, 1]]])
    def test_rejects_roots_that_are_not_flags(self, roots):
        # np.asarray(..., dtype=bool) would read each of these as flags,
        # or raise numpy's own error on the ragged list
        with pytest.raises(ScenarioError, match="0/1 flags"):
            CommGraph(adjacency=np.zeros((2, 2)), roots=roots)

    def test_bad_root_message_names_one_entry(self):
        # the message names the first bad flag, not all 400 of them
        roots = [1] + [0] * 399
        roots[250] = 2
        with pytest.raises(ScenarioError) as exc:
            CommGraph(adjacency=np.zeros((400, 400)), roots=roots)
        assert str(exc.value) == "roots must be 0/1 flags: entry 250 is 2"

    @pytest.mark.parametrize("adjacency", [
        [["0", "1"], ["1", "0"]], [[0, {}], [0, 0]],
        [[False, True], [True, False]], [[0, True], [1.0, 0]],
        np.array([[False, True], [True, False]]), [[0, None], [1, 0]],
        [[0, 1j], [1, 0]], np.array([[0, 1j], [1, 0]])])
    def test_rejects_adjacency_that_is_not_numeric(self, adjacency):
        # quoted numbers and flags are no weights, as for AgentModel and
        # DelayProfile, however numpy would convert them
        with pytest.raises(ScenarioError,
                           match=r"non-numeric or boolean adjacency: "
                                 r"entry \(\d, \d\) is "):
            CommGraph(adjacency=adjacency, roots=[1, 0])

    @pytest.mark.parametrize("adjacency", [[[0, 1], [0]], [[0, [1]], [0, 0]]])
    def test_rejects_ragged_adjacency(self, adjacency):
        with pytest.raises(DimensionError, match="adjacency has rows of "
                                                 "unequal length"):
            CommGraph(adjacency=adjacency, roots=[1, 0])

    def test_bad_weight_named_briefly(self):
        # one flag in a 400-agent adjacency is named by its index and value;
        # the message does not repeat the matrix
        adjacency = np.zeros((400, 400)).tolist()
        adjacency[300][0] = True
        with pytest.raises(ScenarioError) as err:
            CommGraph(adjacency=adjacency, roots=[1] + [0] * 399)
        assert str(err.value) == ("non-numeric or boolean adjacency: "
                                  "entry (300, 0) is True")

    @pytest.mark.parametrize("roots", [[True, False], [1, 0], [1.0, 0.0],
                                       np.array([1, 0], dtype=np.uint8)])
    def test_accepts_bool_and_0_1_roots(self, roots):
        g = CommGraph(adjacency=np.zeros((2, 2)), roots=roots)
        assert g.roots.dtype == bool
        np.testing.assert_array_equal(g.roots, [True, False])

    @settings(max_examples=30, deadline=None)
    @given(graph_strategy())
    def test_edge_list_matches_adjacency(self, g):
        # every positive weight is one edge, listed by destination
        adj = g.adjacency
        rebuilt = np.zeros_like(adj)
        rebuilt[g.edge_dst, g.edge_src] = g.edge_weight
        np.testing.assert_array_equal(rebuilt, adj)
        assert g.edge_dst.size == np.count_nonzero(adj)
        assert np.all(g.edge_weight > 0)
        assert np.all(np.diff(g.edge_dst) >= 0)
        # an in-degree sums its agent's in-edge weights in edge order, so
        # it can differ from numpy's pairwise adj.sum(axis=1) in the last
        # bit once an agent has three or more fractional in-weights
        want = [functools.reduce(operator.add, row[row > 0], 0.0)
                for row in adj]
        np.testing.assert_array_equal(g.in_degrees, want)

    def test_derived_fields_are_not_arguments(self):
        g = cycle3_graph()
        assert "edge" not in repr(g) and "in_degrees" not in repr(g)
        with pytest.raises(TypeError):
            CommGraph(adjacency=np.zeros((1, 1)), roots=np.array([True]),
                      in_degrees=np.zeros(1))


def weighted_graph(rng, n_agents, density):
    """A rooted chain plus random fractional weights of the given density,
    as a matrix, and its edges in a shuffled order."""
    adj = rng.uniform(0.1, 2.0, (n_agents, n_agents)) \
        * (rng.random((n_agents, n_agents)) < density)
    adj[np.arange(1, n_agents), np.arange(n_agents - 1)] = 1.5
    np.fill_diagonal(adj, 0.0)
    roots = rng.random(n_agents) < 0.2
    roots[0] = True
    dst, src = np.nonzero(adj)
    shuffled = rng.permutation(dst.size)
    return adj, roots, (dst[shuffled], src[shuffled],
                        adj[dst, src][shuffled])


GRAPH_FIELDS = ("roots", "in_degrees", "edge_dst", "edge_src", "edge_weight")


class TestFromEdges:
    @pytest.mark.parametrize("n_agents, density, edge_product", [
        (1, 0.0, False), (5, 0.5, False), (12, 0.6, False),
        (300, 0.003, True)])
    def test_same_fields_and_runs_as_the_matrix(self, n_agents, density,
                                                edge_product):
        # the edge list in any order builds the graph the matrix builds,
        # field for field, and simulate runs it bit for bit the same way
        rng = np.random.default_rng(n_agents)
        adj, roots, (dst, src, weight) = weighted_graph(rng, n_agents,
                                                        density)
        by_matrix = CommGraph(adjacency=adj, roots=roots)
        by_edges = CommGraph.from_edges(n_agents, dst, src, weight, roots)
        assert by_edges.n_agents == by_matrix.n_agents == n_agents
        for name in GRAPH_FIELDS:
            got, want = getattr(by_edges, name), getattr(by_matrix, name)
            assert (got.dtype, got.tobytes()) == (want.dtype,
                                                  want.tobytes()), name
        assert by_edges.adjacency.tobytes() == adj.tobytes()
        assert dynamics._use_edge_product(
            n_agents, dst.size) == edge_product
        x0 = rng.uniform(-2.0, 2.0, (n_agents, 3))
        delays = DelayProfile(rng.integers(0, 3, n_agents))
        for mode in ("full", "partial"):
            design = design_protocol(demo_model(mode), 2, mode=mode,
                                     epsilon=1e-3)
            runs = [simulate(design.model, design, graph, delays, x0,
                             [0.0, 1.0, 0.0], 40)
                    for graph in (by_matrix, by_edges)]
            for name in ("x", "protocol", "x_ref", "u", "error",
                         "agent_error"):
                assert getattr(runs[0], name).tobytes() \
                    == getattr(runs[1], name).tobytes(), (mode, name)

    def test_empty_edge_list(self):
        g = CommGraph.from_edges(2, [], [], [], [True, True])
        assert g.edge_dst.size == 0 and g.edge_dst.dtype == np.int64
        np.testing.assert_array_equal(g.in_degrees, [0.0, 0.0])
        assert is_rooted(g)

    @pytest.mark.parametrize("dst, src, weight, error, message", [
        ([1, 2], [0, 3], [1.0, 1.0], ScenarioError,
         r"edges must join agents in \[0, 3\): entry 1 is \(2, 3, 1\.0\)"),
        ([1, 2], [0, 2], [1.0, 1.0], ScenarioError,
         r"edges must not be self-loops: entry 1 is \(2, 2, 1\.0\)"),
        ([1, 2, 1], [0, 1, 0], [1.0, 1.0, 0.5], ScenarioError,
         r"edges must not repeat a \(dst, src\) pair: "
         r"entry 2 is \(1, 0, 0\.5\)"),
        ([1, 2], [0, 1], [1.0, 0.0], ScenarioError,
         r"finite positive weights: entry 1 is \(2, 1, 0\.0\)"),
        ([1, 2], [0, 1], [-1.0, 1.0], ScenarioError,
         r"finite positive weights: entry 0 is \(1, 0, -1\.0\)"),
        ([1, 2], [0, 1], [1.0, np.inf], ScenarioError,
         r"finite positive weights: entry 1 is \(2, 1, inf\)"),
        ([1, 2], [0, 1], [np.nan, 1.0], ScenarioError,
         r"finite positive weights: entry 0 is \(1, 0, nan\)"),
        ([1, True], [0, 1], [1.0, 1.0], ScenarioError,
         r"non-numeric or boolean edge destinations: entry 1 is True"),
        ([1, 2], [0, 1.5], [1.0, 1.0], ScenarioError,
         r"non-integer edge sources: entry 1 is 1\.5"),
        ([1, -2], [0, 1], [1.0, 1.0], ScenarioError,
         r"negative edge destinations: entry 1 is -2"),
        ([1, 2], [0, 1], [1.0, "1"], ScenarioError,
         r"non-numeric or boolean edge weights: entry 1 is '1'"),
        ([1, 2], [0, 1], [1.0], DimensionError,
         r"vectors of one length, got shapes \(2,\), \(2,\) and \(1,\)"),
        ([[1, 2]], [[0, 1]], [[1.0, 1.0]], DimensionError,
         r"vectors of one length"),
    ])
    def test_first_bad_edge_named(self, dst, src, weight, error, message):
        with pytest.raises(error, match=message):
            CommGraph.from_edges(3, dst, src, weight, [1, 0, 0])

    def test_agents_and_roots_checked(self):
        with pytest.raises(DimensionError, match="at least one agent"):
            CommGraph.from_edges(0, [], [], [], [])
        with pytest.raises(DimensionError, match="roots must have length 3"):
            CommGraph.from_edges(3, [1], [0], [1.0], [1, 0])
        with pytest.raises(ScenarioError, match="0/1 flags: entry 1 is 2"):
            CommGraph.from_edges(3, [1], [0], [1.0], [1, 2, 0])
        with pytest.raises(ScenarioError, match="non-integer n_agents"):
            CommGraph.from_edges(2.5, [1], [0], [1.0], [1, 0])

    def test_adjacency_is_derived_and_read_only(self):
        g = CommGraph.from_edges(3, [1, 2, 0], [0, 1, 2], [1.0, 2.0, 0.5],
                                 [1, 0, 0])
        np.testing.assert_array_equal(g.adjacency, [[0.0, 0.0, 0.5],
                                                    [1.0, 0.0, 0.0],
                                                    [0.0, 2.0, 0.0]])
        with pytest.raises(AttributeError):
            g.adjacency = np.zeros((3, 3))
        # the matrix a graph was built from is not kept
        assert not any(np.ndim(value) == 2 for value in vars(g).values())


def expanded_laplacian(g):
    return network_matrices(g).expanded_laplacian


class TestLaplacian:
    """The expanded Laplacian: the graph Laplacian (in-degrees on the
    diagonal, negated weights off it) plus the root flags on the diagonal."""

    def test_single_node(self):
        g = CommGraph(adjacency=np.zeros((1, 1)), roots=np.array([True]))
        np.testing.assert_array_equal(expanded_laplacian(g), [[1.0]])

    def test_three_cycle(self):
        expected = np.array([[2.0, 0.0, -1.0],
                             [-1.0, 1.0, 0.0],
                             [0.0, -1.0, 1.0]])
        np.testing.assert_array_equal(expanded_laplacian(cycle3_graph()),
                                      expected)

    def test_weighted_star(self):
        adj = np.zeros((3, 3))
        adj[1, 0] = adj[2, 0] = 2.0
        g = CommGraph(adjacency=adj, roots=np.array([True, False, False]))
        expected = np.array([[1.0, 0.0, 0.0],
                             [-2.0, 2.0, 0.0],
                             [-2.0, 0.0, 2.0]])
        np.testing.assert_array_equal(expanded_laplacian(g), expected)

    @settings(max_examples=50, deadline=None)
    @given(graph_strategy())
    def test_rows_sum_to_zero(self, g):
        # without the root flags every row sums to zero
        L = expanded_laplacian(g) - np.diag(g.roots.astype(float))
        scale = max(1.0, np.abs(L).max())
        assert np.abs(L @ np.ones(g.n_agents)).max() <= 1e-12 * scale


class TestNetworkMatrices:
    def test_single_rooted_node(self):
        g = CommGraph(adjacency=np.zeros((1, 1)), roots=np.array([True]))
        np.testing.assert_allclose(network_matrices(g).substochastic, [[0.5]])

    def test_single_isolated_node(self):
        g = CommGraph(adjacency=np.zeros((1, 1)), roots=np.array([False]))
        np.testing.assert_allclose(network_matrices(g).substochastic, [[1.0]])

    def test_three_cycle_values(self):
        # in-degrees are all 1, so every row is scaled by 1/3
        net = network_matrices(cycle3_graph())
        expected = np.array([[1 / 3, 0.0, 1 / 3],
                             [1 / 3, 2 / 3, 0.0],
                             [0.0, 1 / 3, 2 / 3]])
        np.testing.assert_allclose(net.substochastic, expected, atol=1e-15)
        assert spectral_radius(net.substochastic) < 1.0

    @settings(max_examples=50, deadline=None)
    @given(graph_strategy())
    def test_row_sum_formula(self, g):
        net = network_matrices(g)
        got = net.substochastic.sum(axis=1)
        want = 1.0 - g.roots / (2.0 + net.in_degrees)
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert np.all(net.substochastic >= -1e-15)

    def test_expanded_laplacian_adds_root_flags(self):
        g = cycle3_graph()
        adj = g.adjacency
        lap = np.diag(adj.sum(axis=1)) - adj
        np.testing.assert_array_equal(
            network_matrices(g).expanded_laplacian - lap,
            np.diag([1.0, 0.0, 0.0]))


def reached_by_closure(g):
    """Rootedness from the boolean transitive closure, by repeated squaring
    of the one-step reachability matrix (reach[i, j]: j reaches i)."""
    n = g.n_agents
    reach = (g.adjacency > 0) | np.eye(n, dtype=bool)
    for _ in range(int(np.ceil(np.log2(n)))):
        reach = (reach.astype(int) @ reach.astype(int)) > 0
    return bool(reach[:, g.roots].any(axis=1).all())


def _graph(n, edges, roots):
    adj = np.zeros((n, n))
    for i, j in edges:
        adj[i, j] = 1.0
    return CommGraph(adjacency=adj, roots=np.array(roots, dtype=bool))


@st.composite
def sparse_graphs(draw, max_n=12):
    """Few edges of any positive or zero weight, any root set: rooted and
    unrooted graphs alike."""
    n = draw(st.integers(1, max_n))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    adj = np.zeros((n, n))
    for i, j in edges:
        if i != j:
            adj[i, j] = draw(st.floats(0, 1e300, allow_subnormal=True))
    roots = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return CommGraph(adjacency=adj, roots=np.array(roots, dtype=bool))


class TestIsRooted:
    def test_single_rooted(self):
        g = CommGraph(adjacency=np.zeros((1, 1)), roots=np.array([True]))
        assert is_rooted(g)

    def test_unreachable_node(self):
        g = CommGraph(adjacency=np.zeros((2, 2)),
                      roots=np.array([True, False]))
        assert not is_rooted(g)
        # the isolated non-root row makes the substochastic matrix hit 1
        assert spectral_radius(network_matrices(g).substochastic) \
            == pytest.approx(1.0)

    def test_three_cycle_rooted(self):
        assert is_rooted(cycle3_graph())

    def test_direction_matters(self):
        # edge 1 -> 2 only; rooting at 2 leaves node 1 unreachable
        adj = np.zeros((2, 2))
        adj[1, 0] = 1.0
        assert is_rooted(CommGraph(adjacency=adj,
                                   roots=np.array([True, False])))
        assert not is_rooted(CommGraph(adjacency=adj,
                                       roots=np.array([False, True])))

    @settings(max_examples=100, deadline=None)
    @given(sparse_graphs())
    # no root at all, on a complete graph
    @example(_graph(3, [(i, j) for i in range(3) for j in range(3) if i != j],
                    [False, False, False]))
    # the roots reach only each other
    @example(_graph(4, [(1, 0), (0, 1), (3, 2)], [True, True, False, False]))
    # an isolated agent beside a rooted chain
    @example(_graph(3, [(1, 0)], [True, False, False]))
    def test_matches_transitive_closure(self, g):
        assert is_rooted(g) == reached_by_closure(g)


class TestKroneckerStability:
    def test_rooted_graph_contracts_neutral_dynamics(self):
        # eigenvalues of the product are pairwise products, so the mixed
        # system is strictly stable whenever the graph part is
        for g in (cycle3_graph(),
                  CommGraph(adjacency=np.array([[0.0, 0.0], [1.0, 0.0]]),
                            roots=np.array([True, False]))):
            sub = network_matrices(g).substochastic
            assert spectral_radius(np.kron(sub, BENCH_A)) < 1.0
            rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
            assert spectral_radius(np.kron(sub, rot)) < 1.0
