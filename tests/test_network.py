import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from delaysync import CommGraph, is_rooted
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
        np.testing.assert_array_equal(g.in_degrees, adj.sum(axis=1))

    def test_derived_fields_are_not_arguments(self):
        g = cycle3_graph()
        assert "edge" not in repr(g) and "in_degrees" not in repr(g)
        with pytest.raises(TypeError):
            CommGraph(adjacency=np.zeros((1, 1)), roots=np.array([True]),
                      in_degrees=np.zeros(1))


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
