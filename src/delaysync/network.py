"""Directed communication graphs and the matrices the protocol reads off them.

A graph is N agents, a weighted edge list (a_ij > 0 is an edge from node j
to node i) and a boolean root vector marking which agents also measure
the reference.  From it we build the expanded Laplacian (the Laplacian
plus root flags on the diagonal), the in-degree vector, and the
row-substochastic matrix

    I - (2I + D_in)^{-1} (L + diag(roots))

whose spectral radius is below one exactly when every node is reachable
from the root set.

The edge list is the stored form: destination, source and weight of every
edge, sorted by (destination, source), plus the in-degrees, summed over
those edges in that order.  A `CommGraph` is built from a dense weight
matrix (`CommGraph(adjacency, roots)`, which keeps its a_ij > 0) or from
the edges themselves (`CommGraph.from_edges`), and the two give the same
fields for the same graph.  Input is validated once, when a graph is
built (a square matrix with finite non-negative real weights and a zero
diagonal, or edges with indices in range, no self-loop, no repeated pair
and finite positive weights); the matrices derived from a valid graph
have their sign and row-sum properties by construction.  No N x N array
is kept: `adjacency` rebuilds the dense matrix on demand, for the small
graphs whose products are dense anyway.  `is_rooted` decides reachability
by a graph search over the edges in O(N + E) steps, and
`dynamics.simulate` multiplies sparse graphs over them.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionError, ScenarioError, describe_entry,
                     is_real_type, real_array, scalar, whole_array)


def _not_flag(value):
    """True unless `value` is a bool or a real number equal to 0 or 1."""
    return not (isinstance(value, (bool, np.bool_))
                or is_real_type(type(value)) and value in (0, 1))


def _root_flags(roots, n_agents):
    """`roots` as N booleans; each must be a bool or a real 0 or 1."""
    try:
        roots = np.asarray(roots)
    except (TypeError, ValueError):  # ragged, or no array at all
        raise ScenarioError("roots must be one row of 0/1 flags") from None
    if roots.shape != (n_agents,):
        raise DimensionError(
            f"roots must have length {n_agents}, got shape {roots.shape}")
    if roots.dtype.kind != "b" and not (
            roots.dtype.kind in "iuf" and np.all((roots == 0) | (roots == 1))):
        raise ScenarioError("roots must be 0/1 flags: "
                            + describe_entry(roots, _not_flag))
    return roots.astype(bool, copy=False)


def _edge_error(rule, dst, src, weight, bad):
    """ScenarioError naming the first edge (i, j, a_ij) with bad(edge)."""
    edges = np.empty(dst.size, dtype=object)
    edges[:] = list(zip(dst.tolist(), src.tolist(), weight.tolist()))
    return ScenarioError(f"edges {rule}: " + describe_entry(edges, bad))


@dataclass(frozen=True, eq=False, init=False)
class CommGraph:
    """Weighted digraph with root flags, stored as its edge list.

    Build it from a dense matrix, `CommGraph(adjacency, roots)`, with zero
    diagonal and finite non-negative real weights, or from the edges with
    `CommGraph.from_edges`; each root flag is a bool or 0/1.  Graphs
    compare by identity.
    """
    n_agents: int
    roots: np.ndarray
    #: the weighted in-degree of every agent: its in-edges' weights summed
    #: in edge order
    in_degrees: np.ndarray = field(repr=False)
    #: edges j -> i with a_ij > 0 as index arrays (i, j), sorted by (i, j),
    #: and their weights a_ij
    edge_dst: np.ndarray = field(repr=False)
    edge_src: np.ndarray = field(repr=False)
    edge_weight: np.ndarray = field(repr=False)

    def __init__(self, adjacency, roots):
        adj = real_array(adjacency, "adjacency")
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise DimensionError(f"adjacency must be square, got {adj.shape}")
        if adj.shape[0] == 0:
            raise DimensionError("a graph needs at least one agent")
        roots = _root_flags(roots, adj.shape[0])
        if not np.all(np.isfinite(adj)):
            raise ScenarioError("adjacency weights must be finite")
        if np.any(adj < 0):
            raise ScenarioError("adjacency weights must be non-negative")
        if np.any(np.diag(adj) != 0):
            raise ScenarioError("adjacency must have a zero diagonal (no self-loops)")
        dst, src = np.nonzero(adj)  # row-major: sorted by (destination, source)
        self._store(adj.shape[0], roots, dst, src, adj[dst, src])

    @classmethod
    def from_edges(cls, n_agents, dst, src, weight, roots):
        """The graph of N agents with an edge src[k] -> dst[k] of weight
        weight[k] for every k, the same graph as `CommGraph(adjacency,
        roots)` with adjacency[dst[k], src[k]] = weight[k].

        Indices are whole numbers in [0, N), weights finite and positive
        real numbers; no edge is a self-loop and no (dst, src) pair
        repeats.  The first bad edge is named by its position and value.
        """
        n = scalar(n_agents, "n_agents", whole_array)
        if n == 0:
            raise DimensionError("a graph needs at least one agent")
        dst, src = whole_array(dst, "edge destinations"), \
            whole_array(src, "edge sources")
        weight = real_array(weight, "edge weights")
        if not (dst.ndim == src.ndim == weight.ndim == 1
                and dst.size == src.size == weight.size):
            raise DimensionError(
                "edge destinations, sources and weights must be vectors of "
                f"one length, got shapes {dst.shape}, {src.shape} and "
                f"{weight.shape}")
        roots = _root_flags(roots, n)
        if np.any(dst >= n) or np.any(src >= n):
            raise _edge_error(f"must join agents in [0, {n})", dst, src,
                              weight, lambda e: max(e[0], e[1]) >= n)
        if np.any(dst == src):
            raise _edge_error("must not be self-loops", dst, src, weight,
                              lambda e: e[0] == e[1])
        if not np.all(np.isfinite(weight) & (weight > 0)):
            raise _edge_error("must have finite positive weights", dst, src,
                              weight, lambda e: not 0 < e[2] < np.inf)
        order = np.lexsort((src, dst))
        if np.any((np.diff(dst[order]) == 0) & (np.diff(src[order]) == 0)):
            seen = set()  # the first edge whose pair an earlier edge has
            raise _edge_error("must not repeat a (dst, src) pair", dst, src,
                              weight, lambda e: e[:2] in seen
                              or seen.add(e[:2]))
        graph = cls.__new__(cls)
        graph._store(n, roots, dst[order], src[order], weight[order])
        return graph

    def _store(self, n_agents, roots, dst, src, weight):
        """Set the fields from valid edges sorted by (dst, src)."""
        for name, value in dict(
                n_agents=n_agents, roots=roots,
                in_degrees=np.bincount(dst, weight, minlength=n_agents),
                edge_dst=dst, edge_src=src, edge_weight=weight).items():
            object.__setattr__(self, name, value)

    @property
    def adjacency(self):
        """The dense N x N weight matrix, rebuilt from the edges on each
        call (O(N^2) memory)."""
        adj = np.zeros((self.n_agents, self.n_agents))
        adj[self.edge_dst, self.edge_src] = self.edge_weight
        return adj


@dataclass(frozen=True)
class NetworkMatrices:
    """Matrix bundle derived from a CommGraph."""
    expanded_laplacian: np.ndarray
    in_degrees: np.ndarray
    substochastic: np.ndarray

    @property
    def scale(self):
        """Per-row normalization 1 / (2 + d_in(i))."""
        return 1.0 / (2.0 + self.in_degrees)


def network_matrices(graph):
    """Expanded Laplacian, in-degrees, and the substochastic matrix.

    The substochastic matrix is elementwise non-negative with row sums
    1 - roots_i / (2 + d_in(i)), by construction: its entries are
    a_ij / (2 + d_in(i)) >= 0 off the diagonal and
    (2 - roots_i) / (2 + d_in(i)) > 0 on it, for the finite non-negative
    weights a `CommGraph` admits.  Nothing is re-checked here;
    `tests/test_network.py` checks both facts on random graphs.
    """
    adj = graph.adjacency
    n = graph.n_agents
    d_in = graph.in_degrees
    lap_exp = np.diag(d_in + graph.roots) - adj
    sub = np.eye(n) - lap_exp / (2.0 + d_in)[:, None]
    return NetworkMatrices(expanded_laplacian=lap_exp, in_degrees=d_in,
                           substochastic=sub)


def is_rooted(graph):
    """True iff every node is reachable from the root set along edge
    direction, decided by a depth-first search over the edge list.

    The edges are grouped by source once (a stable sort), so the search
    visits every node and every edge at most once.
    """
    order = np.argsort(graph.edge_src, kind="stable")
    successors = graph.edge_dst[order].tolist()
    # successors of node j are successors[first[j]:first[j + 1]]
    first = np.searchsorted(graph.edge_src[order],
                            np.arange(graph.n_agents + 1)).tolist()
    seen = graph.roots.tolist()
    stack = np.flatnonzero(graph.roots).tolist()
    while stack:
        j = stack.pop()
        for i in successors[first[j]:first[j + 1]]:
            if not seen[i]:
                seen[i] = True
                stack.append(i)
    return all(seen)
