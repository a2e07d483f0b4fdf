"""Directed communication graphs and the matrices the protocol reads off them.

A graph is a weighted adjacency matrix (a_ij > 0 is an edge from node j to
node i) plus a boolean root vector marking which agents also measure the
reference.  From it we build the expanded Laplacian (the Laplacian plus
root flags on the diagonal), the in-degree vector, and the
row-substochastic matrix

    I - (2I + D_in)^{-1} (L + diag(roots))

whose spectral radius is below one exactly when every node is reachable
from the root set.

Input is validated once, when a `CommGraph` is built (shape, finite and
non-negative real weights, zero diagonal); the matrices derived from a valid
graph have their sign and row-sum properties by construction.  The graph
also derives, once, its in-degrees and its edge list (destination, source
and weight of every a_ij > 0, sorted by destination), so that code which
walks the edges never scans the dense adjacency: `is_rooted` decides
reachability by a graph search over the edges in O(N + E) steps, and
`dynamics.simulate` multiplies sparse graphs over them.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ScenarioError, real_array


@dataclass(frozen=True)
class CommGraph:
    """Weighted digraph with root flags; adjacency has zero diagonal and
    finite non-negative real weights, and each root flag is a bool or 0/1."""
    adjacency: np.ndarray
    roots: np.ndarray
    #: adjacency.sum(axis=1), the weighted in-degree of every agent
    in_degrees: np.ndarray = field(init=False, repr=False, compare=False)
    #: edges j -> i with a_ij > 0 as index arrays (i, j), sorted by i, and
    #: their weights a_ij
    edge_dst: np.ndarray = field(init=False, repr=False, compare=False)
    edge_src: np.ndarray = field(init=False, repr=False, compare=False)
    edge_weight: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        adj = real_array(self.adjacency, "adjacency")
        try:
            roots = np.asarray(self.roots)
        except (TypeError, ValueError):  # ragged, or no array at all
            raise ScenarioError("roots must be one row of 0/1 flags") from None
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise DimensionError(f"adjacency must be square, got {adj.shape}")
        if adj.shape[0] == 0:
            raise DimensionError("a graph needs at least one agent")
        if roots.shape != (adj.shape[0],):
            raise DimensionError(
                f"roots must have length {adj.shape[0]}, got shape {roots.shape}")
        if roots.dtype.kind != "b" and not (
                roots.dtype.kind in "iuf" and np.all((roots == 0) | (roots == 1))):
            raise ScenarioError(f"roots must be 0/1 flags, got {roots.tolist()}")
        if not np.all(np.isfinite(adj)):
            raise ScenarioError("adjacency weights must be finite")
        if np.any(adj < 0):
            raise ScenarioError("adjacency weights must be non-negative")
        if np.any(np.diag(adj) != 0):
            raise ScenarioError("adjacency must have a zero diagonal (no self-loops)")
        dst, src = np.nonzero(adj)  # row-major: sorted by destination
        for name, value in dict(
                adjacency=adj, roots=roots.astype(bool, copy=False),
                in_degrees=adj.sum(axis=1), edge_dst=dst, edge_src=src,
                edge_weight=adj[dst, src]).items():
            object.__setattr__(self, name, value)

    @property
    def n_agents(self):
        return self.adjacency.shape[0]


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
