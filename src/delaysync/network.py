"""Directed communication graphs and the matrices the protocol reads off them.

A graph is a weighted adjacency matrix (a_ij > 0 is an edge from node j to
node i) plus a boolean root vector marking which agents also measure the
reference.  From it we build the expanded Laplacian (the Laplacian plus
root flags on the diagonal), the in-degree vector, and the
row-substochastic matrix

    I - (2I + D_in)^{-1} (L + diag(roots))

whose spectral radius is below one exactly when every node is reachable
from the root set.  `is_rooted` decides that reachability by graph search.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DimensionError, ScenarioError


@dataclass(frozen=True)
class CommGraph:
    """Weighted digraph with root flags; adjacency has zero diagonal and
    finite non-negative weights."""
    adjacency: np.ndarray
    roots: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=float)
        roots = np.asarray(self.roots, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise DimensionError(f"adjacency must be square, got {adj.shape}")
        if adj.shape[0] == 0:
            raise DimensionError("a graph needs at least one agent")
        if roots.shape != (adj.shape[0],):
            raise DimensionError(
                f"roots must have length {adj.shape[0]}, got shape {roots.shape}")
        if not np.all(np.isfinite(adj)):
            raise ScenarioError("adjacency weights must be finite")
        if np.any(adj < 0):
            raise ScenarioError("adjacency weights must be non-negative")
        if np.any(np.diag(adj) != 0):
            raise ScenarioError("adjacency must have a zero diagonal (no self-loops)")
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "roots", roots)

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
    1 - roots_i / (2 + d_in(i)); both facts are asserted before returning.
    """
    adj = graph.adjacency
    n = graph.n_agents
    d_in = adj.sum(axis=1)
    lap_exp = np.diag(d_in + graph.roots) - adj
    sub = np.eye(n) - lap_exp / (2.0 + d_in)[:, None]
    if np.any(sub < -1e-12):
        raise ConsistencyError("substochastic matrix has a negative entry; "
                               "the input graph must be corrupt")
    if np.any(sub.sum(axis=1) > 1.0 + 1e-12):
        raise ConsistencyError("substochastic matrix has a row sum above 1")
    return NetworkMatrices(expanded_laplacian=lap_exp, in_degrees=d_in,
                           substochastic=sub)


def is_rooted(graph):
    """True iff every node is reachable from the root set along edge
    direction, decided by graph search."""
    adj = graph.adjacency
    seen = graph.roots.copy()
    stack = list(np.flatnonzero(seen))
    while stack:
        j = stack.pop()
        # a_ij > 0 is an edge j -> i, so successors of j sit in column j
        for i in np.flatnonzero(adj[:, j] > 0):
            if not seen[i]:
                seen[i] = True
                stack.append(i)
    return bool(seen.all())
