"""Closed-loop time stepping for delayed multi-agent synchronization.

A run keeps one record: a block Z(k) per step with a row per node of the
extended graph.  Row i < N holds agent i's [x_i | chi_i | xhat_i | u_i]
(the observer state only in partial-state mode) and u_i(k) is the input
agent i computed at step k.  The reference is node N: its row holds
x_ref, and its protocol, observer and input columns are zero.  The
extended Laplacian L_ext appends the column -roots and a zero row to the
expanded Laplacian, so L_ext [y; y_ref] = L_exp y - roots y_ref.  One
graph product per step therefore gives every relative measurement and
both extra exchanges:

    V = [Z_states | u_delayed],    Z+ = [V | diag(scale) L_ext V] [T | T Kz]

where scale = 1 / (2 + d_in), u = Z_states Kz, and T, Kz are built once
per run (`_block_transition`).  The columns T Kz write the next inputs
u(k+1) = Z+_states Kz in the same product.  Updates are strictly
synchronous: every quantity at step k is computed from the step-k block
before the next is written.  `control_input`, `network_measurement` and
the `extra_exchange_*` helpers state the same laws term by term;
`simulate` no longer calls them.

The product L_ext V is taken one of two ways, chosen once per run from N
and the edge count E alone (`_laplacian_product`): a dense (N+1) x (N+1)
matrix product, or a sum over the graph's edge list plus one edge from
the reference into every root, which costs O((N + E) w) per step and
builds no N x N array.  Graphs of fewer than 100 agents always take the
dense product; sparse graphs of a few hundred agents and more take the
edges.

The record starts with kappa_bar zero rows, the inputs before step 0, so
each agent's delayed input u_i(k - kappa_i) is read back from the record
itself at a fixed per-agent offset.  Protocol and observer states start
at zero.  A run whose states, inputs or synchronization error leave the
finite floats stops at the first non-finite step and raises NumericError
naming the first step and agent.
"""

from dataclasses import dataclass

import numpy as np

from .design import PARTIAL_STATE
from .errors import (DimensionError, NumericError, ScenarioError,
                     describe_entry, real_array)
from .network import is_rooted


@dataclass(frozen=True)
class DelayProfile:
    """Per-agent integer input delays with their common bound."""
    kappa: np.ndarray
    kappa_bar: int

    def __post_init__(self):
        kappa = _whole(self.kappa, "kappa")
        if kappa.ndim != 1:
            raise DimensionError(f"kappa must be a vector, got {kappa.shape}")
        if np.any(kappa < 0):
            raise ScenarioError("delays must be non-negative integers")
        kappa_bar = _whole(self.kappa_bar, "kappa_bar")
        if kappa_bar.ndim != 0:
            raise DimensionError(
                f"kappa_bar must be a scalar, got shape {kappa_bar.shape}")
        kappa_bar = int(kappa_bar)
        if kappa_bar < kappa.max(initial=0):
            raise ScenarioError(
                f"kappa_bar = {kappa_bar} is below the largest delay "
                f"{kappa.max()}")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "kappa_bar", kappa_bar)

    @classmethod
    def from_list(cls, kappa, kappa_bar=None):
        kappa = _whole(kappa, "kappa")
        return cls(kappa=kappa, kappa_bar=kappa.max(initial=0)
                   if kappa_bar is None else kappa_bar)


def _whole(values, name):
    """`values` as ints.  Each entry must be a real number
    (`errors.real_array`), and a whole one within the int64 range: a delay
    is never truncated, but whole floats such as 2.0 are accepted."""
    arr = real_array(values, name, dtype=None)
    if arr.dtype.kind not in "iu" and not np.all(
            np.isfinite(arr) & (arr == np.round(arr))):
        raise ScenarioError(f"non-integer {name}: " + describe_entry(
            arr, lambda v: not (np.isfinite(v) and v == np.round(v))))
    with np.errstate(invalid="ignore"):  # a float beyond int64 casts wrong
        whole = arr.astype(int)
    beyond = whole != arr
    if np.any(beyond):
        raise ScenarioError(f"{name} beyond the integer range: "
                            f"{arr[beyond].tolist()}")
    return whole


class InputHistory:
    """Record of every agent's executed inputs, zero at negative times.

    Row kappa_bar + k holds u(k), so the first kappa_bar rows are the
    zero inputs before step 0 and a delayed read never leaves the array.
    `push` records the inputs of the next step; `read` then resolves each
    agent's own delay against that step.  `simulate` no longer uses it: its
    record holds the inputs as columns.  The class is kept for the traced
    `InputHistory.read/push` spans of the benchmark and for its own tests.
    """

    def __init__(self, n_agents, m, kappa_bar, k_max):
        self.kappa_bar = int(kappa_bar)
        self._rows = np.zeros((self.kappa_bar + k_max + 1, n_agents, m))
        self._agents = np.arange(n_agents)
        self._step = -1

    def push(self, u_now):
        self._step += 1
        self._rows[self.kappa_bar + self._step] = u_now

    def read(self, kappa):
        """Per-agent delayed inputs u_i(k - kappa_i), row i for agent i."""
        return self._rows[self.kappa_bar + self._step - kappa, self._agents]

    @property
    def recorded(self):
        """Inputs u(0), u(1), ... indexed [step, agent, input]."""
        return self._rows[self.kappa_bar:]


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed closed-loop record; arrays are indexed [step, agent, ...].

    `observer` is None for full-state runs.  `error` holds the worst-agent
    synchronization error per step.  Every field but `error` is a view of
    the one recorded block.
    """
    x: np.ndarray
    protocol: np.ndarray
    observer: np.ndarray | None
    x_ref: np.ndarray
    u: np.ndarray
    error: np.ndarray


def network_measurement(graph, net, states, y_ref, C=None):
    """Per-agent relative measurement, scaled by 1 / (2 + d_in(i)).

    Row i is
        (2 + d_in(i))^{-1} [ sum_j a_ij (y_i - y_j) + roots_i (y_i - y_ref) ]
    with y = states @ C' when C is given (output coupling) and y = states
    otherwise (full-state coupling).  Both the neighbor sum and the root
    term share the same scaling.  The in-degrees come from the graph's
    `NetworkMatrices` `net`.
    """
    adj = graph.adjacency
    d_in = net.in_degrees
    y = states if C is None else states @ np.asarray(C, dtype=float).T
    rel = d_in[:, None] * y - adj @ y
    rel += graph.roots[:, None] * (y - np.asarray(y_ref))
    return rel / (2.0 + d_in)[:, None]


def extra_exchange_full(net, chi):
    """Scaled expanded-Laplacian mix of the neighbors' protocol states."""
    return net.scale[:, None] * (net.expanded_laplacian @ chi)


def extra_exchange_partial(net, chi, delayed_u):
    """Both extra exchanges of the output-coupling protocol: the protocol
    states and the executed (own-delay) inputs, mixed the same way."""
    scale = net.scale[:, None]
    return (scale * (net.expanded_laplacian @ chi),
            scale * (net.expanded_laplacian @ delayed_u))


def control_input(design, chi):
    """u = -rho K chi, rowwise over agents."""
    return -design.rho * (chi @ design.K.T)


#: entries of x per block of `_agent_errors`: its temporaries stay near
#: 0.5 MB each however many agents and steps a run has
_ERROR_BLOCK_ENTRIES = 2 ** 16


def _agent_errors(x, x_ref):
    """||x_i(k) - x_ref(k)|| indexed [step, agent], a block of steps at a
    time."""
    errors = np.empty(x.shape[:2])
    block = max(1, _ERROR_BLOCK_ENTRIES // x[0].size)
    for k in range(0, len(x), block):
        errors[k:k + block] = np.linalg.norm(
            x[k:k + block] - x_ref[k:k + block, None, :], axis=2)
    return errors


def _block_transition(model, design, partial):
    """Per-step matrices of the stacked block Z = [x | chi | xhat | u].

    Returns (T, Kz): u = Z_states @ Kz = -rho chi K' on the state columns
    Z_states = [x | chi | xhat], and Z(k+1) = [V | W] @ T with
    V = [Z_states | u_delayed] and W the scaled extended-Laplacian product
    of V.  The last m columns of T are the first w times Kz, so the same
    product writes the next inputs.  The plant and the exosystem follow
    `model`; the protocol and the observer run on the design's copy of it.
    """
    A, B, C = model.A, model.B, model.C
    Ap, Bp, Cp = design.model.A, design.model.B, design.model.C
    n, m = model.n, model.m
    w = (3 if partial else 2) * n
    x, chi, xhat, u = (slice(0, n), slice(n, 2 * n), slice(2 * n, w),
                       slice(w, w + m))

    def coupled(block):
        """The same block of W, the network product, in [V | W]."""
        return slice(block.start + w + m, block.stop + w + m)

    T = np.zeros((2 * (w + m), w + m))
    T[x, x] = A.T
    T[u, x] = B.T
    T[chi, chi] = Ap.T
    T[u, chi] = Bp.T
    T[coupled(chi), chi] = -Ap.T
    if partial:
        # chi reads the observer state; xhat reads the measured outputs and
        # the exchanged delayed inputs
        T[xhat, chi] = Ap.T
        T[xhat, xhat] = Ap.T - Cp.T @ design.F.T
        T[coupled(x), xhat] = C.T @ design.F.T
        T[coupled(u), xhat] = Bp.T
    else:
        T[coupled(x), chi] = Ap.T
    Kz = np.zeros((w, m))
    Kz[chi] = -design.rho * design.K.T
    T[:, u] = T[:, :w] @ Kz
    return T, Kz


#: the edge product is taken once the dense product's (N + 1)^2 entries
#: outnumber the edge product's N + 1 + E terms by more than this factor
_EDGE_PRODUCT_RATIO = 100


def _use_edge_product(n_agents, n_edges):
    """True iff `simulate` multiplies L_ext over the edges, not densely.

    Per step, the dense product costs about (N + 1)^2 w multiply-adds in
    BLAS and the edge product about N + 1 + E gathered and scattered
    entries per column, with a fixed overhead of a few microseconds.
    Measured per product on a 2-vCPU VM (two BLAS threads) at the record
    widths w = 7 (full mode, one input) and w = 10 (partial mode), on
    chains with N/10 shortcuts and on denser random graphs:

    - chains, w = 7 / 10: N = 150 dense 9.6 / 14.5 us, edges 12.3 / 21.6 us;
      N = 200 dense 20.5 / 22.1 us, edges 15.9 / 18.5 us; N = 300 dense
      36 / 45 us, edges 21 / 27 us; N = 400 dense 128 / 93 us, edges
      27 / 34 us; N = 800 dense 670 / 459 us, edges 67 / 56 us;
    - N = 400 with 8 399 edges (5%): dense 127 / 113 us, edges 295 / 400
      us; the complete graph: dense 139 / 88 us, edges 10.8 / 15.8 ms;
    - the two break even at (N + 1)^2 / (N + 1 + E) of about 75-100 for
      N = 200-300, about 60-90 at N = 400 and 40-85 at N = 800.

    The rule takes the edges above a ratio of 100.  It leans to the dense
    product near the crossover, where a wrong edge choice costs more than
    a wrong dense one, and it never takes the edges below N = 100, where
    the ratio cannot exceed N + 1.  It reads no clock: the same graph
    always takes the same product, so repeated runs are bit-identical.
    """
    return (n_agents + 1) ** 2 > _EDGE_PRODUCT_RATIO * (n_agents + 1 + n_edges)


def _laplacian_product(graph, width):
    """The map V -> L_ext V on (N + 1) x width blocks, unscaled.

    L_ext is the expanded Laplacian with the column -roots appended for
    the reference, node N, and a zero row for it.  `_use_edge_product`
    picks the dense matrix or the edge sum
    diag(d_in + roots, 0) V - sum over edges j -> i of a_ij V_j, where the
    reference enters every root i as an edge N -> i of weight 1.
    """
    N = graph.n_agents
    if not _use_edge_product(N, graph.edge_dst.size):
        lap_ext = np.zeros((N + 1, N + 1))
        lap_ext[:N, :N] = np.diag(graph.in_degrees + graph.roots) \
            - graph.adjacency
        lap_ext[:N, N] = -graph.roots.astype(float)
        return lambda V: lap_ext @ V

    rooted = np.flatnonzero(graph.roots)
    dst = np.concatenate((graph.edge_dst, rooted))
    src = np.concatenate((graph.edge_src, np.full(rooted.size, N)))
    neg_weight = -np.concatenate((graph.edge_weight,
                                  np.ones(rooted.size)))[:, None]
    diag = np.append(graph.in_degrees + graph.roots, 0.0)[:, None]
    # flat index of entry (i, c) of the result for every edge into i
    into = (dst[:, None] * width + np.arange(width)).ravel()
    size = (N + 1) * width

    def product(V):
        neighbors = np.bincount(into, (neg_weight * V[src]).ravel(),
                                 minlength=size)
        return diag * V + neighbors.reshape(N + 1, width)
    return product


def simulate(model, design, graph, delays, x0, xr0, k_max):
    """Run the closed loop for k_max steps and record every state.

    Requires a rooted graph and a delay profile within the design's bound.
    Protocol and observer states and all inputs before step 0 are zero.
    Raises NumericError when the run leaves the finite floats.
    """
    n, m = model.n, model.m
    N = graph.n_agents
    x0 = np.asarray(x0, dtype=float)
    xr0 = np.asarray(xr0, dtype=float)
    if x0.shape != (N, n):
        raise ScenarioError(f"x0 must have shape {(N, n)}, got {x0.shape}")
    if xr0.shape != (n,):
        raise ScenarioError(f"xr0 must have shape {(n,)}, got {xr0.shape}")
    if k_max < 0:
        raise ScenarioError(f"k_max must be >= 0, got {k_max}")
    if delays.kappa.shape != (N,):
        raise ScenarioError(f"delay profile has {delays.kappa.shape[0]} entries "
                            f"for {N} agents")
    if delays.kappa_bar > design.kappa_bar:
        raise ScenarioError(
            f"delay bound {delays.kappa_bar} exceeds the designed tolerance "
            f"{design.kappa_bar}")
    if not is_rooted(graph):
        raise ScenarioError("graph is not rooted: some agent has no path "
                            "from the root set")
    partial = design.mode == PARTIAL_STATE
    if partial and design.F is None:
        raise ScenarioError("partial-state design is missing the observer gain")

    T, Kz = _block_transition(model, design, partial)
    w = T.shape[1] - m
    # the reference is node N of the extended graph: rows 0..N-1 read
    # L_exp y - roots y_ref, and its own row is zero
    lap_ext_times = _laplacian_product(graph, w + m)
    scale = np.append(1.0 / (2.0 + graph.in_degrees), 0.0)[:, None]

    # kappa_bar zero rows lead: u_i(k - kappa_i) is row lag_i + k (N + 1)
    kappa = np.append(delays.kappa, 0)
    lag = (delays.kappa_bar - kappa) * (N + 1) + np.arange(N + 1)
    steps = k_max + 1
    full = np.zeros((delays.kappa_bar + steps, N + 1, w + m))
    rec, flat = full[delays.kappa_bar:], full.reshape(-1, w + m)
    rec[0, :N, :n] = x0
    rec[0, N, :n] = xr0

    with np.errstate(over="ignore", invalid="ignore"):
        rec[0, :, w:] = rec[0, :, :w] @ Kz
        for k in range(steps):
            Z = rec[k]
            # every state feeds the inputs within two steps, so a non-finite
            # input ends the run; the check below names the first bad step
            if k == k_max or not np.isfinite(Z[:, w:]).all():
                break
            V = np.concatenate((Z[:, :w], flat[lag + k * (N + 1), w:]), axis=1)
            # scale after the product: a synchronized network measures 0
            np.matmul(np.concatenate((V, scale * lap_ext_times(V)), axis=1),
                      T, out=rec[k + 1])

        x, x_ref = rec[:, :N, :n], rec[:, N, :n]
        agent_errors = _agent_errors(x[:k + 1], x_ref[:k + 1])
    # a non-finite state or reference makes that agent's error non-finite;
    # reductions test the whole run without a temporary of the record's size
    ran = rec[:k + 1, :N]
    if not np.isfinite((agent_errors.max(), ran.min(), ran.max())).all():
        bad = ~(np.isfinite(agent_errors) & np.isfinite(ran).all(axis=2))
        k, i = np.unravel_index(np.argmax(bad), bad.shape)
        raise NumericError(f"simulation diverged: a state, input or the sync "
                           f"error is non-finite from step {k} (agent {i})")
    return Trajectory(x=x, protocol=rec[:, :N, n:2 * n], u=rec[:, :N, w:],
                      observer=rec[:, :N, 2 * n:w] if partial else None,
                      x_ref=x_ref, error=agent_errors.max(axis=1))
