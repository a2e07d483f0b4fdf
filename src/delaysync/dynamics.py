"""Closed-loop time stepping for delayed multi-agent synchronization.

A run keeps one record: a block Z(k) per step with a row per node of the
extended graph.  Row i < N holds agent i's [x_i | chi_i | xhat_i | u_i]
(the observer state only for a design with an observer gain F) and u_i(k)
is the input agent i computed at step k.  The reference is node N: its
row holds x_ref, and its protocol, observer and input columns are zero.
The extended Laplacian L_ext appends the column -roots and a zero row to
the expanded Laplacian, so L_ext [y; y_ref] = L_exp y - roots y_ref.  One
graph product per step therefore gives every relative measurement and
both extra exchanges:

    V = [Z_states | u_delayed],    Z+ = [V | diag(scale) L_ext V] [T | T Kz]

where scale = 1 / (2 + d_in), u = Z_states Kz, and T, Kz are built once
per run (`_block_transition`).  The columns T Kz write the next inputs
u(k+1) = Z+_states Kz in the same product.  [V | W] is one buffer,
allocated once per run and refilled in place each step: the states are
copied into V, the delayed inputs are read into it from the record, W is
written by the scaled product and the transition writes the next block of
the record.  Updates are strictly synchronous: every quantity at step k is
computed from the step-k block before the next is written.
`control_input`, `network_measurement` and the `extra_exchange_*` helpers
state the same laws term by term; `simulate` no longer calls them.

The product L_ext V is taken one of two ways, chosen once per run from N
and the edge count E alone (`_laplacian_product`): a dense (N+1) x (N+1)
matrix product, or a sum over the graph's edge list plus one edge from
the reference into every root, which costs O((N + E) w) per step and
builds no N x N array.  Either is bound once per run to [V | W] and
writes W itself; the edge sum gathers and scatters through 1-D indices
into the buffer and writes only the columns of W that meet nonzero rows
of T (on the demos' agent 6 of 7 in full mode and 5 of 10 in partial
mode), leaving the others zero.  Graphs of fewer
than 100 agents always take the dense product; sparse graphs of a few
hundred agents and more take the edges.

The delays, their bound and k_max are read by the whole-number rule
(`errors.whole_array`).  The record starts with kappa_bar zero rows, the
inputs before step 0, so each agent's delayed input u_i(k - kappa_i) is
read back from the record itself at a fixed per-agent offset.  Protocol
and observer states start at zero.  A run whose states, inputs or
synchronization error leave the finite floats raises NumericError naming
the first non-finite step and agent.  The run goes a block of steps at a
time, each block about `_BLOCK_ENTRIES` entries of the record: after a
block it computes that block's per-agent errors, the run's `agent_error`,
by summing the squared deviations one state component at a time (the
same bits as `np.linalg.norm` for n <= 7, within 2 ulp above), and tests
its states, inputs and errors once, so a diverging run stops within one
block of its first non-finite value.
"""

import os
from dataclasses import dataclass

import numpy as np

from .design import PARTIAL_STATE
from .errors import (DimensionError, NumericError, ScenarioError,
                     real_array, scalar, whole_array)
from .network import is_rooted


@dataclass(frozen=True, eq=False)
class DelayProfile:
    """Per-agent integer input delays with their common bound, by default
    the largest delay."""
    kappa: np.ndarray
    kappa_bar: int | None = None

    def __post_init__(self):
        kappa = whole_array(self.kappa, "kappa")
        if kappa.ndim != 1:
            raise DimensionError(f"kappa must be a vector, got {kappa.shape}")
        largest = kappa.max(initial=0)
        kappa_bar = scalar(largest if self.kappa_bar is None
                           else self.kappa_bar, "kappa_bar", whole_array)
        if kappa_bar < largest:
            raise ScenarioError(f"kappa_bar = {kappa_bar} is below the "
                                f"largest delay {largest}")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "kappa_bar", kappa_bar)


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
        self.kappa_bar = scalar(kappa_bar, "kappa_bar", whole_array)
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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-indexed closed-loop record; arrays are indexed [step, agent, ...].

    `observer` is None for full-state runs.  `agent_error` holds each
    agent's synchronization error |x_i - x_ref| per step and `error` its
    worst agent's.  Every other field is a view of the one recorded block.
    """
    x: np.ndarray
    protocol: np.ndarray
    observer: np.ndarray | None
    x_ref: np.ndarray
    u: np.ndarray
    error: np.ndarray
    agent_error: np.ndarray


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


#: entries of the record per block of steps of `simulate`: a block's
#: delayed-input indices and error temporaries stay near 0.5 MB each
#: however many agents a run has
_BLOCK_ENTRIES = 2 ** 16


#: the edge product is taken once the dense product's (N + 1)^2 entries
#: outnumber the edge product's N + 1 + E terms by more than this factor
_EDGE_PRODUCT_RATIO = 100


def _use_edge_product(n_agents, n_edges):
    """True iff `simulate` multiplies L_ext over the edges, not densely.

    Per step, the dense product costs about (N + 1)^2 w multiply-adds in
    BLAS and the edge product about N + 1 + E gathered and scattered
    entries per column it writes, with a fixed overhead of a few
    microseconds.  Measured per scaled product on a 2-vCPU VM (two BLAS
    threads) at the record widths w = 7 (full mode, one input; the edges
    write 6 columns) and w = 10 (partial mode; 5 columns), on chains with
    N/10 shortcuts and on denser random graphs:

    - chains, w = 7 / 10: N = 150 dense 11.2 / 15.1 us, edges 8.3 / 7.5 us;
      N = 200 dense 17.6 / 23.1 us, edges 10.1 / 8.9 us; N = 300 dense
      34 / 47 us, edges 14 / 12 us; N = 400 dense 129 / 99 us, edges
      21 / 15 us; N = 800 dense 454 / 422 us, edges 32 / 28 us;
    - N = 400 with 8 305 edges (5%): dense 105 / 100 us, edges 137 / 112
      us; the complete graph: dense 104 / 109 us, edges 3.0 / 2.7 ms;
    - the two break even at (N + 1)^2 / (N + 1 + E) of about 30-45 for
      N = 150-300, about 20-30 at N = 400 and 25-30 at N = 800.

    The rule takes the edges above a ratio of 100, set when the edge sum
    wrote every column and broke even at 40-100.  It leans to the dense
    product near the crossover, where a wrong edge choice costs more than
    a wrong dense one, and it never takes the edges below N = 100, where
    the ratio cannot exceed N + 1.  It reads no clock: the same graph
    always takes the same product, so repeated runs are bit-identical.
    """
    return (n_agents + 1) ** 2 > _EDGE_PRODUCT_RATIO * (n_agents + 1 + n_edges)


def _laplacian_product(graph, VW, columns):
    """A function that writes W = diag(scale) L_ext V into [V | W] = VW.

    L_ext is the expanded Laplacian with the column -roots appended for
    the reference, node N, and a zero row for it; scale = 1 / (2 + d_in)
    and 0 for the reference, applied after the product so that a
    synchronized network measures 0.  `_use_edge_product` picks the dense
    matrix, which writes all of W, or the edge sum
    diag(d_in + roots, 0) V - sum over edges j -> i of a_ij V_j, where the
    reference enters every root i as an edge N -> i of weight 1, which
    writes only W's `columns` and computes each as the edge sum over all
    of V would, bit for bit.
    """
    N = graph.n_agents
    width = VW.shape[1] // 2
    V, W = VW[:, :width], VW[:, width:]
    scale = np.append(1.0 / (2.0 + graph.in_degrees), 0.0)
    if not _use_edge_product(N, graph.edge_dst.size):
        lap_ext = np.zeros((N + 1, N + 1))
        lap_ext[:N, :N] = np.diag(graph.in_degrees + graph.roots) \
            - graph.adjacency
        lap_ext[:N, N] = -graph.roots.astype(float)
        scale = scale[:, None]
        return lambda: np.multiply(scale, lap_ext @ V, out=W)

    rooted = np.flatnonzero(graph.roots)
    dst = np.concatenate((graph.edge_dst, rooted))
    src = np.concatenate((graph.edge_src, np.full(rooted.size, N)))
    weight = np.concatenate((graph.edge_weight, np.ones(rooted.size)))
    neg_weight, diag, scale = (np.repeat(v, columns.size) for v in (
        -weight, np.append(graph.in_degrees + graph.roots, 0.0), scale))
    # indices into VW's 1-D view of V's entries (r, c), c in `columns`, and
    # into the result of its entry (i, c) for every edge into i
    flat = VW.reshape(-1)
    sources = (src[:, None] * VW.shape[1] + columns).ravel()
    own = (np.arange(N + 1)[:, None] * VW.shape[1] + columns).ravel()
    into = (dst[:, None] * columns.size + np.arange(columns.size)).ravel()
    written = own + width

    def product():
        terms = flat[sources]
        terms *= neg_weight
        neighbors = np.bincount(into, terms, minlength=own.size)
        mixed = flat[own]
        mixed *= diag
        mixed += neighbors
        mixed *= scale
        flat[written] = mixed
    return product


def simulate(model, design, graph, delays, x0, xr0, k_max):
    """Run the closed loop for k_max steps and record every state.

    Requires a rooted graph and a delay profile within the design's bound.
    Protocol and observer states and all inputs before step 0 are zero.
    Raises ScenarioError, before allocating, when the record of
    8 (kappa_bar + k_max + 1)(N + 1)(w + m) bytes and the per-agent errors
    of 8 (k_max + 1) N bytes would together exceed physical memory, and
    NumericError when the run leaves the finite floats.

    Each step refills one (N + 1) x 2 (w + m) buffer [V | W] in place: the
    graph product bound to it writes W (on the edges, only the columns T
    reads), and one product with T writes the next block of the record.
    The steps run in blocks of max(1, `_BLOCK_ENTRIES` // ((N + 1)(w + m))).
    The delayed inputs are gathered from a 1-D view of the record at
    element indices built once per block; after the block its per-agent
    errors are summed over the state components and its rows are tested
    for finiteness once, and the first non-finite step and agent are named
    as a test after every step would name them.
    """
    n, m = model.n, model.m
    N = graph.n_agents
    x0 = real_array(x0, "x0")
    xr0 = real_array(xr0, "xr0")
    if x0.shape != (N, n):
        raise ScenarioError(f"x0 must have shape {(N, n)}, got {x0.shape}")
    if xr0.shape != (n,):
        raise ScenarioError(f"xr0 must have shape {(n,)}, got {xr0.shape}")
    k_max = scalar(k_max, "k_max", whole_array)
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

    T, Kz = _block_transition(model, design, partial)
    w = T.shape[1] - m
    size = 8 * ((delays.kappa_bar + k_max + 1) * (N + 1) * (w + m)
                + (k_max + 1) * N)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if size > memory:  # refused before the record is allocated
        raise ScenarioError(f"sim.k_max = {k_max} needs {size / 2 ** 30:,.1f}"
                            f" GiB for the run record and its errors, beyond "
                            f"the {memory / 2 ** 30:,.1f} GiB of physical "
                            f"memory")
    # kappa_bar zero rows lead: u_i(k - kappa_i) is row lag_i + k (N + 1),
    # its inputs the entries `delayed` + k stride of the record's 1-D view
    kappa = np.append(delays.kappa, 0)
    lag = (delays.kappa_bar - kappa) * (N + 1) + np.arange(N + 1)
    stride = (N + 1) * (w + m)
    delayed = lag[:, None] * (w + m) + np.arange(w, w + m)
    full = np.zeros((delays.kappa_bar + k_max + 1, N + 1, w + m))
    rec, entries = full[delays.kappa_bar:], full.reshape(-1)
    rec[0, :N, :n] = x0
    rec[0, N, :n] = xr0
    # one [V | W] buffer for the whole run, refilled in place every step;
    # W's columns that meet only zero rows of T may stay finite zeros
    VW = np.zeros((N + 1, 2 * (w + m)))
    states, inputs = VW[:, :w], VW[:, w:w + m]
    write_coupled = _laplacian_product(
        graph, VW, np.flatnonzero(T[w + m:].any(axis=1)))
    x, x_ref = rec[:, :N, :n], rec[:, N, :n]
    errors = np.empty((k_max + 1, N))
    block = max(1, _BLOCK_ENTRIES // stride)

    with np.errstate(over="ignore", invalid="ignore"):
        rec[0, :, w:] = rec[0, :, :w] @ Kz
        # at k_max = 0 one pass of no steps still tests the initial states
        for k in range(0, max(k_max, 1), block):
            stop = min(k + block, k_max)
            reads = delayed + stride * np.arange(k, stop)[:, None, None]
            for Z_states, read, Z_next in zip(rec[k:stop, :, :w], reads,
                                              rec[k + 1:stop + 1]):
                states[...] = Z_states
                inputs[...] = entries[read]
                write_coupled()
                np.matmul(VW, T, out=Z_next)
            # |x_i - x_ref|: a pass over the agents per component, summed in
            # order; a non-finite state or reference makes that agent's
            # error non-finite, and reductions test the block
            err, ran = errors[k:stop + 1], rec[k:stop + 1, :N]
            xs, refs = x[k:stop + 1], x_ref[k:stop + 1, None]
            dev = xs[..., 0] - refs[..., 0]
            np.multiply(dev, dev, out=err)
            for c in range(1, n):
                np.subtract(xs[..., c], refs[..., c], out=dev)
                err += np.multiply(dev, dev, out=dev)
            np.sqrt(err, out=err)
            if not np.isfinite((err.max(), ran.min(), ran.max())).all():
                bad = ~(np.isfinite(err) & np.isfinite(ran).all(axis=2))
                step, i = np.unravel_index(np.argmax(bad), bad.shape)
                raise NumericError(f"simulation diverged: a state, input or "
                                   f"the sync error is non-finite from step "
                                   f"{k + step} (agent {i})")
    return Trajectory(x=x, protocol=rec[:, :N, n:2 * n], u=rec[:, :N, w:],
                      observer=rec[:, :N, 2 * n:w] if partial else None,
                      x_ref=x_ref, error=errors.max(axis=1),
                      agent_error=errors)
