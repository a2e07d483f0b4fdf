"""Closed-loop time stepping for delayed multi-agent synchronization.

A run keeps one state block Z with a row per node of the extended graph.
Row i < N holds agent i's [x_i | chi_i | xhat_i] (the observer state only
in partial-state mode).  The reference is node N: its row holds x_ref, and
its protocol and observer states are zero.  The extended Laplacian L_ext
appends the column -roots and a zero row to the expanded Laplacian, so
L_ext [y; y_ref] = L_exp y - roots y_ref.  One graph product per step
therefore gives every relative measurement and both extra exchanges:

    u = Z Kz,    V = [Z | u_delayed],    Z+ = [V | diag(scale) L_ext V] T

where scale = 1 / (2 + d_in) and Kz, T are built once per run
(`_block_transition`).  Updates are strictly synchronous: every quantity
at step k is computed from the step-k block before the next is written.
`control_input`, `network_measurement` and the `extra_exchange_*` helpers
state the same laws term by term; `simulate` no longer calls them.

Delayed inputs are read back from the record of executed inputs, which
holds zeros at negative times.  Protocol and observer states start at
zero.  A run whose states, inputs or synchronization error leave the
finite floats stops at the first non-finite step and raises NumericError
naming the first step and agent.
"""

from dataclasses import dataclass

import numpy as np

from .design import PARTIAL_STATE
from .errors import DimensionError, NumericError, ScenarioError
from .network import is_rooted, network_matrices


@dataclass(frozen=True)
class DelayProfile:
    """Per-agent integer input delays with their common bound."""
    kappa: np.ndarray
    kappa_bar: int

    def __post_init__(self):
        kappa = np.asarray(self.kappa, dtype=int)
        if kappa.ndim != 1:
            raise DimensionError(f"kappa must be a vector, got {kappa.shape}")
        if np.any(kappa < 0):
            raise ScenarioError("delays must be non-negative integers")
        if self.kappa_bar < (kappa.max() if kappa.size else 0):
            raise ScenarioError(
                f"kappa_bar = {self.kappa_bar} is below the largest delay "
                f"{kappa.max()}")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "kappa_bar", int(self.kappa_bar))

    @classmethod
    def from_list(cls, kappa, kappa_bar=None):
        kappa = np.asarray(kappa, dtype=int)
        if kappa_bar is None:
            kappa_bar = int(kappa.max()) if kappa.size else 0
        return cls(kappa=kappa, kappa_bar=kappa_bar)


class InputHistory:
    """Record of every agent's executed inputs, zero at negative times.

    Row kappa_bar + k holds u(k), so the first kappa_bar rows are the
    zero inputs before step 0 and a delayed read never leaves the array.
    `push` records the inputs of the next step; `read` then resolves each
    agent's own delay against that step.
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
    synchronization error per step.  The state fields are views of one
    recorded block, and `u` of the input record.
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


def _agent_errors(x, x_ref):
    return np.linalg.norm(x - x_ref[:, None, :], axis=2)


def _block_transition(model, design, partial):
    """Per-step matrices of the stacked state block Z = [x | chi | xhat].

    Returns (T, Kz): u = Z @ Kz = -rho chi K', and
    Z(k+1) = [V | W] @ T with V = [Z | u_delayed] and W the scaled
    extended-Laplacian product of V.  The plant and the exosystem follow
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

    T = np.zeros((2 * (w + m), w))
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
    return T, Kz


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
    w = T.shape[1]
    # the reference is node N of the extended graph: rows 0..N-1 read
    # L_exp y - roots y_ref, and its own row is zero
    net = network_matrices(graph)
    lap_ext = np.zeros((N + 1, N + 1))
    lap_ext[:N, :N] = net.expanded_laplacian
    lap_ext[:N, N] = -graph.roots.astype(float)
    scale = np.append(net.scale, 0.0)[:, None]
    del net  # its dense N x N arrays are not kept alive through the run
    kappa = np.append(delays.kappa, 0)
    inputs = InputHistory(N + 1, m, delays.kappa_bar, k_max)

    steps = k_max + 1
    rec = np.zeros((steps, N + 1, w))
    rec[0, :N, :n] = x0
    rec[0, N, :n] = xr0

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            Z = rec[k]
            u = Z @ Kz
            inputs.push(u)
            # every state feeds the inputs within two steps, so a non-finite
            # input ends the run; the check below names the first bad step
            if k == k_max or not np.isfinite(u).all():
                break
            V = np.concatenate((Z, inputs.read(kappa)), axis=1)
            # scale after the product: a synchronized network measures 0
            np.matmul(np.concatenate((V, scale * (lap_ext @ V)), axis=1), T,
                      out=rec[k + 1])

        x, x_ref = rec[:, :N, :n], rec[:, N, :n]
        agent_errors = _agent_errors(x[:k + 1], x_ref[:k + 1])
    u = inputs.recorded[:, :N]
    # a non-finite state or reference makes that agent's error non-finite
    bad = ~np.isfinite(agent_errors)
    for block in (rec[:k + 1, :N], u[:k + 1]):
        bad |= ~np.isfinite(block).all(axis=2)
    if bad.any():
        k, i = np.unravel_index(np.argmax(bad), bad.shape)
        raise NumericError(f"simulation diverged: a state, input or the sync "
                           f"error is non-finite from step {k} (agent {i})")
    return Trajectory(x=x, protocol=rec[:, :N, n:2 * n],
                      observer=rec[:, :N, 2 * n:] if partial else None,
                      x_ref=x_ref, u=u, error=agent_errors.max(axis=1))
