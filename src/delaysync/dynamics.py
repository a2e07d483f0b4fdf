"""Closed-loop time stepping for delayed multi-agent synchronization.

State is kept in (N, n) arrays, one row per agent.  All updates are
strictly synchronous: every quantity at step k (inputs, measurements,
exchanges) is computed from the step-k snapshot before any state is
written, matching the difference equations the protocols define.

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
    synchronization error per step.
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

    # the plant and the exosystem follow `model`; the protocol and the
    # observer run on the design's copy of it
    A, B, C = model.A, model.B, model.C
    Ap, Bp, Cp = design.model.A, design.model.B, design.model.C
    kappa = delays.kappa
    inputs = InputHistory(N, m, delays.kappa_bar, k_max)

    x = x0.copy()
    chi = np.zeros((N, n))
    xhat = np.zeros((N, n)) if partial else None
    x_ref = xr0.copy()

    steps = k_max + 1
    rec_x = np.empty((steps, N, n))
    rec_chi = np.empty((steps, N, n))
    rec_xhat = np.empty((steps, N, n)) if partial else None
    rec_xr = np.empty((steps, n))
    net = network_matrices(graph)

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            rec_x[k], rec_chi[k], rec_xr[k] = x, chi, x_ref
            if partial:
                rec_xhat[k] = xhat
            u = control_input(design, chi)
            inputs.push(u)
            # every state feeds the inputs within two steps, so a non-finite
            # input ends the run; the check below names the first bad step
            if k == k_max or not np.isfinite(u).all():
                break
            u_delayed = inputs.read(kappa)

            # partial mode feeds the observer state where full mode feeds
            # the network measurement
            if partial:
                zeta_bar = network_measurement(graph, net, x, C @ x_ref, C=C)
                zeta_hat, zeta_hat2 = extra_exchange_partial(net, chi,
                                                             u_delayed)
                measured = xhat
                xhat = xhat @ Ap.T + zeta_hat2 @ Bp.T \
                    + (zeta_bar - xhat @ Cp.T) @ design.F.T
            else:
                measured = network_measurement(graph, net, x, x_ref)
                zeta_hat = extra_exchange_full(net, chi)
            chi = chi @ Ap.T + u_delayed @ Bp.T + (measured - zeta_hat) @ Ap.T
            x = x @ A.T + u_delayed @ B.T
            x_ref = A @ x_ref
        # three dense N x N arrays: not kept alive through the error pass
        del net

        agent_errors = _agent_errors(rec_x[:k + 1], rec_xr[:k + 1])
    # a non-finite state or reference makes that agent's error non-finite
    bad = ~np.isfinite(agent_errors)
    for rec in (rec_chi, rec_xhat, inputs.recorded):
        if rec is not None:
            bad |= ~np.isfinite(rec[:k + 1]).all(axis=2)
    if bad.any():
        k, i = np.unravel_index(np.argmax(bad), bad.shape)
        raise NumericError(f"simulation diverged: a state, input or the sync "
                           f"error is non-finite from step {k} (agent {i})")
    return Trajectory(x=rec_x, protocol=rec_chi, observer=rec_xhat,
                      x_ref=rec_xr, u=inputs.recorded,
                      error=agent_errors.max(axis=1))
