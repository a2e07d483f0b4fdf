import math

import numpy as np
import pytest

from delaysync import AgentModel, CommGraph, dynamics
from delaysync.design import EPSILON_SWEEP, PARTIAL_STATE
from delaysync.errors import ConvergenceError, NumericError
from delaysync.network import network_matrices
from delaysync.riccati import (DARE_MAX_ITER, DARE_TOL, DareSolution,
                               dare_residual, feedback_gain, is_detectable,
                               is_stabilizable)
from delaysync.verify import CERTIFICATE_THRESHOLD

# benchmark agent used across the suite: spectrum {e^{+j pi/6}, e^{-j pi/6}, 1/2}
BENCH_A = np.array([[0.5, 1.0, 1.0],
                    [0.0, math.sqrt(3) / 2, -0.5],
                    [0.0, 0.5, math.sqrt(3) / 2]])
BENCH_B = np.array([[1.0], [1.0], [0.0]])
BENCH_C = np.array([[1.0, 0.0, 0.0]])

# known-good output injection for the benchmark agent (A - F C is Schur)
BENCH_F = np.array([[2.1321], [0.5469], [1.0299]])


@pytest.fixture
def bench_full():
    return AgentModel(A=BENCH_A, B=BENCH_B, C=np.eye(3))


@pytest.fixture
def bench_partial():
    return AgentModel(A=BENCH_A, B=BENCH_B, C=BENCH_C)


def rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def block_diag(blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    at = 0
    for b in blocks:
        k = b.shape[0]
        out[at:at + k, at:at + k] = b
        at += k
    return out


def cycle3_graph():
    """Directed 3-cycle 1 -> 2 -> 3 -> 1 with node 1 rooted."""
    adj = np.zeros((3, 3))
    adj[1, 0] = adj[2, 1] = adj[0, 2] = 1.0
    return CommGraph(adjacency=adj, roots=np.array([True, False, False]))


def chain_with_shortcuts(rng, n_agents):
    """Chain 0 -> 1 -> ... -> N-1 plus N/10 distinct random shortcuts, agent
    0 the only root: the shape of the benchmark's large simulations."""
    adj = np.zeros((n_agents, n_agents))
    idx = np.arange(n_agents - 1)
    adj[idx + 1, idx] = 1.0
    added = 0
    while added < n_agents // 10:
        i, j = (int(v) for v in rng.choice(n_agents, size=2, replace=False))
        if adj[i, j] == 0.0:
            adj[i, j] = 1.0
            added += 1
    roots = np.zeros(n_agents, dtype=bool)
    roots[0] = True
    return CommGraph(adjacency=adj, roots=roots)


def random_admissible_model(rng, n_max=4, m=1, with_output=False):
    """Random (A, B[, C]) with A's spectrum in the closed unit disc,
    stabilizable, and (when requested) detectable.

    A is an orthogonal similarity of a block-diagonal mix of unit-modulus
    rotation blocks and stable scalars, so the boundary eigenvalues are
    exact up to rounding.
    """
    while True:
        target = int(rng.integers(1, n_max + 1))
        blocks, n = [], 0
        while n < target:
            if target - n >= 2 and rng.random() < 0.6:
                radius = 1.0 if rng.random() < 0.5 else float(rng.uniform(0.3, 0.95))
                blocks.append(radius * rotation(float(rng.uniform(0.1, math.pi - 0.1))))
                n += 2
            else:
                blocks.append(np.array([[float(rng.uniform(-0.95, 0.95))]]))
                n += 1
        T, _ = np.linalg.qr(rng.normal(size=(n, n)))
        A = T @ block_diag(blocks) @ T.T
        B = rng.normal(size=(n, m))
        if not is_stabilizable(A, B):
            continue
        if not with_output:
            return A, B
        C = rng.normal(size=(1, n))
        if is_detectable(A, C):
            return A, B, C


def _serial_low_gain_dare(A, B, epsilon):
    """The serial doubling-plus-polish that `riccati._low_gain_dare` ran
    before its doubling was stacked over epsilons: the oracle the stacked
    body must reproduce bit for bit, iteration counts and failures
    included."""
    eye = np.eye(A.shape[0])
    Ak, G, H = A.copy(), B @ B.T, epsilon * eye
    iterations = 0
    for _ in range(DARE_MAX_ITER):
        IGH = eye + G @ H
        AX = np.linalg.solve(IGH, Ak)
        GX = np.linalg.solve(IGH, G)
        H_next = H + Ak.T @ (H @ AX)
        G_next = G + Ak @ GX @ Ak.T
        Ak = Ak @ AX
        G = 0.5 * (G_next + G_next.T)
        H_prev, H = H, 0.5 * (H_next + H_next.T)
        iterations += 1
        if np.linalg.norm(H - H_prev, "fro") \
                <= 1e-15 * max(1.0, np.linalg.norm(H, "fro")):
            break
    return _serial_polish(A, B, epsilon, H, iterations)


def _serial_polish(A, B, epsilon, P, iterations):
    """The serial fixed-point polish of `_serial_low_gain_dare` from the
    doubled P after `iterations` steps: the oracle of `riccati._polish`."""
    m = B.shape[1]
    Q = epsilon * np.eye(A.shape[0])
    residual = dare_residual(A, B, P, epsilon)
    stalls = 0
    while residual > DARE_TOL:
        if iterations >= DARE_MAX_ITER:
            raise ConvergenceError(
                f"DARE solver exhausted {DARE_MAX_ITER} iterations "
                f"(residual {residual:.3e} > tol {DARE_TOL:.3e})",
                residual=residual, iterations=iterations)
        M = np.eye(m) + B.T @ P @ B
        P_next = A.T @ P @ A + Q - A.T @ P @ B @ np.linalg.solve(M, B.T @ P @ A)
        P_next = 0.5 * (P_next + P_next.T)
        iterations += 1
        res_next = dare_residual(A, B, P_next, epsilon)
        if res_next >= residual:
            stalls += 1
            if stalls >= 5:
                raise ConvergenceError(
                    f"DARE polish stalled at residual {residual:.3e} > tol "
                    f"{DARE_TOL:.3e}", residual=residual, iterations=iterations)
        else:
            stalls = 0
        P, residual = P_next, res_next
    return DareSolution(P=P, epsilon=float(epsilon),
                        K=feedback_gain(A, B, P), residual=residual,
                        iterations=iterations)


def _companion_lift(A0, A1, kappa):
    """Companion matrix of x(k+1) = A0 x(k) + A1 x(k - kappa) over the
    delayed states [x(k); x(k-1); ...; x(k-kappa)], of order n (kappa + 1),
    one per matrix of a stack A1: the lift the certificate decomposed before
    it lifted over the delayed inputs, kept as the oracle of that one."""
    n = A0.shape[0]
    lift = np.tile(np.eye(n * (kappa + 1), k=-n), A1.shape[:-2] + (1, 1))
    lift[..., :n, :n] = A0
    lift[..., :n, kappa * n:] += A1
    return lift


def companion_radii(A0, A1, kappa_bar):
    """Spectral radii of the companion lifts for kappa in 0..kappa_bar (one
    array per delay for a stack A1), straight from numpy's eigvals."""
    return tuple(np.abs(np.linalg.eigvals(_companion_lift(A0, A1, kappa)))
                 .max(axis=-1) for kappa in range(kappa_bar + 1))


def _serial_sweep(A, B, rho, mu, kappa_bar):
    """eps* as the sweep found it before it was chunked: one point at a
    time, in grid order, each solved by the serial oracle and judged on
    its own companion lifts.  None when no point passes."""
    for eps in EPSILON_SWEEP:
        try:
            sol = _serial_low_gain_dare(A, B, eps)
        except ConvergenceError:
            continue
        BK = B @ sol.K
        radius = max(companion_radii(A, -rho * BK, kappa_bar))
        if (rho * np.linalg.norm(BK, 2) <= mu / 2.0
                and 1.0 - radius > CERTIFICATE_THRESHOLD):
            return sol
    return None


def _delayed_input_map(design, kappa):
    """-rho (E_d kron BK) side by side for d = 0..max(kappa), where E_d
    selects the agents with delay d: maps the protocol-state history
    [chi(k); chi(k-1); ...] to B u_i(k - kappa_i) stacked over agents."""
    BK = design.model.B @ design.K
    kappa = np.asarray(kappa)
    return np.hstack([-design.rho * np.kron(np.diag(kappa == d), BK)
                      for d in range(kappa.max() + 1)])


def _history_shift(Nn, depth):
    """Rows of the lifted history below its head: chi(k-d) moves down."""
    return np.eye(depth * Nn, k=-Nn)[Nn:]


def monolithic_full(design, graph, kappa):
    """Independent closed-loop matrix over [x; chi(k); ...; chi(k - max
    kappa); x_ref] for the delay profile kappa, assembled directly from
    Kronecker products."""
    A = design.model.A
    n = A.shape[0]
    N = graph.n_agents
    net = network_matrices(graph)
    W = net.scale[:, None] * net.expanded_laplacian
    w = net.scale * graph.roots
    eyeN = np.eye(N)
    delayed = _delayed_input_map(design, kappa)
    depth = delayed.shape[1] // (N * n)
    head = delayed.copy()
    head[:, :N * n] += np.kron(eyeN, A) - np.kron(W, A)
    rows = [
        np.hstack([np.kron(eyeN, A), delayed, np.zeros((N * n, n))]),
        np.hstack([np.kron(W, A), head, -np.kron(w[:, None], A)]),
        np.hstack([np.zeros(((depth - 1) * N * n, N * n)),
                   _history_shift(N * n, depth),
                   np.zeros(((depth - 1) * N * n, n))]),
        np.hstack([np.zeros((n, (depth + 1) * N * n)), A]),
    ]
    return np.vstack(rows)


def monolithic_partial(design, graph, kappa):
    """Closed-loop matrix over [x; xhat; chi(k); ...; chi(k - max kappa);
    x_ref] for the delay profile kappa."""
    A, C, F = design.model.A, design.model.C, design.F
    n = A.shape[0]
    N = graph.n_agents
    net = network_matrices(graph)
    W = net.scale[:, None] * net.expanded_laplacian
    w = net.scale * graph.roots
    eyeN = np.eye(N)
    FC = F @ C
    Z = np.zeros((N * n, N * n))
    delayed = _delayed_input_map(design, kappa)
    depth = delayed.shape[1] // (N * n)
    head = delayed.copy()
    head[:, :N * n] += np.kron(eyeN, A) - np.kron(W, A)
    rows = [
        np.hstack([np.kron(eyeN, A), Z, delayed, np.zeros((N * n, n))]),
        np.hstack([np.kron(W, FC), np.kron(eyeN, A - FC),
                   np.kron(W, np.eye(n)) @ delayed,
                   -np.kron(w[:, None], FC)]),
        np.hstack([Z, np.kron(eyeN, A), head, np.zeros((N * n, n))]),
        np.hstack([np.zeros(((depth - 1) * N * n, 2 * N * n)),
                   _history_shift(N * n, depth),
                   np.zeros(((depth - 1) * N * n, n))]),
        np.hstack([np.zeros((n, (depth + 2) * N * n)), A]),
    ]
    return np.vstack(rows)


def laplacian_product_oracle(graph, width):
    """The map V -> L_ext V on (N + 1) x width blocks, unscaled, as
    `dynamics._laplacian_product` took it before it wrote [V | W] itself:
    the dense matrix or the edge sum over every column, chosen by
    `dynamics._use_edge_product`.  The oracle of that writer's columns."""
    N = graph.n_agents
    if not dynamics._use_edge_product(N, graph.edge_dst.size):
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


def _concatenate_simulate(model, design, graph, delays, x0, xr0, k_max):
    """`dynamics.simulate`'s step loop as it was before its [V | W] buffer:
    each step concatenates V and [V | W] afresh and tests its inputs'
    finiteness before it runs, and takes the whole of L_ext V from
    `laplacian_product_oracle`; after the loop it computes every agent's
    error over the steps it ran with `np.linalg.norm` and scans them with
    the record.  The oracle the buffered, block-tested loop must reproduce
    bit for bit, its NumericError included.  Inputs are taken as valid."""
    n, m = model.n, model.m
    N = graph.n_agents
    x0, xr0 = np.asarray(x0, dtype=float), np.asarray(xr0, dtype=float)
    partial = design.mode == PARTIAL_STATE
    T, Kz = dynamics._block_transition(model, design, partial)
    w = T.shape[1] - m
    lap_ext_times = laplacian_product_oracle(graph, w + m)
    scale = np.append(1.0 / (2.0 + graph.in_degrees), 0.0)[:, None]
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
            if k == k_max or not np.isfinite(Z[:, w:]).all():
                break
            V = np.concatenate((Z[:, :w], flat[lag + k * (N + 1), w:]), axis=1)
            np.matmul(np.concatenate((V, scale * lap_ext_times(V)), axis=1),
                      T, out=rec[k + 1])

        x, x_ref = rec[:, :N, :n], rec[:, N, :n]
        agent_errors = np.linalg.norm(x[:k + 1] - x_ref[:k + 1, None, :],
                                      axis=2)
    ran = rec[:k + 1, :N]
    if not np.isfinite((agent_errors.max(), ran.min(), ran.max())).all():
        bad = ~(np.isfinite(agent_errors) & np.isfinite(ran).all(axis=2))
        k, i = np.unravel_index(np.argmax(bad), bad.shape)
        raise NumericError(f"simulation diverged: a state, input or the sync "
                           f"error is non-finite from step {k} (agent {i})")
    return dynamics.Trajectory(
        x=x, protocol=rec[:, :N, n:2 * n], u=rec[:, :N, w:],
        observer=rec[:, :N, 2 * n:w] if partial else None,
        x_ref=x_ref, error=agent_errors.max(axis=1),
        agent_error=agent_errors)
