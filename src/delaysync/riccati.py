"""Low-gain H2 discrete algebraic Riccati machinery.

`solve_low_gain_dare` finds the stabilizing solution of

    A'PA - P - A'PB (I + B'PB)^{-1} B'PA + eps*I = 0

for eps in (0, 1]: the one Riccati family the protocol designer and the
observer use.  One body, `_doubling`, runs the structure-preserving
doubling of Chu, Fan, Lin et al. on (A, BB', eps*I), whose iteration
count stays flat as eps shrinks, for a stack of epsilons; each point is
frozen when it stops, bit-identical to a doubling at its epsilon alone.
`_polish` judges that stack against the Frobenius residual DARE_TOL in
one fixed-point step (residuals, gains K and next iterates for every
point); the rare point above the tolerance polishes alone.  It returns
each point's `DareSolution` (P and K: solve once, pass it on) or its
`ConvergenceError`.  `_low_gain_dare` is the one-point case, run by
`solve_low_gain_dare` after it checks the shapes, epsilon, the closed disc
and the PBH test; the designer, which validates its model once, solves
unchecked, its sweep as two stacks: the top point, then all the rest.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (AssumptionError, ConvergenceError, DimensionError,
                     ScenarioError, real_array, scalar)
from .spectral import UNIT_CIRCLE_TOL, eigenvalues, omega_max

#: PBH rank test: the trailing singular value of [A - lambda I, B] must
#: exceed this fraction of the leading one
_PBH_RTOL = 1e-8

#: Frobenius residual every returned Riccati solution meets
DARE_TOL = 1e-12

#: budget of combined doubling and polish iterations per solve
DARE_MAX_ITER = 200000


@dataclass(frozen=True, eq=False)
class DareSolution:
    """Stabilizing Riccati solution bundle.

    P is symmetric positive definite, K the associated feedback gain
    (I + B'PB)^{-1} B'PA, and residual the Frobenius norm of the equation
    defect at P.
    """
    P: np.ndarray
    epsilon: float
    K: np.ndarray
    residual: float
    iterations: int


def _check_a(A):
    """Real-number (`errors.real_array`) A, square."""
    A = real_array(A, "A")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"A must be square, got shape {A.shape}")
    return A


def _check_c(A, C):
    """Real-number C with the columns of `_check_a`'s A."""
    C = real_array(C, "C")
    if C.ndim != 2 or C.shape[1] != A.shape[0]:
        raise DimensionError(f"C must be qx{A.shape[0]}, got shape {C.shape}")
    return C


def _check_ab(A, B):
    """`_check_a`'s A, and real-number B with A's rows."""
    A, B = _check_a(A), real_array(B, "B")
    if B.ndim != 2 or B.shape[0] != A.shape[0]:
        raise DimensionError(f"B must be {A.shape[0]}xm, got shape {B.shape}")
    return A, B


def is_stabilizable(A, B):
    """PBH test: rank [A - lambda*I, B] = n at every eigenvalue with
    |lambda| >= 1 - 1e-7."""
    A, B = _check_ab(A, B)
    n = A.shape[0]
    eye = np.eye(n)
    for lam in eigenvalues(A):
        if abs(lam) < 1.0 - UNIT_CIRCLE_TOL:
            continue
        s = np.linalg.svd(np.hstack([A - lam * eye, B.astype(complex)]),
                          compute_uv=False)
        if s[n - 1] <= _PBH_RTOL * s[0]:
            return False
    return True


def is_detectable(A, C):
    """PBH test on the dual pair: (C, A) detectable iff (A', C') stabilizable."""
    A = _check_a(A)
    return is_stabilizable(A.T, _check_c(A, C).T)


def _check_epsilon(epsilon):
    """Real-number (`errors.scalar`) epsilon in (0, 1], else ScenarioError."""
    if not 0.0 < (epsilon := scalar(epsilon, "epsilon")) <= 1.0:
        raise ScenarioError(f"epsilon must be in (0, 1], got {epsilon}")
    return epsilon


def dare_residual(A, B, P, epsilon):
    """Frobenius norm of A'PA - P - A'PB (I + B'PB)^{-1} B'PA + eps*I."""
    A, B = _check_ab(A, B)
    P, epsilon = real_array(P, "P"), scalar(epsilon, "epsilon")
    K = feedback_gain(A, B, P)  # DimensionError naming P unless P is nxn
    defect = A.T @ P @ A - P - A.T @ P @ B @ K + epsilon * np.eye(A.shape[0])
    return float(np.linalg.norm(defect, "fro"))


def feedback_gain(A, B, P):
    """Feedback gain K = (I + B'PB)^{-1} B'PA for a given Riccati solution P.

    I + B'PB is positive definite whenever P >= 0, so the solve succeeds.
    """
    A, B = _check_ab(A, B)
    P = real_array(P, "P")
    if P.shape != A.shape:
        raise DimensionError(f"P must match A's shape {A.shape}, got {P.shape}")
    return np.linalg.solve(np.eye(B.shape[1]) + B.T @ P @ B, B.T @ P @ A)


def solve_low_gain_dare(A, B, epsilon):
    """Stabilizing solution of the low-gain DARE with weights eps*I and I.

    Requires (A, B) stabilizable, A's spectrum in the closed unit disc (the
    model class the protocol targets) and epsilon in (0, 1].  P is
    symmetric with residual at most DARE_TOL and A - B K strictly Schur
    stable.  Raises ConvergenceError (carrying the last residual) if
    DARE_MAX_ITER doubling and polish iterations miss the residual.
    """
    A, B = _check_ab(A, B)
    epsilon = _check_epsilon(epsilon)
    omega_max(A)  # raises AssumptionError outside the closed unit disc
    if not is_stabilizable(A, B):
        raise AssumptionError("(A, B) is not stabilizable (PBH rank test "
                              "failed at a closed-loop-relevant eigenvalue)")
    return _low_gain_dare(A, B, epsilon)


def _low_gain_dare(A, B, epsilon):
    """`solve_low_gain_dare` unchecked: float A, B of a stabilizable pair,
    A in the closed unit disc, and epsilon in (0, 1]."""
    (sol,) = _polish(A, B, [epsilon], *_doubling(A, B, [epsilon]))
    if isinstance(sol, ConvergenceError):
        raise sol
    return sol


def _doubling(A, B, epsilons):
    """Doubling on (A, BB', eps*I) per epsilon: each H and step count."""
    eps, eye = np.asarray(epsilons, dtype=float), np.eye(A.shape[0])
    Ak, G, H = A, B @ B.T, eps[:, None, None] * eye  # stacked by step 1
    out, iterations = np.empty_like(H), np.empty(eps.size, dtype=int)
    live = np.arange(eps.size)
    for step in range(1, DARE_MAX_ITER + 1):
        IGH = eye + G @ H
        AX = np.linalg.solve(IGH, Ak)
        GX = np.linalg.solve(IGH, G)
        H_next = H + Ak.mT @ (H @ AX)
        G_next = G + Ak @ GX @ Ak.mT
        Ak = Ak @ AX
        G = 0.5 * (G_next + G_next.mT)
        H_prev, H = H, 0.5 * (H_next + H_next.mT)
        done = _frobenius(H - H_prev) <= 1e-15 * np.maximum(1.0, _frobenius(H))
        stopped = np.count_nonzero(done)
        if stopped == live.size or step == DARE_MAX_ITER:  # freeze the rest
            out[live], iterations[live] = H, step
            return out, iterations
        if stopped:  # freeze the points that stopped, go on with the rest
            out[live[done]], iterations[live[done]] = H[done], step
            live, Ak, G, H = live[~done], Ak[~done], G[~done], H[~done]


def _frobenius(X):
    """Frobenius norms of a stack's matrices, bit for bit np.linalg.norm's."""
    flat = X.reshape(X.shape[0], -1)
    return np.sqrt(np.vecdot(flat, flat))


def _riccati_step(A, B, P, eps):
    """For a stack P: the DARE residuals and gains K (as `dare_residual` and
    `feedback_gain` give them for one P, bit for bit), and the next
    iterates A'PA + eps*I - A'PBK, symmetrized."""
    BP, AP = B.T @ P, A.T @ P
    K = np.linalg.solve(np.eye(B.shape[1]) + BP @ B, BP @ A)
    APA, APBK = AP @ A, AP @ B @ K
    Q = eps[:, None, None] * np.eye(A.shape[0])
    P_next = APA + Q - APBK
    return _frobenius(APA - P - APBK + Q), K, 0.5 * (P_next + P_next.mT)


def _polish(A, B, epsilons, H, iterations):
    """Fixed-point polish of a doubled stack to DARE_TOL: per point its
    `DareSolution`, or the `ConvergenceError` that ends it.

    One step over the stack judges every point; a point above the
    tolerance goes on alone, from that step, in `_polish_point`."""
    eps = np.asarray(epsilons, dtype=float)
    residual, K, P_next = _riccati_step(A, B, H, eps)
    return [_polish_point(A, B, eps[i:i + 1], H[i], residual[i], K[i],
                          P_next[i:i + 1], int(iterations[i]))
            for i in range(eps.size)]


def _polish_point(A, B, eps, P, residual, K, P_next, iterations):
    """One point's polish from P with its residual, gain K and next iterate
    (eps and P_next stacks of one) after `iterations` steps."""
    stalls = 0
    while residual > DARE_TOL:
        if iterations >= DARE_MAX_ITER:
            return ConvergenceError(
                f"DARE solver exhausted {DARE_MAX_ITER} iterations "
                f"(residual {residual:.3e} > tol {DARE_TOL:.3e})",
                residual=float(residual), iterations=iterations)
        iterations += 1
        res, K_next, P_after = _riccati_step(A, B, P_next, eps)
        stalls = stalls + 1 if res[0] >= residual else 0
        if stalls >= 5:
            return ConvergenceError(
                f"DARE polish stalled at residual {residual:.3e} > tol "
                f"{DARE_TOL:.3e}", residual=float(residual),
                iterations=iterations)
        P, residual, K, P_next = P_next[0], res[0], K_next[0], P_after
    return DareSolution(P=P, epsilon=float(eps[0]), K=K,
                        residual=float(residual), iterations=iterations)
