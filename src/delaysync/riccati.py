"""Low-gain H2 discrete algebraic Riccati machinery.

`solve_low_gain_dare` finds the stabilizing solution of

    A'PA - P - A'PB (I + B'PB)^{-1} B'PA + eps*I = 0

for eps in (0, 1]: the one Riccati family the protocol designer, the
observer and the gain-disc tools use.  One body, `_doubling`, runs the
structure-preserving doubling of Chu, Fan, Lin et al. on (A, BB', eps*I),
whose iteration count stays flat as eps shrinks, for a stack of epsilons;
each point is frozen when it stops, bit-identical to a doubling at its
epsilon alone.  `_polish` takes that stack on to the Frobenius residual
DARE_TOL in one pass (residuals, gains K and gamma for every point, the
fixed-point iteration only for the points above the tolerance) and returns
each point's `DareSolution` (P, K, gamma: solve once, pass it on) or its
`ConvergenceError`.  `_low_gain_dare` is the one-point case, run by
`solve_low_gain_dare` after it checks the shapes, epsilon, the closed disc
and the PBH test; the designer, which validates its model once, solves
unchecked, its sweep in stacked chunks.

`gain_disc` and `check_lambda_stabilized` expose the complex gain region
of a solution at weight delta: for gamma = lambda_max(B'P_delta B), every
lambda inside the open disc centred at 1 + 1/gamma with radius
sqrt(1 + gamma)/gamma keeps A + lambda*B*F_delta Schur stable, where
F_delta is the negated low-gain feedback.  As delta shrinks the disc
swallows any compact subset of {Re z > 1/2}.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (AssumptionError, ConvergenceError, DegenerateInputError,
                     DimensionError, ScenarioError, real_array, scalar)
from .spectral import UNIT_CIRCLE_TOL, eigenvalues, is_schur_stable, omega_max

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
    (I + B'PB)^{-1} B'PA, gamma the largest eigenvalue of B'PB, and
    residual the Frobenius norm of the equation defect at P.
    """
    P: np.ndarray
    epsilon: float
    K: np.ndarray
    gamma: float
    residual: float
    iterations: int


@dataclass(frozen=True)
class GainDisc:
    """Open disc of complex loop gains that preserve closed-loop stability."""
    center: float
    radius: float
    gamma: float

    def contains(self, lam):
        return bool(abs(complex(lam) - self.center) < self.radius)


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
    `feedback_gain` give them for one P, bit for bit), and the mask of the
    points above DARE_TOL with their iterates A'PA + eps*I - A'PBK."""
    BP, AP = B.T @ P, A.T @ P
    K = np.linalg.solve(np.eye(B.shape[1]) + BP @ B, BP @ A)
    APA, APBK = AP @ A, AP @ B @ K
    Q = eps[:, None, None] * np.eye(A.shape[0])
    residual = _frobenius(APA - P - APBK + Q)
    going = residual > DARE_TOL
    P_next = APA[going] + Q[going] - APBK[going]
    return residual, K, going, 0.5 * (P_next + P_next.mT)


def _polish(A, B, epsilons, H, iterations):
    """Fixed-point polish of a doubled stack to DARE_TOL: per point its
    `DareSolution`, or the `ConvergenceError` that ends it.

    Points at the tolerance leave the stack, as `_doubling` freezes them;
    each point's steps, stall count and budget are its own."""
    eps = np.asarray(epsilons, dtype=float)
    P, iterations = H.copy(), np.array(iterations, dtype=int)
    residual, K, going, P_next = _riccati_step(A, B, P, eps)
    stalls = np.zeros(eps.size, dtype=int)
    failed = {}
    live = np.flatnonzero(going)  # P_next holds the iterates of `live`
    while live.size:
        spent = iterations[live] >= DARE_MAX_ITER
        for i in live[spent]:
            failed[i] = ConvergenceError(
                f"DARE solver exhausted {DARE_MAX_ITER} iterations "
                f"(residual {residual[i]:.3e} > tol {DARE_TOL:.3e})",
                residual=float(residual[i]), iterations=int(iterations[i]))
        live, P_next = live[~spent], P_next[~spent]
        if not live.size:
            break
        iterations[live] += 1
        res, K_live, going, next_live = _riccati_step(A, B, P_next, eps[live])
        stalls[live] = np.where(res >= residual[live], stalls[live] + 1, 0)
        for i in live[stalls[live] >= 5]:
            failed[i] = ConvergenceError(
                f"DARE polish stalled at residual {residual[i]:.3e} > tol "
                f"{DARE_TOL:.3e}", residual=float(residual[i]),
                iterations=int(iterations[i]))
        kept = stalls[live] < 5
        P[live[kept]], residual[live[kept]] = P_next[kept], res[kept]
        K[live[kept]] = K_live[kept]
        live, P_next = live[kept & going], next_live[kept[going]]
    solved = [i for i in range(eps.size) if i not in failed]
    gamma = dict(zip(solved, np.linalg.eigvalsh(B.T @ P[solved] @ B).max(-1)))
    return [failed[i] if i in failed else DareSolution(
        P=P[i], epsilon=float(eps[i]), K=K[i], gamma=float(gamma[i]),
        residual=float(residual[i]), iterations=int(iterations[i]))
        for i in range(eps.size)]


def gain_disc(sol):
    """Stability-preserving complex gain disc of a low-gain solution.

    Returns the open disc with center 1 + 1/gamma and radius
    sqrt(1 + gamma)/gamma, gamma = lambda_max(B'P_delta B) for the solution
    `sol` at weight delta.  Raises DegenerateInputError when gamma is zero
    (no input authority), since the disc is undefined.
    """
    g = sol.gamma
    if g <= 0.0:
        raise DegenerateInputError(
            "largest eigenvalue of B'PB is zero; the gain disc is undefined")
    return GainDisc(center=1.0 + 1.0 / g, radius=float(np.sqrt(1.0 + g) / g),
                    gamma=g)


def check_lambda_stabilized(A, B, sol, lam):
    """True iff A + lambda*B*F_delta is Schur stable for the complex gain lam,
    with F_delta = -K the negated gain of the low-gain solution `sol`."""
    A, B = _check_ab(A, B)
    return is_schur_stable(A + complex(lam) * (B @ -sol.K))
