"""Low-gain H2 discrete algebraic Riccati machinery.

`solve_low_gain_dare` finds the stabilizing solution of

    A'PA - P - A'PB (I + B'PB)^{-1} B'PA + eps*I = 0

for eps in (0, 1]: the one Riccati family the protocol designer, the
observer and the gain-disc tools use.  The solver runs the structure-
preserving doubling iteration of Chu, Fan, Lin et al. on the triple
(A, BB', eps*I) and then polishes with plain fixed-point sweeps until the
Frobenius residual meets DARE_TOL; doubling is what keeps the iteration
count flat as eps shrinks.  The result is a `DareSolution`, so a caller
that needs P, K or gamma at one eps solves once and passes the solution
on.

`solve_low_gain_dare` is the one checked entry: it checks the shapes,
epsilon, the closed unit disc and the PBH stabilizability test, then runs
the doubling-plus-polish body `_low_gain_dare`.  The designer validates its
model once per design (`design.validate_assumptions`), so its epsilon
sweep and observer call `_low_gain_dare` directly.

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
                     DimensionError)
from .spectral import UNIT_CIRCLE_TOL, eigenvalues, is_schur_stable

#: PBH rank test: the trailing singular value of [A - lambda I, B] must
#: exceed this fraction of the leading one
_PBH_RTOL = 1e-8

#: Frobenius residual every returned Riccati solution meets
DARE_TOL = 1e-12

#: budget of combined doubling and polish iterations per solve
DARE_MAX_ITER = 200000


@dataclass(frozen=True)
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


def _check_ab(A, B):
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"A must be square, got shape {A.shape}")
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
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[1] != A.shape[0]:
        raise DimensionError(f"C must be qx{A.shape[0]}, got shape {C.shape}")
    return is_stabilizable(A.T, C.T)


def dare_residual(A, B, P, epsilon):
    """Frobenius norm of A'PA - P - A'PB (I + B'PB)^{-1} B'PA + eps*I."""
    A, B = _check_ab(A, B)
    M = np.eye(B.shape[1]) + B.T @ P @ B
    defect = A.T @ P @ A - P - A.T @ P @ B @ np.linalg.solve(M, B.T @ P @ A) \
        + epsilon * np.eye(A.shape[0])
    return float(np.linalg.norm(defect, "fro"))


def feedback_gain(A, B, P):
    """Feedback gain K = (I + B'PB)^{-1} B'PA for a given Riccati solution P.

    The m-by-m system matrix I + B'PB is positive definite whenever P >= 0,
    so the solve always succeeds.
    """
    A, B = _check_ab(A, B)
    P = np.asarray(P, dtype=float)
    if P.shape != A.shape:
        raise DimensionError(f"P must match A's shape {A.shape}, got {P.shape}")
    return np.linalg.solve(np.eye(B.shape[1]) + B.T @ P @ B, B.T @ P @ A)


def solve_low_gain_dare(A, B, epsilon):
    """Stabilizing solution of the low-gain DARE with weights eps*I and I.

    Requires (A, B) stabilizable and all eigenvalues of A inside the closed
    unit disc (the model class the protocol targets); epsilon must lie in
    (0, 1].  The returned P is symmetric with residual at most DARE_TOL and
    the closed loop A - B K is strictly Schur stable.  Raises
    ConvergenceError (carrying the last residual) if DARE_MAX_ITER combined
    doubling/polish iterations do not meet the residual.
    """
    A, B = _check_ab(A, B)
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    mods = np.abs(eigenvalues(A))
    if np.any(mods > 1.0 + UNIT_CIRCLE_TOL):
        raise AssumptionError(
            "A has an eigenvalue outside the closed unit disc "
            f"(max modulus {mods.max():.12g})")
    if not is_stabilizable(A, B):
        raise AssumptionError("(A, B) is not stabilizable (PBH rank test "
                              "failed at a closed-loop-relevant eigenvalue)")
    return _low_gain_dare(A, B, epsilon)


def _low_gain_dare(A, B, epsilon):
    """`solve_low_gain_dare` without its checks: float arrays A, B of a
    stabilizable pair with A in the closed unit disc, and epsilon in
    (0, 1]."""
    n, m = B.shape
    eye = np.eye(n)
    Q = epsilon * eye

    # structure-preserving doubling on the triple (A_k, G_k, H_k)
    Ak = A.copy()
    G = B @ B.T
    H = Q
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
        if np.linalg.norm(H - H_prev, "fro") <= 1e-15 * max(1.0, np.linalg.norm(H, "fro")):
            break

    # fixed-point polish until the residual contract is met
    P = H
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

    K = feedback_gain(A, B, P)
    gamma = float(np.linalg.eigvalsh(B.T @ P @ B).max())
    return DareSolution(P=P, epsilon=float(epsilon), K=K, gamma=gamma,
                        residual=residual, iterations=iterations)


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
