"""Scale-free protocol designer.

Everything here is a function of the agent model (A, B, C) and the delay
bound alone.  Neither the number of agents, the communication graph, nor
the realized per-agent delays appear in any signature; that is what makes
a design valid on every admissible network.

The construction runs in stages: the peak unit-circle angle of A fixes the
admissible delay bound (kappa_bar * omega_max < pi/2); the loop gain rho
is pushed just above 1 / (2 cos(kappa_bar * omega_max)); a band margin
theta and a high-frequency floor mu (the minimum of sigma_min(e^{jw} I -
A) over a grid of the band) follow; and epsilon is swept downward until
the low-gain feedback is small enough for the floor and every delayed
loop up to kappa_bar passes the certificate's exact test
(`verify.delay_loop_radii`, on input-delay lifts of order n + m kappa),
so swept designs certify by construction, with the sweep's accepted
solution.  The sweep solves, polishes and judges the top point alone,
then every point below it as one stack, and decomposes lifts only for
the points whose gain is below the floor.  Each stage raises DesignError
with a stage tag on failure.

`design_protocol` decides the model's facts once, up front, in
`validate_assumptions` (PBH and closed-disc tests, which also yield
omega_max); the sweep and the observer then solve unchecked.  A pinned
epsilon goes through the public, checked solver.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (AssumptionError, ConvergenceError, DesignError,
                     ScenarioError, real_array, scalar, whole_array)
from .riccati import (_check_ab, _check_c, _check_epsilon, _doubling,
                      _low_gain_dare, _polish, is_detectable, is_stabilizable,
                      solve_low_gain_dare)
from .spectral import is_schur_stable, omega_max, spectral_radius
from .verify import CERTIFICATE_THRESHOLD, delay_loop_radii

#: absolute guard against eigenvalue rounding when testing
#: kappa_bar * omega_max against pi/2
DELAY_BOUNDARY_GUARD = 1e-9

#: epsilon sweep: quarter-decade geometric grid from 1e-1 down to 1e-8
EPSILON_SWEEP = tuple(10.0 ** e for e in np.arange(-1.0, -8.25, -0.25))

#: multiplicative headroom of rho above its critical gain
RHO_MARGIN = 1.05

#: gap kept above 1/2 by rho * cos(kappa_bar * w) across the band theta
THETA_SAFETY = 0.01

#: uniform grid points on which estimate_mu samples the high band
MU_GRID_POINTS = 2000

#: estimate_mu's coarse-to-fine strides over the grid's distinct angles
_MU_STRIDES = (125, 25, 5, 1)

FULL_STATE = "full"
PARTIAL_STATE = "partial"


@dataclass(frozen=True, eq=False)
class AgentModel:
    """Agent dynamics triple: x+ = A x + B u (delayed), y = C x."""
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A, B = _check_ab(self.A, self.B)
        for name, value in zip("ABC", (A, B, _check_c(A, self.C))):
            object.__setattr__(self, name, value)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]


@dataclass(frozen=True, eq=False)
class ProtocolDesign:
    """Complete designed protocol: gains plus the scalars that certified them.

    F is None in full-state mode, and `mode` is derived from F.  epsilon_star
    is the sweep's accepted value, or the validated pinned value.
    """
    model: AgentModel
    epsilon_star: float
    rho: float
    K: np.ndarray
    P: np.ndarray
    F: np.ndarray | None
    omega_max: float
    kappa_bar: int
    theta: float
    mu: float

    @property
    def mode(self):
        return FULL_STATE if self.F is None else PARTIAL_STATE


def _check_mode(mode):
    """`mode` if it is FULL_STATE or PARTIAL_STATE, else ScenarioError."""
    if mode not in (FULL_STATE, PARTIAL_STATE):
        raise ScenarioError(f"mode must be '{FULL_STATE}' or "
                            f"'{PARTIAL_STATE}', got {mode!r}")
    return mode


def validate_assumptions(model):
    """omega_max(A) of a valid model.  Raises AssumptionError, naming every
    failure, unless (A, B) is stabilizable, (C, A) is detectable, and A's
    spectrum lies in the closed unit disc."""
    problems = []
    if not is_stabilizable(model.A, model.B):
        problems.append("(A, B) is not stabilizable")
    if not is_detectable(model.A, model.C):
        problems.append("(C, A) is not detectable")
    try:
        w = omega_max(model.A)
    except AssumptionError:
        problems.append("A has an eigenvalue outside the closed unit disc")
    if problems:
        raise AssumptionError("; ".join(problems))
    return w


def delay_admissible(A, kappa_bar):
    """True iff kappa_bar * omega_max(A) < pi/2, less an absolute guard of
    1e-9 that rejects models on the boundary up to eigenvalue rounding."""
    return _admissible(scalar(kappa_bar, "kappa_bar", whole_array),
                       omega_max(A))


def _admissible(kappa_bar, omega):
    """`delay_admissible` given a read kappa_bar and omega = omega_max(A)."""
    return kappa_bar * omega < math.pi / 2.0 - DELAY_BOUNDARY_GUARD


def choose_rho(kappa_bar, omega):
    """Loop gain RHO_MARGIN times above 1 / (2 cos(kappa_bar * omega)), which
    is at least 1/2; DesignError("delay_admissibility") unless
    `_admissible`."""
    kappa_bar = scalar(kappa_bar, "kappa_bar", whole_array)
    if not _admissible(kappa_bar, omega):
        raise DesignError("delay_admissibility", f"kappa_bar = {kappa_bar} "
                          "violates kappa_bar*omega_max < pi/2 (omega_max = "
                          f"{omega:.6g}, bound {math.pi / 2 / omega:.6g})")
    return RHO_MARGIN / (2.0 * math.cos(kappa_bar * omega))


def choose_theta(rho, kappa_bar, omega):
    """Width of the frequency band beyond omega on which the gain condition
    rho * cos(kappa_bar * w) >= 1/2 + THETA_SAFETY still holds.

    pi - omega when kappa_bar = 0; otherwise the widest band the safety gap
    allows, capped so omega + theta <= pi.  The gap shrinks when rho sits
    close to its critical value, so theta stays positive whenever
    rho * cos(kappa_bar * omega) > 1/2.
    """
    kappa_bar = scalar(kappa_bar, "kappa_bar", whole_array)
    headroom = rho * math.cos(kappa_bar * omega) - 0.5
    if headroom <= 0.0:
        raise DesignError("theta", f"rho = {rho:.6g} does not satisfy "
                          "rho*cos(kappa_bar*omega_max) > 1/2")
    if kappa_bar == 0:
        return math.pi - omega
    gap = min(THETA_SAFETY, 0.5 * headroom)
    theta = math.acos((0.5 + gap) / rho) / kappa_bar - omega
    return min(theta, math.pi - omega)


def estimate_mu(A, omega, theta):
    """Lower bound on sigma_min(e^{jw} I - A) over the band [omega+theta, pi].

    The minimum over a uniform grid of MU_GRID_POINTS (endpoints included)
    times a grid-safety factor 0.9.  Positive, as no eigenvalue of A has
    its angle inside the band; a band that touches one (theta = 0 at an
    eigenvalue on the circle) leaves a rounding-level value, so mu <=
    1e-10 * (1 + ||A||_2) raises DesignError("mu").

    Not every grid point is decomposed.  Equal angles are decomposed once
    (with kappa_bar = 0 the band is the single angle pi), and the distinct
    ones refined coarse to fine over the strides _MU_STRIDES.  Between
    decomposed neighbours a and b two certified bounds hold:
    - by Weyl's inequality sigma_min(e^{jw} I - A) is 1-Lipschitz in w,
      so no point between them lies below (s_a + s_b - (w_b - w_a)) / 2;
    - sigma_min^2 is 2 ||A||_2-Lipschitz in w, as the derivative of
      (e^{jw} I - A)^H (e^{jw} I - A) is j (e^{-jw} A - e^{jw} A^T), of
      norm at most 2 ||A||_2, so no point lies below (s_a^2 + s_b^2 -
      2 ||A||_2 (w_b - w_a)) / 2 in squares.  It is the tighter bound
      where sigma_min varies slowly, as on a contractive A.
    An interval is refined only while both bounds are within their slack
    of the smallest value found: 1e-9 * (1 + ||A||_2) for sigma_min and
    1e-9 * (1 + ||A||_2)^2 for its square.  Both are far above the SVD's
    rounding; the squared slack does not shrink with the minimum, so it
    stays above the rounding of the squares where the minimum is tiny.
    The grid's argmin is therefore always decomposed, and numpy
    decomposes each matrix of a batch on its own, so mu is bit-identical
    to the minimum over the whole grid.
    """
    A = real_array(A, "A")
    if omega + theta > math.pi + 1e-12:
        raise ScenarioError("omega + theta must not exceed pi")
    grid = np.linspace(omega + theta, math.pi, MU_GRID_POINTS)
    norm = np.linalg.norm(A, 2)
    scale = 1.0 + norm
    mu = 0.9 * _grid_min_sigma(A, grid, norm)
    if mu <= 1e-10 * scale:
        raise DesignError("mu", f"mu = {mu:.3e} is at rounding level: the "
                          "band [omega+theta, pi] touches an eigenvalue of A")
    return mu


def _grid_min_sigma(A, grid, norm):
    """min over the sorted `grid` of sigma_min(e^{jw} I - A), decomposing
    only the points `estimate_mu` describes; `norm` is ||A||_2."""
    slack = 1e-9 * (1.0 + norm)
    slack_sq = slack * (1.0 + norm)
    w = grid[np.flatnonzero(np.diff(grid, prepend=-math.inf))]
    eye = np.eye(A.shape[0])

    def sigma_min(at):
        M = np.exp(1j * w[at])[:, None, None] * eye[None] - A[None]
        return np.linalg.svd(M, compute_uv=False)[:, -1]

    sig = np.full(w.size, math.inf)  # sigma_min of the decomposed angles
    pts = np.append(np.arange(0, w.size - 1, _MU_STRIDES[0]), w.size - 1)
    sig[pts] = sigma_min(pts)
    for stride in _MU_STRIDES[1:]:
        lo, hi = pts[:-1], pts[1:]
        s_lo, s_hi, step = sig[lo], sig[hi], w[hi] - w[lo]
        least = sig.min()
        bound = (s_lo + s_hi - step) / 2.0
        bound_sq = (s_lo * s_lo + s_hi * s_hi - 2.0 * norm * step) / 2.0
        live = ((hi - lo > 1) & (bound <= least + slack)
                & (bound_sq <= least * least + slack_sq))
        if not live.any():
            break
        new = np.concatenate([np.arange(a + stride, b, stride)
                              for a, b in zip(lo[live], hi[live])])
        sig[new] = sigma_min(new)
        pts = np.flatnonzero(sig < math.inf)
    return float(sig.min())


def choose_epsilon_star(A, B, rho, mu, kappa_bar):
    """Low-gain solution at the largest epsilon on EPSILON_SWEEP whose
    feedback gain satisfies both acceptance conditions.

    (a) the scaled gain is below the high-band floor: rho*||BK|| <= mu/2;
    (b) every delayed loop x(k+1) = A x(k) - rho B K x(k - kappa), kappa in
        0..kappa_bar, has lift radius below 1 - CERTIFICATE_THRESHOLD, the
        test `closed_loop_certificate` applies.

    A, B are the float arrays of a model that passed `validate_assumptions`,
    so points are solved unchecked, in two stacks: the top point, where
    most models accept, alone, then every other point together.  A stack
    is doubled and polished once and judged on (a) from one batched SVD of
    the gains BK; only the points that pass (a) have their lifts, of order
    n + m kappa, decomposed for (b), in one stacked decomposition per
    delay.  The points are judged in grid order, so the first to pass both
    is accepted, as in a one-by-one scan (no bisection: the delayed-loop
    margin is not monotone in epsilon).  A point whose Riccati solve does
    not converge fails and the sweep goes on; an exhausted sweep
    decomposes the last judged point's lifts and raises DesignError with
    per-condition reasons.
    """
    last, stalled = None, []
    for stack in (EPSILON_SWEEP[:1], EPSILON_SWEEP[1:]):
        sols = []
        for eps, sol in zip(stack, _polish(A, B, stack,
                                           *_doubling(A, B, stack))):
            if isinstance(sol, ConvergenceError):
                stalled.append(f"at eps={eps:.3e} ({sol})")
            else:
                sols.append(sol)
        if not sols:
            continue
        K = np.array([sol.K for sol in sols])
        cond_a = rho * np.linalg.norm(B @ K, 2, axis=(-2, -1)) <= mu / 2.0
        if cond_a.any():
            radii = np.max(delay_loop_radii(A, B, -rho * K[cond_a],
                                            kappa_bar), axis=0)
            for i, radius in zip(np.flatnonzero(cond_a), radii):
                if 1.0 - radius > CERTIFICATE_THRESHOLD:
                    return sols[i]
        last, last_a = sols[-1], cond_a[-1]
    reasons = []
    if last is not None:
        radius = max(delay_loop_radii(A, B, -rho * last.K, kappa_bar))
        reasons.append(f"at eps={last.epsilon:.3e} gain condition(a)="
                       f"{last_a}, delayed-loop condition(b)="
                       f"{1.0 - radius > CERTIFICATE_THRESHOLD} (largest lift "
                       f"radius {radius:.9g}, mu={mu:.3e}, rho={rho:.6g})")
    if stalled:
        reasons.append(f"the Riccati solve did not converge at {len(stalled)} "
                       f"of {len(EPSILON_SWEEP)} points, first {stalled[0]}")
    raise DesignError("epsilon", "sweep exhausted without an acceptable "
                      "epsilon; " + "; ".join(reasons))


def design_observer(A, C):
    """Output-injection gain F with spectral radius of A - F C at most 0.9.

    A, C are the float arrays of a model that passed
    `validate_assumptions`.  Solves the low-gain Riccati equation on the
    transposed pair, unchecked, at weight 0.1, which usually leaves margin,
    and else at weight 1.  Deterministic for a given model.
    """
    for weight in (0.1, 1.0):
        sol = _low_gain_dare(A.T, C.T, weight)
        F = sol.K.T
        if spectral_radius(A - F @ C) <= 0.9:
            return F
    raise DesignError("observer", "output injection missed the 0.9 radius "
                      "target at both solver weights")


def design_protocol(model, kappa_bar, mode=FULL_STATE, epsilon=None):
    """Design a synchronization protocol from the agent model and delay bound.

    The only inputs are the model, the delay bound, the coupling mode, and
    an optional pinned epsilon in (0, 1], checked only to make the
    undelayed loop A - rho B K Schur stable: `verify` certifies the delayed
    loops.  The result is a pure function of these arguments.
    """
    _check_mode(mode)
    kappa_bar = scalar(kappa_bar, "kappa_bar", whole_array)
    pinned = None if epsilon is None else _check_epsilon(epsilon)
    w = validate_assumptions(model)
    rho = choose_rho(kappa_bar, w)
    theta = choose_theta(rho, kappa_bar, w)
    mu = estimate_mu(model.A, w, theta)

    if pinned is None:
        sol = choose_epsilon_star(model.A, model.B, rho, mu, kappa_bar)
    else:
        sol = solve_low_gain_dare(model.A, model.B, pinned)
        if not is_schur_stable(model.A - rho * model.B @ sol.K):
            raise DesignError("epsilon", f"A - rho*B*K is not Schur stable at "
                              f"epsilon = {pinned:.6g}, rho = {rho:.6g}")

    F = design_observer(model.A, model.C) if mode == PARTIAL_STATE else None
    return ProtocolDesign(model=model, epsilon_star=sol.epsilon,
                          rho=rho, K=sol.K, P=sol.P, F=F, omega_max=w,
                          kappa_bar=kappa_bar, theta=theta, mu=mu)
