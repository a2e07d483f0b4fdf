"""Scale-free protocol designer.

Everything here is a function of the agent model (A, B, C) and the delay
bound alone.  Neither the number of agents, the communication graph, nor
the realized per-agent delays appear in any signature; that is what makes
a design valid on every admissible network.

The construction runs in stages: the peak unit-circle angle of A fixes the
admissible delay bound (kappa_bar * omega_max < pi/2); the loop gain rho
is pushed just above 1 / (2 cos(kappa_bar * omega_max)); a band margin
theta and a high-frequency floor mu follow; and finally epsilon is swept
downward until the low-gain feedback is small enough for the floor and
keeps the phase-rotated loop stable across the low band.  The Riccati
solution accepted by the sweep is the design's; nothing is solved twice.
Each stage raises DesignError with a stage tag on failure.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, DesignError, DimensionError
from .riccati import is_detectable, is_stabilizable, solve_low_gain_dare
from .spectral import SCHUR_TOL, is_schur_stable, omega_max, spectral_radius

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

#: interior grid points of the low band in the epsilon acceptance test
BAND_POINTS = 400

FULL_STATE = "full"
PARTIAL_STATE = "partial"


@dataclass(frozen=True)
class AgentModel:
    """Agent dynamics triple: x+ = A x + B u (delayed), y = C x."""
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        C = np.asarray(self.C, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionError(f"A must be square, got {A.shape}")
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise DimensionError(f"B must be {A.shape[0]}xm, got {B.shape}")
        if C.ndim != 2 or C.shape[1] != A.shape[0]:
            raise DimensionError(f"C must be qx{A.shape[0]}, got {C.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def q(self):
        return self.C.shape[0]


@dataclass(frozen=True)
class ProtocolDesign:
    """Complete designed protocol: gains plus the scalars that certified them.

    F is None in full-state mode.  epsilon always lies in (0, epsilon_star];
    when the user pins epsilon, epsilon_star collapses to the pinned value
    after validation.
    """
    mode: str
    model: AgentModel
    epsilon_star: float
    epsilon: float
    rho: float
    K: np.ndarray
    P: np.ndarray
    F: np.ndarray | None
    omega_max: float
    kappa_bar: int
    theta: float
    mu: float


def validate_assumptions(model):
    """Raise AssumptionError unless (A, B) is stabilizable, (C, A) is
    detectable, and A's spectrum lies in the closed unit disc."""
    problems = []
    if not is_stabilizable(model.A, model.B):
        problems.append("(A, B) is not stabilizable")
    if not is_detectable(model.A, model.C):
        problems.append("(C, A) is not detectable")
    try:
        omega_max(model.A)
    except AssumptionError:
        problems.append("A has an eigenvalue outside the closed unit disc")
    if problems:
        raise AssumptionError("; ".join(problems))


def delay_admissible(A, kappa_bar):
    """True iff kappa_bar * omega_max(A) < pi/2.

    The strict comparison carries an absolute guard of 1e-9 so that models
    sitting exactly on the boundary (up to eigenvalue rounding) are rejected.
    """
    if kappa_bar < 0:
        raise ValueError(f"kappa_bar must be >= 0, got {kappa_bar}")
    return kappa_bar * omega_max(A) < math.pi / 2.0 - DELAY_BOUNDARY_GUARD


def choose_rho(kappa_bar, omega):
    """Loop gain RHO_MARGIN times above both 1/2 and
    1 / (2 cos(kappa_bar * omega))."""
    if not kappa_bar * omega < math.pi / 2.0 - DELAY_BOUNDARY_GUARD:
        raise DesignError("rho", f"kappa_bar*omega_max = {kappa_bar * omega:.6g} "
                          "is not below pi/2; no admissible gain exists")
    return max(RHO_MARGIN / (2.0 * math.cos(kappa_bar * omega)),
               0.5 * RHO_MARGIN)


def choose_theta(rho, kappa_bar, omega):
    """Width of the frequency band beyond omega on which the gain condition
    rho * cos(kappa_bar * w) >= 1/2 + THETA_SAFETY still holds.

    With kappa_bar = 0 the condition is frequency-independent and theta is
    simply pi - omega; otherwise theta is the largest band width compatible
    with the safety gap, capped so omega + theta never exceeds pi.  The
    effective safety shrinks automatically when rho sits very close to its
    critical value, keeping theta strictly positive whenever
    rho * cos(kappa_bar * omega) > 1/2.
    """
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

    Evaluated on a uniform grid of MU_GRID_POINTS (endpoints included) and
    scaled by 0.9 as a grid-safety factor.  Positive by construction since
    no eigenvalue of A has its angle inside the band.
    """
    A = np.asarray(A, dtype=float)
    if omega + theta > math.pi + 1e-12:
        raise ValueError("omega + theta must not exceed pi")
    n = A.shape[0]
    grid = np.linspace(omega + theta, math.pi, MU_GRID_POINTS)
    M = np.exp(1j * grid)[:, None, None] * np.eye(n)[None] - A[None]
    mu = 0.9 * float(np.linalg.svd(M, compute_uv=False)[:, -1].min())
    if mu <= 0.0:
        raise DesignError("mu", "frequency grid touched an eigenvalue of A; "
                          "theta must be positive and the band eigenvalue-free")
    return mu


def _low_band_stable(A, BK, rho, kappa_bar, omega, theta):
    """Schur stability of A - rho * e^{-j w k} BK on the open band
    (-(omega+theta), omega+theta) for every integer delay k <= kappa_bar."""
    band = np.linspace(-(omega + theta), omega + theta, BAND_POINTS + 2)[1:-1]
    for kappa in range(kappa_bar + 1):
        if kappa == 0:  # phase-independent: the whole band is one matrix
            M = (A - rho * BK)[None]
        else:
            phases = np.exp(-1j * band * kappa)
            M = A[None] - rho * phases[:, None, None] * BK[None]
        if np.abs(np.linalg.eigvals(M)).max() >= 1.0 - SCHUR_TOL:
            return False
    return True


def choose_epsilon_star(A, B, rho, mu, kappa_bar, omega, theta):
    """Low-gain solution at the largest epsilon on EPSILON_SWEEP whose
    feedback gain satisfies both acceptance conditions.

    (a) the scaled gain is below the high-band floor: rho*||BK|| <= mu/2;
    (b) A - rho*e^{-jwk} B K stays Schur stable across the low band for
        every integer delay k in [0, kappa_bar].

    The accepted epsilon is the returned solution's `.epsilon`.  Raises
    DesignError with per-condition diagnostics if the sweep is exhausted.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    last = None
    for eps in EPSILON_SWEEP:
        sol = solve_low_gain_dare(A, B, eps)
        BK = B @ sol.K
        cond_a = rho * np.linalg.norm(BK, 2) <= mu / 2.0
        cond_b = _low_band_stable(A, BK, rho, kappa_bar, omega, theta)
        if cond_a and cond_b:
            return sol
        last = (eps, cond_a, cond_b)
    raise DesignError(
        "epsilon",
        f"sweep exhausted without an acceptable epsilon; at eps={last[0]:.3e} "
        f"gain condition(a)={last[1]}, band condition(b)={last[2]} "
        f"(mu={mu:.3e}, rho={rho:.6g})")


def design_observer(A, C):
    """Output-injection gain F with spectral radius of A - F C at most 0.9.

    Solves the low-gain Riccati equation on the transposed pair; the fixed
    weight 0.1 usually leaves margin, and the solve is retried at weight 1
    before giving up.  Deterministic for a given model.
    """
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)
    if not is_detectable(A, C):
        raise AssumptionError("(C, A) is not detectable; no observer exists")
    for weight in (0.1, 1.0):
        sol = solve_low_gain_dare(A.T, C.T, weight)
        F = sol.K.T
        if spectral_radius(A - F @ C) <= 0.9:
            return F
    raise DesignError("observer", "output injection missed the 0.9 radius "
                      "target at both solver weights")


def design_protocol(model, kappa_bar, mode=FULL_STATE, epsilon=None, rho=None):
    """Design a synchronization protocol from the agent model and delay bound.

    The only inputs are the model, the delay bound, the coupling mode, and
    optional pinned values for epsilon and rho (validated against the same
    invariants the automatic choices satisfy).  The result is a pure
    function of these arguments: identical inputs give identical designs.
    """
    if mode not in (FULL_STATE, PARTIAL_STATE):
        raise ValueError(f"mode must be '{FULL_STATE}' or '{PARTIAL_STATE}', "
                         f"got {mode!r}")
    kappa_bar = int(kappa_bar)
    validate_assumptions(model)
    w = omega_max(model.A)
    if not delay_admissible(model.A, kappa_bar):
        raise DesignError(
            "delay_admissibility",
            f"kappa_bar = {kappa_bar} violates kappa_bar*omega_max < pi/2 "
            f"(omega_max = {w:.6g}, bound {math.pi / 2 / w if w > 0 else math.inf:.6g})")

    if rho is None:
        rho_val = choose_rho(kappa_bar, w)
    else:
        rho_val = float(rho)
        if rho_val * math.cos(kappa_bar * w) <= 0.5:
            raise DesignError("rho", f"pinned rho = {rho_val:.6g} violates "
                              "rho*cos(kappa_bar*omega_max) > 1/2")
    theta = choose_theta(rho_val, kappa_bar, w)
    mu = estimate_mu(model.A, w, theta)

    if epsilon is None:
        sol = choose_epsilon_star(model.A, model.B, rho_val, mu, kappa_bar,
                                  w, theta)
    else:
        pinned = float(epsilon)
        if not (0.0 < pinned <= 1.0):
            raise DesignError("epsilon", f"pinned epsilon = {pinned:.6g} is "
                              "outside (0, 1]")
        sol = solve_low_gain_dare(model.A, model.B, pinned)
    if not is_schur_stable(model.A - rho_val * model.B @ sol.K):
        raise DesignError("epsilon", f"A - rho*B*K is not Schur stable at "
                          f"epsilon = {sol.epsilon:.6g}, rho = {rho_val:.6g}")

    F = design_observer(model.A, model.C) if mode == PARTIAL_STATE else None
    return ProtocolDesign(mode=mode, model=model, epsilon_star=sol.epsilon,
                          epsilon=sol.epsilon, rho=rho_val, K=sol.K, P=sol.P,
                          F=F, omega_max=w, kappa_bar=kappa_bar, theta=theta,
                          mu=mu)
