"""Independent stability certificates and trajectory diagnostics.

The certificate re-checks a finished design instead of trusting the
construction.  The extra information exchange makes the closed loop a
cascade on every rooted graph and delay profile: the synchronization error
evolves undelayed under (substochastic matrix) kron A, stable iff the graph
is rooted; each agent's protocol state follows its own delayed loop

    x(k+1) = A x(k) - rho B K x(k - kappa_i)

driven by that error; and in partial-state mode the observer error evolves
under A - F C.  A design therefore works on every rooted graph and every
profile up to kappa_bar iff these loops, for every kappa in 0..kappa_bar,
are Schur stable, which `closed_loop_certificate` decides exactly from the
spectral radius of each loop's lift.  The delay sits on the input, so the
lift runs over [x(k); v(k-1); ...; v(k-kappa)] with v = -rho K x and has
order n + m kappa, not the n (kappa + 1) of a lift over delayed states
(the standard input-delay augmentation: K. J. Astrom and B. Wittenmark,
Computer-Controlled Systems, the chapter on sampled systems with time
delay).  `delay_loop_radii` computes those radii, for one gain or a stack
of them; the designer's epsilon sweep accepts a point by the same test.

`frequency_sweep_certificate` only rules out characteristic roots on the
unit circle, not outside it, so it is no stability test; the tests keep it
as a cross-check.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, GridSizeError, ScenarioError
from .spectral import is_schur_stable, spectral_radius

#: refuse sweeps beyond this many (omega, delay) evaluations
MAX_GRID_EVALUATIONS = 1_000_000

#: a certificate passes iff its margin exceeds this
CERTIFICATE_THRESHOLD = 1e-6


@dataclass(frozen=True)
class StabilityCertificate:
    """Exact closed-loop verdict: passed iff margin > threshold.

    `radii[kappa]` is the delayed loop's spectral radius at delay kappa,
    `observer_radius` that of A - F C (None in full-state mode), `margin`
    is 1 minus the largest of them, `worst_kappa` the delay of the largest
    loop radius, and `reason` names the failing loop.
    """
    passed: bool
    radii: tuple
    margin: float
    worst_kappa: int
    observer_radius: float | None
    threshold: float
    reason: str = ""


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of a frequency sweep: passed iff min_margin > threshold."""
    passed: bool
    min_margin: float
    argmin_omega: float
    argmin_kappa: tuple
    omega_points: int
    kappa_combinations: int
    threshold: float
    reason: str = ""


@dataclass(frozen=True)
class ConvergenceReport:
    """Finite-horizon convergence diagnostics of a simulated run.

    The tail is the last tenth of the series.  `converged` requires the
    final error below `tol` and the tail maximum below the larger of
    tol and one hundredth of the initial error.
    """
    converged: bool
    final_error: float
    decay_ratio: float
    initial_error: float
    peak_error: float
    tail_max_error: float


def frequency_sweep_certificate(A0, A1, kappas, omega_points=4096):
    """Sweep the delayed loop's characteristic margin over frequency and delays.

    The loop is x(k+1) = A0 x(k) + A1 x(k - kappa) for every integer delay
    kappa in `kappas`.  If the undelayed matrix A0 + A1 is not Schur stable
    the certificate fails immediately with that reason.  `argmin_kappa` is
    the 1-tuple of the delay where the minimum occurred.
    """
    A0 = np.asarray(A0, dtype=float)
    A1 = np.asarray(A1, dtype=float)
    if A0.ndim != 2 or A0.shape[0] != A0.shape[1]:
        raise DimensionError(f"A0 must be square, got {A0.shape}")
    if A1.shape != A0.shape:
        raise DimensionError(f"delayed term must match A0's shape "
                             f"{A0.shape}, got {A1.shape}")
    kappas = [int(k) for k in kappas]
    if omega_points * len(kappas) > MAX_GRID_EVALUATIONS:
        raise GridSizeError(
            f"sweep would take {omega_points * len(kappas)} evaluations "
            f"(limit {MAX_GRID_EVALUATIONS}); reduce omega_points or the "
            "delay range")

    if not is_schur_stable(A0 + A1):
        return CertificateReport(
            passed=False, min_margin=0.0, argmin_omega=float("nan"),
            argmin_kappa=(), omega_points=omega_points,
            kappa_combinations=len(kappas), threshold=CERTIFICATE_THRESHOLD,
            reason="undelayed system unstable")

    omega = np.linspace(-np.pi, np.pi, omega_points)
    ring = np.exp(1j * omega)[:, None, None] * np.eye(A0.shape[0])[None] \
        - A0[None]
    best = np.inf
    arg_w, arg_k = float("nan"), ()
    for kappa in kappas:
        M = ring - np.exp(-1j * omega * kappa)[:, None, None] * A1[None]
        smin = np.linalg.svd(M, compute_uv=False)[:, -1]
        idx = int(np.argmin(smin))
        if smin[idx] < best:
            best = float(smin[idx])
            arg_w, arg_k = float(omega[idx]), (kappa,)
    return CertificateReport(passed=best > CERTIFICATE_THRESHOLD,
                             min_margin=best, argmin_omega=arg_w,
                             argmin_kappa=arg_k, omega_points=omega_points,
                             kappa_combinations=len(kappas),
                             threshold=CERTIFICATE_THRESHOLD)


def _input_delay_lift(A, B, G, kappa):
    """Transition matrix of x(k+1) = A x(k) + B v(k - kappa), v = G x, over
    the state [x(k); v(k-1); ...; v(k-kappa)], one per gain of a stack G."""
    if kappa == 0:
        return A + B @ G
    n, m = B.shape
    order = n + m * kappa
    lift = np.zeros(G.shape[:-2] + (order, order))
    lift[..., :n, :n] = A
    lift[..., :n, order - m:] = B
    lift[..., n:n + m, :n] = G
    lift[..., n + m:, n:order - m] = np.eye(m * (kappa - 1))
    return lift


def delay_loop_radii(A, B, G, kappa_bar):
    """Spectral radii of x(k+1) = A x(k) + B G x(k - kappa) for every delay
    kappa in 0..kappa_bar, one array per delay for a stack of gains G.

    Each is taken from the loop's input-delay lift, of order n + m kappa:
    the delay sits on the m inputs, so the state [x(k); v(k-1); ...;
    v(k-kappa)] with v = G x is exact (Astrom and Wittenmark, Computer-
    Controlled Systems, sampled systems with time delay).  It has the
    nonzero spectrum of the n (kappa + 1) companion lift over [x(k); ...;
    x(k-kappa)], which differs only by zero eigenvalues.
    """
    return tuple(spectral_radius(_input_delay_lift(A, B, G, kappa))
                 for kappa in range(kappa_bar + 1))


def closed_loop_certificate(design):
    """Exact stability certificate of a design on every rooted graph and
    every delay profile up to the design's kappa_bar."""
    A, C, F = design.model.A, design.model.C, design.F
    radii = delay_loop_radii(A, design.model.B, -design.rho * design.K,
                             design.kappa_bar)
    worst = int(np.argmax(radii))
    observer = None if F is None else spectral_radius(A - F @ C)
    if observer is not None and observer > radii[worst]:
        top, reason = observer, "observer loop A - F C"
    else:
        top, reason = radii[worst], f"delayed loop at kappa = {worst}"
    passed = 1.0 - top > CERTIFICATE_THRESHOLD
    return StabilityCertificate(
        passed=passed, radii=radii, margin=1.0 - top, worst_kappa=worst,
        observer_radius=observer, threshold=CERTIFICATE_THRESHOLD,
        reason="" if passed else f"{reason} has spectral radius {top!r}")


def convergence_report(traj, tol=1e-3):
    """Judge a finite run against a convergence contract.

    Converged means the final error is below `tol` and the maximum over the
    last tenth of the series is below max(tol, 0.01 * initial error).
    `decay_ratio` is that tail maximum relative to the peak error.
    """
    err = np.asarray(traj.error, dtype=float)
    if err.size < 10:
        raise ScenarioError(f"trajectory too short to judge ({err.size} "
                            "steps)")
    initial = float(err[0])
    final = float(err[-1])
    peak = float(err.max())
    tail = err[-max(1, err.size // 10):]
    tail_max = float(tail.max())
    converged = final < tol and tail_max <= max(initial * 0.01, tol)
    return ConvergenceReport(
        converged=converged, final_error=final,
        decay_ratio=tail_max / peak if peak > 0 else 0.0,
        initial_error=initial, peak_error=peak, tail_max_error=tail_max)
