"""Independent stability certificates and trajectory diagnostics.

The certificate machinery is deliberately separate from the designer: it
re-checks a finished design by sweeping the loop's frequency response
rather than trusting the construction that produced it.  The protocol's
loop has one delayed term, -rho B K; for the delayed linear recursion

    x(k+1) = A0 x(k) + A1 x(k - kappa)

with A0 + A1 Schur stable, asymptotic stability holds whenever

    sigma_min( e^{jw} I - A0 - e^{-jw kappa} A1 ) > 0

for all w in [-pi, pi].  The sweep evaluates that margin on a dense grid
for every delay kappa in the given range and reports the minimum together
with where it occurred.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, GridSizeError
from .spectral import is_schur_stable

#: refuse sweeps beyond this many (omega, delay) evaluations
MAX_GRID_EVALUATIONS = 1_000_000

#: a certificate passes iff its minimum margin exceeds this
CERTIFICATE_THRESHOLD = 1e-6


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
    tol and tail_fraction times the initial error.
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


def closed_loop_certificate(design, omega_points=4096):
    """Certificate for a designed loop: A0 = A with the single delayed term
    -rho B K over every integer delay up to the design's kappa_bar."""
    return frequency_sweep_certificate(
        design.model.A, -design.rho * (design.model.B @ design.K),
        range(design.kappa_bar + 1), omega_points=omega_points)


def convergence_report(traj, tail_fraction=0.01, tol=1e-3):
    """Judge a finite run against a convergence contract.

    Converged means the final error is below `tol` and the maximum over the
    last tenth of the series is below max(tol, tail_fraction * initial
    error).  `decay_ratio` is that tail maximum relative to the peak error.
    """
    err = np.asarray(traj.error, dtype=float)
    if err.size < 10:
        raise ValueError(f"trajectory too short to judge ({err.size} steps)")
    initial = float(err[0])
    final = float(err[-1])
    peak = float(err.max())
    tail = err[-max(1, err.size // 10):]
    tail_max = float(tail.max())
    converged = final < tol and tail_max <= max(initial * tail_fraction, tol)
    return ConvergenceReport(
        converged=converged, final_error=final,
        decay_ratio=tail_max / peak if peak > 0 else 0.0,
        initial_error=initial, peak_error=peak, tail_max_error=tail_max)
