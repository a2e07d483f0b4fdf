"""Dense spectral utilities: eigenvalues, spectral radii, Schur-stability
tests, and the peak angle of unit-circle modes.

Everything here is a pure function of its arguments; results are
deterministic for a given numeric backend, including the eigenvalue
ordering (descending modulus, then ascending argument).
"""

import numpy as np

from .errors import AssumptionError, DimensionError, NumericError

#: eigenvalues with | |lambda| - 1 | below this count as on the unit circle
UNIT_CIRCLE_TOL = 1e-7

#: strict-stability margin: Schur stable means max |lambda| < 1 - SCHUR_TOL
SCHUR_TOL = 1e-9


def _eigvals(M, stack=False):
    """Unordered eigenvalues of a checked square matrix, or stack if `stack`."""
    M = np.asarray(M)
    if M.ndim < 2 or M.ndim > 2 and not stack or M.shape[-2] != M.shape[-1]:
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[-1] < 1:
        raise DimensionError("matrix order must be at least 1")
    if not np.all(np.isfinite(M)):
        raise NumericError("matrix has non-finite entries")
    try:
        return np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue iteration failed for order-{M.shape[-1]} "
                           f"matrix: {exc}") from exc


def eigenvalues(M):
    """All eigenvalues of a square matrix in a reproducible order.

    Sorted by descending modulus, ties broken by ascending argument, so
    repeated calls on identical input give identical vectors.
    """
    vals = _eigvals(M)
    order = np.lexsort((np.angle(vals), -np.abs(vals)))
    return vals[order]


def spectral_radius(M):
    """Largest eigenvalue modulus of a square matrix (of each in a stack)."""
    radii = np.abs(_eigvals(M, stack=True)).max(axis=-1)
    return float(radii) if radii.ndim == 0 else radii


def is_schur_stable(M):
    """True iff every eigenvalue of M lies strictly inside the unit circle.

    Stability is tested on the open disc with margin SCHUR_TOL:
    max |lambda| < 1 - SCHUR_TOL.  Boundary eigenvalues never count as
    stable.
    """
    return bool(np.abs(_eigvals(M)).max() < 1.0 - SCHUR_TOL)


def omega_max(A):
    """Largest angle (radians, in [0, pi]) of any unit-circle eigenvalue of A.

    Eigenvalues within UNIT_CIRCLE_TOL of the circle count as on it, and
    0.0 means none is.  One beyond 1 + UNIT_CIRCLE_TOL breaks the
    neutrally-stable model assumption, where the delay tolerance is
    undefined, and raises AssumptionError.
    """
    vals = eigenvalues(A)
    mods = np.abs(vals)
    if np.any(mods > 1.0 + UNIT_CIRCLE_TOL):
        raise AssumptionError(
            "matrix has an eigenvalue outside the closed unit disc "
            f"(max modulus {mods.max():.12g}); delay tolerance undefined")
    on_circle = np.abs(mods - 1.0) <= UNIT_CIRCLE_TOL
    if not np.any(on_circle):
        return 0.0
    return float(np.abs(np.angle(vals[on_circle])).max())
