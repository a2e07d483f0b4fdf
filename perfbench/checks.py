"""Correctness checks.  Each returns None when the output is right and a
one-line description of the first problem otherwise, so a failed check
counts against the operation that produced the output.
"""

import json
import math

import numpy as np

#: trajectory tolerance relative to the state scale, as in the ROADMAP
TRAJ_RTOL = 1e-12

#: zero-delay error-system oracle tolerance (acceptance criterion 7)
ORACLE_ATOL = 1e-10

TRAJECTORY_HEADER = "k,agent,component,x,xr,u,error"
PLOTDATA_HEADER = "k,series,value"


def design_epsilon_star(text):
    """epsilon* as written in design.txt, or None if the line is missing."""
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        if key == "epsilon_star":
            try:
                return float(value)
            except ValueError:
                return None
    return None


def check_design_txt(text, first_text, epsilon_star):
    """design.txt must repeat byte for byte and carry the expected eps*."""
    if text != first_text:
        return "design.txt differs from the first repetition"
    eps = design_epsilon_star(text)
    if eps is None or not math.isclose(eps, epsilon_star, rel_tol=1e-12):
        return f"epsilon_star {eps!r} != expected {epsilon_star!r}"
    return None


def check_verify_output(rc, stdout):
    if rc != 0:
        return f"verify exited {rc}"
    if "certificate: PASS" not in stdout.splitlines():
        return "verify did not print 'certificate: PASS'"
    return None


def check_report_json(path):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not payload.get("certificate", {}).get("passed"):
        return f"{path}: certificate not passed"
    if not payload.get("convergence", {}).get("converged"):
        return f"{path}: run did not converge"
    return None


def check_finite(traj):
    for name in ("x", "protocol", "observer", "x_ref", "u"):
        arr = getattr(traj, name)
        if arr is not None and not np.all(np.isfinite(arr)):
            return f"trajectory field {name} has non-finite entries"
    return None


def check_close(actual, reference, what):
    """actual within TRAJ_RTOL of reference, relative to the state scale."""
    actual = np.asarray(actual, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if actual.shape != reference.shape:
        return f"{what}: shape {actual.shape} != reference {reference.shape}"
    scale = max(1.0, float(np.abs(reference).max()))
    dev = float(np.abs(actual - reference).max())
    if not dev <= TRAJ_RTOL * scale:
        return f"{what}: deviates from the reference by {dev:.3e}"
    return None


def substochastic(adjacency, roots):
    """I - (2I + D_in)^{-1} (L + diag(roots)), built independently of the
    library's network layer."""
    adj = np.asarray(adjacency, dtype=float)
    d_in = adj.sum(axis=1)
    lap_exp = np.diag(d_in) - adj + np.diag(np.asarray(roots, dtype=float))
    return np.eye(adj.shape[0]) - lap_exp / (2.0 + d_in)[:, None]


def check_error_oracle(traj, adjacency, roots, A):
    """Zero-delay full-state run: e = x - x_ref - chi obeys
    e(k+1) = (S kron A) e(k)."""
    steps = traj.x.shape[0]
    e = (traj.x - traj.x_ref[:, None, :] - traj.protocol).reshape(steps, -1)
    D = np.kron(substochastic(adjacency, roots), np.asarray(A, dtype=float))
    worst = float(np.abs(e[1:] - e[:-1] @ D.T).max())
    if not worst <= ORACLE_ATOL:
        return f"error-system oracle deviates by {worst:.3e}"
    return None


def trajectory_rows(x, xr, u, k):
    """Expected trajectory.csv rows at step k, from the README's layout."""
    n_agents, n = x.shape[1], x.shape[2]
    m = u.shape[2]
    rows = [[k, 0, c, xr[k, c], xr[k, c], 0.0, 0.0] for c in range(n)]
    for i in range(n_agents):
        err = float(np.sqrt(((x[k, i] - xr[k]) ** 2).sum()))
        for c in range(n):
            rows.append([k, i + 1, c, x[k, i, c], xr[k, c],
                         u[k, i, c] if c < m else 0.0, err])
    return rows


def plotdata_rows(x, xr, u, error, k):
    """Expected plotdata.csv rows at step k."""
    n_agents, n, m = x.shape[1], x.shape[2], u.shape[2]
    rows = [[k, "error", error[k]]]
    rows += [[k, f"exo.x{c}", xr[k, c]] for c in range(n)]
    for i in range(n_agents):
        rows += [[k, f"agent{i + 1}.x{c}", x[k, i, c]] for c in range(n)]
        rows += [[k, f"agent{i + 1}.u{c}", u[k, i, c]] for c in range(m)]
    return rows


def checkpoints(k_max):
    return (0, k_max // 2, k_max)


def check_csv(path, header, steps, expected):
    """A long-format CSV: exact header, exactly `steps` equal blocks of
    rows, and the rows at each checkpoint step matching `expected`
    ({k: rows}); identifiers exactly, numbers within TRAJ_RTOL of the
    checkpoint's scale."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        return f"{path}: header {lines[:1]} != {header!r}"
    per_step = len(next(iter(expected.values())))
    if len(lines) - 1 != steps * per_step:
        return (f"{path}: {len(lines) - 1} rows, expected "
                f"{steps} x {per_step}")
    for k, rows in expected.items():
        block = lines[1 + k * per_step:1 + (k + 1) * per_step]
        scale = max([1.0] + [abs(v) for row in rows for v in row
                             if isinstance(v, float)])
        for line, row in zip(block, rows):
            fields = line.split(",")
            if len(fields) != len(row):
                return f"{path}: malformed row {line!r}"
            for field, want in zip(fields, row):
                if isinstance(want, float):
                    try:
                        ok = abs(float(field) - want) <= TRAJ_RTOL * scale
                    except ValueError:
                        ok = False
                else:
                    ok = field == str(want)
                if not ok:
                    return f"{path}: row {line!r} != expected {row!r}"
    return None
