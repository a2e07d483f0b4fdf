"""Frozen reference kernels that measure how fast the machine is running.

The shared machines this benchmark runs on change speed by up to 1.7x for
minutes at a time, so two runs of the same code, minutes apart, can differ
by more than any useful regression bound.  Each workload therefore runs, at
even intervals between its operations, a small kernel made of the same kind
of work as its own operations but written here and never changed.  The
end-to-end times are scaled by NOMINAL_S / (the kernel's best time in the
run): seconds as they would read at the speed the kernel had when
NOMINAL_S was measured.  A change to the library moves the operations, not
the kernels, so the scaled times still show it.
"""

import csv
import io
import math
import time

import numpy as np

_RNG = np.random.default_rng(2020)
_A = np.array([[0.5, 1.0, 1.0],
               [0.0, math.sqrt(3) / 2, -0.5],
               [0.0, 0.5, math.sqrt(3) / 2]])
_B = np.array([[1.0], [1.0], [0.0]])
_K = np.array([[0.1, 0.2, 0.3]])
_ADJ = np.diag(np.ones(9), -1)
_BATCH = _A[None] - np.exp(-1j * np.linspace(0, 2, 200))[:, None, None] \
    * (_B @ _K)[None]
_VALUES = _RNG.normal(size=(200, 10, 3))


def _loop(steps):
    """A closed-loop-like recurrence over ten agents: small products, a
    delay buffer and per-step temporaries, as the simulator does."""
    x = np.ones((10, 3))
    chi = np.zeros((10, 3))
    hist = [np.zeros((10, 1))] * 2
    d = _ADJ.sum(axis=1)
    rows = np.arange(10)
    for _ in range(steps):
        u = -(chi @ _K.T)
        past = np.stack([u, *hist])[rows % 3, rows]
        rel = (d[:, None] * x - _ADJ @ x) / (2.0 + d)[:, None]
        lap = np.diag(d) - _ADJ
        chi = chi @ _A.T + past @ _B.T + (rel - 0.5 * (lap @ chi)) @ _A.T
        x = 0.999 * (x @ _A.T + past @ _B.T)
        hist = [u] + hist[:-1]
    return x


def _simulation():
    _loop(1000)


def _design():
    """Batched small complex eigenvalues and singular values, and small
    dense solves, as the designer and the certificate do."""
    for _ in range(10):
        np.linalg.eigvals(_BATCH)
        np.linalg.svd(_BATCH, compute_uv=False)
    P = np.eye(3)
    for _ in range(400):
        M = np.eye(1) + _B.T @ P @ _B
        P = _A.T @ P @ _A + 1e-3 * np.eye(3) \
            - _A.T @ P @ _B @ np.linalg.solve(M, _B.T @ P @ _A)


def _export():
    """Float formatting through csv.writer, as the CSV writers do, behind
    a short recurrence."""
    _loop(200)
    writer = csv.writer(io.StringIO())
    for k, block in enumerate(_VALUES):
        for i, row in enumerate(block):
            err = float(np.sqrt((row ** 2).sum()))
            for c in range(3):
                writer.writerow([k, i, c, repr(float(row[c])), repr(err)])


#: kernel and its best time (s) on the development machine (a 2-vCPU
#: x86-64 VM, Python 3.11, numpy 2.4 with OpenBLAS) at its fastest
KERNELS = {
    "simulation": (_simulation, 0.0222),
    "design": (_design, 0.0192),
    "export": (_export, 0.0235),
}


def timed(name):
    """Wall time of one run of the named kernel."""
    kernel = KERNELS[name][0]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(name, times):
    """Factor that turns this run's times into times at nominal speed."""
    return KERNELS[name][1] / min(times)
