"""Span tracing of the library's layers from outside the library.

`Tracer.install` replaces each public function listed in SPANS, in every
loaded `delaysync` module namespace that refers to it (that is where its
callers look it up), with a wrapper that records a span: name, start, end
and parent.  Methods are wrapped on their class.  Self time (a span's
duration minus the time its child spans cover) and counts are accumulated
as the spans close; the spans themselves are kept in compact arrays and
written out at the end of the run.  `uninstall` restores the originals.
"""

import array
import functools
import os
import sys
import time

import numpy as np

#: span name -> (module, attribute path) of every function it covers
SPANS = {
    "spectral.eigenvalues": [("delaysync.spectral", "eigenvalues")],
    "riccati.solve_low_gain_dare": [("delaysync.riccati",
                                     "solve_low_gain_dare")],
    "riccati.is_stabilizable": [("delaysync.riccati", "is_stabilizable")],
    "network.network_matrices": [("delaysync.network", "network_matrices")],
    "network.is_rooted": [("delaysync.network", "is_rooted")],
    "design.choose_epsilon_star": [("delaysync.design",
                                    "choose_epsilon_star")],
    "design.estimate_mu": [("delaysync.design", "estimate_mu")],
    "design.design_observer": [("delaysync.design", "design_observer")],
    "design.design_protocol": [("delaysync.design", "design_protocol")],
    "dynamics.simulate": [("delaysync.dynamics", "simulate")],
    "dynamics.control_input": [("delaysync.dynamics", "control_input")],
    "dynamics.InputHistory.read": [("delaysync.dynamics",
                                    "InputHistory.read")],
    "dynamics.InputHistory.push": [("delaysync.dynamics",
                                    "InputHistory.push")],
    "dynamics.network_measurement": [("delaysync.dynamics",
                                      "network_measurement")],
    "dynamics.extra_exchange": [("delaysync.dynamics", "extra_exchange_full"),
                                ("delaysync.dynamics",
                                 "extra_exchange_partial")],
    "verify.frequency_sweep_certificate": [("delaysync.verify",
                                            "frequency_sweep_certificate")],
    "config.load_config": [("delaysync.config", "load_config")],
    "config.write_config": [("delaysync.config", "write_config")],
    "cli.write_trajectory_csv": [("delaysync.cli", "write_trajectory_csv")],
    "cli.write_plotdata_csv": [("delaysync.cli", "write_plotdata_csv")],
}

#: spans kept for the span file; self times and counts stay exact beyond it
MAX_SPANS = 2_000_000


def _dare_hook(tracer, args, kwargs, result):
    tracer.add("riccati.solve_low_gain_dare.iterations", result.iterations)
    A, B = args[0], args[1]
    eps = args[2] if len(args) > 2 else kwargs["epsilon"]
    key = (np.asarray(A).tobytes(), np.asarray(B).tobytes(), float(eps))
    if key in tracer.op_seen:
        tracer.add("riccati.solve_low_gain_dare.repeats", 1)
    tracer.op_seen.add(key)


def _simulate_hook(tracer, args, kwargs, result):
    steps, n_agents = result.x.shape[:2]
    tracer.add("dynamics.simulate.agent_steps", (steps - 1) * n_agents)


def _certificate_hook(tracer, args, kwargs, result):
    tracer.add("verify.frequency_sweep_certificate.evaluations",
               result.omega_points * result.kappa_combinations)


def _bytes_hook(name):
    def hook(tracer, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        tracer.add(name + ".bytes", os.path.getsize(path))
    return hook


HOOKS = {
    "riccati.solve_low_gain_dare": _dare_hook,
    "dynamics.simulate": _simulate_hook,
    "verify.frequency_sweep_certificate": _certificate_hook,
    "cli.write_trajectory_csv": _bytes_hook("cli.write_trajectory_csv"),
    "cli.write_plotdata_csv": _bytes_hook("cli.write_plotdata_csv"),
}


class Tracer:
    """Records spans while installed; accumulates per-name totals."""

    def __init__(self):
        self.names = list(SPANS)
        self.absent = []
        self._patches = []       # (owner, attribute, original, wrapper)
        self.start = array.array("d")
        self.end = array.array("d")
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.dropped = 0
        self._stack = []         # [span index, name id, start, child time]
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self.child_calls = {}    # (parent name, child name) -> count
        self.counts = {}
        self.op_seen = set()

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def begin_op(self):
        """Mark the start of one command or call (scope of repeat_ratio)."""
        self.op_seen = set()

    def _open(self, nid):
        idx = len(self.start)
        parent = self._stack[-1][0] if self._stack else -1
        start = time.perf_counter()
        if idx < MAX_SPANS:
            self.start.append(start)
            self.end.append(start)
            self.name_id.append(nid)
            self.parent.append(parent)
        else:
            idx = -1
            self.dropped += 1
        self._stack.append([idx, nid, start, 0.0])

    def _close(self):
        end = time.perf_counter()
        idx, nid, start, child = self._stack.pop()
        dur = end - start
        if idx >= 0:
            self.end[idx] = end
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        self.total_s[nid] += dur
        if self._stack:
            frame = self._stack[-1]
            frame[3] += dur
            key = (frame[1], nid)
            self.child_calls[key] = self.child_calls.get(key, 0) + 1

    def _wrap(self, original, nid, hook):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self._open(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return wrapper

    def install(self):
        """Wrap every listed function that exists; note the ones that do not
        (a later version of the library may have removed them)."""
        self.absent = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "delaysync"
                                         or key.startswith("delaysync."))]
        for nid, name in enumerate(self.names):
            found = False
            for module_name, attr in SPANS[name]:
                module = sys.modules.get(module_name)
                owner_name, _, leaf = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name \
                    else module
                original = getattr(owner, leaf, None) if owner else None
                if original is None:
                    continue
                found = True
                wrapper = self._wrap(original, nid, HOOKS.get(name))
                targets = [owner] if owner_name else [
                    m for m in modules
                    if any(v is original for v in vars(m).values())]
                for target in targets:
                    for key, value in list(vars(target).items()):
                        if value is original:
                            self._patches.append((target, key, original,
                                                  wrapper))
                            setattr(target, key, wrapper)
            if not found:
                self.absent.append(name)

    def uninstall(self):
        for target, key, original, _ in reversed(self._patches):
            setattr(target, key, original)
        self._patches = []

    def child_count(self, parent, child):
        return self.child_calls.get(
            (self.names.index(parent), self.names.index(child)), 0)

    def save(self, path):
        """Write the recorded spans (times relative to the first span)."""
        t0 = self.start[0] if len(self.start) else 0.0
        np.savez(path, names=np.array(self.names),
                 start=np.frombuffer(self.start, dtype=float) - t0,
                 end=np.frombuffer(self.end, dtype=float) - t0,
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 dropped=self.dropped)
