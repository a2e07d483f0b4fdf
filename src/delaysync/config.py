"""Scenario configuration: a documented JSON schema, full-file validation,
and round-trippable serialization.

Schema (matrices are arrays of row arrays; numbers may use exponent
notation):

    {
      "model":    {"A": [[...]], "B": [[...]], "C": [[...]]},
      "mode":     "full" | "partial",
      "graph":    {"adjacency": [[...]], "roots": [0/1 flags, length N]},
      "delays":   {"kappa": [ints, length N], "kappa_bar": int (optional)},
      "protocol": {"epsilon": float, "rho": float}          (optional keys),
      "sim":      {"k_max": int, "x0": [[...] per agent], "xr0": [...]},
      "output":   {"directory": str, "emit_plot_data": bool} (optional)
    }

Validation is not fail-fast: every violation is collected and reported in
one ScenarioError, each message naming the offending field.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .design import FULL_STATE, PARTIAL_STATE, AgentModel
from .dynamics import DelayProfile
from .errors import DelaySyncError, ScenarioError
from .network import CommGraph


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """A validated scenario; compare scenarios by their config_to_dict."""
    model: AgentModel
    mode: str
    graph: CommGraph
    delays: DelayProfile
    k_max: int
    x0: np.ndarray
    xr0: np.ndarray
    epsilon: float | None = None
    rho: float | None = None
    out_dir: str = "."
    emit_plot_data: bool = False


def _matrix(raw, name, problems):
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        problems.append(f"{name}: not a numeric array of row arrays")
        return None
    if arr.ndim != 2 or not np.all(np.isfinite(arr)):
        problems.append(f"{name}: must be a finite 2-d array of row arrays")
        return None
    return arr


def _vector(raw, name, problems):
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        problems.append(f"{name}: not a numeric array")
        return None
    if arr.ndim != 1 or not np.all(np.isfinite(arr)):
        problems.append(f"{name}: must be a finite 1-d array")
        return None
    return arr


def _section(data, name, problems, required=True):
    sec = data.get(name)
    if sec is None:
        if required:
            problems.append(f"{name}: missing section")
        return {}
    if not isinstance(sec, dict):
        problems.append(f"{name}: must be an object")
        return {}
    return sec


def parse_config(data):
    """Validate a parsed JSON object into a ScenarioConfig.

    Collects every violation before raising one ScenarioError.
    """
    problems = []
    if not isinstance(data, dict):
        raise ScenarioError(["config root must be an object"])

    model_sec = _section(data, "model", problems)
    A = _matrix(model_sec.get("A"), "model.A", problems)
    B = _matrix(model_sec.get("B"), "model.B", problems)
    C = _matrix(model_sec.get("C"), "model.C", problems)
    model = None
    if A is not None and B is not None and C is not None:
        try:
            model = AgentModel(A=A, B=B, C=C)
        except DelaySyncError as exc:
            problems.append(f"model: {exc}")

    mode = data.get("mode")
    if mode not in (FULL_STATE, PARTIAL_STATE):
        problems.append(f"mode: must be '{FULL_STATE}' or '{PARTIAL_STATE}', "
                        f"got {mode!r}")
    if mode == FULL_STATE and model is not None:
        if model.C.shape != model.A.shape or not np.array_equal(
                model.C, np.eye(model.n)):
            problems.append("model.C: full-state coupling requires C to be "
                            "the identity")

    graph_sec = _section(data, "graph", problems)
    adj = _matrix(graph_sec.get("adjacency"), "graph.adjacency", problems)
    roots_raw = graph_sec.get("roots")
    graph = None
    n_agents = None
    if adj is not None:
        n_agents = adj.shape[0]
        roots = None
        if (isinstance(roots_raw, list) and len(roots_raw) == n_agents
                and all(r in (0, 1, True, False) for r in roots_raw)):
            roots = np.asarray(roots_raw, dtype=bool)
        else:
            problems.append(f"graph.roots: must be a list of {n_agents} 0/1 "
                            "flags matching the adjacency order")
        if roots is not None:
            if not roots.any():
                problems.append("graph.roots: at least one agent must be a root")
            try:
                graph = CommGraph(adjacency=adj, roots=roots)
            except DelaySyncError as exc:
                problems.append(f"graph: {exc}")

    delays_sec = _section(data, "delays", problems)
    kappa_raw = delays_sec.get("kappa")
    delays = None
    if not isinstance(kappa_raw, list) or not all(
            isinstance(k, int) and not isinstance(k, bool) for k in kappa_raw):
        problems.append("delays.kappa: must be a list of non-negative integers")
    else:
        if n_agents is not None and len(kappa_raw) != n_agents:
            problems.append(
                f"delays.kappa: length {len(kappa_raw)} does not match the "
                f"graph.adjacency order {n_agents}")
        kb = delays_sec.get("kappa_bar")
        if kb is not None and (not isinstance(kb, int) or isinstance(kb, bool)):
            problems.append("delays.kappa_bar: must be an integer")
            kb = None
        try:
            delays = DelayProfile.from_list(kappa_raw, kappa_bar=kb)
        except DelaySyncError as exc:
            problems.append(f"delays: {exc}")

    proto_sec = _section(data, "protocol", problems, required=False)
    epsilon = proto_sec.get("epsilon")
    if epsilon is not None:
        if (not isinstance(epsilon, (int, float)) or isinstance(epsilon, bool)
                or not 0 < epsilon <= 1):
            problems.append(f"protocol.epsilon: must be in (0, 1], got {epsilon!r}")
            epsilon = None
        else:
            epsilon = float(epsilon)
    rho = proto_sec.get("rho")
    if rho is not None:
        if (not isinstance(rho, (int, float)) or isinstance(rho, bool)
                or not 0 < rho < math.inf):
            problems.append(
                f"protocol.rho: must be positive and finite, got {rho!r}")
            rho = None
        else:
            rho = float(rho)

    sim_sec = _section(data, "sim", problems)
    k_max = sim_sec.get("k_max")
    if not isinstance(k_max, int) or isinstance(k_max, bool) or k_max < 10:
        problems.append(f"sim.k_max: must be an integer of at least 10, "
                        f"got {k_max!r}")
        k_max = None
    x0 = _matrix(sim_sec.get("x0"), "sim.x0", problems)
    xr0 = _vector(sim_sec.get("xr0"), "sim.xr0", problems)
    if x0 is not None and model is not None and n_agents is not None:
        if x0.shape != (n_agents, model.n):
            problems.append(f"sim.x0: expected shape "
                            f"({n_agents}, {model.n}), got {x0.shape}")
    if xr0 is not None and model is not None and xr0.shape != (model.n,):
        problems.append(f"sim.xr0: expected length {model.n}, got {xr0.shape[0]}")

    out_sec = _section(data, "output", problems, required=False)
    out_dir = out_sec.get("directory", ".")
    if not isinstance(out_dir, str):
        problems.append("output.directory: must be a string")
        out_dir = "."
    emit_plot = out_sec.get("emit_plot_data", False)
    if not isinstance(emit_plot, bool):
        problems.append("output.emit_plot_data: must be a boolean")
        emit_plot = False

    if problems:
        raise ScenarioError(problems)
    return ScenarioConfig(model=model, mode=mode, graph=graph, delays=delays,
                          k_max=k_max, x0=x0, xr0=xr0, epsilon=epsilon,
                          rho=rho, out_dir=out_dir, emit_plot_data=emit_plot)


def load_config(path):
    """Parse and validate a scenario file; raises ScenarioError listing
    every violation, or a parse error with position info."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                [f"parse error at line {exc.lineno}, column {exc.colno}: "
                 f"{exc.msg}"]) from exc
    return parse_config(data)


def config_to_dict(cfg):
    out = {
        "model": {"A": cfg.model.A.tolist(), "B": cfg.model.B.tolist(),
                  "C": cfg.model.C.tolist()},
        "mode": cfg.mode,
        "graph": {"adjacency": cfg.graph.adjacency.tolist(),
                  "roots": [int(r) for r in cfg.graph.roots]},
        "delays": {"kappa": [int(k) for k in cfg.delays.kappa],
                   "kappa_bar": int(cfg.delays.kappa_bar)},
        "sim": {"k_max": int(cfg.k_max), "x0": cfg.x0.tolist(),
                "xr0": cfg.xr0.tolist()},
        "output": {"directory": cfg.out_dir,
                   "emit_plot_data": cfg.emit_plot_data},
    }
    protocol = {}
    if cfg.epsilon is not None:
        protocol["epsilon"] = cfg.epsilon
    if cfg.rho is not None:
        protocol["rho"] = cfg.rho
    if protocol:
        out["protocol"] = protocol
    return out


def write_config(cfg, path):
    """Serialize a ScenarioConfig so that load_config reads it back unchanged."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")
