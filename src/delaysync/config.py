"""Scenario configuration: a documented JSON schema, full-file validation,
and round-trippable serialization.

Schema (matrices are arrays of row arrays; numbers may use exponent
notation):

    {
      "model":    {"A": [[...]], "B": [[...]], "C": [[...]]},
      "mode":     "full" | "partial",
      "graph":    {"adjacency": [[...]], "roots": [0/1 flags, length N]},
      "delays":   {"kappa": [whole numbers, length N],
                   "kappa_bar": whole number (optional)},
      "protocol": {"epsilon": float}                        (optional),
      "sim":      {"k_max": int, "x0": [[...] per agent], "xr0": [...]},
      "output":   {"directory": str, "emit_plot_data": bool} (optional)
    }

Validation is not fail-fast: every violation is collected and reported in
one ScenarioError, each message naming the offending field or key.  A
value's rules live in the type that owns it: `AgentModel`, `CommGraph`
(weights and root flags) and `DelayProfile` (whole, non-negative delays),
whose errors are reported under `model:`, `graph:` and `delays:`; a real
number is what `errors.real_array` accepts.  This module checks only what
a file adds: the sections and their keys, finite matrices, the typed
scalar fields (`protocol`, `sim.k_max`, the one simulation horizon, and
`output`), and agreement across sections (the adjacency order against
`delays.kappa` and `sim.x0`, `C = I` in full mode, at least one root).
"""

import json
from dataclasses import dataclass

import numpy as np

from .design import FULL_STATE, PARTIAL_STATE, AgentModel
from .dynamics import DelayProfile
from .errors import DelaySyncError, ScenarioError, is_real_type, real_array
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
    out_dir: str = "."
    emit_plot_data: bool = False


#: the keys the loader reads, by section (mode is a value); others are refused
_KEYS = {"model": {"A", "B", "C"}, "mode": None,
         "graph": {"adjacency", "roots"}, "delays": {"kappa", "kappa_bar"},
         "protocol": {"epsilon"}, "sim": {"k_max", "x0", "xr0"},
         "output": {"directory", "emit_plot_data"}}


def _matrix(raw, name, problems, ndim=2):
    rows = " of row arrays" if ndim == 2 else ""
    try:
        arr = real_array(raw, name)
    except DelaySyncError:  # ragged rows, or an entry that is no number
        problems.append(f"{name}: not a numeric array{rows}")
        return None
    if arr.ndim != ndim or not np.all(np.isfinite(arr)):
        problems.append(f"{name}: must be a finite {ndim}-d array{rows}")
        return None
    return arr


def _field(sec, name, problems, must, valid, default=None):
    """The value of the field `name` ("section.key") in `sec`, `default`
    when the key is absent.  A value `valid` rejects is reported, naming
    the field, and read as `default`."""
    value = sec.get(name.split(".")[1], default)
    if valid(value):
        return value
    problems.append(f"{name}: must be {must}, got {value!r}")
    return default


def _build(section, problems, make, **fields):
    """make(**fields), or None with its error reported under `section`."""
    try:
        return make(**fields)
    except DelaySyncError as exc:
        problems.append(f"{section}: {exc}")
        return None


def _section(data, name, problems, required=True):
    sec = data.get(name)
    if sec is None:
        if required:
            problems.append(f"{name}: missing section")
        return {}
    if not isinstance(sec, dict):
        problems.append(f"{name}: must be an object")
        return {}
    problems.extend(f"{name}.{key}: unknown key" for key in sec
                    if key not in _KEYS[name])
    return sec


def parse_config(data):
    """Validate a parsed JSON object into a ScenarioConfig.

    Collects every violation before raising one ScenarioError.
    """
    problems = []
    if not isinstance(data, dict):
        raise ScenarioError(["config root must be an object"])
    problems.extend(f"{k}: unknown section" for k in data if k not in _KEYS)

    model_sec = _section(data, "model", problems)
    A, B, C = (_matrix(model_sec.get(key), f"model.{key}", problems)
               for key in "ABC")
    model = None if any(M is None for M in (A, B, C)) else _build(
        "model", problems, AgentModel, A=A, B=B, C=C)

    mode = data.get("mode")
    if mode not in (FULL_STATE, PARTIAL_STATE):
        problems.append(f"mode: must be '{FULL_STATE}' or '{PARTIAL_STATE}', "
                        f"got {mode!r}")
    if (mode == FULL_STATE and model is not None
            and not np.array_equal(model.C, np.eye(model.n))):
        problems.append("model.C: full-state coupling requires C to be "
                        "the identity")

    graph_sec = _section(data, "graph", problems)
    adj = _matrix(graph_sec.get("adjacency"), "graph.adjacency", problems)
    n_agents = graph = None
    if adj is not None:
        n_agents = adj.shape[0]
        graph = _build("graph", problems, CommGraph, adjacency=adj,
                       roots=graph_sec.get("roots"))
    if graph is not None and not graph.roots.any():
        problems.append("graph.roots: at least one agent must be a root")

    delays_sec = _section(data, "delays", problems)
    delays = _build("delays", problems, DelayProfile,
                    kappa=delays_sec.get("kappa"),
                    kappa_bar=delays_sec.get("kappa_bar"))
    if (delays is not None and n_agents is not None
            and delays.kappa.size != n_agents):
        problems.append(
            f"delays.kappa: length {delays.kappa.size} does not match the "
            f"graph.adjacency order {n_agents}")

    proto_sec = _section(data, "protocol", problems, required=False)
    epsilon = _field(proto_sec, "protocol.epsilon", problems, "in (0, 1]",
                     lambda v: v is None
                     or is_real_type(type(v)) and 0 < v <= 1)
    epsilon = epsilon if epsilon is None else float(epsilon)

    sim_sec = _section(data, "sim", problems)
    k_max = _field(sim_sec, "sim.k_max", problems, "an integer of at least 10",
                   lambda v: isinstance(v, int) and is_real_type(type(v))
                   and v >= 10)
    x0 = _matrix(sim_sec.get("x0"), "sim.x0", problems)
    xr0 = _matrix(sim_sec.get("xr0"), "sim.xr0", problems, ndim=1)
    if (x0 is not None and model is not None and n_agents is not None
            and x0.shape != (n_agents, model.n)):
        problems.append(f"sim.x0: expected shape ({n_agents}, {model.n}), "
                        f"got {x0.shape}")
    if xr0 is not None and model is not None and xr0.shape != (model.n,):
        problems.append(f"sim.xr0: expected length {model.n}, got {xr0.shape[0]}")

    out_sec = _section(data, "output", problems, required=False)
    out_dir = _field(out_sec, "output.directory", problems, "a string",
                     lambda v: isinstance(v, str), default=".")
    emit_plot = _field(out_sec, "output.emit_plot_data", problems, "a boolean",
                       lambda v: isinstance(v, bool), default=False)

    if problems:
        raise ScenarioError(problems)
    return ScenarioConfig(model=model, mode=mode, graph=graph, delays=delays,
                          k_max=k_max, x0=x0, xr0=xr0, epsilon=epsilon,
                          out_dir=out_dir, emit_plot_data=emit_plot)


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
    if cfg.epsilon is not None:
        out["protocol"] = {"epsilon": cfg.epsilon}
    return out


def write_config(cfg, path):
    """Serialize a ScenarioConfig so that load_config reads it back unchanged."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")
