"""Scenario configuration: a documented JSON schema, full-file validation,
and round-trippable serialization.

Schema (matrices are arrays of row arrays; numbers may use exponent
notation):

    {
      "model":    {"A": [[...]], "B": [[...]], "C": [[...]]},
      "mode":     "full" | "partial",
      "graph":    {"adjacency": [[...]] | "edges": [[i, j, a_ij], ...],
                   "roots": [0/1 flags, length N]},
      "delays":   {"kappa": [whole numbers, length N],
                   "kappa_bar": whole number (optional)},
      "protocol": {"epsilon": float}                        (optional),
      "sim":      {"k_max": int, "x0": [[...] per agent], "xr0": [...]},
      "output":   {"directory": str, "emit_plot_data": bool} (optional)
    }

A graph is given by exactly one of `adjacency`, the dense N x N weights,
and `edges`, one row [i, j, a_ij] per edge from agent j to agent i (the
indices of adjacency[i][j], from 0) with a positive weight; with edges, N
is the length of `roots`.  Number texts are parsed once per distinct text,
so the many equal entries of a large matrix share one float.

Validation is not fail-fast: every violation is collected and reported in
one ScenarioError, each message naming the offending field or key.  An
absent required section or key is reported as missing and no value rule
runs on it; every key is required but `delays.kappa_bar` and those of the
optional sections, and the graph needs one of its two forms (without
either, `graph.adjacency` is reported missing).  A value is read by the
library code that owns its rule, and that message is reported under the
field: `AgentModel`, `CommGraph` (weights, edges, root flags),
`DelayProfile` (whole, non-negative delays), `mode` by the designer's
rule, `protocol.epsilon` by the solver's, `sim.k_max` (the one horizon)
by the whole-number rule `simulate` uses.  This module adds only what a file needs: the sections
and their keys, finite real-number matrices, the `sim.k_max >= 10` floor,
the `output` fields, and the checks across sections (the graph order
against `delays.kappa` and `sim.x0`, `C = I` in full mode, at least one
root).  A matrix entry that is no real number is named by its index and
value, in the number rule's own message under the section, e.g.
`graph: non-numeric or boolean adjacency: entry (0, 1) is True`.
"""

import json
from dataclasses import dataclass

import numpy as np

from .design import FULL_STATE, AgentModel, _check_mode
from .dynamics import DelayProfile
from .errors import (DelaySyncError, ScenarioError, real_array, scalar,
                     whole_array)
from .network import CommGraph
from .riccati import _check_epsilon


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
         "graph": {"adjacency", "edges", "roots"},
         "delays": {"kappa", "kappa_bar"},
         "protocol": {"epsilon"}, "sim": {"k_max", "x0", "xr0"},
         "output": {"directory", "emit_plot_data"}}
#: the sections a file must have, and the keys each must hold; of a tuple
#: of keys exactly one (reported as its first when none is given)
_REQUIRED = {"model": ("A", "B", "C"),
             "graph": (("adjacency", "edges"), "roots"),
             "delays": ("kappa",), "sim": ("k_max", "x0", "xr0")}
#: an absent required key: reported once as missing, and no value rule runs
_MISSING = object()


def _matrix(raw, name, problems, ndim=2):
    if raw is _MISSING:
        return None
    rows = " of row arrays" if ndim == 2 else ""
    section, key = name.split(".")
    try:
        arr = real_array(raw, key)
    except ScenarioError as exc:  # the number rule names the bad entry
        problems.append(f"{section}: {exc}")
        return None
    except DelaySyncError:  # ragged rows
        problems.append(f"{name}: not a numeric array{rows}")
        return None
    if arr.ndim != ndim or not np.all(np.isfinite(arr)):
        problems.append(f"{name}: must be a finite {ndim}-d array{rows}")
        return None
    return arr


def _build(section, problems, make, **fields):
    """make(**fields), or None with its error reported under `section` (a
    section, or a field "section.key"); None, unreported, if a field is
    missing."""
    if any(value is _MISSING for value in fields.values()):
        return None
    try:
        return make(**fields)
    except DelaySyncError as exc:
        problems.append(f"{section}: {exc}")
        return None


def _section(data, name, problems):
    """The section `name`, or {} with its absence or type reported; its
    unknown keys and absent required keys are reported."""
    sec = data.get(name)
    if sec is None:
        if name in _REQUIRED:
            problems.append(f"{name}: missing section")
        return {}
    if not isinstance(sec, dict):
        problems.append(f"{name}: must be an object")
        return {}
    problems.extend(f"{name}.{key}: unknown key" for key in sec
                    if key not in _KEYS[name])
    for keys in _REQUIRED.get(name, ()):
        keys = keys if isinstance(keys, tuple) else (keys,)
        given = [key for key in keys if key in sec]
        if not given:
            problems.append(f"{name}.{keys[0]}: missing key")
        elif len(given) > 1:
            problems.append(f"{name}: give exactly one of "
                            f"{' and '.join(keys)}")
    return sec


def _graph(sec, problems):
    """(N, the CommGraph or None, what gives N) from the graph section: N
    is the adjacency order, or with edges the length of the roots."""
    roots = sec.get("roots", _MISSING)
    if "edges" not in sec:
        adj = _matrix(sec.get("adjacency", _MISSING), "graph.adjacency",
                      problems)
        if adj is None:
            return None, None, None
        return adj.shape[0], _build("graph", problems, CommGraph,
                                    adjacency=adj, roots=roots), \
            "graph.adjacency order"
    if "adjacency" in sec:  # reported by _section
        return None, None, None
    raw = sec["edges"]
    edges = (np.zeros((0, 3)) if isinstance(raw, list) and not raw
             else _matrix(raw, "graph.edges", problems))
    if edges is not None and edges.shape[1] != 3:
        problems.append("graph.edges: each row must be [i, j, a_ij], got "
                        f"rows of {edges.shape[1]}")
        edges = None
    n_agents = len(roots) if isinstance(roots, list) else None
    if n_agents is None and roots is not _MISSING:
        problems.append("graph: roots must be one row of 0/1 flags")
    graph = None if edges is None or n_agents is None else _build(
        "graph", problems, CommGraph.from_edges, n_agents=n_agents,
        dst=edges[:, 0], src=edges[:, 1], weight=edges[:, 2], roots=roots)
    return n_agents, graph, "graph.roots length"


def parse_config(data):
    """Validate a parsed JSON object into a ScenarioConfig.

    Collects every violation before raising one ScenarioError.
    """
    problems = []
    if not isinstance(data, dict):
        raise ScenarioError(["config root must be an object"])
    problems.extend(f"{k}: unknown section" for k in data if k not in _KEYS)

    model_sec = _section(data, "model", problems)
    A, B, C = (_matrix(model_sec.get(key, _MISSING), f"model.{key}", problems)
               for key in "ABC")
    model = None if any(M is None for M in (A, B, C)) else _build(
        "model", problems, AgentModel, A=A, B=B, C=C)

    if "mode" not in data:
        problems.append("mode: missing key")
    mode = _build("mode", problems, _check_mode,
                  mode=data.get("mode", _MISSING))
    if (mode == FULL_STATE and model is not None
            and not np.array_equal(model.C, np.eye(model.n))):
        problems.append("model.C: full-state coupling requires C to be "
                        "the identity")

    graph_sec = _section(data, "graph", problems)
    n_agents, graph, order = _graph(graph_sec, problems)
    if graph is not None and not graph.roots.any():
        problems.append("graph.roots: at least one agent must be a root")

    delays_sec = _section(data, "delays", problems)
    delays = _build("delays", problems, DelayProfile,
                    kappa=delays_sec.get("kappa", _MISSING),
                    kappa_bar=delays_sec.get("kappa_bar"))
    if (delays is not None and n_agents is not None
            and delays.kappa.size != n_agents):
        problems.append(
            f"delays.kappa: length {delays.kappa.size} does not match the "
            f"{order} {n_agents}")

    proto_sec = _section(data, "protocol", problems)
    epsilon = proto_sec.get("epsilon")
    if epsilon is not None:
        epsilon = _build("protocol.epsilon", problems, _check_epsilon,
                         epsilon=epsilon)

    sim_sec = _section(data, "sim", problems)
    k_max = _build("sim.k_max", problems, scalar,
                   value=sim_sec.get("k_max", _MISSING), name="k_max",
                   rule=whole_array)
    if k_max is not None and k_max < 10:
        problems.append(f"sim.k_max: must be at least 10, got {k_max}")
    x0 = _matrix(sim_sec.get("x0", _MISSING), "sim.x0", problems)
    xr0 = _matrix(sim_sec.get("xr0", _MISSING), "sim.xr0", problems, ndim=1)
    if (x0 is not None and model is not None and n_agents is not None
            and x0.shape != (n_agents, model.n)):
        problems.append(f"sim.x0: expected shape ({n_agents}, {model.n}), "
                        f"got {x0.shape}")
    if xr0 is not None and model is not None and xr0.shape != (model.n,):
        problems.append(f"sim.xr0: expected length {model.n}, got {xr0.shape[0]}")

    out_sec = _section(data, "output", problems)
    out_dir = out_sec.get("directory", ".")
    if not isinstance(out_dir, str) or not out_dir:
        problems.append("output.directory: must be a non-empty string, got "
                        f"{out_dir!r}")
    emit_plot = out_sec.get("emit_plot_data", False)
    if not isinstance(emit_plot, bool):
        problems.append("output.emit_plot_data: must be a boolean, got "
                        f"{emit_plot!r}")

    if problems:
        raise ScenarioError(problems)
    return ScenarioConfig(model=model, mode=mode, graph=graph, delays=delays,
                          k_max=k_max, x0=x0, xr0=xr0, epsilon=epsilon,
                          out_dir=out_dir, emit_plot_data=emit_plot)


class _Floats(dict):
    """Number text -> float, each distinct text parsed once: a file's equal
    entries share one float object, the value `json` would parse."""

    def __missing__(self, text):
        value = self[text] = float(text)
        return value


def load_config(path):
    """Parse and validate a scenario file; raises ScenarioError listing
    every violation, or a parse or decoding error with position info."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_float=_Floats().__getitem__)
        except UnicodeDecodeError as exc:
            raise ScenarioError(
                [f"not UTF-8 text at byte {exc.start}"]) from exc
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                [f"parse error at line {exc.lineno}, column {exc.colno}: "
                 f"{exc.msg}"]) from exc
        except RecursionError as exc:
            raise ScenarioError(["arrays or objects nested too deep to "
                                 "parse"]) from exc
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
