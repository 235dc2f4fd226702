"""Scenario configuration: one table of typed keys and one reader.

A scenario file is a YAML mapping. The tables below give each key its reader
and its default, and _read() checks a section against its table: it rejects
unknown keys, reads every value with its dotted key in any error and fills in
the defaults. What it returns is what the run uses, and resolved_yaml()
echoes it to config_resolved.txt. Each component's own checks run in its
__post_init__; their errors name the section. Every omitted key takes the
default shown, and a key shown as `required` has none:

seed: 0                                    # seeds are non-negative integers
topology: {kind: complete, num_agents: 4, custom_edges: null}
consensus: {rounds: 1, mode: sum}          # mode: sum | local; sum needs rounds >= 1 if K > 1
ensemble:                                  # required, with exactly one of members and grid
  shared_J: 200
  base_seed: 0
  evidence: consensus                      # consensus | local
  temporal_lengthscale: null               # set: states turn with time, any dynamics
  members: null                            # a list of ensemble.members[i] below
  grid: null                               # or ensemble.grid below: one member per pair
dynamics: {mode: static, nu: 1.0}          # static (nu 1) | b2p | ui (nu >= 1e-6)
robust: {kind: none, delta: 1.345, breakpoints: [2.0, 4.0, 8.0]}
stream: required                           # kind grid_file or synthetic, below
outliers: null                             # or the mapping below
eval:
  epochs: all                              # all | non-empty list of ints
  mode: global                             # global | stitched (needs a grid_file stream)
  metrics: [rmse, npll]                    # subset of rmse, npll, w2
  w2_oracle: identical                     # identical | unit
  snapshots: []                            # epochs to snapshot

The mappings that those keys hold:

ensemble.members[i]: {lengthscales: required, prior_variance: 1.0, obs_variance: 0.05}
ensemble.grid: {lengthscales: required, prior_variances: required, obs_variance: 0.05}
stream (kind grid_file): {path: required}
stream (kind synthetic):
  synthetic: {kind: static_gp, epochs: 10, batch_size: 20, spatial_dim: 2,
              lengthscale: 0.3, prior_variance: 1.0, obs_variance: 0.01,
              true_J: 64, drift_scale: 0.0, num_eval_points: 200}
outliers: {epoch: required, fraction: required, magnitude_sd: 8.0, region: null,
           agents: null, jitter: 0.25, seed: 0}

A member's lengthscales are one number or one per spatial dimension; a grid
lists isotropic ones. An outlier region is two corners, [[lo...], [hi...]].
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import yaml

from ..consensus import ConsensusConfig, Topology, build_topology
from ..dynamics import DynamicsConfig
from ..ensemble import EnsembleSpec
from ..features import KernelSpec
from ..robust import RobustConfig
from .streams import OutlierSpec, SynthConfig

__all__ = [
    "ConfigError",
    "EvalConfig",
    "GridFileSource",
    "SyntheticSource",
    "Scenario",
    "load_config",
    "scenario_from_dict",
    "load_scenario",
    "resolved_yaml",
]


class ConfigError(ValueError):
    """Invalid or inconsistent scenario configuration."""


# Readers: each takes (value, dotted key) and returns the value the run uses,
# or raises a ConfigError that names the key.

def _int(value, key: str) -> int:
    """value as an int; a bool or a non-integral value is a ConfigError naming key."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _seed(value, key: str) -> int:
    """value as a non-negative int, as numpy's seeding takes it."""
    seed = _int(value, key)
    if seed < 0:
        raise ConfigError(f"{key} must be a non-negative integer, got {value!r}")
    return seed


def _float(value, key: str) -> float:
    """value as a float; a bool or a non-number is a ConfigError naming key."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _str(value, key: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{key} must be a non-empty string, got {value!r}")
    return value


def _list(item=None, length: int | None = None):
    """Reader of a list (of `length` entries, if given), each read by item."""
    def read(value, key: str) -> list:
        if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
            what = "a list" if length is None else f"a list of {length}"
            raise ConfigError(f"{key} must be {what}, got {value!r}")
        if item is None:
            return list(value)
        return [_apply(item, v, f"{key}[{i}]") for i, v in enumerate(value)]
    return read


def _all_or_ints(value, key: str):
    if value == "all":
        return value
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{key} must be 'all' or a non-empty list of epochs, got {value!r}")
    return _list(_int)(value, key)


def _lengthscales(value, key: str):
    """One number, or a list of them; _build_ensemble fits it to the inputs."""
    return _list(_float)(value, key) if isinstance(value, (list, tuple)) else _float(value, key)


def _stream(given, key: str) -> dict:
    """The stream section, whose kind picks the table for its other keys."""
    kind = given.get("kind") if isinstance(given, dict) else None
    if kind not in ("grid_file", "synthetic"):
        raise ConfigError(f"{key}.kind must be grid_file or synthetic, got {kind!r}")
    rest = {k: v for k, v in given.items() if k != "kind"}
    return {"kind": kind, **_read(_STREAMS[kind], rest, key)}


# Tables: key -> (reader, default). A reader that is itself a table reads a
# nested mapping. A default of None lets the key be null; REQUIRED marks a key
# that has no default.
REQUIRED = object()

_MEMBER = {
    "lengthscales": (_lengthscales, REQUIRED),
    "prior_variance": (_float, 1.0),
    "obs_variance": (_float, 0.05),
}
_GRID = {
    "lengthscales": (_list(_float), REQUIRED),
    "prior_variances": (_list(_float), REQUIRED),
    "obs_variance": (_float, 0.05),
}
_SYNTHETIC = {
    "kind": (_str, "static_gp"),
    "epochs": (_int, 10),
    "batch_size": (_int, 20),
    "spatial_dim": (_int, 2),
    "lengthscale": (_float, 0.3),
    "prior_variance": (_float, 1.0),
    "obs_variance": (_float, 0.01),
    "true_J": (_int, 64),
    "drift_scale": (_float, 0.0),
    "num_eval_points": (_int, 200),
}
_STREAMS = {
    "grid_file": {"path": (_str, REQUIRED)},
    "synthetic": {"synthetic": (_SYNTHETIC, {})},
}
_OUTLIERS = {
    "epoch": (_int, REQUIRED),
    "fraction": (_float, REQUIRED),
    "magnitude_sd": (_float, 8.0),
    "region": (_list(_list(_float), 2), None),
    "agents": (_list(_int), None),
    "jitter": (_float, 0.25),
    "seed": (_seed, 0),
}
_SCHEMA = {
    "seed": (_seed, 0),
    "topology": ({
        "kind": (_str, "complete"),
        "num_agents": (_int, 4),
        "custom_edges": (_list(), None),
    }, {}),
    "consensus": ({"rounds": (_int, 1), "mode": (_str, "sum")}, {}),
    "ensemble": ({
        "shared_J": (_int, 200),
        "base_seed": (_seed, 0),
        "evidence": (_str, "consensus"),
        "temporal_lengthscale": (_float, None),
        "members": (_list(_MEMBER), None),
        "grid": (_GRID, None),
    }, REQUIRED),
    "dynamics": ({"mode": (_str, "static"), "nu": (_float, 1.0)}, {}),
    "robust": ({
        "kind": (_str, "none"),
        "delta": (_float, 1.345),
        "breakpoints": (_list(_float, 3), [2.0, 4.0, 8.0]),
    }, {}),
    "stream": (_stream, REQUIRED),
    "outliers": (_OUTLIERS, None),
    "eval": ({
        "epochs": (_all_or_ints, "all"),
        "mode": (_str, "global"),
        "metrics": (_list(_str), ["rmse", "npll"]),
        "w2_oracle": (_str, "identical"),
        "snapshots": (_list(_int), []),
    }, {}),
}


def _read(fields: dict, given, key: str) -> dict:
    """given (a mapping, or None for all defaults) read against the table fields."""
    given = {} if given is None else given
    if not isinstance(given, dict):
        raise ConfigError(f"{key or 'a scenario'} must be a mapping, got {type(given).__name__}")
    unknown = set(given) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {key or 'top-level'} keys: {sorted(unknown, key=str)}")
    out = {}
    for name, (read, default) in fields.items():
        dotted = f"{key}.{name}" if key else name
        value = given.get(name, default)
        if value is REQUIRED:
            raise ConfigError(f"{dotted} is required")
        out[name] = None if value is None and default is None else _apply(read, value, dotted)
    return out


def _apply(read, value, key: str):
    return _read(read, value, key) if isinstance(read, dict) else read(value, key)


def _build(key: str, make, *args, **kwargs):
    """make(*args, **kwargs), where a ValueError from its checks names the section key."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


@dataclass(frozen=True)
class GridFileSource:
    path: str


@dataclass(frozen=True)
class SyntheticSource:
    params: SynthConfig


@dataclass(frozen=True)
class EvalConfig:
    epochs: tuple[int, ...] | None = None  # None means every stream epoch
    mode: str = "global"
    metrics: tuple[str, ...] = ("rmse", "npll")
    w2_oracle: str = "identical"
    snapshot_epochs: tuple[int, ...] = ()

    def __post_init__(self):
        if self.epochs == ():
            raise ConfigError("epochs must be None, for every stream epoch, or non-empty")
        if self.mode not in ("global", "stitched"):
            raise ConfigError(f"mode must be global or stitched, got {self.mode!r}")
        if not self.metrics or set(self.metrics) - {"rmse", "npll", "w2"}:
            raise ConfigError(f"metrics must be a non-empty subset of rmse, npll, w2, "
                              f"got {list(self.metrics)}")
        if self.w2_oracle not in ("identical", "unit"):
            raise ConfigError(f"w2_oracle must be identical or unit, got {self.w2_oracle!r}")


@dataclass(frozen=True)
class Scenario:
    seed: int
    topology: Topology
    consensus: ConsensusConfig
    ensemble: EnsembleSpec
    dynamics: DynamicsConfig
    robust: RobustConfig
    stream_source: GridFileSource | SyntheticSource
    outliers: OutlierSpec | None
    eval: EvalConfig
    resolved: dict

    @property
    def num_agents(self) -> int:
        return self.topology.num_agents


def load_config(path) -> dict:
    with open(path, "r") as fp:
        cfg = yaml.safe_load(fp)
    if not isinstance(cfg, dict):
        raise ConfigError(f"scenario file {path} must contain a mapping")
    return cfg


def load_scenario(path) -> Scenario:
    return scenario_from_dict(load_config(path))


def scenario_from_dict(cfg: dict) -> Scenario:
    """Read, validate and build a Scenario from a plain mapping."""
    resolved = _read(_SCHEMA, cfg, "")
    topo, cons, ens, dyn, rob, stream, out, ev = (resolved[k] for k in (
        "topology", "consensus", "ensemble", "dynamics", "robust", "stream", "outliers", "eval"))
    topology = _build("topology", build_topology, topo["kind"], topo["num_agents"],
                      custom_edges=topo["custom_edges"])
    consensus = _build("consensus", ConsensusConfig, **cons)
    if consensus.mode == "sum" and consensus.rounds == 0 and topology.num_agents > 1:
        raise ConfigError(
            "consensus.rounds 0 with mode sum gives every agent K times its own "
            "increment; use consensus.mode local to keep agents independent"
        )
    # Legacy spelling of static forgetting with time features, still used by
    # the benchmark's weather_stream; delete once bench/ is respelled.
    if dyn["mode"] == "spatiotemporal":
        if ens["temporal_lengthscale"] is None:
            raise ConfigError("dynamics.mode spatiotemporal needs ensemble.temporal_lengthscale")
        dyn["mode"] = "static"
    dynamics = _build("dynamics", DynamicsConfig, **dyn)
    a, b, c = rob["breakpoints"]
    robust = _build("robust", RobustConfig, kind=rob["kind"], delta=rob["delta"], a=a, b=b, c=c)
    if stream["kind"] == "grid_file":
        source, spatial_dim = GridFileSource(path=stream["path"]), 2
    else:
        params = _build("stream.synthetic", SynthConfig, num_agents=topology.num_agents,
                        **stream["synthetic"])
        source, spatial_dim = SyntheticSource(params=params), params.spatial_dim
    ensemble = _build_ensemble(ens, spatial_dim)
    outliers = out and _build("outliers", OutlierSpec, **{
        **out,
        "region": None if out["region"] is None else tuple(map(tuple, out["region"])),
        "agents": None if out["agents"] is None else tuple(out["agents"]),
    })
    evaluation = _build(
        "eval", EvalConfig, epochs=None if ev["epochs"] == "all" else tuple(ev["epochs"]),
        mode=ev["mode"], metrics=tuple(ev["metrics"]), w2_oracle=ev["w2_oracle"],
        snapshot_epochs=tuple(ev["snapshots"]),
    )
    if evaluation.mode == "stitched" and not isinstance(source, GridFileSource):
        raise ConfigError("eval.mode stitched requires a grid_file stream")
    return Scenario(
        seed=resolved["seed"],
        topology=topology,
        consensus=consensus,
        ensemble=ensemble,
        dynamics=dynamics,
        robust=robust,
        stream_source=source,
        outliers=outliers,
        eval=evaluation,
        resolved=resolved,
    )


def _build_ensemble(ens: dict, spatial_dim: int) -> EnsembleSpec:
    """The ensemble section's spec; ens is left holding the members it runs."""
    grid = ens.pop("grid")
    if (ens["members"] is None) == (grid is None):
        raise ConfigError("ensemble needs exactly one of 'members' or 'grid'")
    if grid is not None:  # lengthscale-major, prior-variance-minor
        ens["members"] = [
            {"lengthscales": ls, "prior_variance": pv, "obs_variance": grid["obs_variance"]}
            for ls in grid["lengthscales"] for pv in grid["prior_variances"]
        ]
    members = []
    for i, m in enumerate(ens["members"]):
        key = "ensemble.grid" if grid is not None else f"ensemble.members[{i}]"
        if isinstance(m["lengthscales"], float):
            m["lengthscales"] = [m["lengthscales"]] * spatial_dim
        if len(m["lengthscales"]) != spatial_dim:
            raise ConfigError(f"{key}.lengthscales must be a number or a list of "
                              f"{spatial_dim}, got {m['lengthscales']!r}")
        members.append(_build(
            key, KernelSpec, spatial_lengthscales=tuple(m["lengthscales"]),
            temporal_lengthscale=ens["temporal_lengthscale"],
            prior_variance=m["prior_variance"], obs_variance=m["obs_variance"],
        ))
    return _build("ensemble", EnsembleSpec, members=tuple(members), shared_J=ens["shared_J"],
                  base_seed=ens["base_seed"], evidence=ens["evidence"])


def resolved_yaml(scenario: Scenario) -> str:
    """Canonical text echo of the fully-resolved configuration."""
    return yaml.safe_dump(scenario.resolved, sort_keys=False, default_flow_style=False)
