"""Scenario configuration: YAML schema, defaults, and cross-validation.

A scenario file is a mapping with the sections below; every omitted key
takes the default shown. scenario_from_dict() normalizes the input into a
fully-resolved dict (echoed to config_resolved.txt) and builds the typed
component configs.

seed: 0
topology: {kind: complete, num_agents: 4, custom_edges: null}
consensus: {rounds: 1, mode: sum}          # mode: sum | local; sum needs rounds >= 1 if K > 1
ensemble:
  shared_J: 200
  base_seed: 0
  evidence: consensus                      # consensus | local
  temporal_lengthscale: null               # set: inputs get a time column, any dynamics
  members: [{lengthscales: [0.2, 0.2], prior_variance: 1.0, obs_variance: 0.05}]
  # or instead of members:
  # grid: {lengthscales: [0.01, 0.05], prior_variances: [1.0, 25.0], obs_variance: 0.05}
dynamics: {mode: static, nu: 1.0}          # static (nu 1) | b2p | ui (nu >= 1e-6)
robust: {kind: none, delta: 1.345, breakpoints: [2.0, 4.0, 8.0]}
stream:
  kind: grid_file                          # grid_file | synthetic
  path: data.csv
  # synthetic: {kind: static_gp, epochs: 10, batch_size: 20, spatial_dim: 2,
  #             lengthscale: 0.3, prior_variance: 1.0, obs_variance: 0.01,
  #             true_J: 64, drift_scale: 0.0, num_eval_points: 200}
outliers: null                             # or {epoch, fraction, magnitude_sd, region,
                                           #     agents, jitter, seed}
eval:
  epochs: all                              # all | list of ints
  mode: global                             # global | stitched
  metrics: [rmse, npll]                    # subset of rmse, npll, w2
  w2_oracle: identical                     # identical | unit
  snapshots: []                            # epochs to snapshot
"""
from __future__ import annotations

import copy
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
]


class ConfigError(ValueError):
    """Invalid or inconsistent scenario configuration."""


def _int(value, key: str) -> int:
    """value as an int; a bool or a non-integral value is a ConfigError naming key."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


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
        if self.mode not in ("global", "stitched"):
            raise ConfigError(f"eval.mode must be global or stitched, got {self.mode!r}")
        bad = set(self.metrics) - {"rmse", "npll", "w2"}
        if bad:
            raise ConfigError(f"unknown metrics {sorted(bad)}")
        if self.w2_oracle not in ("identical", "unit"):
            raise ConfigError(
                f"eval.w2_oracle must be identical or unit, got {self.w2_oracle!r}"
            )


@dataclass(frozen=True)
class Scenario:
    seed: int
    topology: Topology
    consensus: ConsensusConfig
    consensus_mode: str
    ensemble: EnsembleSpec
    evidence_mode: str
    dynamics: DynamicsConfig
    robust: RobustConfig
    stream_source: GridFileSource | SyntheticSource
    outliers: OutlierSpec | None
    eval: EvalConfig
    resolved: dict

    @property
    def num_agents(self) -> int:
        return self.topology.num_agents


_DEFAULTS = {
    "seed": 0,
    "topology": {"kind": "complete", "num_agents": 4, "custom_edges": None},
    "consensus": {"rounds": 1, "mode": "sum"},
    "ensemble": {
        "shared_J": 200,
        "base_seed": 0,
        "evidence": "consensus",
        "temporal_lengthscale": None,
    },
    "dynamics": {"mode": "static", "nu": 1.0},
    "robust": {"kind": "none", "delta": 1.345, "breakpoints": [2.0, 4.0, 8.0]},
    "eval": {
        "epochs": "all",
        "mode": "global",
        "metrics": ["rmse", "npll"],
        "w2_oracle": "identical",
        "snapshots": [],
    },
}

_SYNTH_DEFAULTS = {
    "kind": "static_gp",
    "epochs": 10,
    "batch_size": 20,
    "spatial_dim": 2,
    "lengthscale": 0.3,
    "prior_variance": 1.0,
    "obs_variance": 0.01,
    "true_J": 64,
    "drift_scale": 0.0,
    "num_eval_points": 200,
}


def _merge_section(name: str, given: dict) -> dict:
    section = copy.deepcopy(_DEFAULTS[name])
    if given is None:
        return section
    if not isinstance(given, dict):
        raise ConfigError(f"section {name!r} must be a mapping, got {type(given).__name__}")
    unknown = set(given) - set(section)
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")
    section.update(given)
    return section


def load_config(path) -> dict:
    with open(path, "r") as fp:
        cfg = yaml.safe_load(fp)
    if not isinstance(cfg, dict):
        raise ConfigError(f"scenario file {path} must contain a mapping")
    return cfg


def load_scenario(path) -> Scenario:
    return scenario_from_dict(load_config(path))


def scenario_from_dict(cfg: dict) -> Scenario:
    """Normalize, validate, and build a Scenario from a plain mapping."""
    cfg = copy.deepcopy(cfg)
    known_top = {"seed", "topology", "consensus", "ensemble", "dynamics", "robust",
                 "stream", "outliers", "eval"}
    unknown = set(cfg) - known_top
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")

    try:
        seed = _int(cfg.get("seed", _DEFAULTS["seed"]), "seed")
        topo_cfg = _merge_section("topology", cfg.get("topology"))
        cons_cfg = _merge_section("consensus", cfg.get("consensus"))
        ens_cfg = _merge_section_ensemble(cfg.get("ensemble"))
        dyn_cfg = _merge_section("dynamics", cfg.get("dynamics"))
        rob_cfg = _merge_section("robust", cfg.get("robust"))
        eval_cfg = _merge_section("eval", cfg.get("eval"))
        stream_cfg = cfg.get("stream")
        outlier_cfg = cfg.get("outliers")

        topology = build_topology(
            topo_cfg["kind"], _int(topo_cfg["num_agents"], "topology.num_agents"),
            custom_edges=topo_cfg["custom_edges"],
        )
        if cons_cfg["mode"] not in ("sum", "local"):
            raise ConfigError(
                f"consensus.mode must be sum or local, got {cons_cfg['mode']!r}"
            )
        consensus = ConsensusConfig(rounds=_int(cons_cfg["rounds"], "consensus.rounds"))
        if cons_cfg["mode"] == "sum" and consensus.rounds == 0 and topology.num_agents > 1:
            raise ConfigError(
                "consensus.rounds 0 with mode sum gives every agent K times its own "
                "increment; use consensus.mode local to keep agents independent"
            )
        temporal = ens_cfg["temporal_lengthscale"]
        # Legacy spelling of static forgetting with time features, still used by
        # the benchmark's weather_stream; delete once bench/ is respelled.
        legacy = dyn_cfg["mode"] == "spatiotemporal"
        if legacy and temporal is None:
            raise ConfigError("dynamics.mode spatiotemporal needs ensemble.temporal_lengthscale")
        if legacy:
            dyn_cfg["mode"] = "static"
        dynamics = DynamicsConfig(mode=dyn_cfg["mode"], nu=float(dyn_cfg["nu"]))
        bp = rob_cfg["breakpoints"]
        if not (isinstance(bp, (list, tuple)) and len(bp) == 3):
            raise ConfigError(f"robust.breakpoints must be [a, b, c], got {bp!r}")
        robust = RobustConfig(
            kind=rob_cfg["kind"], delta=float(rob_cfg["delta"]),
            a=float(bp[0]), b=float(bp[1]), c=float(bp[2]),
        )
        if ens_cfg["evidence"] not in ("consensus", "local"):
            raise ConfigError(
                f"ensemble.evidence must be consensus or local, got {ens_cfg['evidence']!r}"
            )
        stream_source, stream_resolved = _build_stream(stream_cfg, topology.num_agents)
        spatial_dim = (
            2 if isinstance(stream_source, GridFileSource)
            else stream_source.params.spatial_dim
        )
        ensemble = _build_ensemble(ens_cfg, spatial_dim, temporal)
        outliers = _build_outliers(outlier_cfg)
        ev = _build_eval(eval_cfg)
        if ev.mode == "stitched" and not isinstance(stream_source, GridFileSource):
            raise ConfigError("eval.mode stitched requires a grid_file stream")
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc

    resolved = {
        "seed": seed,
        "topology": topo_cfg,
        "consensus": cons_cfg,
        "ensemble": _resolved_ensemble(ensemble, ens_cfg),
        "dynamics": dyn_cfg,
        "robust": rob_cfg,
        "stream": stream_resolved,
        "outliers": _resolved_outliers(outliers),
        "eval": dict(eval_cfg),
    }
    return Scenario(
        seed=seed,
        topology=topology,
        consensus=consensus,
        consensus_mode=cons_cfg["mode"],
        ensemble=ensemble,
        evidence_mode=ens_cfg["evidence"],
        dynamics=dynamics,
        robust=robust,
        stream_source=stream_source,
        outliers=outliers,
        eval=ev,
        resolved=resolved,
    )


def _merge_section_ensemble(given) -> dict:
    section = copy.deepcopy(_DEFAULTS["ensemble"])
    section["members"] = None
    section["grid"] = None
    if given is None:
        raise ConfigError("an ensemble section with members or grid is required")
    if not isinstance(given, dict):
        raise ConfigError("section 'ensemble' must be a mapping")
    unknown = set(given) - set(section)
    if unknown:
        raise ConfigError(f"unknown keys in 'ensemble': {sorted(unknown)}")
    section.update(given)
    if (section["members"] is None) == (section["grid"] is None):
        raise ConfigError("ensemble needs exactly one of 'members' or 'grid'")
    return section


def _member_spec(entry: dict, spatial_dim: int, temporal) -> KernelSpec:
    if not isinstance(entry, dict):
        raise ConfigError(f"ensemble member must be a mapping, got {entry!r}")
    unknown = set(entry) - {"lengthscales", "prior_variance", "obs_variance"}
    if unknown:
        raise ConfigError(f"unknown member keys: {sorted(unknown)}")
    ls = entry.get("lengthscales")
    if isinstance(ls, (int, float)):
        ls = [float(ls)] * spatial_dim
    if not isinstance(ls, (list, tuple)) or len(ls) != spatial_dim:
        raise ConfigError(
            f"member lengthscales must be a scalar or a list of {spatial_dim}, got {ls!r}"
        )
    return KernelSpec(
        spatial_lengthscales=tuple(float(v) for v in ls),
        temporal_lengthscale=None if temporal is None else float(temporal),
        prior_variance=float(entry.get("prior_variance", 1.0)),
        obs_variance=float(entry.get("obs_variance", 0.05)),
    )


def _build_ensemble(ens_cfg: dict, spatial_dim: int, temporal) -> EnsembleSpec:
    shared_J = _int(ens_cfg["shared_J"], "ensemble.shared_J")
    base_seed = _int(ens_cfg["base_seed"], "ensemble.base_seed")
    if ens_cfg["members"] is not None:
        members = tuple(
            _member_spec(m, spatial_dim, temporal) for m in ens_cfg["members"]
        )
    else:
        grid = ens_cfg["grid"]
        unknown = set(grid) - {"lengthscales", "prior_variances", "obs_variance"}
        if unknown:
            raise ConfigError(f"unknown keys in ensemble.grid: {sorted(unknown)}")
        try:
            lengthscales = [float(v) for v in grid["lengthscales"]]
            prior_variances = [float(v) for v in grid["prior_variances"]]
        except KeyError as exc:
            raise ConfigError(f"ensemble.grid is missing {exc}") from None
        obs = float(grid.get("obs_variance", 0.05))
        return EnsembleSpec.from_grid(
            lengthscales=lengthscales,
            prior_variances=prior_variances,
            obs_variance=obs,
            spatial_dim=spatial_dim,
            temporal_lengthscale=None if temporal is None else float(temporal),
            shared_J=shared_J,
            base_seed=base_seed,
        )
    return EnsembleSpec(members=members, shared_J=shared_J, base_seed=base_seed)


def _resolved_ensemble(ensemble: EnsembleSpec, ens_cfg: dict) -> dict:
    return {
        "shared_J": ensemble.shared_J,
        "base_seed": ensemble.base_seed,
        "evidence": ens_cfg["evidence"],
        "temporal_lengthscale": ens_cfg["temporal_lengthscale"],
        "members": [
            {
                "lengthscales": list(m.spatial_lengthscales),
                "prior_variance": m.prior_variance,
                "obs_variance": m.obs_variance,
            }
            for m in ensemble.members
        ],
    }


def _build_stream(stream_cfg, num_agents: int):
    if not isinstance(stream_cfg, dict):
        raise ConfigError("a stream section is required")
    kind = stream_cfg.get("kind")
    if kind == "grid_file":
        unknown = set(stream_cfg) - {"kind", "path"}
        if unknown:
            raise ConfigError(f"unknown keys in stream: {sorted(unknown)}")
        path = stream_cfg.get("path")
        if not isinstance(path, str) or not path:
            raise ConfigError("stream.path must name a grid file")
        return GridFileSource(path=path), {"kind": "grid_file", "path": path}
    if kind == "synthetic":
        unknown = set(stream_cfg) - {"kind", "synthetic"}
        if unknown:
            raise ConfigError(f"unknown keys in stream: {sorted(unknown)}")
        synth = dict(_SYNTH_DEFAULTS)
        given = stream_cfg.get("synthetic") or {}
        bad = set(given) - set(synth)
        if bad:
            raise ConfigError(f"unknown keys in stream.synthetic: {sorted(bad)}")
        synth.update(given)
        params = SynthConfig(
            kind=synth["kind"],
            num_agents=num_agents,
            epochs=_int(synth["epochs"], "stream.synthetic.epochs"),
            batch_size=_int(synth["batch_size"], "stream.synthetic.batch_size"),
            spatial_dim=_int(synth["spatial_dim"], "stream.synthetic.spatial_dim"),
            lengthscale=float(synth["lengthscale"]),
            prior_variance=float(synth["prior_variance"]),
            obs_variance=float(synth["obs_variance"]),
            true_J=_int(synth["true_J"], "stream.synthetic.true_J"),
            drift_scale=float(synth["drift_scale"]),
            num_eval_points=_int(synth["num_eval_points"], "stream.synthetic.num_eval_points"),
        )
        return SyntheticSource(params=params), {"kind": "synthetic", "synthetic": synth}
    raise ConfigError(f"stream.kind must be grid_file or synthetic, got {kind!r}")


def _build_outliers(outlier_cfg) -> OutlierSpec | None:
    if outlier_cfg is None:
        return None
    if not isinstance(outlier_cfg, dict):
        raise ConfigError("outliers must be a mapping or null")
    known = {"epoch", "fraction", "magnitude_sd", "region", "agents", "jitter", "seed"}
    unknown = set(outlier_cfg) - known
    if unknown:
        raise ConfigError(f"unknown keys in outliers: {sorted(unknown)}")
    if "epoch" not in outlier_cfg or "fraction" not in outlier_cfg:
        raise ConfigError("outliers requires epoch and fraction")
    region = outlier_cfg.get("region")
    if region is not None:
        region = (tuple(float(v) for v in region[0]), tuple(float(v) for v in region[1]))
    agents = outlier_cfg.get("agents")
    if agents is not None:
        agents = tuple(_int(a, f"outliers.agents[{i}]") for i, a in enumerate(agents))
    return OutlierSpec(
        epoch=_int(outlier_cfg["epoch"], "outliers.epoch"),
        fraction=float(outlier_cfg["fraction"]),
        magnitude_sd=float(outlier_cfg.get("magnitude_sd", 8.0)),
        region=region,
        agents=agents,
        jitter=float(outlier_cfg.get("jitter", 0.25)),
        seed=_int(outlier_cfg.get("seed", 0), "outliers.seed"),
    )


def _resolved_outliers(outliers: OutlierSpec | None):
    if outliers is None:
        return None
    return {
        "epoch": outliers.epoch,
        "fraction": outliers.fraction,
        "magnitude_sd": outliers.magnitude_sd,
        "region": None if outliers.region is None else [list(outliers.region[0]),
                                                        list(outliers.region[1])],
        "agents": None if outliers.agents is None else list(outliers.agents),
        "jitter": outliers.jitter,
        "seed": outliers.seed,
    }


def _build_eval(eval_cfg: dict) -> EvalConfig:
    epochs = eval_cfg["epochs"]
    if epochs == "all":
        epochs = None
    elif isinstance(epochs, (list, tuple)):
        epochs = tuple(_int(t, f"eval.epochs[{i}]") for i, t in enumerate(epochs))
    else:
        raise ConfigError(f"eval.epochs must be 'all' or a list, got {epochs!r}")
    metrics = eval_cfg["metrics"]
    if not isinstance(metrics, (list, tuple)):
        raise ConfigError("eval.metrics must be a list")
    snapshots = eval_cfg["snapshots"]
    if not isinstance(snapshots, (list, tuple)):
        raise ConfigError("eval.snapshots must be a list of epochs")
    return EvalConfig(
        epochs=epochs,
        mode=eval_cfg["mode"],
        metrics=tuple(metrics),
        w2_oracle=eval_cfg["w2_oracle"],
        snapshot_epochs=tuple(_int(t, f"eval.snapshots[{i}]") for i, t in enumerate(snapshots)),
    )


def resolved_yaml(scenario: Scenario) -> str:
    """Canonical text echo of the fully-resolved configuration."""
    return yaml.safe_dump(scenario.resolved, sort_keys=False, default_flow_style=False)
