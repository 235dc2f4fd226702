"""Scenario schema: defaults, validation, member grammar, resolved echo."""
import copy
import re

import pytest
import yaml

from gossipgp.harness import config
from gossipgp.harness.config import (
    ConfigError,
    GridFileSource,
    SyntheticSource,
    load_scenario,
    resolved_yaml,
    scenario_from_dict,
)
from gossipgp.harness.streams import OutlierSpec


def minimal(**overrides):
    cfg = {
        "ensemble": {"members": [{"lengthscales": 0.3}]},
        "stream": {"kind": "synthetic", "synthetic": {"epochs": 3, "batch_size": 5}},
    }
    cfg.update(overrides)
    return cfg


class TestDefaults:
    def test_defaults_fill_in(self):
        sc = scenario_from_dict(minimal())
        assert sc.seed == 0
        assert sc.topology.num_agents == 4
        # default topology is the complete graph on four agents
        assert sc.topology.adjacency.sum() == 12
        assert sc.consensus.rounds == 1
        assert sc.consensus.mode == "sum"
        assert sc.ensemble.evidence == "consensus"
        assert sc.dynamics.mode == "static" and sc.dynamics.nu == 1.0
        assert sc.robust.kind == "none"
        assert sc.robust.delta == 1.345
        assert (sc.robust.a, sc.robust.b, sc.robust.c) == (2.0, 4.0, 8.0)
        assert sc.eval.mode == "global"
        assert sc.eval.metrics == ("rmse", "npll")
        assert sc.eval.epochs is None
        assert sc.eval.w2_oracle == "identical"
        assert sc.eval.snapshot_epochs == ()
        assert sc.outliers is None

    def test_member_defaults(self):
        sc = scenario_from_dict(minimal())
        (m,) = sc.ensemble.members
        assert m.prior_variance == 1.0
        assert m.obs_variance == 0.05
        assert m.temporal_lengthscale is None

    def test_scalar_lengthscale_broadcasts(self):
        cfg = minimal()
        cfg["stream"]["synthetic"]["spatial_dim"] = 3
        sc = scenario_from_dict(cfg)
        assert sc.ensemble.members[0].spatial_lengthscales == (0.3, 0.3, 0.3)

    def test_grid_file_assumes_two_spatial_dims(self):
        cfg = minimal(stream={"kind": "grid_file", "path": "w.csv"})
        sc = scenario_from_dict(cfg)
        assert isinstance(sc.stream_source, GridFileSource)
        assert sc.stream_source.path == "w.csv"
        assert sc.ensemble.members[0].spatial_lengthscales == (0.3, 0.3)

    def test_synthetic_params_built(self):
        sc = scenario_from_dict(minimal())
        assert isinstance(sc.stream_source, SyntheticSource)
        p = sc.stream_source.params
        assert p.epochs == 3 and p.batch_size == 5
        assert p.num_agents == 4  # inherited from topology
        assert p.kind == "static_gp"


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="top-level"):
            scenario_from_dict(minimal(experiment="x"))

    @pytest.mark.parametrize("section,key", [
        ("topology", "degree"),
        ("consensus", "weights"),
        ("dynamics", "rate"),
        ("robust", "threshold"),
        ("eval", "plot"),
    ])
    def test_unknown_section_keys(self, section, key):
        cfg = minimal(**{section: {key: 1}})
        with pytest.raises(ConfigError, match=key):
            scenario_from_dict(cfg)

    def test_unknown_ensemble_key(self):
        cfg = minimal()
        cfg["ensemble"]["weighting"] = "softmax"
        with pytest.raises(ConfigError, match="weighting"):
            scenario_from_dict(cfg)

    def test_unknown_member_key(self):
        cfg = minimal()
        cfg["ensemble"]["members"] = [{"lengthscales": 0.3, "bandwidth": 1}]
        with pytest.raises(ConfigError, match="bandwidth"):
            scenario_from_dict(cfg)

    def test_unknown_synthetic_key(self):
        cfg = minimal()
        cfg["stream"]["synthetic"]["noise"] = 0.1
        with pytest.raises(ConfigError, match="noise"):
            scenario_from_dict(cfg)

    def test_missing_ensemble_section(self):
        cfg = minimal()
        del cfg["ensemble"]
        with pytest.raises(ConfigError, match="ensemble"):
            scenario_from_dict(cfg)

    def test_members_and_grid_both_given(self):
        cfg = minimal()
        cfg["ensemble"]["grid"] = {"lengthscales": [0.1], "prior_variances": [1.0]}
        with pytest.raises(ConfigError, match="exactly one"):
            scenario_from_dict(cfg)

    def test_neither_members_nor_grid(self):
        cfg = minimal(ensemble={"shared_J": 50})
        with pytest.raises(ConfigError, match="exactly one"):
            scenario_from_dict(cfg)

    def test_wrong_length_lengthscale_list(self):
        cfg = minimal()
        cfg["ensemble"]["members"] = [{"lengthscales": [0.1, 0.2, 0.3]}]
        with pytest.raises(ConfigError, match="lengthscales"):
            scenario_from_dict(cfg)

    def test_missing_stream(self):
        cfg = minimal()
        del cfg["stream"]
        with pytest.raises(ConfigError, match="stream"):
            scenario_from_dict(cfg)

    def test_bad_stream_kind(self):
        with pytest.raises(ConfigError, match="grid_file or synthetic"):
            scenario_from_dict(minimal(stream={"kind": "live"}))

    def test_grid_file_needs_path(self):
        with pytest.raises(ConfigError, match="path"):
            scenario_from_dict(minimal(stream={"kind": "grid_file"}))

    def test_bad_consensus_mode(self):
        with pytest.raises(ConfigError, match="sum or local"):
            scenario_from_dict(minimal(consensus={"mode": "average"}))

    def test_zero_rounds_sum_rejected_for_several_agents(self):
        # With no mixing, "sum" would scale each agent's own increment by K.
        with pytest.raises(ConfigError, match="mode local"):
            scenario_from_dict(minimal(consensus={"rounds": 0, "mode": "sum"}))
        local = scenario_from_dict(minimal(consensus={"rounds": 0, "mode": "local"}))
        assert local.consensus.rounds == 0
        single = scenario_from_dict(minimal(topology={"num_agents": 1},
                                            consensus={"rounds": 0, "mode": "sum"}))
        assert single.consensus.rounds == 0

    def test_degenerate_ui_nu_rejected(self):
        with pytest.raises(ConfigError, match="ui forgetting"):
            scenario_from_dict(minimal(dynamics={"mode": "ui", "nu": 0.0}))

    def test_bad_evidence_mode(self):
        cfg = minimal()
        cfg["ensemble"]["evidence"] = "broadcast"
        with pytest.raises(ConfigError, match="consensus or local"):
            scenario_from_dict(cfg)

    def test_breakpoints_need_three_values(self):
        with pytest.raises(ConfigError, match="breakpoints"):
            scenario_from_dict(minimal(robust={"breakpoints": [2.0, 4.0]}))

    def test_unordered_breakpoints_rejected(self):
        # RobustConfig enforces a < b < c; the wrapper surfaces it as ConfigError.
        with pytest.raises(ConfigError):
            scenario_from_dict(minimal(robust={"kind": "hampel",
                                               "breakpoints": [4.0, 2.0, 8.0]}))

    def test_bad_eval_mode(self):
        with pytest.raises(ConfigError, match="global or stitched"):
            scenario_from_dict(minimal(eval={"mode": "patchwork"}))

    def test_unknown_metric(self):
        with pytest.raises(ConfigError, match="mae"):
            scenario_from_dict(minimal(eval={"metrics": ["rmse", "mae"]}))

    def test_no_metric_rejected(self):
        # A run that reports nothing would write a metrics.csv of empty cells.
        with pytest.raises(ConfigError, match=r"^eval: metrics must be a non-empty subset"):
            scenario_from_dict(minimal(eval={"metrics": []}))

    def test_bad_w2_oracle(self):
        with pytest.raises(ConfigError, match="identical or unit"):
            scenario_from_dict(minimal(eval={"w2_oracle": "median"}))

    def test_bad_eval_epochs(self):
        with pytest.raises(ConfigError, match="eval.epochs"):
            scenario_from_dict(minimal(eval={"epochs": "final"}))

    def test_no_eval_epoch_rejected(self):
        # A run that evaluates no epoch would write a header-only metrics.csv.
        with pytest.raises(ConfigError, match=r"^eval.epochs must be 'all' or a non-empty "
                                              r"list of epochs, got \[\]$"):
            scenario_from_dict(minimal(eval={"epochs": []}))

    def test_no_eval_epoch_rejected_by_the_dataclass(self):
        # A scenario built in code, not read from a file, is held to it too.
        assert config.EvalConfig(epochs=None).epochs is None
        with pytest.raises(ConfigError, match=r"^epochs must be None, for every stream "
                                              r"epoch, or non-empty$"):
            config.EvalConfig(epochs=())

    def test_static_stream_with_drift_rejected(self):
        # The static stream's truth would ignore the drift, silently.
        cfg = minimal()
        cfg["stream"]["synthetic"]["drift_scale"] = 5.0
        with pytest.raises(ConfigError, match=r"^stream.synthetic: a static_gp stream does "
                                              r"not drift; drift_scale must be 0, got 5.0$"):
            scenario_from_dict(cfg)
        cfg["stream"]["synthetic"]["kind"] = "drifting_gp"
        assert scenario_from_dict(cfg).stream_source.params.drift_scale == 5.0

    def test_bad_synthetic_kind_wrapped(self):
        cfg = minimal()
        cfg["stream"]["synthetic"]["kind"] = "brownian"
        with pytest.raises(ConfigError):
            scenario_from_dict(cfg)

    def test_bad_topology_kind_wrapped(self):
        with pytest.raises(ConfigError):
            scenario_from_dict(minimal(topology={"kind": "torus"}))

    @pytest.mark.parametrize("kind", ["ring", "complete", "grid"])
    def test_custom_edges_need_the_custom_kind(self, kind):
        topology = {"kind": kind, "num_agents": 4, "custom_edges": [[0, 2]]}
        with pytest.raises(ConfigError, match=f"custom_edges needs topology kind custom, not '{kind}'"):
            scenario_from_dict(minimal(topology=topology))

    def test_non_integer_custom_edge_wrapped(self):
        topology = {"kind": "custom", "num_agents": 3, "custom_edges": [[0, 1.5], [1, 2]]}
        with pytest.raises(ConfigError, match=re.escape("custom edge [0, 1.5]")):
            scenario_from_dict(minimal(topology=topology))


# Every integer-valued key; list keys name their first entry.
INTEGER_KEYS = [
    "seed", "topology.num_agents", "consensus.rounds", "ensemble.shared_J",
    "ensemble.base_seed", "stream.synthetic.epochs", "stream.synthetic.batch_size",
    "stream.synthetic.spatial_dim", "stream.synthetic.true_J",
    "stream.synthetic.num_eval_points", "outliers.epoch", "outliers.seed",
    "outliers.agents[0]", "eval.epochs[0]", "eval.snapshots[0]",
]


@pytest.mark.parametrize("bad", [2.7, True, "3"], ids=["fraction", "bool", "string"])
@pytest.mark.parametrize("key", INTEGER_KEYS)
def test_integer_keys_reject_non_integers(key, bad):
    # int() would truncate 2.7 to 2 and read True as 1; both must fail loudly.
    cfg = minimal(outliers={"epoch": 1, "fraction": 0.1, "agents": [0]},
                  eval={"epochs": [1], "snapshots": [1]})
    *parents, leaf = key.replace("[0]", ".0").split(".")
    node = cfg
    for name in parents:
        node = node.setdefault(name, {})
    node[int(leaf) if leaf.isdigit() else leaf] = bad
    with pytest.raises(ConfigError, match=re.escape(f"{key} must be an integer")):
        scenario_from_dict(cfg)


# Every float-valued key, with the scenario it is set in; list keys name
# their first entry.
FLOAT_KEYS = [
    ("dynamics.nu", {"dynamics": {"mode": "b2p"}}),
    ("robust.delta", {}),
    ("robust.breakpoints[0]", {"robust": {"breakpoints": [2.0, 4.0, 8.0]}}),
    ("ensemble.temporal_lengthscale", {}),
    ("ensemble.members[0].lengthscales[0]", {"ensemble": {"members": [
        {"lengthscales": [0.3, 0.3]}]}}),
    ("ensemble.members[0].prior_variance", {}),
    ("ensemble.members[0].obs_variance", {}),
    ("ensemble.grid.lengthscales[0]", {"ensemble": {"grid": {
        "lengthscales": [0.3], "prior_variances": [1.0]}}}),
    ("ensemble.grid.prior_variances[0]", {"ensemble": {"grid": {
        "lengthscales": [0.3], "prior_variances": [1.0]}}}),
    ("ensemble.grid.obs_variance", {"ensemble": {"grid": {
        "lengthscales": [0.3], "prior_variances": [1.0]}}}),
    ("stream.synthetic.lengthscale", {}),
    ("stream.synthetic.prior_variance", {}),
    ("stream.synthetic.obs_variance", {}),
    ("stream.synthetic.drift_scale", {}),
    ("outliers.fraction", {"outliers": {"epoch": 1, "fraction": 0.1}}),
    ("outliers.magnitude_sd", {"outliers": {"epoch": 1, "fraction": 0.1}}),
    ("outliers.jitter", {"outliers": {"epoch": 1, "fraction": 0.1}}),
    ("outliers.region[0][0]", {"outliers": {"epoch": 1, "fraction": 0.1,
                                            "region": [[0.0, 0.0], [1.0, 1.0]]}}),
]


def _set_key(cfg, key, value):
    """Set the dotted key (list entries as [i]) of cfg to value, making missing sections."""
    node = cfg
    *parents, leaf = [int(p) if p.isdigit() else p for p in re.findall(r"\w+", key)]
    for name in parents:
        node = node[name] if isinstance(node, list) else node.setdefault(name, {})
    node[leaf] = value


@pytest.mark.parametrize("bad", [True, "0.5"], ids=["bool", "string"])
@pytest.mark.parametrize("key, overrides", FLOAT_KEYS, ids=[k for k, _ in FLOAT_KEYS])
def test_float_keys_reject_bools_and_strings(key, overrides, bad):
    # float() would read True as 1.0 and "0.5" as 0.5; both must fail loudly.
    cfg = minimal(**copy.deepcopy(overrides))
    _set_key(cfg, key, bad)
    with pytest.raises(ConfigError, match=re.escape(f"{key} must be a number")):
        scenario_from_dict(cfg)


# Keys that must be finite and positive (drift_scale: finite and >= 0), which
# NaN would pass as a comparison x <= 0: each with the section its error
# names and the scenario it is set in.
NON_FINITE_KEYS = [
    ("ensemble.members[0].prior_variance", "ensemble.members[0]", {}),
    ("ensemble.members[0].obs_variance", "ensemble.members[0]", {}),
    ("ensemble.temporal_lengthscale", "ensemble.members[0]", {}),
    ("ensemble.grid.prior_variances[0]", "ensemble.grid", {"ensemble": {"grid": {
        "lengthscales": [0.3], "prior_variances": [1.0]}}}),
    ("ensemble.grid.obs_variance", "ensemble.grid", {"ensemble": {"grid": {
        "lengthscales": [0.3], "prior_variances": [1.0]}}}),
    ("robust.delta", "robust", {"robust": {"kind": "huber"}}),
    ("stream.synthetic.lengthscale", "stream.synthetic", {}),
    ("stream.synthetic.prior_variance", "stream.synthetic", {}),
    ("stream.synthetic.obs_variance", "stream.synthetic", {}),
    ("stream.synthetic.drift_scale", "stream.synthetic", {"stream": {
        "kind": "synthetic", "synthetic": {"kind": "drifting_gp"}}}),
    ("outliers.magnitude_sd", "outliers", {"outliers": {"epoch": 1, "fraction": 0.1}}),
]


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("key, section, overrides", NON_FINITE_KEYS,
                         ids=[k for k, _, _ in NON_FINITE_KEYS])
def test_non_finite_values_are_rejected_by_their_section(key, section, overrides, bad):
    cfg = minimal(**copy.deepcopy(overrides))
    _set_key(cfg, key, bad)
    with pytest.raises(ConfigError, match=rf"^{re.escape(section)}: .* finite"):
        scenario_from_dict(cfg)


def test_scalar_lengthscale_rejects_a_bool():
    with pytest.raises(ConfigError,
                       match=re.escape("ensemble.members[0].lengthscales must be a number")):
        scenario_from_dict(minimal(ensemble={"members": [{"lengthscales": True}]}))


def test_integral_float_is_an_integer():
    sc = scenario_from_dict(minimal(seed=3.0, eval={"epochs": [2.0]}))
    assert sc.seed == 3 and type(sc.seed) is int
    assert sc.eval.epochs == (2,)


# Malformed values whose error once came from Python itself, without the key.
MALFORMED = [
    ("ensemble.grid", {"ensemble": {"grid": 5}}),
    ("stream.synthetic", {"stream": {"kind": "synthetic", "synthetic": 3}}),
    ("outliers.region", {"outliers": {"epoch": 1, "fraction": 0.1, "region": [1, 2]}}),
    ("eval.metrics", {"eval": {"metrics": [["rmse"]]}}),
    ("topology.custom_edges", {"topology": {"kind": "custom", "num_agents": 3,
                                            "custom_edges": 5}}),
]


@pytest.mark.parametrize("key, overrides", MALFORMED, ids=[k for k, _ in MALFORMED])
def test_malformed_values_name_their_key(key, overrides):
    with pytest.raises(ConfigError, match=re.escape(key)):
        scenario_from_dict(minimal(**overrides))


@pytest.mark.parametrize("key, overrides", [
    ("seed", {"seed": -1}),
    ("ensemble.base_seed", {"ensemble": {"members": [{"lengthscales": 0.3}], "base_seed": -1}}),
    ("outliers.seed", {"outliers": {"epoch": 1, "fraction": 0.1, "seed": -3}}),
])
def test_seeds_are_non_negative(key, overrides):
    with pytest.raises(ConfigError, match=re.escape(f"{key} must be a non-negative integer")):
        scenario_from_dict(minimal(**overrides))


def _docstring_blocks():
    """The YAML blocks of the config module's docstring: the defaults, then the mappings."""
    return [yaml.safe_load(b) for b in config.__doc__.split("\n\n")
            if b.startswith(("seed:", "ensemble.members[i]:"))]


def _check_shown(shown, fields, key):
    """Every key of the table fields is shown, in order, at its default."""
    assert list(shown) == list(fields), key
    for name, (read, default) in fields.items():
        if isinstance(read, dict) and isinstance(shown[name], dict):
            _check_shown(shown[name], read, f"{key}.{name}")
        else:
            want = "required" if default is config.REQUIRED else default
            assert shown[name] == want, f"{key}.{name}"


def test_docstring_shows_the_table():
    defaults, mappings = _docstring_blocks()
    _check_shown(defaults, config._SCHEMA, "")
    tables = {
        "ensemble.members[i]": config._MEMBER,
        "ensemble.grid": config._GRID,
        "stream (kind grid_file)": config._STREAMS["grid_file"],
        "stream (kind synthetic)": config._STREAMS["synthetic"],
        "outliers": config._OUTLIERS,
    }
    assert list(mappings) == list(tables)
    for key, fields in tables.items():
        _check_shown(mappings[key], fields, key)


class TestTemporalCoupling:
    def test_spatiotemporal_requires_temporal_lengthscale(self):
        cfg = minimal(dynamics={"mode": "spatiotemporal"})
        with pytest.raises(ConfigError, match="temporal_lengthscale"):
            scenario_from_dict(cfg)

    def test_forgetting_combines_with_temporal_lengthscale(self):
        for mode in ("b2p", "ui"):
            cfg = minimal(dynamics={"mode": mode, "nu": 0.5})
            cfg["ensemble"]["temporal_lengthscale"] = 4.0
            sc = scenario_from_dict(cfg)
            assert sc.dynamics.mode == mode and sc.dynamics.nu == 0.5
            assert all(m.temporal_lengthscale == 4.0 for m in sc.ensemble.members)

    def test_coupled_config_sets_member_temporal(self):
        cfg = minimal()
        cfg["ensemble"]["temporal_lengthscale"] = 4.0
        sc = scenario_from_dict(cfg)
        assert all(m.temporal_lengthscale == 4.0 for m in sc.ensemble.members)

    def test_legacy_spelling_is_static(self):
        cfg = minimal(dynamics={"mode": "spatiotemporal"})
        cfg["ensemble"]["temporal_lengthscale"] = 4.0
        sc = scenario_from_dict(cfg)
        assert sc.dynamics.mode == "static" and sc.dynamics.nu == 1.0
        assert sc.resolved["dynamics"] == {"mode": "static", "nu": 1.0}
        assert sc.resolved == scenario_from_dict(
            {**cfg, "dynamics": {"mode": "static"}}).resolved
        with pytest.raises(ConfigError, match="nu must be 1"):
            scenario_from_dict({**cfg, "dynamics": {"mode": "spatiotemporal", "nu": 0.5}})


class TestGridGrammar:
    def test_grid_expands_cartesian_product(self):
        cfg = minimal(ensemble={"grid": {
            "lengthscales": [0.1, 0.5],
            "prior_variances": [1.0, 25.0],
            "obs_variance": 0.02,
        }})
        sc = scenario_from_dict(cfg)
        ms = sc.ensemble.members
        assert len(ms) == 4
        # lengthscale-major, prior-variance-minor ordering
        assert [m.spatial_lengthscales[0] for m in ms] == [0.1, 0.1, 0.5, 0.5]
        assert [m.prior_variance for m in ms] == [1.0, 25.0, 1.0, 25.0]
        assert all(m.obs_variance == 0.02 for m in ms)

    def test_grid_missing_prior_variances(self):
        cfg = minimal(ensemble={"grid": {"lengthscales": [0.1]}})
        with pytest.raises(ConfigError, match="prior_variances"):
            scenario_from_dict(cfg)

    def test_unknown_grid_key(self):
        cfg = minimal(ensemble={"grid": {
            "lengthscales": [0.1], "prior_variances": [1.0], "jitter": 0,
        }})
        with pytest.raises(ConfigError, match="jitter"):
            scenario_from_dict(cfg)


class TestStitched:
    def test_stitched_requires_grid_file(self):
        with pytest.raises(ConfigError, match="stitched"):
            scenario_from_dict(minimal(eval={"mode": "stitched"}))

    def test_stitched_with_grid_file_ok(self):
        cfg = minimal(stream={"kind": "grid_file", "path": "w.csv"},
                      eval={"mode": "stitched"})
        sc = scenario_from_dict(cfg)
        assert sc.eval.mode == "stitched"


class TestOutliers:
    def test_outlier_spec_built(self):
        cfg = minimal(outliers={
            "epoch": 7, "fraction": 0.3, "magnitude_sd": 6.0,
            "agents": [1, 2], "region": [[0.0, 0.0], [0.5, 0.5]],
            "jitter": 0.1, "seed": 3,
        })
        sc = scenario_from_dict(cfg)
        o = sc.outliers
        assert isinstance(o, OutlierSpec)
        assert o.epoch == 7 and o.fraction == 0.3 and o.magnitude_sd == 6.0
        assert o.agents == (1, 2)
        assert o.region == ((0.0, 0.0), (0.5, 0.5))
        assert o.jitter == 0.1 and o.seed == 3

    def test_outlier_defaults(self):
        sc = scenario_from_dict(minimal(outliers={"epoch": 2, "fraction": 0.1}))
        o = sc.outliers
        assert o.magnitude_sd == 8.0 and o.jitter == 0.25 and o.seed == 0
        assert o.region is None and o.agents is None

    def test_outliers_require_epoch_and_fraction(self):
        with pytest.raises(ConfigError, match="outliers.epoch is required"):
            scenario_from_dict(minimal(outliers={"fraction": 0.1}))
        with pytest.raises(ConfigError, match="outliers.fraction is required"):
            scenario_from_dict(minimal(outliers={"epoch": 1}))

    def test_unknown_outlier_key(self):
        with pytest.raises(ConfigError, match="scale"):
            scenario_from_dict(minimal(outliers={"epoch": 1, "fraction": 0.1,
                                                 "scale": 2}))

    def test_bad_fraction_wrapped(self):
        with pytest.raises(ConfigError, match=re.escape("outliers: fraction must lie in [0, 1]")):
            scenario_from_dict(minimal(outliers={"epoch": 1, "fraction": 1.5}))

    @pytest.mark.parametrize("region", [[[0.1, 0.1]], [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]]],
                             ids=["one-corner", "three-corners"])
    def test_region_is_exactly_two_corners(self, region):
        cfg = minimal(outliers={"epoch": 1, "fraction": 0.1, "region": region})
        with pytest.raises(ConfigError, match=re.escape("outliers.region must be a list of 2")):
            scenario_from_dict(cfg)


class TestResolved:
    def test_resolved_echo_is_complete(self):
        sc = scenario_from_dict(minimal())
        r = sc.resolved
        assert set(r) == {"seed", "topology", "consensus", "ensemble", "dynamics",
                          "robust", "stream", "outliers", "eval"}
        assert r["topology"]["num_agents"] == 4
        assert r["stream"]["synthetic"]["epochs"] == 3
        # synthetic defaults are echoed even when omitted from the input
        assert r["stream"]["synthetic"]["true_J"] == 64
        assert r["outliers"] is None

    def test_resolved_expands_grid_members(self):
        cfg = minimal(ensemble={"grid": {
            "lengthscales": [0.1, 0.5], "prior_variances": [1.0],
        }})
        sc = scenario_from_dict(cfg)
        members = sc.resolved["ensemble"]["members"]
        assert len(members) == 2
        assert members[0]["lengthscales"] == [0.1, 0.1]

    def test_resolved_yaml_round_trips(self):
        sc = scenario_from_dict(minimal(seed=9))
        text = resolved_yaml(sc)
        back = yaml.safe_load(text)
        assert back == sc.resolved
        assert back["seed"] == 9

    def test_resolved_scenario_reloads_identically(self):
        # Feeding the resolved dict back through the parser is a fixed point.
        sc = scenario_from_dict(minimal(seed=4, robust={"kind": "huber"}))
        cfg2 = dict(sc.resolved)
        cfg2["eval"] = {k: v for k, v in cfg2["eval"].items() if k != "epochs"}
        sc2 = scenario_from_dict(cfg2)
        assert sc2.resolved == sc.resolved

    def test_echo_is_what_the_run_uses(self):
        # Numbers written in another type echo as the run reads them.
        given = minimal(consensus={"rounds": 2.0}, topology={"num_agents": 4.0},
                        dynamics={"nu": 1}, robust={"delta": 1})
        canonical = minimal(consensus={"rounds": 2}, topology={"num_agents": 4},
                            dynamics={"nu": 1.0}, robust={"delta": 1.0})
        assert resolved_yaml(scenario_from_dict(given)) == resolved_yaml(
            scenario_from_dict(canonical))
        echo = scenario_from_dict(given).resolved
        assert type(echo["consensus"]["rounds"]) is int
        assert type(echo["dynamics"]["nu"]) is float


class TestLoadScenario:
    def test_load_from_yaml_file(self, tmp_path):
        p = tmp_path / "scenario.yaml"
        p.write_text(yaml.safe_dump(minimal(seed=11)))
        sc = load_scenario(p)
        assert sc.seed == 11
        assert sc.resolved == scenario_from_dict(minimal(seed=11)).resolved

    def test_non_mapping_file_rejected(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("- just\n- a list\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_scenario(p)
