"""Command-line harness: outputs, overrides, exit codes, sweeps."""
import numpy as np
import pytest
import yaml

from gossipgp.harness.cli import main
from gossipgp.harness.metrics import read_metrics_csv
from gossipgp.harness.runner import load_snapshot


BASE = {
    "seed": 3,
    "topology": {"kind": "complete", "num_agents": 2},
    "ensemble": {"shared_J": 8, "members": [{"lengthscales": 0.4}]},
    "stream": {"kind": "synthetic",
               "synthetic": {"epochs": 3, "batch_size": 8, "num_eval_points": 30}},
}


def write_config(tmp_path, cfg=None, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg if cfg is not None else BASE))
    return str(path)


class TestRun:
    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "config_resolved.txt").exists()
        rows = read_metrics_csv(out / "metrics.csv")
        assert len(rows) == 2 * 3
        assert "metrics.csv" in capsys.readouterr().out

    def test_resolved_config_echoes_defaults(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", cfg, "--out", str(out)])
        resolved = yaml.safe_load((out / "config_resolved.txt").read_text())
        assert resolved["seed"] == 3
        assert resolved["consensus"] == {"rounds": 1, "mode": "sum"}
        assert resolved["robust"]["kind"] == "none"

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", cfg, "--out", str(out1), "--seed", "11"])
        main(["run", cfg, "--out", str(out2)])
        r1 = yaml.safe_load((out1 / "config_resolved.txt").read_text())
        assert r1["seed"] == 11
        b1 = (out1 / "metrics.csv").read_bytes()
        b2 = (out2 / "metrics.csv").read_bytes()
        assert b1 != b2

    def test_snapshot_override(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--snapshots", "0,2"]) == 0
        snaps = sorted(p.name for p in (out / "snapshots").iterdir())
        assert snaps == ["epoch_0_agent_0.bin", "epoch_0_agent_1.bin",
                         "epoch_2_agent_0.bin", "epoch_2_agent_1.bin"]
        states = load_snapshot(out / "snapshots" / "epoch_2_agent_0.bin")
        assert len(states) == 1
        assert states[0].dim == 16 and states[0].D.shape == (136,)

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", cfg, "--out", str(out1)])
        main(["run", cfg, "--out", str(out2)])
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert ((out1 / "config_resolved.txt").read_bytes()
                == (out2 / "config_resolved.txt").read_bytes())

    def test_legacy_spatiotemporal_spelling_runs_as_static(self, tmp_path):
        # mode spatiotemporal is read as static forgetting with time features:
        # same metrics.csv bytes as the static spelling, and the echo says static.
        ensemble = {**BASE["ensemble"], "temporal_lengthscale": 2.0}
        outs = []
        for mode in ("spatiotemporal", "static"):
            cfg = {**BASE, "ensemble": ensemble, "dynamics": {"mode": mode}}
            outs.append(tmp_path / mode)
            assert main(["run", write_config(tmp_path, cfg, f"{mode}.yaml"),
                         "--out", str(outs[-1])]) == 0
        legacy, static = outs
        assert (legacy / "metrics.csv").read_bytes() == (static / "metrics.csv").read_bytes()
        resolved = yaml.safe_load((legacy / "config_resolved.txt").read_text())
        assert resolved["dynamics"] == {"mode": "static", "nu": 1.0}
        assert ((legacy / "config_resolved.txt").read_bytes()
                == (static / "config_resolved.txt").read_bytes())

    def test_metric_values_round_trip_exactly(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", cfg, "--out", str(out)])
        rows = read_metrics_csv(out / "metrics.csv")
        assert all(np.isfinite(r.rmse) and np.isfinite(r.npll) for r in rows)


class TestExitCodes:
    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**BASE, "experiment": 1})
        rc = main(["run", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_directory_as_scenario_file_is_an_input_error(self, tmp_path, capsys):
        scenario = tmp_path / "adir"
        scenario.mkdir()
        rc = main(["run", str(scenario), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_directory_as_grid_file_is_an_input_error(self, tmp_path, capsys):
        grid = tmp_path / "grid"
        grid.mkdir()
        cfg = write_config(tmp_path, {**BASE, "stream": {"kind": "grid_file", "path": str(grid)}})
        rc = main(["run", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "consensus.rounds=1"]],
                             ids=["run", "sweep"])
    def test_outputs_that_cannot_be_written_exit_one(self, tmp_path, capsys, command):
        # --out names an existing file, so its directory cannot be made.
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "taken"
        out.write_text("")
        rc = main([command[0], cfg, *command[1:], "--out", str(out)])
        assert rc == 1
        assert "run failed: cannot write outputs" in capsys.readouterr().err

    def test_malformed_yaml(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("stream: [unclosed\n")
        rc = main(["run", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_runtime_failure_exits_one(self, tmp_path, capsys):
        cfg = dict(BASE)
        cfg["eval"] = {"epochs": [99]}
        path = write_config(tmp_path, cfg)
        rc = main(["run", path, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "run failed" in capsys.readouterr().err

    def test_non_finite_grid_value_is_config_error_naming_its_line(self, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        grid.write_text("lat,lon,t,value\n40,60,0,1.5\n40,61,0,nan\n41,60,0,2.5\n")
        cfg = write_config(tmp_path, {**BASE, "topology": {"kind": "complete", "num_agents": 1},
                                      "stream": {"kind": "grid_file", "path": str(grid)}})
        rc = main(["run", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "line 3:" in err
        assert "value must be finite" in err

    def test_zero_rounds_sum_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**BASE, "consensus": {"rounds": 0, "mode": "sum"}})
        rc = main(["run", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "mode local" in err

    def test_degenerate_ui_nu_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**BASE, "dynamics": {"mode": "ui", "nu": 0.0}})
        rc = main(["run", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_non_integer_custom_edge_is_config_error(self, tmp_path, capsys):
        topology = {"kind": "custom", "num_agents": 2, "custom_edges": [[0, 1.5]]}
        cfg = write_config(tmp_path, {**BASE, "topology": topology})
        rc = main(["run", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "custom edge [0, 1.5]" in err

    def test_custom_edges_on_a_ring_is_config_error(self, tmp_path, capsys):
        topology = {"kind": "ring", "num_agents": 4, "custom_edges": [[0, 2]]}
        cfg = write_config(tmp_path, {**BASE, "topology": topology})
        rc = main(["run", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "custom_edges" in err

    def test_one_corner_region_is_config_error(self, tmp_path, capsys):
        outliers = {"epoch": 1, "fraction": 0.1, "region": [[0.1, 0.1]]}
        cfg = write_config(tmp_path, {**BASE, "outliers": outliers})
        rc = main(["run", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "outliers.region" in err

    @pytest.mark.parametrize("section, overrides", [
        ("ensemble.members[0]", {"ensemble": {"shared_J": 8, "members": [
            {"lengthscales": 0.4, "prior_variance": float("nan")}]}}),
        ("ensemble.members[0]", {"ensemble": {"shared_J": 8, "members": [
            {"lengthscales": 0.4, "obs_variance": float("inf")}]}}),
        ("ensemble.members[0]", {"ensemble": {"shared_J": 8, "members": [{"lengthscales": 0.4}],
                                              "temporal_lengthscale": float("nan")}}),
        ("robust", {"robust": {"kind": "huber", "delta": float("nan")}}),
        ("stream.synthetic", {"stream": {"kind": "synthetic", "synthetic": {
            "kind": "drifting_gp", "epochs": 3, "drift_scale": float("nan")}}}),
        ("outliers", {"outliers": {"epoch": 1, "fraction": 0.1, "magnitude_sd": float("nan")}}),
    ], ids=["prior_variance", "obs_variance", "temporal_lengthscale", "delta", "drift_scale",
            "magnitude_sd"])
    def test_non_finite_value_is_config_error_naming_its_section(self, tmp_path, capsys,
                                                                 section, overrides):
        # YAML's .nan and .inf pass a comparison such as x <= 0; each must
        # still stop the run before it starts, naming its section.
        rc = main(["run", write_config(tmp_path, {**BASE, **overrides}),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"{section}: " in err and "finite" in err

    def test_negative_seed_option_is_config_error(self, tmp_path, capsys):
        rc = main(["run", write_config(tmp_path), "--out", str(tmp_path / "out"),
                   "--seed", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "seed must be a non-negative integer" in err

    def test_empty_metrics_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", write_config(tmp_path, {**BASE, "eval": {"metrics": []}}),
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "eval: metrics must be a non-empty" in err
        assert not (out / "metrics.csv").exists()

    def test_empty_eval_epochs_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", write_config(tmp_path, {**BASE, "eval": {"epochs": []}}),
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "eval.epochs must be 'all' or a non-empty" in err
        assert not (out / "metrics.csv").exists()

    def test_bad_snapshot_tokens(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["run", cfg, "--out", str(tmp_path / "o"), "--snapshots", "a,b"])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err


class TestSweep:
    def test_sweep_writes_subruns_and_summary(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "sweep"
        rc = main(["sweep", cfg, "--out", str(out),
                   "--param", "consensus.rounds=1,2"])
        assert rc == 0
        assert (out / "rounds_1" / "metrics.csv").exists()
        assert (out / "rounds_2" / "metrics.csv").exists()
        lines = (out / "sweep_summary.csv").read_text().splitlines()
        assert lines[0] == "consensus.rounds,t,agent_id,rmse,npll,w2_to_centralized"
        # final epoch of each of the two runs, one row per agent
        assert len(lines) == 1 + 2 * 2
        assert lines[1].startswith("1,2,0,")
        assert lines[3].startswith("2,2,0,")
        # each summary row is its sub-run's last-epoch metrics.csv row
        for value, summary in (("1", lines[1:3]), ("2", lines[3:5])):
            rows = (out / f"rounds_{value}" / "metrics.csv").read_text().splitlines()
            assert summary == [f"{value},{row}" for row in rows[-2:]]

    def test_sweep_creates_missing_sections(self, tmp_path):
        cfg = write_config(tmp_path)  # BASE has no robust section
        out = tmp_path / "sweep"
        rc = main(["sweep", cfg, "--out", str(out),
                   "--param", "robust.kind=none,huber"])
        assert rc == 0
        r = yaml.safe_load((out / "kind_huber" / "config_resolved.txt").read_text())
        assert r["robust"]["kind"] == "huber"

    def test_sweep_param_without_equals(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["sweep", cfg, "--out", str(tmp_path / "o"),
                   "--param", "consensus.rounds"])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_sweep_bad_value_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["sweep", cfg, "--out", str(tmp_path / "o"),
                   "--param", "consensus.rounds=-1"])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_sweep_values_sharing_a_directory_rejected(self, tmp_path, capsys):
        # 4.0 and 4.00 both load as the float 4.0 and would share one
        # sub-directory; the int 4 writes its own. Nothing may run.
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        rc = main(["sweep", cfg, "--out", str(out),
                   "--param", "ensemble.temporal_lengthscale=4,4.0,4.00"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert f"'4.0' and '4.00' would both write {out / 'temporal_lengthscale_4.0'}" in err
        assert not out.exists()


class TestModuleEntry:
    def test_python_dash_m_invocation(self, tmp_path):
        import subprocess
        import sys

        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "gossipgp", "run", cfg, "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "metrics.csv").exists()
