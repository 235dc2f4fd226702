"""Simulation loop: centralized equivalence, gossip wiring, eval modes, errors."""
import dataclasses
import functools
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gossipgp import (
    apply_increment,
    augment_time_matrix,
    ensemble_weights,
    factorize,
    feature_matrix,
    init_ensemble,
    mixture_predict_batch,
    predict_batch,
    robust_increment,
)
from gossipgp.dynamics import _MIN_UI_NU
from gossipgp.harness.config import scenario_from_dict
from gossipgp.harness.metrics import npll, rmse
from gossipgp.harness.runner import (
    RunError,
    load_snapshot,
    materialize_stream,
    run_scenario,
    save_snapshot,
)
from gossipgp.harness.streams import StreamBatch, write_synthetic_weather_csv
from gossipgp.info_filter import _unpack


def make_config(**overrides):
    cfg = {
        "seed": 3,
        "topology": {"kind": "complete", "num_agents": 2},
        "ensemble": {"shared_J": 8, "members": [{"lengthscales": 0.4}]},
        "stream": {"kind": "synthetic",
                   "synthetic": {"epochs": 4, "batch_size": 10,
                                 "num_eval_points": 40}},
    }
    for key, value in overrides.items():
        cfg[key] = value
    return cfg


def write_grid_missing_a_site(path, epoch, **kwargs):
    """A synthetic weather file whose given epoch lacks one interior site."""
    write_synthetic_weather_csv(path, **kwargs)
    header, *rows = path.read_text().splitlines()
    in_epoch = [i for i, row in enumerate(rows) if row.split(",")[2] == str(epoch)]
    del rows[in_epoch[len(in_epoch) // 2]]
    path.write_text("\n".join([header, *rows]) + "\n")


def rel_fro(A, B):
    return np.linalg.norm(A - B) / max(np.linalg.norm(B), 1e-300)


class TestSingleAgentComposition:
    def test_k1_run_matches_manual_pipeline_bitwise(self):
        # With one agent, a complete "graph", and one member, the loop is just
        # sequential conditioning; the runner must reproduce it exactly.
        cfg = make_config(topology={"kind": "complete", "num_agents": 1})
        sc = scenario_from_dict(cfg)
        res = run_scenario(sc)

        stream = materialize_stream(sc)
        state, fmaps = init_ensemble(sc.ensemble)
        model = state.models[0]
        log_ev = 0.0
        obs_var = sc.ensemble.members[0].obs_variance
        for t in stream.epochs:
            batch = stream.batches[t][0]
            Phi = feature_matrix(fmaps[0], batch.X)
            means, variances = predict_batch(factorize(model), Phi)
            log_pdf = -0.5 * (np.log(2.0 * np.pi * variances)
                              + (batch.y - means) ** 2 / variances)
            log_ev += float(np.sum(log_pdf))
            inc = robust_increment(Phi, batch.y, np.ones(batch.size), obs_var)
            apply_increment(model.D, model.eta, *inc)

        got = res.agent_states[0].models[0]
        assert np.array_equal(got.D, model.D)
        assert np.array_equal(got.eta, model.eta)
        assert res.agent_states[0].log_evidence[0] == log_ev

    def test_stream_batches_match_materialize(self):
        sc = scenario_from_dict(make_config())
        res = run_scenario(sc)
        stream = materialize_stream(sc)
        for t in stream.epochs:
            for k in range(sc.num_agents):
                assert np.array_equal(res.stream.batches[t][k].y,
                                      stream.batches[t][k].y)


class TestCompleteGraphExactness:
    def test_every_agent_tracks_oracle_every_epoch(self):
        cfg = make_config(
            topology={"kind": "complete", "num_agents": 4},
            ensemble={"shared_J": 8,
                      "members": [{"lengthscales": 0.4},
                                  {"lengthscales": 0.15, "prior_variance": 2.0}]},
            eval={"metrics": ["rmse", "npll", "w2"], "snapshots": [0, 1, 2, 3]},
        )
        sc = scenario_from_dict(cfg)
        res = run_scenario(sc)
        assert sorted(res.snapshots) == [0, 1, 2, 3]
        for t, snap in res.snapshots.items():
            *agents, oracle = snap
            assert len(agents) == 4
            for agent in agents:
                for m in range(2):
                    dim = oracle.models[m].dim
                    assert rel_fro(_unpack(agent.models[m].D, dim),
                                   _unpack(oracle.models[m].D, dim)) <= 1e-10
                    assert rel_fro(agent.models[m].eta, oracle.models[m].eta) <= 1e-10
                assert np.allclose(agent.log_evidence, oracle.log_evidence,
                                   rtol=1e-10, atol=1e-12)

    def test_w2_records_at_floor_on_complete_graph(self):
        cfg = make_config(
            topology={"kind": "complete", "num_agents": 3},
            eval={"metrics": ["w2"]},
        )
        res = run_scenario(scenario_from_dict(cfg))
        vals = [r.w2_to_centralized for r in res.records]
        assert vals and all(v is not None and v <= 1e-5 for v in vals)
        assert all(r.rmse is None and r.npll is None for r in res.records)

    def test_ring_lags_oracle_in_one_round(self):
        cfg = make_config(
            topology={"kind": "ring", "num_agents": 5},
            eval={"metrics": ["w2"]},
        )
        res = run_scenario(scenario_from_dict(cfg))
        final = [r.w2_to_centralized for r in res.records if r.t == 3]
        assert all(v > 1e-3 for v in final)


class TestConsensusModes:
    def test_local_mode_keeps_agents_apart(self):
        base = make_config()
        sum_res = run_scenario(scenario_from_dict(base))
        base["consensus"] = {"mode": "local"}
        loc_res = run_scenario(scenario_from_dict(base))
        a, b = sum_res.agent_states
        assert np.allclose(a.models[0].D, b.models[0].D, rtol=1e-9)
        a, b = loc_res.agent_states
        assert not np.allclose(a.models[0].D, b.models[0].D, rtol=1e-3)

    def test_evidence_consensus_synchronizes_weights(self):
        cfg = make_config(ensemble={"shared_J": 8, "evidence": "consensus",
                                    "members": [{"lengthscales": 0.4},
                                                {"lengthscales": 0.1}]})
        res = run_scenario(scenario_from_dict(cfg))
        a, b = res.agent_states
        assert np.array_equal(a.log_evidence, b.log_evidence)

    def test_local_evidence_differs_across_agents(self):
        cfg = make_config(ensemble={"shared_J": 8, "evidence": "local",
                                    "members": [{"lengthscales": 0.4},
                                                {"lengthscales": 0.1}]})
        res = run_scenario(scenario_from_dict(cfg))
        a, b = res.agent_states
        assert not np.array_equal(a.log_evidence, b.log_evidence)

    def test_consensus_evidence_matches_network_total(self):
        cfg = make_config(
            topology={"kind": "complete", "num_agents": 3},
            ensemble={"shared_J": 8, "evidence": "consensus",
                      "members": [{"lengthscales": 0.4}]},
            eval={"metrics": ["rmse", "w2"]},
        )
        res = run_scenario(scenario_from_dict(cfg))
        for k in range(3):
            assert np.allclose(res.agent_states[k].log_evidence,
                               res.oracle_state.log_evidence, rtol=1e-10)


class TestOracleSemantics:
    def _contaminated(self, w2_oracle):
        return make_config(
            robust={"kind": "hampel"},
            outliers={"epoch": 2, "fraction": 0.5, "magnitude_sd": 60.0},
            eval={"metrics": ["w2"], "w2_oracle": w2_oracle},
        )

    def test_identical_oracle_stays_at_floor_under_contamination(self):
        res = run_scenario(scenario_from_dict(self._contaminated("identical")))
        assert max(r.w2_to_centralized for r in res.records) <= 1e-5

    def test_unit_oracle_exposes_robust_deviation(self):
        res = run_scenario(scenario_from_dict(self._contaminated("unit")))
        late = [r.w2_to_centralized for r in res.records if r.t >= 2]
        assert max(late) > 1e-2


class TestEvalModes:
    def test_eval_epoch_subset(self):
        cfg = make_config(eval={"epochs": [1, 3]})
        res = run_scenario(scenario_from_dict(cfg))
        assert sorted({r.t for r in res.records}) == [1, 3]
        assert len(res.records) == 2 * 2

    def test_stitched_restricts_to_owned_blocks(self, tmp_path):
        path = tmp_path / "w.csv"
        write_synthetic_weather_csv(path, nlat=6, nlon=6, epochs=3, seed=1)
        base = {
            "topology": {"kind": "complete", "num_agents": 4},
            "ensemble": {"shared_J": 8, "members": [{"lengthscales": 0.4}]},
            "stream": {"kind": "grid_file", "path": str(path)},
        }
        glob = run_scenario(scenario_from_dict({**base, "eval": {"mode": "global"}}))
        stit = run_scenario(scenario_from_dict({**base, "eval": {"mode": "stitched"}}))
        assert len(glob.records) == len(stit.records) == 4 * 3
        g = {(r.t, r.agent_id): r.rmse for r in glob.records}
        s = {(r.t, r.agent_id): r.rmse for r in stit.records}
        # global rows are identical across agents after exact consensus;
        # stitched rows are computed on disjoint quadrants and differ.
        g0 = [g[(0, k)] for k in range(4)]
        assert np.allclose(g0, g0[0], rtol=1e-9)
        s0 = [s[(0, k)] for k in range(4)]
        assert len({round(v, 12) for v in s0}) > 1

    def test_stitched_single_agent_equals_global(self, tmp_path):
        path = tmp_path / "w.csv"
        write_synthetic_weather_csv(path, nlat=4, nlon=4, epochs=2, seed=2)
        base = {
            "topology": {"kind": "complete", "num_agents": 1},
            "ensemble": {"shared_J": 8, "members": [{"lengthscales": 0.4}]},
            "stream": {"kind": "grid_file", "path": str(path)},
        }
        glob = run_scenario(scenario_from_dict({**base, "eval": {"mode": "global"}}))
        stit = run_scenario(scenario_from_dict({**base, "eval": {"mode": "stitched"}}))
        assert glob.records == stit.records

    def test_stitched_shared_features_equal_own_block_prediction(self, tmp_path):
        # The runner featurizes the whole grid once and selects each agent's
        # columns; predicting from the agent's own block alone must agree.
        path = tmp_path / "w.csv"
        write_synthetic_weather_csv(path, nlat=6, nlon=8, epochs=3, seed=4)
        cfg = {
            "topology": {"kind": "ring", "num_agents": 4},
            "ensemble": {"shared_J": 8, "temporal_lengthscale": 3.0,
                         "members": [{"lengthscales": 0.4}, {"lengthscales": 0.2}]},
            "dynamics": {"mode": "static"},
            "stream": {"kind": "grid_file", "path": str(path)},
            "eval": {"mode": "stitched", "metrics": ["rmse", "npll"], "snapshots": [0, 1, 2]},
        }
        res = run_scenario(scenario_from_dict(cfg))
        stream = res.stream
        for r in res.records:
            agent = res.snapshots[r.t][r.agent_id]
            sel = stream.eval_owner[r.t] == r.agent_id
            X_k = augment_time_matrix(stream.eval_inputs[r.t][sel], r.t)
            y_k = stream.eval_truth[r.t][sel]
            w = ensemble_weights(agent)
            mean, _, mm, mv = mixture_predict_batch(
                w,
                [factorize(model) for model in agent.models],
                [feature_matrix(fm, X_k) for fm in res.feature_maps],
            )
            assert r.rmse == pytest.approx(rmse(mean, y_k), rel=1e-12, abs=0)
            assert r.npll == pytest.approx(npll(mm, mv, y_k, weights=w), rel=1e-12, abs=0)

    def test_stitched_with_a_site_missing_in_one_epoch(self, tmp_path):
        # Epoch 1 lacks one of the 36 sites; ownership is taken per epoch, so
        # stitched evaluation selects the right points and stays finite.
        path = tmp_path / "w.csv"
        write_synthetic_weather_csv(path, nlat=6, nlon=6, epochs=3, seed=1)
        lines = path.read_text().splitlines()
        del lines[1 + 36]  # the first site of epoch 1
        path.write_text("\n".join(lines) + "\n")
        cfg = {
            "topology": {"kind": "ring", "num_agents": 4},
            "ensemble": {"shared_J": 8, "members": [{"lengthscales": 0.4}]},
            "stream": {"kind": "grid_file", "path": str(path)},
            "eval": {"mode": "stitched", "metrics": ["rmse", "npll", "w2"]},
        }
        res = run_scenario(scenario_from_dict(cfg))
        assert res.stream.eval_truth[1].size == 35
        assert len(res.records) == 4 * 3
        for r in res.records:
            assert np.isfinite([r.rmse, r.npll, r.w2_to_centralized]).all()

    def test_stitched_empty_block_gives_empty_cells(self, monkeypatch, tmp_path):
        # Agent 1 keeps its training batches but owns no evaluation point:
        # its rmse/npll cells are empty (never NaN) and its w2 is still scored.
        import gossipgp.harness.runner as runner_mod

        def without_agent_1_block(scenario):
            stream = materialize_stream(scenario)
            owner = {t: np.where(o == 1, 0, o) for t, o in stream.eval_owner.items()}
            return dataclasses.replace(stream, eval_owner=owner)

        monkeypatch.setattr(runner_mod, "materialize_stream", without_agent_1_block)
        path = tmp_path / "w.csv"
        write_synthetic_weather_csv(path, nlat=6, nlon=6, epochs=3, seed=1)
        cfg = {
            "topology": {"kind": "ring", "num_agents": 4},
            "ensemble": {"shared_J": 8, "members": [{"lengthscales": 0.4}]},
            "stream": {"kind": "grid_file", "path": str(path)},
            "eval": {"mode": "stitched", "metrics": ["rmse", "npll", "w2"]},
        }
        res = run_scenario(scenario_from_dict(cfg))
        assert len(res.records) == 4 * 3
        for r in res.records:
            assert np.isfinite(r.w2_to_centralized)
            if r.agent_id == 1:
                assert r.rmse is None and r.npll is None
            else:
                assert np.isfinite([r.rmse, r.npll]).all()

    @pytest.mark.parametrize("mode", ["global", "stitched"])
    def test_grid_features_equal_per_batch_features(self, monkeypatch, tmp_path, mode):
        # The same grid stream without its recorded rows is featurized batch
        # by batch at each epoch's time; the results agree to rounding. On
        # the second file epoch 1 lacks a site, so the grid's features must
        # be rebuilt for it and again for epoch 2.
        import gossipgp.harness.runner as runner_mod

        full, missing = tmp_path / "full.csv", tmp_path / "missing.csv"
        write_synthetic_weather_csv(full, nlat=6, nlon=8, epochs=3, seed=4)
        write_grid_missing_a_site(missing, 1, nlat=6, nlon=8, epochs=3, seed=4)
        for path, sites in ((full, [48, 48, 48]), (missing, [48, 47, 48])):
            cfg = {
                "topology": {"kind": "ring", "num_agents": 4},
                "ensemble": {"shared_J": 8, "temporal_lengthscale": 3.0,
                             "members": [{"lengthscales": 0.4}, {"lengthscales": 0.2}]},
                "robust": {"kind": "hampel"},
                "stream": {"kind": "grid_file", "path": str(path)},
                "eval": {"mode": mode, "metrics": ["rmse", "npll", "w2"]},
            }
            shared = run_scenario(scenario_from_dict(cfg))
            with monkeypatch.context() as patch:
                patch.setattr(
                    runner_mod, "materialize_stream",
                    lambda sc: dataclasses.replace(materialize_stream(sc), batch_rows=None),
                )
                per_batch = run_scenario(scenario_from_dict(cfg))
            assert [len(x) for x in shared.stream.eval_inputs.values()] == sites
            assert len(shared.records) == len(per_batch.records) == 4 * 3
            for a, b in zip(shared.records, per_batch.records):
                assert (a.t, a.agent_id) == (b.t, b.agent_id)
                assert np.allclose([a.rmse, a.npll, a.w2_to_centralized],
                                   [b.rmse, b.npll, b.w2_to_centralized], rtol=1e-12, atol=0)

    def test_synthetic_eval_features_built_once_and_rotated(self, monkeypatch):
        # A synthetic stream evaluates at the same points every epoch: each
        # member's features over them are built once, at t = 0, and rotated
        # to each evaluated epoch. Featurizing at each epoch's time instead
        # agrees to rounding.
        import gossipgp.harness.runner as runner_mod

        M, n_eval = 2, 40
        cfg = make_config(
            ensemble={"shared_J": 8, "temporal_lengthscale": 2.0,
                      "members": [{"lengthscales": 0.4}, {"lengthscales": 0.2}]},
            stream={"kind": "synthetic",
                    "synthetic": {"kind": "drifting_gp", "drift_scale": 0.05, "epochs": 4,
                                  "batch_size": 10, "num_eval_points": n_eval}},
            eval={"metrics": ["rmse", "npll", "w2"], "epochs": [1, 3]},
        )
        scenario = scenario_from_dict(cfg)
        X_eval = materialize_stream(scenario).eval_inputs[0]
        feature_matrix_, shift_time_ = runner_mod.feature_matrix, runner_mod.shift_time
        times, shifts = [], []

        def counted_feature_matrix(fm, X):
            if X.shape[0] == n_eval:
                times.append(set(X[:, -1]))
            return feature_matrix_(fm, X)

        def counted_shift_time(fm, Phi0, t, out):
            shifts.append(t)
            return shift_time_(fm, Phi0, t, out=out)

        def featurize_at_t(fm, Phi0, t, out):
            out[...] = feature_matrix_(fm, augment_time_matrix(X_eval, t))

        monkeypatch.setattr(runner_mod, "feature_matrix", counted_feature_matrix)
        monkeypatch.setattr(runner_mod, "shift_time", counted_shift_time)
        rotated = run_scenario(scenario)
        assert times == [{0.0}] * M
        assert shifts == [1] * M + [3] * M
        monkeypatch.setattr(runner_mod, "shift_time", featurize_at_t)
        direct = run_scenario(scenario)
        assert len(rotated.records) == len(direct.records) == 2 * 2
        for a, b in zip(rotated.records, direct.records):
            assert (a.t, a.agent_id) == (b.t, b.agent_id)
            assert np.allclose([a.rmse, a.npll, a.w2_to_centralized],
                               [b.rmse, b.npll, b.w2_to_centralized], rtol=1e-12, atol=0)

    def test_spatiotemporal_run_produces_finite_metrics(self):
        # Time features combined with forgetting.
        cfg = make_config(
            dynamics={"mode": "b2p", "nu": 0.7},
            ensemble={"shared_J": 8, "temporal_lengthscale": 2.0,
                      "members": [{"lengthscales": 0.4}]},
            stream={"kind": "synthetic",
                    "synthetic": {"kind": "drifting_gp", "drift_scale": 0.05,
                                  "epochs": 4, "batch_size": 10,
                                  "num_eval_points": 40}},
        )
        res = run_scenario(scenario_from_dict(cfg))
        assert all(np.isfinite(r.rmse) and np.isfinite(r.npll) for r in res.records)


class TestDeterminism:
    def test_identical_runs_identical_records(self):
        cfg = make_config(eval={"metrics": ["rmse", "npll", "w2"]})
        r1 = run_scenario(scenario_from_dict(cfg))
        r2 = run_scenario(scenario_from_dict(cfg))
        assert r1.records == r2.records
        for m1, m2 in zip(r1.agent_states[0].models, r2.agent_states[0].models):
            assert np.array_equal(m1.D, m2.D)
            assert np.array_equal(m1.eta, m2.eta)

    def test_seed_changes_stream_and_records(self):
        r1 = run_scenario(scenario_from_dict(make_config(seed=3)))
        r2 = run_scenario(scenario_from_dict(make_config(seed=4)))
        assert r1.records != r2.records


class TestSnapshots:
    def test_snapshot_epochs_captured(self):
        cfg = make_config(eval={"snapshots": [0, 2]})
        res = run_scenario(scenario_from_dict(cfg))
        assert sorted(res.snapshots) == [0, 2]
        assert len(res.snapshots[0]) == 2          # agents
        assert res.snapshots[0][0].num_members == 1

    def test_snapshot_round_trip(self, tmp_path):
        cfg = make_config(
            eval={"snapshots": [3]},
            ensemble={"shared_J": 8,
                      "members": [{"lengthscales": 0.4},
                                  {"lengthscales": 0.1, "obs_variance": 0.1}]},
        )
        res = run_scenario(scenario_from_dict(cfg))
        states = res.snapshots[3][1].models
        path = tmp_path / "agent1.bin"
        save_snapshot(path, states)
        back = load_snapshot(path)
        assert len(back) == 2
        for orig, loaded in zip(states, back):
            assert np.array_equal(orig.D, loaded.D)
            assert np.array_equal(orig.eta, loaded.eta)
            assert orig.obs_variance == loaded.obs_variance
            assert orig.prior_variance == loaded.prior_variance

    def test_recorded_states_are_copies_of_the_live_buffers(self, tmp_path):
        # The loop updates its stacked state in place. An epoch-0 snapshot
        # must keep the epoch-0 posterior, and every recorded array must own
        # its memory rather than view the loop's buffers.
        cfg = make_config(
            topology={"kind": "ring", "num_agents": 4},
            ensemble={"shared_J": 6,
                      "members": [{"lengthscales": 0.4}, {"lengthscales": 0.15}]},
            dynamics={"mode": "b2p", "nu": 0.8},
            eval={"metrics": ["rmse", "w2"], "snapshots": [0, 3]},
        )
        res = run_scenario(scenario_from_dict(cfg))
        final = res.agent_states + [res.oracle_state]
        early, last = res.snapshots[0], res.snapshots[3]
        assert len(early) == len(last) == len(final) == 5
        for i, (e, l, f) in enumerate(zip(early, last, final)):
            assert not np.array_equal(e.log_evidence, f.log_evidence)
            assert np.array_equal(l.log_evidence, f.log_evidence)
            for em, lm, fm in zip(e.models, l.models, f.models):
                assert not np.array_equal(em.D, fm.D)
                assert not np.array_equal(em.eta, fm.eta)
                assert np.array_equal(lm.D, fm.D) and np.array_equal(lm.eta, fm.eta)
            path = tmp_path / f"row{i}.bin"
            save_snapshot(path, e.models)
            for em, back in zip(e.models, load_snapshot(path)):
                assert np.array_equal(em.D, back.D) and np.array_equal(em.eta, back.eta)
        arrays = [a for states in (early, last, final) for x in states
                  for a in [x.log_evidence] + [b for m in x.models for b in (m.D, m.eta)]]
        for j, a in enumerate(arrays):
            assert a.base is None  # owns its memory: no view of a run buffer
            for b in arrays[j + 1:]:
                assert not np.shares_memory(a, b)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTASNAP" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_snapshot(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "snap.bin"
        path.write_bytes(snapshot_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_snapshot(path)

    def test_missing_member_count_rejected(self, tmp_path):
        path = tmp_path / "snap.bin"
        path.write_bytes(snapshot_bytes()[:10])
        with pytest.raises(ValueError, match="member count"):
            load_snapshot(path)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_truncation_and_bit_flips_fail_only_with_value_error(self, tmp_path, data):
        raw = snapshot_bytes()
        path = tmp_path / "fuzzed.bin"
        path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
        with pytest.raises(ValueError):
            load_snapshot(path)
        flipped = bytearray(raw)
        bit = data.draw(st.integers(0, 8 * len(raw) - 1))
        flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(flipped))
        try:
            load_snapshot(path)
        except ValueError:
            pass


@functools.cache
def snapshot_bytes():
    """A two-member snapshot of one agent of a small run."""
    cfg = make_config(
        eval={"snapshots": [1]},
        ensemble={"shared_J": 2,
                  "members": [{"lengthscales": 0.4}, {"lengthscales": 0.1}]},
    )
    res = run_scenario(scenario_from_dict(cfg))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snap.bin"
        save_snapshot(path, res.snapshots[1][0].models)
        return path.read_bytes()


class TestRunErrors:
    def test_eval_epoch_outside_stream(self):
        cfg = make_config(eval={"epochs": [99]})
        with pytest.raises(RunError, match="not in the stream"):
            run_scenario(scenario_from_dict(cfg))

    def test_snapshot_epoch_outside_stream(self):
        cfg = make_config(eval={"snapshots": [99]})
        with pytest.raises(RunError, match="not in the stream"):
            run_scenario(scenario_from_dict(cfg))

    def test_member_failure_is_annotated_with_context(self, monkeypatch):
        import gossipgp.harness.runner as runner_mod

        def boom(*args, **kwargs):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(runner_mod, "predict_batch", boom)
        with pytest.raises(RunError, match=r"epoch 0, agent 0, member 0"):
            run_scenario(scenario_from_dict(make_config()))

    @pytest.mark.parametrize("w2_oracle", ["identical", "unit"])
    def test_non_finite_evidence_names_its_agent_and_member(self, monkeypatch, w2_oracle):
        # The second agent's second member scores its batch as impossible.
        # The local step stops the run before the evidence is gossiped, with
        # either oracle (the unit-weight one has a message of its own).
        import gossipgp.harness.runner as runner_mod

        calls = []
        gaussian_log_density_ = runner_mod.gaussian_log_density

        def impossible_third_batch(*args):
            calls.append(None)
            log_pdf = gaussian_log_density_(*args)
            return np.full_like(log_pdf, -np.inf) if len(calls) == 4 else log_pdf

        monkeypatch.setattr(runner_mod, "gaussian_log_density", impossible_third_batch)
        cfg = make_config(
            ensemble={"shared_J": 8,
                      "members": [{"lengthscales": 0.4}, {"lengthscales": 0.1}]},
            eval={"metrics": ["rmse", "w2"], "w2_oracle": w2_oracle},
        )
        with pytest.raises(RunError, match=r"^epoch 0, agent 1, member 1: evidence term "
                                           r"-?(inf|nan) is not finite$"):
            run_scenario(scenario_from_dict(cfg))

    def test_evaluation_failure_is_annotated(self, monkeypatch):
        import gossipgp.harness.runner as runner_mod

        def boom(*args, **kwargs):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(runner_mod, "mixture_predict_batch", boom)
        with pytest.raises(RunError, match=r"epoch 0, agent 0, evaluation"):
            run_scenario(scenario_from_dict(make_config()))

    def test_evaluation_member_failure_names_the_member(self, monkeypatch):
        import gossipgp.harness.runner as runner_mod

        calls = []

        def fail_second(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise ValueError("synthetic failure")
            return 0.0

        monkeypatch.setattr(runner_mod, "wasserstein2_gaussians", fail_second)
        cfg = make_config(
            ensemble={"shared_J": 8,
                      "members": [{"lengthscales": 0.4}, {"lengthscales": 0.1}]},
            eval={"metrics": ["rmse", "w2"]},
        )
        with pytest.raises(
            RunError, match=r"^epoch 0, agent 0, member 1, evaluation: synthetic failure$"
        ):
            run_scenario(scenario_from_dict(cfg))


class TestDegeneratePaths:
    @pytest.mark.parametrize("dynamics", [{"mode": "static"}, {"mode": "b2p", "nu": 0.9}],
                             ids=["static", "b2p"])
    def test_empty_agent_batch_runs_with_finite_metrics(self, monkeypatch, dynamics):
        # Agent 1 receives no observations at epoch 2: its increment is zero,
        # gossip and the oracle proceed, and every metric stays finite.
        import gossipgp.harness.runner as runner_mod
        from gossipgp.harness.streams import StreamBatch

        def with_empty_batch(scenario):
            stream = materialize_stream(scenario)
            batch = stream.batches[2][1]
            stream.batches[2][1] = StreamBatch(
                agent_id=batch.agent_id, t=batch.t,
                X=batch.X[:0], y=batch.y[:0],
            )
            return stream

        monkeypatch.setattr(runner_mod, "materialize_stream", with_empty_batch)
        cfg = make_config(
            topology={"kind": "ring", "num_agents": 4},
            consensus={"rounds": 2, "mode": "sum"},
            dynamics=dynamics,
            robust={"kind": "hampel"},
            eval={"metrics": ["rmse", "npll", "w2"]},
        )
        res = run_scenario(scenario_from_dict(cfg))
        assert res.stream.batches[2][1].size == 0
        assert len(res.records) == 4 * 4
        for r in res.records:
            assert np.isfinite([r.rmse, r.npll, r.w2_to_centralized]).all()

    @pytest.mark.parametrize("epochs", [30, 60])
    def test_ui_at_min_nu_with_empty_batches(self, monkeypatch, epochs):
        # ui at the smallest legal nu and no data after epoch 0: the
        # covariance grows by 1/nu per epoch. Until the covariance roots
        # overflow, W2 stays finite; after that the run stops with a named
        # cause and its epoch/agent/member context, never with NaN metrics.
        import gossipgp.harness.runner as runner_mod

        def empty_after_epoch_0(scenario):
            stream = materialize_stream(scenario)
            for t in stream.epochs[1:]:
                stream.batches[t] = [
                    StreamBatch(agent_id=b.agent_id, t=b.t, X=b.X[:0], y=b.y[:0])
                    for b in stream.batches[t]
                ]
            return stream

        monkeypatch.setattr(runner_mod, "materialize_stream", empty_after_epoch_0)
        cfg = make_config(
            topology={"kind": "ring", "num_agents": 4},
            consensus={"rounds": 2, "mode": "sum"},
            dynamics={"mode": "ui", "nu": _MIN_UI_NU},
            stream={"kind": "synthetic",
                    "synthetic": {"epochs": epochs, "batch_size": 10,
                                  "num_eval_points": 40}},
            eval={"metrics": ["rmse", "npll", "w2"]},
        )
        if epochs == 30:
            res = run_scenario(scenario_from_dict(cfg))
            assert len(res.records) == 4 * 30
            for r in res.records:
                assert np.isfinite([r.rmse, r.npll, r.w2_to_centralized]).all()
        else:
            with pytest.raises(
                RunError,
                match=r"^epoch 51, agent 0, member 0, evaluation: .* overflows$",
            ):
                run_scenario(scenario_from_dict(cfg))


class TestMemory:
    @pytest.mark.parametrize("evidence", ["consensus", "local"])
    def test_gossip_adds_into_the_state_without_a_mixed_copy(self, evidence):
        # The run holds every row's posterior and, from the local step to
        # gossip, the outgoing message, each K M (n(n+1)/2 + n + 1) floats
        # here, and mixes the message straight into the state. Everything
        # else it holds at once (features, factors, the final copy of the
        # states, made after the last message is freed) stays below one
        # message; a mixed copy of the message would not.
        K, M, J = 16, 2, 60
        n = 2 * J
        cfg = make_config(
            topology={"kind": "ring", "num_agents": K},
            consensus={"rounds": 3, "mode": "sum"},
            ensemble={"shared_J": J, "evidence": evidence,
                      "members": [{"lengthscales": 0.4}, {"lengthscales": 0.2}]},
            stream={"kind": "synthetic",
                    "synthetic": {"epochs": 4, "batch_size": 10, "num_eval_points": 40}},
            eval={"metrics": ["rmse", "npll"]},
        )
        scenario = scenario_from_dict(cfg)
        buffer = 8 * K * M * (n * (n + 1) // 2 + n + 1)
        tracemalloc.start()
        try:
            run_scenario(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 2 * buffer < buffer


class TestWorkCounts:
    def test_one_factorization_and_feature_matrix_per_member(self, monkeypatch):
        # Per epoch: one factorization and one feature matrix per (agent,
        # member) batch, except that at epoch 0 every agent holds the prior
        # and shares the first agent's factors. Per evaluated epoch,
        # additionally: one factorization per (agent, member), and one per
        # member for the oracle. The fixed evaluation points are featurized
        # once per run, one matrix per member.
        import scipy.linalg

        import gossipgp.harness.runner as runner_mod

        factorizations = []
        columns = []
        cho_factor = scipy.linalg.cho_factor
        feature_matrix_ = runner_mod.feature_matrix

        def counted_cho_factor(*args, **kwargs):
            factorizations.append(None)
            return cho_factor(*args, **kwargs)

        def counted_feature_matrix(fm, X):
            Phi = feature_matrix_(fm, X)
            columns.append(Phi.shape[1])
            return Phi

        monkeypatch.setattr(scipy.linalg, "cho_factor", counted_cho_factor)
        monkeypatch.setattr(runner_mod, "feature_matrix", counted_feature_matrix)
        K, M, epochs, batch, n_eval = 3, 2, 4, 10, 40
        cfg = make_config(
            topology={"kind": "ring", "num_agents": K},
            ensemble={"shared_J": 8,
                      "members": [{"lengthscales": 0.4}, {"lengthscales": 0.1}]},
            stream={"kind": "synthetic",
                    "synthetic": {"epochs": epochs, "batch_size": batch,
                                  "num_eval_points": n_eval}},
            eval={"metrics": ["rmse", "npll", "w2"], "epochs": [1, 3]},
        )
        result = run_scenario(scenario_from_dict(cfg))
        evaluated = 2
        assert result.jitter_retries == 0
        assert len(factorizations) == (
            epochs * K * M - (K - 1) * M + evaluated * (K * M + M)
        )
        assert len(columns) == epochs * K * M + M
        assert sum(columns) == epochs * K * M * batch + M * n_eval

    @pytest.mark.parametrize("evaluated", [[1, 3], []], ids=["some_epochs", "no_epoch"])
    def test_grid_stream_featurizes_the_grid_once_per_member_and_epoch(
        self, monkeypatch, tmp_path, evaluated
    ):
        # On a grid stream the local steps and the evaluation share one
        # feature matrix per member over the whole grid, whether or not the
        # epoch is evaluated. It is built at t = 0 once per run, plus once
        # for each epoch whose sites differ from the epoch before; the other
        # epochs rotate it to their time.
        import gossipgp.harness.runner as runner_mod

        columns = []
        feature_matrix_ = runner_mod.feature_matrix

        def counted_feature_matrix(fm, X):
            assert not X[:, -1].any()
            columns.append(X.shape[0])
            return feature_matrix_(fm, X)

        monkeypatch.setattr(runner_mod, "feature_matrix", counted_feature_matrix)
        full, missing = tmp_path / "full.csv", tmp_path / "missing.csv"
        epochs, M = 4, 2
        write_synthetic_weather_csv(full, nlat=6, nlon=8, epochs=epochs, seed=1)
        write_grid_missing_a_site(missing, 1, nlat=6, nlon=8, epochs=epochs, seed=1)
        for path, built in ((full, [48]), (missing, [48, 47, 48])):
            columns.clear()
            cfg = {
                "topology": {"kind": "ring", "num_agents": 4},
                "ensemble": {"shared_J": 8, "temporal_lengthscale": 3.0,
                             "members": [{"lengthscales": 0.4}, {"lengthscales": 0.2}]},
                "stream": {"kind": "grid_file", "path": str(path)},
                "eval": {"metrics": ["rmse", "npll", "w2"], "epochs": evaluated},
            }
            result = run_scenario(scenario_from_dict(cfg))
            assert len(result.records) == 4 * len(evaluated)
            assert columns == [n for n in built for _ in range(M)]

    def test_gossip_message_holds_the_packed_triangle(self, monkeypatch):
        # Each agent sends, per member, the packed P, s and the evidence:
        # M (n(n+1)/2 + n + 1) floats a round. The unit-weight oracle's
        # buffer has the same layout. Each epoch writes its increments into
        # one message and one oracle buffer of its own.
        import gossipgp.harness.runner as runner_mod

        messages, buffers = [], []
        consensus_sum_ = runner_mod.consensus_sum
        robust_increment_ = runner_mod.robust_increment

        def recorded_consensus_sum(values, topo, cfg, add_to=None):
            messages.append(values.shape)
            return consensus_sum_(values, topo, cfg, add_to=add_to)

        def recorded_robust_increment(*args, out):
            buffers.append(out[0].base)
            return robust_increment_(*args, out=out)

        monkeypatch.setattr(runner_mod, "consensus_sum", recorded_consensus_sum)
        monkeypatch.setattr(runner_mod, "robust_increment", recorded_robust_increment)
        K, M, J, epochs = 3, 2, 8, 4
        n = 2 * J
        cfg = make_config(
            topology={"kind": "ring", "num_agents": K},
            ensemble={"shared_J": J,
                      "members": [{"lengthscales": 0.4}, {"lengthscales": 0.1}]},
            stream={"kind": "synthetic",
                    "synthetic": {"epochs": epochs, "batch_size": 10,
                                  "num_eval_points": 20}},
            eval={"metrics": ["rmse", "w2"], "w2_oracle": "unit"},
        )
        run_scenario(scenario_from_dict(cfg))
        per_agent = M * (n * (n + 1) // 2 + n + 1)
        assert messages == [(K, M, n * (n + 1) // 2 + n + 1)] * epochs
        assert np.prod(messages[0][1:]) == per_agent == 2 * 153
        distinct = {id(b): b for b in buffers}.values()
        assert len(buffers) == 2 * epochs * K * M and len(distinct) == 2 * epochs
        for e in range(epochs):
            assert len({id(b) for b in buffers[2 * K * M * e: 2 * K * M * (e + 1)]}) == 2
        for buffer in distinct:
            assert buffer.shape == (K, M, n * (n + 1) // 2 + n + 1)
            assert buffer[0].size == per_agent

    def test_jitter_retries_total_every_factorization(self, monkeypatch):
        # Local-step, evaluation and oracle factors all count, each once:
        # every third factorization is reported as jittered here. On a ring
        # the four agents share one factor at epoch 0 only.
        import gossipgp.harness.runner as runner_mod

        factorize_ = runner_mod.factorize
        calls = []

        def every_third_jittered(state):
            factor = factorize_(state)
            calls.append(None)
            return dataclasses.replace(factor, jitter=1e-10) if len(calls) % 3 == 0 else factor

        monkeypatch.setattr(runner_mod, "factorize", every_third_jittered)
        cfg = make_config(topology={"kind": "ring", "num_agents": 4},
                          eval={"metrics": ["rmse", "w2"], "epochs": [1, 3]})
        result = run_scenario(scenario_from_dict(cfg))
        assert len(calls) == 4 * 4 - 3 + 2 * (4 + 1)
        assert result.jitter_retries == len(calls) // 3


def run_counted(cfg, share=True, materialize=None):
    """Run cfg counting factorizations and recording every row comparison.

    With share=False every comparison reports different posteriors, which
    is the run without any sharing.
    """
    import gossipgp.harness.runner as runner_mod

    calls, shares = [], []
    factorize_ = runner_mod.factorize
    same_posterior_ = runner_mod._same_posterior

    def counted_factorize(state):
        calls.append(None)
        return factorize_(state)

    def recorded_same_posterior(row, other):
        shares.append(share and same_posterior_(row, other))
        return shares[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner_mod, "factorize", counted_factorize)
        mp.setattr(runner_mod, "_same_posterior", recorded_same_posterior)
        if materialize is not None:
            mp.setattr(runner_mod, "materialize_stream", materialize)
        result = run_scenario(scenario_from_dict(cfg))
    return result, len(calls), shares


def assert_same_bits(a, b):
    """Two runs gave the same records and final states, bit for bit."""
    assert repr(a.records) == repr(b.records)
    states_a = a.agent_states + [a.oracle_state] * (a.oracle_state is not None)
    states_b = b.agent_states + [b.oracle_state] * (b.oracle_state is not None)
    assert len(states_a) == len(states_b)
    for x, y in zip(states_a, states_b):
        assert x.log_evidence.tobytes() == y.log_evidence.tobytes()
        for mx, my in zip(x.models, y.models):
            assert mx.D.tobytes() == my.D.tobytes()
            assert mx.eta.tobytes() == my.eta.tobytes()


class TestSharedPosteriors:
    # An agent whose posterior is bitwise the previous agent's takes that
    # agent's factors and evaluation; the records and states are those of
    # the run that shares nothing.
    K, M, epochs, evaluated = 4, 2, 4, [1, 3]
    members = [{"lengthscales": 0.4}, {"lengthscales": 0.1}]

    def test_complete_graph_factorizes_once_per_member(self):
        K, M, epochs, E = self.K, self.M, self.epochs, len(self.evaluated)
        cfg = make_config(
            topology={"kind": "complete", "num_agents": K},
            ensemble={"shared_J": 8, "members": self.members},
            eval={"metrics": ["rmse", "npll", "w2"], "epochs": self.evaluated},
        )
        shared, calls, shares = run_counted(cfg)
        alone, alone_calls, _ = run_counted(cfg, share=False)
        assert_same_bits(shared, alone)
        assert shares == [True] * ((K - 1) * (epochs + E))
        assert calls == epochs * M + E * (M + M)
        assert alone_calls == epochs * K * M + E * (K * M + M)
        assert shared.jitter_retries == alone.jitter_retries == 0

    def test_ring_shares_only_the_prior(self):
        K, epochs, E = self.K, self.epochs, len(self.evaluated)
        cfg = make_config(
            topology={"kind": "ring", "num_agents": K},
            ensemble={"shared_J": 8, "members": self.members},
            eval={"metrics": ["rmse", "npll", "w2"], "epochs": self.evaluated},
        )
        shared, _, shares = run_counted(cfg)
        alone, _, _ = run_counted(cfg, share=False)
        assert_same_bits(shared, alone)
        assert shares == [True] * (K - 1) + [False] * ((K - 1) * (epochs - 1 + E))

    @pytest.mark.parametrize("metrics", [["rmse", "npll"], ["rmse", "npll", "w2"]],
                             ids=["no_w2", "w2"])
    def test_stitched_agents_score_their_own_sites(self, tmp_path, metrics):
        # Agent 0 owns no site: without w2 it builds no factors, so agent 1,
        # which shares its posterior, factorizes for both.
        def without_agent_0_block(scenario):
            stream = materialize_stream(scenario)
            owner = {t: np.where(o == 0, 1, o) for t, o in stream.eval_owner.items()}
            return dataclasses.replace(stream, eval_owner=owner)

        path = tmp_path / "w.csv"
        write_synthetic_weather_csv(path, nlat=6, nlon=6, epochs=3, seed=1)
        cfg = {
            "topology": {"kind": "complete", "num_agents": self.K},
            "ensemble": {"shared_J": 8, "members": self.members},
            "stream": {"kind": "grid_file", "path": str(path)},
            "eval": {"mode": "stitched", "metrics": metrics},
        }
        shared, calls, shares = run_counted(cfg, materialize=without_agent_0_block)
        alone, _, _ = run_counted(cfg, share=False, materialize=without_agent_0_block)
        assert_same_bits(shared, alone)
        assert all(shares)
        oracle = self.M if "w2" in metrics else 0
        assert calls == 3 * self.M + 3 * (self.M + oracle)
        for t in range(3):
            records = [r for r in shared.records if r.t == t]
            assert records[0].rmse is None and records[0].npll is None
            scores = [(r.rmse, r.npll) for r in records[1:]]
            assert np.isfinite(scores).all() and len(set(scores)) == self.K - 1

    def test_local_evidence_keeps_each_agents_weights(self):
        # On a complete graph the agents' D and eta agree, but with local
        # evidence their log-evidence does not: the rows differ after epoch
        # 0 and every agent is scored with its own mixture weights.
        K, epochs, E = self.K, self.epochs, len(self.evaluated)
        cfg = make_config(
            topology={"kind": "complete", "num_agents": K},
            ensemble={"shared_J": 8, "evidence": "local", "members": self.members},
            eval={"metrics": ["rmse", "npll", "w2"], "epochs": self.evaluated,
                  "snapshots": self.evaluated},
        )
        shared, _, shares = run_counted(cfg)
        alone, _, _ = run_counted(cfg, share=False)
        assert_same_bits(shared, alone)
        assert shares == [True] * (K - 1) + [False] * ((K - 1) * (epochs - 1 + E))
        for t in self.evaluated:
            weights = [ensemble_weights(agent) for agent in shared.snapshots[t][:K]]
            assert len({w.tobytes() for w in weights}) == K
        # By epoch 3 every agent's weights are within 1e-16 of (1, 0).
        assert len({r.npll for r in shared.records if r.t == 1}) == K
