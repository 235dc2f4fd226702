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

import gossipgp.info_filter as info_filter_mod
from gossipgp import (
    build_topology,
    ensemble_weights,
    factorize,
    feature_matrix,
    init_ensemble,
    mixture_moments,
    predict_batch,
    robust_increment,
    standardized_residuals,
    weights_for,
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

from conftest import unpack


def member_moments(agent, Phis):
    """The (M, n) member means and variances of an ensemble state at Phis.

    As the runner's evaluation forms them: predict_batch member by member,
    before mixture_moments combines them.
    """
    return np.array([predict_batch(factorize(model), Phi)
                     for model, Phi in zip(agent.models, Phis)]).swapaxes(0, 1)


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


def manual_k1_pipeline(sc):
    """One agent's member 0, conditioned batch by batch: its state and log-evidence."""
    stream = materialize_stream(sc)
    state, fmaps = init_ensemble(sc.ensemble)
    model = state.models[0]
    log_ev = 0.0
    obs_var = sc.ensemble.members[0].obs_variance
    for t in stream.epochs:
        batch = stream.batches[t][0]
        Phi = feature_matrix(fmaps[0], batch.X)
        means, variances = predict_batch(factorize(model), Phi)
        w = weights_for(standardized_residuals(batch.y, means, variances), sc.robust)
        log_pdf = -0.5 * (np.log(2.0 * np.pi * variances)
                          + (batch.y - means) ** 2 / variances)
        log_ev += float(np.sum(w * log_pdf))
        P, s = robust_increment(Phi, batch.y, w, obs_var)
        model.D += P
        model.eta += s
    return model, log_ev


class TestSingleAgentComposition:
    def test_k1_run_matches_manual_pipeline_bitwise(self):
        # With one agent, a complete "graph", and one member, the loop is just
        # sequential conditioning; the runner must reproduce it exactly. With
        # no robust weights the local step does not predict, and the
        # evidence, which nothing reads with one member, stays 0.
        sc = scenario_from_dict(make_config(topology={"kind": "complete", "num_agents": 1}))
        res = run_scenario(sc)
        model, _ = manual_k1_pipeline(sc)
        got = res.agent_states[0].models[0]
        assert np.array_equal(got.D, model.D)
        assert np.array_equal(got.eta, model.eta)
        assert res.agent_states[0].log_evidence[0] == 0.0

    def test_k1_hampel_run_matches_manual_pipeline_bitwise(self):
        # Robust weights read the prediction, so the local step predicts and
        # the evidence is the weighted sum of the batches' log densities. The
        # outlier burst makes some weights less than 1.
        sc = scenario_from_dict(make_config(
            topology={"kind": "complete", "num_agents": 1},
            robust={"kind": "hampel"},
            outliers={"epoch": 2, "fraction": 0.5, "magnitude_sd": 30.0},
        ))
        res = run_scenario(sc)
        model, log_ev = manual_k1_pipeline(sc)
        got = res.agent_states[0].models[0]
        assert np.array_equal(got.D, model.D)
        assert np.array_equal(got.eta, model.eta)
        assert log_ev != 0.0
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
                    assert rel_fro(unpack(agent.models[m].D, dim),
                                   unpack(oracle.models[m].D, dim)) <= 1e-10
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
        # Two members, since one member's evidence is not computed.
        cfg = make_config(
            topology={"kind": "complete", "num_agents": 3},
            ensemble={"shared_J": 8, "evidence": "consensus",
                      "members": [{"lengthscales": 0.4}, {"lengthscales": 0.1}]},
            eval={"metrics": ["rmse", "w2"]},
        )
        res = run_scenario(scenario_from_dict(cfg))
        assert np.all(res.oracle_state.log_evidence != 0.0)
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

    def test_unit_oracle_without_robust_weights_is_the_identical_one(self, monkeypatch):
        # Without robust weights every weight is 1, so the unit-weight oracle
        # adds the agents' own increments and evidence, and builds no
        # increment of its own: K·M robust increments per epoch, not 2·K·M.
        import gossipgp.harness.runner as runner_mod

        increments = []
        robust_increment_ = runner_mod.robust_increment

        def counted_robust_increment(*args, **kwargs):
            increments.append(None)
            return robust_increment_(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "robust_increment", counted_robust_increment)
        K, M, epochs = 4, 2, 4
        runs = {}
        for w2_oracle in ("identical", "unit"):
            increments.clear()
            runs[w2_oracle] = run_scenario(scenario_from_dict(make_config(
                topology={"kind": "ring", "num_agents": K},
                ensemble={"shared_J": 8,
                          "members": [{"lengthscales": 0.4}, {"lengthscales": 0.1}]},
                dynamics={"mode": "b2p", "nu": 0.9},
                outliers={"epoch": 2, "fraction": 0.3, "magnitude_sd": 8.0},
                eval={"metrics": ["rmse", "npll", "w2"], "w2_oracle": w2_oracle},
            )))
            assert len(increments) == epochs * K * M
        assert_same_bits(runs["identical"], runs["unit"])
        assert np.all(runs["unit"].oracle_state.log_evidence != 0.0)


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

    def test_stitched_shared_features_equal_own_block_prediction(self, tmp_path, features_at):
        # The runner featurizes the whole grid once, at t = 0, and selects
        # each agent's columns; predicting from the agent's snapshot, in w's
        # frame, with its own block's time-t features must agree.
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
            # No outliers, so the agent's batch is its block of the grid and its truth.
            batch = stream.batches[r.t][r.agent_id]
            X_k, y_k = batch.X, batch.y
            w = ensemble_weights(agent)
            mm, mv = member_moments(agent, [features_at(fm, X_k, r.t) for fm in res.feature_maps])
            mean, _ = mixture_moments(w, mm, mv)
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

    def test_stitched_empty_block_gives_empty_cells(self, tmp_path):
        # Agent 1 owns no site in any epoch: its rmse/npll cells are empty
        # (never NaN) and its w2 is still scored.
        path = tmp_path / "w.csv"
        write_grid_without_a_block(path, agent=1, epochs=3, seed=1)
        cfg = {
            "topology": {"kind": "ring", "num_agents": 4},
            "ensemble": {"shared_J": 8, "members": [{"lengthscales": 0.4}]},
            "stream": {"kind": "grid_file", "path": str(path)},
            "eval": {"mode": "stitched", "metrics": ["rmse", "npll", "w2"]},
        }
        res = run_scenario(scenario_from_dict(cfg))
        assert [res.stream.blocks(t) for t in range(3)] == [[0, 9, 9, 18, 27]] * 3
        assert len(res.records) == 4 * 3
        for r in res.records:
            assert np.isfinite(r.w2_to_centralized)
            if r.agent_id == 1:
                assert r.rmse is None and r.npll is None
            else:
                assert np.isfinite([r.rmse, r.npll]).all()

    def test_grid_features_equal_per_batch_features(self, monkeypatch, tmp_path):
        # The same grid stream, read as having no blocks, is featurized batch
        # by batch, at t = 0 as the grid is; the results agree to rounding. On
        # the second file epoch 1 lacks a site, so the grid's features must
        # be rebuilt for it and again for epoch 2. Stitched evaluation needs
        # the blocks, so both runs score globally.
        from gossipgp.harness.streams import Stream

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
                "eval": {"metrics": ["rmse", "npll", "w2"]},
            }
            shared = run_scenario(scenario_from_dict(cfg))
            with monkeypatch.context() as patch:
                patch.setattr(Stream, "blocks", lambda stream, t: None)
                per_batch = run_scenario(scenario_from_dict(cfg))
            assert [len(x) for x in shared.stream.eval_inputs.values()] == sites
            assert len(shared.records) == len(per_batch.records) == 4 * 3
            for a, b in zip(shared.records, per_batch.records):
                assert (a.t, a.agent_id) == (b.t, b.agent_id)
                assert np.allclose([a.rmse, a.npll, a.w2_to_centralized],
                                   [b.rmse, b.npll, b.w2_to_centralized], rtol=1e-12, atol=0)

    def test_synthetic_eval_features_built_once_and_rotated(self, monkeypatch, features_at):
        # A synthetic stream evaluates at the same points every epoch: each
        # member's features over them are built from the sites alone, once
        # per evaluated epoch, when the evaluation reaches that member, and
        # dropped after it. Time turns the states instead: one rotate of the
        # whole member-major stack per epoch, by the time since the epoch
        # before, one per row and member to turn each snapshot's copy back to
        # w's frame, and one of the whole stack to turn the final states
        # back. Scoring the snapshots with each epoch's time-t features gives
        # the recorded metrics.
        import gossipgp.harness.runner as runner_mod

        K, M, n_eval = 2, 2, 40
        cfg = make_config(
            ensemble={"shared_J": 8, "temporal_lengthscale": 2.0,
                      "members": [{"lengthscales": 0.4}, {"lengthscales": 0.2}]},
            stream={"kind": "synthetic",
                    "synthetic": {"kind": "drifting_gp", "drift_scale": 0.05, "epochs": 4,
                                  "batch_size": 10, "num_eval_points": n_eval}},
            eval={"metrics": ["rmse", "npll", "w2"], "epochs": [1, 3], "snapshots": [1, 3]},
        )
        scenario = scenario_from_dict(cfg)
        feature_matrix_, rotate_ = runner_mod.feature_matrix, runner_mod.rotate
        built, turns = [], []

        def counted_feature_matrix(fm, X):
            if X.shape[0] == n_eval:
                built.append(X.shape[1])
            return feature_matrix_(fm, X)

        def counted_rotate(D, eta, angles):
            turns.append((D.shape[:-1], np.array(angles)))
            return rotate_(D, eta, angles)

        monkeypatch.setattr(runner_mod, "feature_matrix", counted_feature_matrix)
        monkeypatch.setattr(runner_mod, "rotate", counted_rotate)
        res = run_scenario(scenario)
        assert built == [scenario.ensemble.members[0].spatial_dim] * M * 2
        v_time = np.stack([fm.frequencies[:, -1] for fm in res.feature_maps])
        R = K + 1

        def back(t):
            return [((), -t * v_time[m]) for _ in range(R) for m in range(M)]

        step = [((M, R), v_time[:, None])]
        expected = ([((M, R), 0 * v_time[:, None])] + step + back(1) + step * 2 + back(3)
                    + [((M, R), -3 * v_time[:, None])])
        assert len(turns) == len(expected)
        for (shape, angles), (want_shape, want) in zip(turns, expected):
            assert shape == want_shape and np.array_equal(angles, want)

        assert len(res.records) == 2 * K
        X_eval = res.stream.eval_inputs[1]
        for r in res.records:
            agent, y = res.snapshots[r.t][r.agent_id], res.stream.eval_truth[r.t]
            w = ensemble_weights(agent)
            mm, mv = member_moments(agent, [features_at(fm, X_eval, r.t)
                                            for fm in res.feature_maps])
            mean, _ = mixture_moments(w, mm, mv)
            assert r.rmse == pytest.approx(rmse(mean, y), rel=1e-12, abs=0)
            assert r.npll == pytest.approx(npll(mm, mv, y, weights=w), rel=1e-12, abs=0)

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


def write_grid_without_a_block(path, agent, epoch=None, **kwargs):
    """A 6x6 synthetic weather file lacking the agent's nine sites (K = 4).

    They are left out of the given epoch, or of every epoch when it is None.
    """
    write_synthetic_weather_csv(path, nlat=6, nlon=6, **kwargs)
    header, *rows = path.read_text().splitlines()
    lat_block, lon_block = divmod(agent, 2)

    def in_block(row):
        lat, lon, t, _ = row.split(",")
        return (epoch in (None, int(t)) and (float(lat) > 45.0) == lat_block
                and (float(lon) > 65.0) == lon_block)

    path.write_text("\n".join([header, *(row for row in rows if not in_block(row))]) + "\n")


class TestBlockLayout:
    """Each agent's sites are one block of its epoch, read as views."""

    def test_local_step_and_stitched_evaluation_read_views(self, monkeypatch, tmp_path):
        # The local step's Phi and stitched evaluation's Phi and truths are
        # views of the grid features, built once per member at t = 0, and of
        # each epoch's truths, not copies.
        import gossipgp.harness.runner as runner_mod

        grid, predicted, truths = [], [], []
        feature_matrix_, predict_batch_ = runner_mod.feature_matrix, runner_mod.predict_batch
        rmse_ = runner_mod.rmse

        def feature_matrix(fm, X):
            grid.append(feature_matrix_(fm, X))
            return grid[-1]

        def predict(factor, Phi):
            predicted.append(Phi)
            return predict_batch_(factor, Phi)

        def rmse_k(mean, y):
            truths.append(y)
            return rmse_(mean, y)

        for name, f in (("feature_matrix", feature_matrix), ("predict_batch", predict),
                        ("rmse", rmse_k)):
            monkeypatch.setattr(runner_mod, name, f)
        path = tmp_path / "w.csv"
        write_synthetic_weather_csv(path, nlat=6, nlon=8, epochs=3, seed=4)
        cfg = {
            "topology": {"kind": "ring", "num_agents": 4},
            "ensemble": {"shared_J": 8, "temporal_lengthscale": 3.0,
                         "members": [{"lengthscales": 0.4}, {"lengthscales": 0.2}]},
            "stream": {"kind": "grid_file", "path": str(path)},
            "eval": {"mode": "stitched", "metrics": ["rmse", "npll"]},
        }
        res = run_scenario(scenario_from_dict(cfg))
        assert [G.shape for G in grid] == [(16, 48)] * 2
        # Each (epoch, agent, member) predicts once in the local step and
        # once in the evaluation.
        assert len(predicted) == 2 * 3 * 4 * 2 and len(truths) == 3 * 4
        for Phi in predicted:
            assert Phi.shape == (16, 12)
            assert any(np.shares_memory(Phi, G) for G in grid)
        for y in truths:
            assert y.shape == (12,)
            assert any(np.shares_memory(y, res.stream.eval_truth[t]) for t in range(3))

    def test_local_step_hands_blas_the_grid_features_in_place(self, monkeypatch, tmp_path):
        # Each agent's block of the grid features is Fortran-contiguous, so
        # BLAS reads it in place: dgemv takes the block itself, the
        # triangular products its transpose, which they copy into their
        # output, and dsyrk the weighted block Phi W^1/2, Fortran-ordered too.
        import gossipgp.harness.runner as runner_mod
        import gossipgp.robust as robust_mod
        from gossipgp._lapack import blas

        grid, handed = [], []
        feature_matrix_ = runner_mod.feature_matrix

        def feature_matrix(fm, X):
            grid.append(feature_matrix_(fm, X))
            return grid[-1]

        class Recorded:
            """scipy's blas, recording the feature operand of each call."""

            def __getattr__(self, name):
                f = getattr(blas, name)

                def call(*args, **kwargs):
                    handed.append((name, args[2] if name in ("dtrmm", "dtrsm") else args[1]))
                    return f(*args, **kwargs)
                return call

        monkeypatch.setattr(runner_mod, "feature_matrix", feature_matrix)
        monkeypatch.setattr(info_filter_mod, "blas", Recorded())
        monkeypatch.setattr(robust_mod, "blas", Recorded())
        path = tmp_path / "w.csv"
        write_synthetic_weather_csv(path, nlat=6, nlon=8, epochs=3, seed=4)
        cfg = {
            "topology": {"kind": "ring", "num_agents": 4},
            "ensemble": {"shared_J": 8, "temporal_lengthscale": 3.0,
                         "members": [{"lengthscales": 0.4}, {"lengthscales": 0.2}]},
            "robust": {"kind": "hampel"},
            "stream": {"kind": "grid_file", "path": str(path)},
            # w2 alone predicts nothing, so every call is the local step's.
            "eval": {"metrics": ["w2"]},
        }
        run_scenario(scenario_from_dict(cfg))
        assert sorted({name for name, _ in handed}) == ["dgemv", "dsyrk", "dtrsm"]
        assert len(handed) == 3 * 4 * 2 * 4
        for name, a in handed:
            Phi = a.T if name == "dtrsm" else a
            assert Phi.shape == (16, 12) and Phi.flags.f_contiguous
            assert any(np.shares_memory(Phi, G) for G in grid) == (name != "dsyrk")

    @pytest.mark.parametrize("mode", ["global", "stitched"])
    def test_agent_without_sites_in_an_epoch(self, tmp_path, mode):
        # At epoch 1 agent 0 owns no site: its batch is an empty block, it
        # learns nothing new, and under stitched evaluation its rmse and npll
        # cells are empty while its w2 is still scored.
        path = tmp_path / "w.csv"
        write_grid_without_a_block(path, agent=0, epoch=1, epochs=3, seed=2)
        cfg = {
            "topology": {"kind": "ring", "num_agents": 4},
            "ensemble": {"shared_J": 8, "members": [{"lengthscales": 0.4}]},
            "robust": {"kind": "hampel"},
            "stream": {"kind": "grid_file", "path": str(path)},
            "eval": {"mode": mode, "metrics": ["rmse", "npll", "w2"]},
        }
        res = run_scenario(scenario_from_dict(cfg))
        assert [b.size for b in res.stream.batches[1]] == [0, 9, 9, 9]
        assert res.stream.blocks(1) == [0, 0, 9, 18, 27]
        assert len(res.records) == 4 * 3
        for r in res.records:
            assert np.isfinite(r.w2_to_centralized)
            if mode == "stitched" and (r.t, r.agent_id) == (1, 0):
                assert r.rmse is None and r.npll is None
            else:
                assert np.isfinite([r.rmse, r.npll]).all()


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
        # must keep the epoch-0 posterior, and every snapshot array must own
        # its memory rather than view the loop's buffer. The final states
        # are the loop's own rows: views of its one buffer. No two recorded
        # arrays overlap.
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

        def arrays(states):
            return [a for x in states
                    for a in [x.log_evidence] + [b for m in x.models for b in (m.D, m.eta)]]

        assert all(a.base is None for a in arrays(early) + arrays(last))
        buffer = final[0].log_evidence.base
        assert buffer.shape == (2, 5, 78 + 12 + 1) and buffer.base is None
        assert all(a.base is buffer for a in arrays(final))
        recorded = arrays(early) + arrays(last) + arrays(final)
        for j, a in enumerate(recorded):
            for b in recorded[j + 1:]:
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
    def test_stitched_grid_with_swapped_batches_is_rejected(self, monkeypatch, tmp_path):
        import gossipgp.harness.runner as runner_mod

        def swapped_at_epoch_1(scenario):
            stream = materialize_stream(scenario)
            stream.batches[1] = stream.batches[1][::-1]
            return stream

        monkeypatch.setattr(runner_mod, "materialize_stream", swapped_at_epoch_1)
        path = tmp_path / "w.csv"
        write_synthetic_weather_csv(path, nlat=6, nlon=6, epochs=3, seed=1)
        cfg = {
            "topology": {"kind": "ring", "num_agents": 4},
            "ensemble": {"shared_J": 8, "members": [{"lengthscales": 0.4}]},
            "stream": {"kind": "grid_file", "path": str(path)},
            "eval": {"mode": "stitched"},
        }
        with pytest.raises(RunError, match=r"^stitched evaluation requires each agent's "
                                           r"batch .* epoch 1's batches are not$"):
            run_scenario(scenario_from_dict(cfg))
        # Global evaluation featurizes that epoch's batches one by one.
        cfg["eval"]["mode"] = "global"
        assert len(run_scenario(scenario_from_dict(cfg)).records) == 4 * 3

    def test_eval_epoch_outside_stream(self):
        cfg = make_config(eval={"epochs": [99]})
        with pytest.raises(RunError, match="not in the stream"):
            run_scenario(scenario_from_dict(cfg))

    def test_snapshot_epoch_outside_stream(self):
        cfg = make_config(eval={"snapshots": [99]})
        with pytest.raises(RunError, match="not in the stream"):
            run_scenario(scenario_from_dict(cfg))

    def test_kernel_of_another_input_dimension_stops_at_its_features(self):
        # A 3-D kernel on the 2-D synthetic stream: feature_matrix's own check
        # stops the run at epoch 0, in the runner's context.
        sc = scenario_from_dict(make_config())
        members = tuple(dataclasses.replace(m, spatial_lengthscales=(0.4,) * 3)
                        for m in sc.ensemble.members)
        sc = dataclasses.replace(sc, ensemble=dataclasses.replace(sc.ensemble, members=members))
        with pytest.raises(RunError, match=r"^epoch 0, .*: input dimension 2 does not match "
                                           r"spatial columns 3$"):
            run_scenario(sc)

    def test_synthetic_stream_takes_the_topologys_agents(self):
        # K has one record, the topology: a scenario given another topology
        # runs a stream of that many agents.
        sc = scenario_from_dict(make_config())
        sc = dataclasses.replace(sc, topology=build_topology("ring", 5))
        assert len(materialize_stream(sc).batches[0]) == 5
        assert sorted({r.agent_id for r in run_scenario(sc).records}) == list(range(5))

    def test_member_failure_is_annotated_with_context(self, monkeypatch):
        import gossipgp.harness.runner as runner_mod

        def boom(*args, **kwargs):
            raise ValueError("synthetic failure")

        # Robust weights make the local step predict, so its first call fails
        # before the evaluation's.
        monkeypatch.setattr(runner_mod, "predict_batch", boom)
        with pytest.raises(RunError, match=r"^epoch 0, agent 0, member 0: synthetic failure$"):
            run_scenario(scenario_from_dict(make_config(robust={"kind": "hampel"})))

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

        monkeypatch.setattr(runner_mod, "mixture_moments", boom)
        with pytest.raises(RunError, match=r"epoch 0, agent 0, evaluation"):
            run_scenario(scenario_from_dict(make_config()))

    # Each site that names where a run failed: the function made to fail,
    # the call of it that fails, and the prefix. On a ring of 4, rounds 1,
    # the agents' posteriors differ from epoch 1 on, so none shares another's
    # work there. Both the local step and the evaluation run member by
    # member, the member's features over the evaluation points and then the
    # oracle's root before the agents' work on each member, and the
    # evaluation predicts with predict_batch too: 8 calls per epoch and per
    # evaluated epoch, from the prior's 2 factorizations on. The local steps
    # featurize their 8 batches per epoch, so the 17th feature matrix is
    # member 0's over the evaluation points of epoch 1.
    @pytest.mark.parametrize("name, call, prefix", [
        ("predict_batch", 31, "epoch 2, agent 2, member 1"),
        ("feature_matrix", 17, "epoch 1, features of the evaluation grid"),
        ("posterior_root", 1, "epoch 1, centralized oracle"),
        ("factorize", 18, "epoch 1, agent 1, member 1, evaluation"),
        ("mixture_moments", 7, "epoch 3, agent 2, evaluation"),
    ], ids=["local-step", "grid", "oracle", "evaluation-member", "evaluation"])
    def test_failure_names_where_it_happened(self, monkeypatch, name, call, prefix):
        import gossipgp.harness.runner as runner_mod

        failure = ValueError("synthetic failure")
        calls = []
        real = getattr(runner_mod, name)

        def fail_at_call(*args, **kwargs):
            calls.append(None)
            if len(calls) == call:
                raise failure
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_mod, name, fail_at_call)
        cfg = make_config(
            topology={"kind": "ring", "num_agents": 4},
            consensus={"rounds": 1, "mode": "sum"},
            ensemble={"shared_J": 8,
                      "members": [{"lengthscales": 0.4}, {"lengthscales": 0.1}]},
            eval={"metrics": ["rmse", "npll", "w2"], "epochs": [1, 3]},
        )
        with pytest.raises(RunError) as info:
            run_scenario(scenario_from_dict(cfg))
        assert str(info.value) == f"{prefix}: synthetic failure"
        assert info.value.__cause__ is failure

    def test_evaluation_member_failure_names_the_member(self, monkeypatch):
        import gossipgp.harness.runner as runner_mod

        failure = ValueError("synthetic failure")
        calls = []

        def fail_second(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise failure
            return 0.0

        monkeypatch.setattr(runner_mod, "wasserstein2_gaussians", fail_second)
        cfg = make_config(
            ensemble={"shared_J": 8,
                      "members": [{"lengthscales": 0.4}, {"lengthscales": 0.1}]},
            eval={"metrics": ["rmse", "w2"]},
        )
        with pytest.raises(
            RunError, match=r"^epoch 0, agent 0, member 1, evaluation: synthetic failure$"
        ) as info:
            run_scenario(scenario_from_dict(cfg))
        # The W2 term's own failure is the cause, with nothing between.
        assert info.value.__cause__ is failure


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
            stream.batches[2][1] = StreamBatch(X=batch.X[:0], y=batch.y[:0])
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
                    StreamBatch(X=b.X[:0], y=b.y[:0])
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

    def test_one_members_message_and_roots_at_a_time(self):
        # The run holds every row's posterior, M (K + 1) (n(n+1)/2 + n + 1)
        # floats, and beside it at most one member's gossip message and a
        # few n x n arrays: the evaluation keeps one oracle root and one
        # agent factor alive, and W2 adds a root, a cross product and a
        # Gram. A message of every member, all M oracle roots or a second
        # copy of the final states would each pass the budget.
        K, M, J = 6, 3, 100
        n = 2 * J
        width = n * (n + 1) // 2 + n + 1
        cfg = make_config(
            topology={"kind": "ring", "num_agents": K},
            ensemble={"shared_J": J,
                      "members": [{"lengthscales": ls} for ls in (0.15, 0.3, 0.6)]},
            stream={"kind": "synthetic",
                    "synthetic": {"epochs": 4, "batch_size": 20, "num_eval_points": 40}},
            eval={"metrics": ["rmse", "npll", "w2"], "epochs": [1, 3]},
        )
        scenario = scenario_from_dict(cfg)
        tracemalloc.start()
        try:
            run_scenario(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state, message = 8 * M * (K + 1) * width, 8 * K * width
        assert peak - state < message + 6 * n * n * 8 + 512 * 1024

    def test_one_members_evaluation_features_at_a_time(self):
        # Beside every row's posterior, the run holds one member's gossip
        # message in the local step, and in the evaluation one member's
        # features over the evaluation points with predict_batch's
        # Z = L^-1 Phi of their shape, every agent's member moments (2 M
        # floats per point) and a few n x n factors and roots. At 3000
        # points one member's features are 3.8 MB: holding every member's
        # through the run, or building them all for the evaluation, breaks
        # the budget.
        K, M, J, N = 4, 3, 80, 3000
        n = 2 * J
        width = n * (n + 1) // 2 + n + 1
        cfg = make_config(
            topology={"kind": "ring", "num_agents": K},
            ensemble={"shared_J": J,
                      "members": [{"lengthscales": ls} for ls in (0.15, 0.3, 0.6)]},
            robust={"kind": "hampel"},
            stream={"kind": "synthetic",
                    "synthetic": {"epochs": 3, "batch_size": 20, "num_eval_points": N}},
            eval={"metrics": ["rmse", "npll", "w2"]},
        )
        scenario = scenario_from_dict(cfg)
        tracemalloc.start()
        try:
            run_scenario(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state, message, features = 8 * M * (K + 1) * width, 8 * K * width, 8 * n * N
        moments = 8 * K * 2 * M * N
        assert peak - state <= message + 2 * features + moments + 4 * n * n * 8

    def test_w2_hands_blas_the_covariance_roots_in_place(self, monkeypatch):
        # posterior_root returns Fortran-ordered roots, and the cross product
        # B1 B2^T hands them to dgemm as they are, so BLAS reads them in
        # place; their transposes are C-ordered and would be copied.
        import gossipgp.harness.metrics as metrics_mod
        import gossipgp.harness.runner as runner_mod
        from gossipgp._lapack import blas

        roots, handed = [], []
        posterior_root_ = runner_mod.posterior_root

        def recorded_root(factor):
            root = posterior_root_(factor)
            roots.append(root[1])
            return root

        class Recorded:
            """scipy's blas, recording the operands of each dgemm call."""

            def __getattr__(self, name):
                f = getattr(blas, name)

                def call(*args, **kwargs):
                    if name == "dgemm":
                        handed.extend(args[1:3])
                    return f(*args, **kwargs)
                return call

        monkeypatch.setattr(runner_mod, "posterior_root", recorded_root)
        monkeypatch.setattr(metrics_mod, "blas", Recorded())
        cfg = make_config(
            topology={"kind": "ring", "num_agents": 3},
            ensemble={"shared_J": 8,
                      "members": [{"lengthscales": 0.4}, {"lengthscales": 0.2}]},
            stream={"kind": "synthetic",
                    "synthetic": {"epochs": 3, "batch_size": 10, "num_eval_points": 20}},
            eval={"metrics": ["w2"]},
        )
        run_scenario(scenario_from_dict(cfg))
        assert handed and len(handed) % 2 == 0
        for B in handed:
            assert B.flags.f_contiguous and any(B is root for root in roots)


class TestTimedKernel:
    """A temporal scale turns the states; what leaves the run is in w's frame."""

    @pytest.mark.parametrize("stream", ["synthetic", "grid_file"])
    @pytest.mark.parametrize("dynamics", [{"mode": "static"}, {"mode": "b2p", "nu": 0.7},
                                          {"mode": "ui", "nu": 0.8}],
                             ids=["static", "b2p", "ui"])
    def test_online_equals_recursion_with_time_t_features(self, tmp_path, features_at,
                                                          stream, dynamics):
        # With unit weights on a complete graph, every agent holds the
        # network's posterior. The final states and a snapshot equal the
        # recursion D <- nu D (+ (1 - nu) I / sigma_theta^2 for b2p)
        # + sum_k Phi_t Phi_t^T / sigma^2, eta <- nu eta + sum_k Phi_t y_t /
        # sigma^2 over the time-t features Phi_t of each agent's batch; under
        # static forgetting (nu = 1) that is the batch posterior
        # I / sigma_theta^2 + sum_t Phi_t Phi_t^T / sigma^2, sum_t Phi_t y_t / sigma^2.
        if stream == "grid_file":
            path = tmp_path / "w.csv"
            write_synthetic_weather_csv(path, nlat=6, nlon=8, epochs=4, seed=4)
            source = {"kind": "grid_file", "path": str(path)}
        else:
            source = {"kind": "synthetic",
                      "synthetic": {"kind": "drifting_gp", "drift_scale": 0.05, "epochs": 4,
                                    "batch_size": 10, "num_eval_points": 20}}
        K = 4
        cfg = {
            "seed": 5,
            "topology": {"kind": "complete", "num_agents": K},
            "ensemble": {"shared_J": 8, "temporal_lengthscale": 3.0,
                         "members": [{"lengthscales": 0.4, "prior_variance": 2.0,
                                      "obs_variance": 0.05},
                                     {"lengthscales": 0.2}]},
            "dynamics": dynamics,
            "stream": source,
            "eval": {"metrics": ["rmse"], "snapshots": [1]},
        }
        scenario = scenario_from_dict(cfg)
        res = run_scenario(scenario)
        nu = dynamics.get("nu", 1.0)
        for m, (spec, fm) in enumerate(zip(scenario.ensemble.members, res.feature_maps)):
            n = 2 * fm.num_features
            D, eta = np.eye(n) / spec.prior_variance, np.zeros(n)
            for t in res.stream.epochs:
                D, eta = nu * D, nu * eta
                if dynamics["mode"] == "b2p":
                    D += (1.0 - nu) / spec.prior_variance * np.eye(n)
                for batch in res.stream.batches[t]:
                    Phi = features_at(fm, batch.X, t)
                    D += Phi @ Phi.T / spec.obs_variance
                    eta += Phi @ batch.y / spec.obs_variance
                states = res.agent_states if t == res.stream.epochs[-1] else (
                    res.snapshots[t] if t == 1 else [])
                for state in states:
                    got = state.models[m]
                    assert np.allclose(unpack(got.D, n), D, rtol=1e-9,
                                       atol=1e-9 * np.abs(D).max())
                    assert np.allclose(got.eta, eta, rtol=1e-9, atol=1e-9 * np.abs(eta).max())

    def test_rows_that_agree_stay_bitwise_equal(self, monkeypatch, tmp_path):
        # On a complete graph of four the mixing weights 1/4 are exact, so
        # the agents' rows agree bitwise; the turn keeps them so, and the
        # local step factorizes each member once per epoch.
        factorizations = []
        dpotrf = info_filter_mod.lapack.dpotrf

        def counted_dpotrf(*args, **kwargs):
            factorizations.append(None)
            return dpotrf(*args, **kwargs)

        monkeypatch.setattr(info_filter_mod.lapack, "dpotrf", counted_dpotrf)
        path = tmp_path / "w.csv"
        write_synthetic_weather_csv(path, nlat=6, nlon=8, epochs=4, seed=4)
        cfg = {
            "topology": {"kind": "complete", "num_agents": 4},
            "ensemble": {"shared_J": 8, "temporal_lengthscale": 3.0,
                         "members": [{"lengthscales": 0.4}, {"lengthscales": 0.2}]},
            "dynamics": {"mode": "b2p", "nu": 0.7},
            "robust": {"kind": "hampel"},
            "stream": {"kind": "grid_file", "path": str(path)},
            "eval": {"metrics": ["rmse", "npll"]},
        }
        res = run_scenario(scenario_from_dict(cfg))
        # One per member and epoch in the local step, and in the evaluation.
        assert len(factorizations) == 2 * 4 * 2
        first = res.agent_states[0]
        for agent in res.agent_states[1:]:
            for a, b in zip(agent.models, first.models):
                assert a.D.tobytes() == b.D.tobytes() and a.eta.tobytes() == b.eta.tobytes()


class TestWorkCounts:
    def test_one_factorization_and_feature_matrix_per_member(self, monkeypatch):
        # Per epoch: one factorization and one feature matrix per (agent,
        # member) batch, except that at epoch 0 every agent holds the prior
        # and shares the first agent's factors. Per evaluated epoch,
        # additionally: one factorization per (agent, member), and one per
        # member for the oracle. The fixed evaluation points are featurized
        # once per evaluated epoch, one matrix per member, each dropped
        # before the next is built.
        import gossipgp.harness.runner as runner_mod

        factorizations = []
        columns = []
        dpotrf = info_filter_mod.lapack.dpotrf
        feature_matrix_ = runner_mod.feature_matrix

        def counted_dpotrf(*args, **kwargs):
            factorizations.append(None)
            return dpotrf(*args, **kwargs)

        def counted_feature_matrix(fm, X):
            Phi = feature_matrix_(fm, X)
            columns.append(Phi.shape[1])
            return Phi

        monkeypatch.setattr(info_filter_mod.lapack, "dpotrf", counted_dpotrf)
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
        assert len(columns) == epochs * K * M + M * evaluated
        assert sum(columns) == epochs * K * M * batch + M * evaluated * n_eval

    @pytest.mark.parametrize("metrics", [["rmse", "npll", "w2"], ["w2"]],
                             ids=["some_epochs", "no_epoch"])
    def test_grid_stream_featurizes_the_grid_once_per_member_and_epoch(
        self, monkeypatch, tmp_path, metrics
    ):
        # On a grid stream the local steps and the evaluation share one
        # feature matrix per member over the whole grid, whether or not the
        # epoch predicts: some epochs do under some_epochs, and under
        # no_epoch, with w2 alone, none does. It is built at t = 0 once per
        # run, plus once for each epoch whose sites differ from the epoch
        # before; the other epochs turn the states instead.
        import gossipgp.harness.runner as runner_mod

        columns = []
        feature_matrix_ = runner_mod.feature_matrix

        def counted_feature_matrix(fm, X):
            assert X.shape[1] == 2  # the sites alone, with no time column
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
                "eval": {"metrics": metrics, "epochs": [1, 3]},
            }
            result = run_scenario(scenario_from_dict(cfg))
            assert len(result.records) == 4 * 2
            assert columns == [n for n in built for _ in range(M)]

    def test_gossip_message_holds_the_packed_triangle(self, monkeypatch):
        # Each agent sends, per member, the packed P, s and the evidence:
        # M (n(n+1)/2 + n + 1) floats a round, one member's message at a
        # time. The unit-weight oracle's buffer has the same layout. Each
        # epoch and member writes its increments into one message and one
        # oracle buffer of its own. Hampel weights keep the oracle's unit
        # weights apart from the agents'.
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
            robust={"kind": "hampel"},
            eval={"metrics": ["rmse", "w2"], "w2_oracle": "unit"},
        )
        run_scenario(scenario_from_dict(cfg))
        width = n * (n + 1) // 2 + n + 1
        assert messages == [(K, width)] * (epochs * M)
        assert M * messages[0][1] == M * (n * (n + 1) // 2 + n + 1) == 2 * 153
        distinct = {id(b): b for b in buffers}.values()
        assert len(buffers) == 2 * epochs * M * K and len(distinct) == 2 * epochs * M
        for e in range(epochs * M):
            assert len({id(b) for b in buffers[2 * K * e: 2 * K * (e + 1)]}) == 2
        for buffer in distinct:
            assert buffer.shape == (K, width)

    def test_jitter_retries_total_every_factorization(self, monkeypatch):
        # Local-step, evaluation and oracle factors all count, each once:
        # every third factorization is reported as jittered here. On a ring
        # the four agents share one factor at epoch 0 only. Huber weights
        # make the local step predict.
        import gossipgp.harness.runner as runner_mod

        factorize_ = runner_mod.factorize
        calls = []

        def every_third_jittered(state):
            factor = factorize_(state)
            calls.append(None)
            return dataclasses.replace(factor, jitter=1e-10) if len(calls) % 3 == 0 else factor

        monkeypatch.setattr(runner_mod, "factorize", every_third_jittered)
        cfg = make_config(topology={"kind": "ring", "num_agents": 4},
                          robust={"kind": "huber"},
                          eval={"metrics": ["rmse", "w2"], "epochs": [1, 3]})
        result = run_scenario(scenario_from_dict(cfg))
        assert len(calls) == 4 * 4 - 3 + 2 * (4 + 1)
        assert result.jitter_retries == len(calls) // 3

    @pytest.mark.parametrize("robust, M, local_predicts", [
        ("none", 1, False), ("hampel", 1, True), ("none", 2, True),
    ], ids=["plain", "hampel", "two_members"])
    def test_local_step_predicts_only_where_the_prediction_is_read(
        self, monkeypatch, robust, M, local_predicts
    ):
        # The local step's prediction feeds the robust weights and the member
        # evidence, which weighs nothing with one member. With neither, the
        # only factorizations and predictions are the evaluation's: one per
        # (agent, member) and one per member for the oracle, and one
        # prediction per (agent, member), at each evaluated epoch. Otherwise
        # the local step factorizes each (agent, member) and predicts at its
        # batch, except that at epoch 0 every agent holds the prior and shares
        # the first agent's factors. On a ring of 4 no two agents share a
        # posterior after epoch 0.
        import gossipgp.harness.runner as runner_mod

        factorizations, predictions = [], []
        dpotrf = info_filter_mod.lapack.dpotrf
        predict_batch_ = runner_mod.predict_batch

        def counted_dpotrf(*args, **kwargs):
            factorizations.append(None)
            return dpotrf(*args, **kwargs)

        def counted_predict_batch(*args):
            predictions.append(None)
            return predict_batch_(*args)

        monkeypatch.setattr(info_filter_mod.lapack, "dpotrf", counted_dpotrf)
        monkeypatch.setattr(runner_mod, "predict_batch", counted_predict_batch)
        K, epochs, evaluated = 4, 4, 2
        cfg = make_config(
            topology={"kind": "ring", "num_agents": K},
            ensemble={"shared_J": 8,
                      "members": [{"lengthscales": 0.4}, {"lengthscales": 0.1}][:M]},
            robust={"kind": robust},
            stream={"kind": "synthetic",
                    "synthetic": {"epochs": epochs, "batch_size": 10,
                                  "num_eval_points": 40}},
            eval={"metrics": ["rmse", "w2"], "epochs": [1, 3]},
        )
        run_scenario(scenario_from_dict(cfg))
        local = local_predicts * (epochs * K - (K - 1)) * M
        assert len(factorizations) == local + evaluated * (K + 1) * M
        assert len(predictions) == local_predicts * epochs * K * M + evaluated * K * M


def run_counted(cfg, share=True):
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

    def recorded_same_posterior(stacks, i, j):
        shares.append(share and same_posterior_(stacks, i, j))
        return shares[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner_mod, "factorize", counted_factorize)
        mp.setattr(runner_mod, "_same_posterior", recorded_same_posterior)
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


class TestNegligibleW2Terms:
    # The evidence picks member 1 (lengthscale 0.15). Member 0 (0.4) comes
    # first, where the sum is 0, and is always computed; member 2 (0.05)
    # holds weights below 1e-60, so its term cannot reach the sum and is
    # skipped. Under static and b2p forgetting ||B||_F^2 <= n sigma_theta^2
    # bounds it before its covariance root is built, so no root is built
    # for it either.
    K, M, evaluated = 4, 3, [1, 3]

    def run_counting_w2(self, full, dynamics=None, jitter=False):
        """The run, its W2 calls and the covariance roots the runner builds."""
        import gossipgp.harness.runner as runner_mod

        calls, roots = [], []
        exact, posterior_root_ = runner_mod.wasserstein2_gaussians, runner_mod.posterior_root
        factorize_ = runner_mod.factorize

        def counted(*args):
            calls.append(None)
            return exact(*args)

        def counted_root(factor):
            roots.append(None)
            return posterior_root_(factor)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(runner_mod, "wasserstein2_gaussians", counted)
            mp.setattr(runner_mod, "posterior_root", counted_root)
            if full:
                # Both skip rules are the runner's _negligible calls.
                mp.setattr(runner_mod, "_negligible", lambda *args: False)
            if jitter:
                mp.setattr(runner_mod, "factorize",
                           lambda state: dataclasses.replace(factorize_(state), jitter=1e-300))
            result = run_scenario(scenario_from_dict(self.config(dynamics)))
        return result, len(calls), len(roots)

    def config(self, dynamics=None):
        return make_config(
            topology={"kind": "ring", "num_agents": self.K},
            ensemble={"shared_J": 8,
                      "members": [{"lengthscales": ls} for ls in (0.4, 0.15, 0.05)]},
            stream={"kind": "synthetic",
                    "synthetic": {"epochs": 4, "batch_size": 20, "num_eval_points": 40}},
            dynamics=dynamics or {"mode": "static"},
            eval={"metrics": ["rmse", "npll", "w2"], "epochs": self.evaluated,
                  "snapshots": self.evaluated},
        )

    def test_oracle_traces_are_computed_once_per_evaluated_epoch(self, monkeypatch):
        # Both rules read the oracle member's ||B'||_F^2, computed once per
        # evaluated epoch and member rather than once per agent. Per epoch
        # and member the runner takes the oracle's trace, then per agent
        # applies the bound rule and, where it leaves the term (members 0
        # and 1), takes the root's trace and applies the exact rule.
        import gossipgp.harness.runner as runner_mod

        events = []
        sq_frobenius_, negligible_ = runner_mod._sq_frobenius, runner_mod._negligible

        def counted(B):
            events.append(("trace", sq_frobenius_(B)))
            return events[-1][1]

        def negligible(total, w, mu1, mu2, trace1, trace2):
            events.append(("weigh", trace2))
            return negligible_(total, w, mu1, mu2, trace1, trace2)

        monkeypatch.setattr(runner_mod, "_sq_frobenius", counted)
        monkeypatch.setattr(runner_mod, "_negligible", negligible)
        run_scenario(scenario_from_dict(self.config()))
        E, K, M = len(self.evaluated), self.K, self.M
        at = 0
        for m in list(range(M)) * E:
            kind, oracle = events[at]
            assert kind == "trace"
            at += 1
            for _ in range(K):
                assert events[at] == ("weigh", oracle)
                at += 1
                if m < M - 1:
                    assert events[at][0] == "trace" and events[at + 1] == ("weigh", oracle)
                    at += 2
        assert at == len(events)

    def test_skipped_terms_leave_every_bit_in_place(self):
        skipping, calls, roots = self.run_counting_w2(full=False)
        full, full_calls, full_roots = self.run_counting_w2(full=True)
        assert_same_bits(skipping, full)
        E, K, M = len(self.evaluated), self.K, self.M
        assert full_calls == E * K * M
        assert calls == E * K * (M - 1)
        # One root per oracle member, and one per W2 computed.
        assert full_roots == E * M + E * K * M
        assert roots == E * M + E * K * (M - 1)
        for t in self.evaluated:
            for agent in skipping.snapshots[t][:K]:
                assert ensemble_weights(agent)[2] < 1e-60

    @pytest.mark.parametrize("dynamics, jitter, skipped", [
        ({"mode": "b2p", "nu": 0.9}, False, True),
        ({"mode": "ui", "nu": 0.9}, False, False),
        ({"mode": "static"}, True, False),
    ], ids=["b2p", "ui", "jittered"])
    def test_roots_are_built_where_the_trace_is_not_bounded(self, dynamics, jitter, skipped):
        # ui forgetting lets D fall below I / sigma_theta^2, and a jittered
        # factor is not D's, so neither bounds ||B||_F^2: each such member's
        # root is built, and the exact rule still skips its W2.
        result, calls, roots = self.run_counting_w2(False, dynamics, jitter)
        full, _, _ = self.run_counting_w2(True, dynamics, jitter)
        assert_same_bits(result, full)
        E, K, M = len(self.evaluated), self.K, self.M
        assert calls == E * K * (M - 1)
        assert roots == E * M + E * K * (M - 1 if skipped else M)

    @pytest.mark.parametrize("stack, entry", [(1, 3), (2, 5)], ids=["eta", "D"])
    def test_non_finite_state_of_a_negligible_member_raises(self, monkeypatch, stack, entry):
        # Agent 1's member 2, whose weight is below 1e-60, holds a NaN when
        # it is evaluated: its bound is NaN, so its root is built and W2
        # reports the value. w2 alone predicts nothing that could raise first.
        import gossipgp.harness.runner as runner_mod

        evaluate_epoch = runner_mod._evaluate_epoch

        def poisoned(scenario, stream, t, stacks, *args):
            stacks[stack][2, 1, entry] = np.nan
            return evaluate_epoch(scenario, stream, t, stacks, *args)

        monkeypatch.setattr(runner_mod, "_evaluate_epoch", poisoned)
        cfg = self.config()
        cfg["eval"]["metrics"] = ["w2"]
        with pytest.raises(RunError, match=r"^epoch 1, agent 1, member 2, evaluation: "
                                           r"(squared distance nan|covariance root B1 holds non)"):
            run_scenario(scenario_from_dict(cfg))


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
        # The local step compares each member's rows, evaluation whole rows.
        assert shares == [True] * ((K - 1) * (epochs * M + E))
        assert calls == epochs * M + E * (M + M)
        assert alone_calls == epochs * K * M + E * (K * M + M)
        assert shared.jitter_retries == alone.jitter_retries == 0

    def test_ring_shares_only_the_prior(self):
        K, M, epochs, E = self.K, self.M, self.epochs, len(self.evaluated)
        cfg = make_config(
            topology={"kind": "ring", "num_agents": K},
            ensemble={"shared_J": 8, "members": self.members},
            eval={"metrics": ["rmse", "npll", "w2"], "epochs": self.evaluated},
        )
        shared, _, shares = run_counted(cfg)
        alone, _, _ = run_counted(cfg, share=False)
        assert_same_bits(shared, alone)
        assert shares == [True] * ((K - 1) * M) + [False] * ((K - 1) * (M * (epochs - 1) + E))

    @pytest.mark.parametrize("metrics", [["rmse", "npll"], ["rmse", "npll", "w2"]],
                             ids=["no_w2", "w2"])
    def test_stitched_agents_score_their_own_sites(self, tmp_path, metrics):
        # Agent 0 owns no site in any epoch, so it learns nothing locally;
        # gossip on the complete graph still gives it the others' posterior.
        # Without w2 it builds no factors, so agent 1, which shares its
        # posterior, factorizes for both.
        path = tmp_path / "w.csv"
        write_grid_without_a_block(path, agent=0, epochs=3, seed=1)
        cfg = {
            "topology": {"kind": "complete", "num_agents": self.K},
            "ensemble": {"shared_J": 8, "members": self.members},
            "stream": {"kind": "grid_file", "path": str(path)},
            "eval": {"mode": "stitched", "metrics": metrics},
        }
        shared, calls, shares = run_counted(cfg)
        alone, _, _ = run_counted(cfg, share=False)
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
        # evidence their log-evidence does not. The local step, whose factors
        # depend on D and eta alone, shares them at every epoch; evaluation
        # compares the evidence too, so after epoch 0 every agent is scored
        # with its own mixture weights.
        K, M, epochs, E = self.K, self.M, self.epochs, len(self.evaluated)
        cfg = make_config(
            topology={"kind": "complete", "num_agents": K},
            ensemble={"shared_J": 8, "evidence": "local", "members": self.members},
            eval={"metrics": ["rmse", "npll", "w2"], "epochs": self.evaluated,
                  "snapshots": self.evaluated},
        )
        shared, calls, shares = run_counted(cfg)
        alone, alone_calls, _ = run_counted(cfg, share=False)
        assert_same_bits(shared, alone)
        # Epochs 0 and 1, evaluation at 1, epochs 2 and 3, evaluation at 3;
        # the local step compares each member's rows, evaluation whole rows.
        local, evaluation = [True] * ((K - 1) * M), [False] * (K - 1)
        assert shares == local * 2 + evaluation + local * 2 + evaluation
        assert calls == epochs * M + E * (K * M + M)
        assert alone_calls == epochs * K * M + E * (K * M + M)
        for t in self.evaluated:
            weights = [ensemble_weights(agent) for agent in shared.snapshots[t][:K]]
            assert len({w.tobytes() for w in weights}) == K
        # By epoch 3 every agent's weights are within 1e-16 of (1, 0).
        assert len({r.npll for r in shared.records if r.t == 1}) == K
