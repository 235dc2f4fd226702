"""End-to-end acceptance checks.

Each test exercises one acceptance property at its stated tolerance and time
budget and prints exactly one pass/fail line (run with -s to see them all).
"""
import time

import numpy as np

from gossipgp.features import KernelSpec, feature_matrix, sample_frequencies
from gossipgp.info_filter import factorize, predict_batch, prior_state
from gossipgp.robust import hampel_weight, huber_weight, robust_increment
from gossipgp.harness.cli import main
from gossipgp.harness.config import scenario_from_dict
from gossipgp.harness.metrics import write_metrics_csv
from gossipgp.harness.runner import run_scenario
from gossipgp.harness.streams import write_synthetic_weather_csv

from conftest import unpack


def report(name, ok, detail):
    line = f"[accept] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def rel_fro(A, B):
    return np.linalg.norm(A - B) / np.linalg.norm(B)


def test_online_updates_match_batch_posterior():
    # Sequential conditioning on T batches must equal conditioning once on
    # the pooled data, to 1e-10 relative Frobenius error on D and eta.
    t0 = time.perf_counter()
    d, J, T, N = 2, 50, 20, 10
    spec = KernelSpec(spatial_lengthscales=(0.3, 0.3),
                      prior_variance=1.0, obs_variance=0.05)
    worst = 0.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        fm = sample_frequencies(spec, J, seed)
        X = rng.uniform(0.0, 1.0, size=(T * N, d))
        y = rng.standard_normal(T * N)
        state = prior_state(spec, J)
        for t in range(T):
            sl = slice(t * N, (t + 1) * N)
            Phi = feature_matrix(fm, X[sl])
            P, s = robust_increment(Phi, y[sl], np.ones(N), spec.obs_variance)
            state.D += P
            state.eta += s
        Phi_all = feature_matrix(fm, X)
        D_direct = Phi_all @ Phi_all.T / spec.obs_variance + np.eye(2 * J)
        eta_direct = Phi_all @ y / spec.obs_variance
        worst = max(worst, rel_fro(unpack(state.D, 2 * J), D_direct),
                    rel_fro(state.eta, eta_direct))
    elapsed = time.perf_counter() - t0
    report("online updates match the pooled-batch posterior",
           worst <= 1e-10 and elapsed < 5.0,
           f"max rel err {worst:.2e} <= 1e-10, {elapsed:.2f}s < 5s")


def test_feature_inner_products_approximate_rbf():
    # MAE of phi(x)^T phi(x') against the closed-form RBF over 200 random
    # pairs must be <= 3/sqrt(J) in at least 9 of 10 feature draws.
    t0 = time.perf_counter()
    J, d, ls = 2000, 2, 0.3
    spec = KernelSpec(spatial_lengthscales=(ls, ls),
                      prior_variance=1.0, obs_variance=0.1)
    bound = 3.0 / np.sqrt(J)
    passes = 0
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        X1 = rng.uniform(0.0, 1.0, size=(200, d))
        X2 = rng.uniform(0.0, 1.0, size=(200, d))
        fm = sample_frequencies(spec, J, seed)
        approx = np.sum(feature_matrix(fm, X1) * feature_matrix(fm, X2), axis=0)
        exact = np.exp(-0.5 * np.sum(((X1 - X2) / ls) ** 2, axis=1))
        mae = float(np.mean(np.abs(approx - exact)))
        worst = max(worst, mae)
        passes += mae <= bound
    elapsed = time.perf_counter() - t0
    report("feature inner products approximate the RBF kernel",
           passes >= 9 and elapsed < 5.0,
           f"{passes}/10 seeds under {bound:.4f} (worst mae {worst:.4f}), "
           f"{elapsed:.2f}s < 5s")


def exact_gp_errors(J, seed):
    """Agent 0's predictive errors against the exact GP after a complete-graph run.

    A static_gp stream of 3 epochs of 25 points for each of 4 agents, one
    gossip round per epoch, no robust weights; the exact GP has the model's
    RBF kernel (lengthscale 0.3, prior variance 1) and noise variance 0.05,
    and is conditioned on all 300 observations by Cholesky. Returns the rms
    of the mean error and the largest variance error over the 200
    evaluation points.
    """
    ls, prior_variance, obs_variance = 0.3, 1.0, 0.05
    cfg = {
        "seed": seed,
        "topology": {"kind": "complete", "num_agents": 4},
        "consensus": {"rounds": 1},
        "ensemble": {"shared_J": J, "members": [{
            "lengthscales": ls, "prior_variance": prior_variance,
            "obs_variance": obs_variance}]},
        "stream": {"kind": "synthetic", "synthetic": {
            "kind": "static_gp", "epochs": 3, "batch_size": 25, "lengthscale": ls,
            "prior_variance": prior_variance, "num_eval_points": 200}},
        "eval": {"metrics": ["rmse"], "epochs": [2]},
    }
    result = run_scenario(scenario_from_dict(cfg))
    stream = result.stream
    batches = [b for t in stream.epochs for b in stream.batches[t]]
    X, y = np.concatenate([b.X for b in batches]), np.concatenate([b.y for b in batches])
    X_eval = stream.eval_inputs[stream.epochs[-1]]

    def kernel(A, B):
        return prior_variance * np.exp(
            -0.5 * np.sum((A[:, None] - B[None]) ** 2, axis=-1) / ls**2)

    L = np.linalg.cholesky(kernel(X, X) + obs_variance * np.eye(len(y)))
    V = np.linalg.solve(L, kernel(X, X_eval))
    exact_mean = V.T @ np.linalg.solve(L, y)
    exact_var = prior_variance - np.sum(V**2, axis=0) + obs_variance
    factor = factorize(result.agent_states[0].models[0])
    mean, var = predict_batch(factor, feature_matrix(result.feature_maps[0], X_eval))
    return (float(np.sqrt(np.mean((mean - exact_mean) ** 2))),
            float(np.max(np.abs(var - exact_var))))


def test_posterior_approaches_the_exact_gp():
    # With one round on a complete graph an agent holds the pooled
    # random-feature posterior, which approaches the exact GP as J grows:
    # the median errors over seeds 0-2 decrease with J, and at the largest
    # J both are at most 1/sqrt(J).
    t0 = time.perf_counter()
    Js = (25, 100, 400)
    medians = np.array([np.median([exact_gp_errors(J, seed) for seed in range(3)], axis=0)
                        for J in Js])
    elapsed = time.perf_counter() - t0
    bound = 1.0 / np.sqrt(Js[-1])
    shrinking = bool(np.all(np.diff(medians, axis=0) < 0))
    report("the posterior approaches the exact GP as J grows",
           shrinking and np.all(medians[-1] <= bound),
           "median rms(mean) " + ", ".join(f"{e:.4f}" for e in medians[:, 0])
           + "; max |var| " + ", ".join(f"{e:.4f}" for e in medians[:, 1])
           + f" at J = {Js}; <= {bound:.3f} at J = {Js[-1]}, in {elapsed:.2f}s")


def test_complete_graph_round_matches_fusion_center():
    # On a complete graph one gossip round recovers exact network sums, so
    # every agent must track the pooled-data oracle to 1e-10 at every epoch.
    t0 = time.perf_counter()
    cfg = {
        "seed": 7,
        "topology": {"kind": "complete", "num_agents": 4},
        "consensus": {"rounds": 1},
        "ensemble": {"shared_J": 32, "members": [{"lengthscales": 0.3}]},
        "stream": {"kind": "synthetic",
                   "synthetic": {"epochs": 10, "batch_size": 12,
                                 "num_eval_points": 20}},
        "eval": {"metrics": ["rmse", "npll", "w2"], "snapshots": list(range(10))},
    }
    res = run_scenario(scenario_from_dict(cfg))
    worst = 0.0
    for snap in res.snapshots.values():
        *agents, oracle_state = snap
        oracle = oracle_state.models[0]
        for agent in agents:
            worst = max(worst, rel_fro(unpack(agent.models[0].D, oracle.dim),
                                       unpack(oracle.D, oracle.dim)),
                        rel_fro(agent.models[0].eta, oracle.eta))
    elapsed = time.perf_counter() - t0
    report("one complete-graph round reproduces the fusion-center posterior",
           worst <= 1e-10 and elapsed < 10.0,
           f"max rel err {worst:.2e} <= 1e-10 over 10 epochs x 4 agents, "
           f"{elapsed:.2f}s < 10s")


# Distances this small are numerically zero: the posterior matrices agree to
# rounding error and the transport cost is the square root of that noise.
W2_FLOOR = 1e-6


def _decreasing_to_floor(vals):
    """Strictly decreasing until the values reach the floor, then stay there."""
    below = False
    for prev, cur in zip(vals, vals[1:]):
        if below or prev <= W2_FLOOR:
            below = True
            if cur > W2_FLOOR:
                return False
        elif not cur < prev:
            return False
    return True


def test_posterior_gap_shrinks_with_gossip_rounds():
    # Ring networks: each agent's transport distance to the centralized
    # posterior must fall strictly as rounds increase, for every ring size.
    # A 3-cycle is already the complete graph on three vertices, so a single
    # round is exact there: its distances sit at the numerical floor for all
    # L, where further strict decrease is unobservable, and the 20-round
    # value is at the same floor as the 1-round value.
    t0 = time.perf_counter()
    rounds = (1, 2, 5, 10, 20)
    ok = True
    notes = []
    for K in (3, 5, 7):
        per_agent = {k: [] for k in range(K)}
        for L in rounds:
            cfg = {
                "seed": 7,
                "topology": {"kind": "ring", "num_agents": K},
                "consensus": {"rounds": L},
                "ensemble": {"shared_J": 32, "members": [{"lengthscales": 0.3}]},
                "stream": {"kind": "synthetic",
                           "synthetic": {"epochs": 8, "batch_size": 12,
                                         "num_eval_points": 20}},
                "eval": {"metrics": ["w2"], "epochs": [7]},
            }
            res = run_scenario(scenario_from_dict(cfg))
            for r in res.records:
                per_agent[r.agent_id].append(r.w2_to_centralized)
        ok &= all(_decreasing_to_floor(vals) for vals in per_agent.values())
        if K == 3:
            ratio_ok = all(
                v20 <= 0.05 * v1 or (v1 <= W2_FLOOR and v20 <= W2_FLOOR)
                for v1, v20 in ((vals[0], vals[-1]) for vals in per_agent.values())
            )
            ok &= ratio_ok
            notes.append(f"K=3 at floor (max {max(max(v) for v in per_agent.values()):.1e})")
        else:
            hi = max(vals[0] for vals in per_agent.values())
            lo = max(vals[-1] for vals in per_agent.values())
            notes.append(f"K={K}: {hi:.2e}->{lo:.2e}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report("posterior gap shrinks with gossip rounds on rings",
           ok, "; ".join(notes) + f", {elapsed:.2f}s < 60s")


def _robustness_run(path, robust_kind, with_outliers):
    cfg = {
        "seed": 0,
        "topology": {"kind": "complete", "num_agents": 4},
        "consensus": {"rounds": 1},
        "ensemble": {"shared_J": 200, "temporal_lengthscale": 4.0,
                     "members": [{"lengthscales": 0.3, "obs_variance": 0.01}]},
        "dynamics": {"mode": "static"},
        "robust": {"kind": robust_kind},
        "stream": {"kind": "grid_file", "path": str(path)},
        "eval": {"epochs": [47], "mode": "stitched"},
    }
    if with_outliers:
        cfg["outliers"] = {"epoch": 46, "fraction": 0.3, "magnitude_sd": 8.0,
                           "agents": [0]}
    res = run_scenario(scenario_from_dict(cfg))
    (rec,) = [r for r in res.records if r.agent_id == 0 and r.t == 47]
    return rec


def test_redescending_weights_contain_outlier_burst(tmp_path):
    # 20x20 grid, 48 epochs, 30% of one agent's block shifted by 8 sd at
    # t=46. The epoch after the burst: a non-robust run must degrade >= 2x
    # on the contaminated block, the redescending run must stay within 1.1x
    # of its own clean value, and its predictive log-loss must not exceed
    # the non-robust run's.
    t0 = time.perf_counter()
    path = tmp_path / "weather.csv"
    write_synthetic_weather_csv(path, nlat=20, nlon=20, epochs=48, seed=7)
    none_clean = _robustness_run(path, "none", False)
    none_dirty = _robustness_run(path, "none", True)
    hamp_clean = _robustness_run(path, "hampel", False)
    hamp_dirty = _robustness_run(path, "hampel", True)
    elapsed = time.perf_counter() - t0
    cond_a = none_dirty.rmse >= 2.0 * none_clean.rmse
    cond_b = hamp_dirty.rmse <= 1.1 * hamp_clean.rmse
    cond_c = hamp_dirty.npll <= none_dirty.npll
    report("redescending weights contain an injected outlier burst",
           cond_a and cond_b and cond_c and elapsed < 120.0,
           f"non-robust x{none_dirty.rmse / none_clean.rmse:.1f} >= 2, "
           f"hampel x{hamp_dirty.rmse / hamp_clean.rmse:.3f} <= 1.1, "
           f"npll {hamp_dirty.npll:.2f} <= {none_dirty.npll:.2f}, "
           f"{elapsed:.1f}s < 120s")


def _drift_cfg(mode, nu=1.0, temporal=None):
    ens = {"shared_J": 32, "members": [{"lengthscales": 0.3, "obs_variance": 0.01}]}
    if temporal is not None:
        ens["temporal_lengthscale"] = temporal
    return {
        "seed": 12,
        "topology": {"kind": "complete", "num_agents": 4},
        "ensemble": ens,
        "dynamics": {"mode": mode, "nu": nu},
        "stream": {"kind": "synthetic",
                   "synthetic": {"kind": "drifting_gp", "drift_scale": 0.2,
                                 "epochs": 40, "batch_size": 12,
                                 "num_eval_points": 100}},
    }


def test_forgetting_tracks_drifting_field(tmp_path):
    t0 = time.perf_counter()
    # nu=1 must be a bitwise no-op: identical metrics bytes and states.
    static_res = run_scenario(scenario_from_dict(_drift_cfg("static")))
    bitwise_ok = True
    p_static = tmp_path / "static.csv"
    write_metrics_csv(p_static, static_res.records)
    for mode in ("b2p", "ui"):
        res = run_scenario(scenario_from_dict(_drift_cfg(mode, nu=1.0)))
        p = tmp_path / f"{mode}.csv"
        write_metrics_csv(p, res.records)
        bitwise_ok &= p.read_bytes() == p_static.read_bytes()
        for a, b in zip(res.agent_states, static_res.agent_states):
            bitwise_ok &= np.array_equal(a.models[0].D, b.models[0].D)
            bitwise_ok &= np.array_equal(a.models[0].eta, b.models[0].eta)

    # On a drifting stream the static posterior goes stale; discounting old
    # data (b2p) or time features in the kernel must recover accuracy.
    static_rmse = {r.t: r.rmse for r in static_res.records if r.agent_id == 0}
    s_final, s_best = static_rmse[39], min(static_rmse.values())
    degrades = s_final >= 2.0 * s_best
    b2p_final = [r.rmse for r in
                 run_scenario(scenario_from_dict(_drift_cfg("b2p", nu=0.9))).records
                 if r.agent_id == 0 and r.t == 39][0]
    sp_final = [r.rmse for r in
                run_scenario(scenario_from_dict(
                    _drift_cfg("static", temporal=8.0))).records
                if r.agent_id == 0 and r.t == 39][0]
    elapsed = time.perf_counter() - t0
    ok = (bitwise_ok and degrades
          and b2p_final <= 0.7 * s_final and sp_final <= 0.7 * s_final
          and elapsed < 60.0)
    report("forgetting modes track a drifting field", ok,
           f"nu=1 bitwise identical: {bitwise_ok}, static degrades "
           f"x{s_final / s_best:.1f} >= 2, b2p {b2p_final / s_final:.2f}x <= 0.7, "
           f"time features {sp_final / s_final:.2f}x <= 0.7, {elapsed:.1f}s < 60s")


def _weather_worst_rmse(path, dynamics):
    cfg = {
        "seed": 0,
        "topology": {"kind": "complete", "num_agents": 4},
        "consensus": {"rounds": 1},
        "ensemble": {"shared_J": 50, "base_seed": 3, "temporal_lengthscale": 4.0,
                     "members": [{"lengthscales": [0.25, 0.25], "obs_variance": 0.05}]},
        "dynamics": dynamics,
        "robust": {"kind": "hampel"},
        "stream": {"kind": "grid_file", "path": str(path)},
    }
    return max(r.rmse for r in run_scenario(scenario_from_dict(cfg)).records)


def test_forgetting_keeps_time_features_bounded(tmp_path):
    # 30x30 sites, 48 epochs of the seasonal weather file, with time features
    # and Hampel weights. Without forgetting the model loses the seasonal
    # cycle and Hampel weighting rejects the data; b2p forgetting at nu=0.5
    # must keep every agent's rmse below 0.1 at every epoch.
    t0 = time.perf_counter()
    path = tmp_path / "weather.csv"
    write_synthetic_weather_csv(path, nlat=30, nlon=30, epochs=48, seed=0)
    b2p = _weather_worst_rmse(path, {"mode": "b2p", "nu": 0.5})
    time_only = _weather_worst_rmse(path, {"mode": "static"})
    elapsed = time.perf_counter() - t0
    report("b2p forgetting keeps a time-feature model bounded over 48 epochs",
           b2p < 0.1 and elapsed < 60.0,
           f"worst rmse with b2p nu=0.5 {b2p:.3f} < 0.1 (time features alone "
           f"{time_only:.3f}), {elapsed:.1f}s < 60s")


def _hampel_slope_bound(x, a, b, c):
    """Upper bound on |dw/de| valid on a neighborhood of |e| = x."""
    x = abs(x)
    bound = 0.0
    if x >= a * 0.999 and x <= b * 1.001:
        bound = max(bound, a / max(x, a) ** 2)
    if x >= b * 0.999 and x <= c * 1.001:
        bound = max(bound, a * c / (max(x, b) ** 2 * (c - b)))
    return bound


def test_weight_functions_match_piecewise_definitions(tmp_path):
    t0 = time.perf_counter()
    e = np.linspace(-12.0, 12.0, 1000)
    delta = 1.345
    # Huber: exact agreement with the piecewise definition on everything.
    direct = np.where(np.abs(e) <= delta, 1.0, delta / np.abs(e))
    huber_ok = np.array_equal(huber_weight(e, delta), direct)

    # Hampel: 1 on [0,a], 0 beyond c, and no jump larger than twice the
    # grid spacing times a local slope bound anywhere in between.
    a, b, c = 2.0, 4.0, 8.0
    w = hampel_weight(e, a, b, c)
    ones_ok = np.all(w[np.abs(e) <= a] == 1.0)
    zero_ok = np.all(w[np.abs(e) >= c] == 0.0)
    de = e[1] - e[0]
    cont_ok = True
    for i in range(len(e) - 1):
        slope = max(_hampel_slope_bound(e[i], a, b, c),
                    _hampel_slope_bound(e[i + 1], a, b, c))
        if abs(w[i + 1] - w[i]) > 2.0 * de * max(slope, 0.0):
            if abs(w[i + 1] - w[i]) > 1e-15:
                cont_ok = False

    # A Huber threshold far beyond any residual is the identity weighting:
    # the run must be bitwise identical to the non-robust run. With one
    # member the non-robust run skips the local step's prediction and the
    # Huber run predicts, so this also covers that the skip gives the
    # predicting path's increments bit for bit.
    base = {
        "seed": 5,
        "topology": {"kind": "complete", "num_agents": 2},
        "ensemble": {"shared_J": 16, "members": [{"lengthscales": 0.3}]},
        "stream": {"kind": "synthetic",
                   "synthetic": {"epochs": 5, "batch_size": 10,
                                 "num_eval_points": 30}},
        "outliers": {"epoch": 2, "fraction": 0.3, "magnitude_sd": 8.0},
    }
    res_none = run_scenario(scenario_from_dict({**base, "robust": {"kind": "none"}}))
    res_huge = run_scenario(scenario_from_dict(
        {**base, "robust": {"kind": "huber", "delta": 1e9}}))
    p1, p2 = tmp_path / "none.csv", tmp_path / "huge.csv"
    write_metrics_csv(p1, res_none.records)
    write_metrics_csv(p2, res_huge.records)
    ident_ok = p1.read_bytes() == p2.read_bytes()
    for s1, s2 in zip(res_none.agent_states, res_huge.agent_states):
        ident_ok &= np.array_equal(s1.models[0].D, s2.models[0].D)
        ident_ok &= np.array_equal(s1.models[0].eta, s2.models[0].eta)
    elapsed = time.perf_counter() - t0
    report("weight functions match their piecewise definitions",
           huber_ok and ones_ok and zero_ok and cont_ok and ident_ok,
           f"huber exact: {huber_ok}, hampel plateau/tail/continuity: "
           f"{ones_ok}/{zero_ok}/{cont_ok}, huge-delta bitwise: {ident_ok}, "
           f"{elapsed:.2f}s")


def test_repeat_executions_are_byte_identical(tmp_path):
    t0 = time.perf_counter()
    path = tmp_path / "weather.csv"
    write_synthetic_weather_csv(path, nlat=8, nlon=8, epochs=6, seed=3)
    import yaml
    cfg = {
        "seed": 9,
        "topology": {"kind": "ring", "num_agents": 4},
        "consensus": {"rounds": 3},
        "ensemble": {"shared_J": 24, "temporal_lengthscale": 3.0,
                     "members": [{"lengthscales": 0.3},
                                 {"lengthscales": 0.15, "prior_variance": 2.0}]},
        "dynamics": {"mode": "static"},
        "robust": {"kind": "hampel"},
        "stream": {"kind": "grid_file", "path": str(path)},
        "outliers": {"epoch": 3, "fraction": 0.2, "magnitude_sd": 6.0},
        "eval": {"metrics": ["rmse", "npll", "w2"], "snapshots": [5]},
    }
    cfg_path = tmp_path / "scenario.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    rc1 = main(["run", str(cfg_path), "--out", str(out1)])
    rc2 = main(["run", str(cfg_path), "--out", str(out2)])
    metrics_ok = ((out1 / "metrics.csv").read_bytes()
                  == (out2 / "metrics.csv").read_bytes())
    snaps_ok = all(
        (out1 / "snapshots" / p.name).read_bytes() == p.read_bytes()
        for p in (out2 / "snapshots").iterdir()
    )
    elapsed = time.perf_counter() - t0
    report("repeat executions are byte-identical",
           rc1 == 0 and rc2 == 0 and metrics_ok and snaps_ok,
           f"metrics.csv bytes equal: {metrics_ok}, snapshots equal: {snaps_ok}, "
           f"{elapsed:.1f}s")
