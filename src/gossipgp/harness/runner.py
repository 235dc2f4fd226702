"""Multi-agent simulation loop.

Each epoch runs, in order: forgetting, residual weighing, local increment
construction, gossip, increment application, evidence accumulation, then
metric evaluation. All agents share the ensemble's feature maps, so
network-wide sums of increments are exactly the increments a fusion center
would form from the pooled batch.

A shadow centralized oracle is maintained whenever the w2 metric is
requested: it is one more row beside the agents' posteriors, goes through
the same forgetting and apply passes, and applies the exact network sum of
the per-agent increments every epoch. With eval.w2_oracle == "identical" the
oracle uses the same robustness weights as the agents; with "unit" it uses
unit weights, measuring what the robust network deviates from a
non-robust fusion center.
"""
from __future__ import annotations

import copy
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from ..consensus import consensus_sum
from ..dynamics import apply_forgetting, augment_time_matrix
from ..ensemble import (
    EnsembleState,
    ensemble_weights,
    gaussian_log_density,
    init_ensemble,
    update_evidence,
    mixture_predict_batch,
)
from ..features import feature_matrix, shift_time
from ..info_filter import (
    InfoState,
    _read_state,
    apply_increment,
    factorize,
    posterior_root,
    predict_batch,
    save_state,
)
from ..robust import robust_increment, standardized_residuals, weights_for
from .config import GridFileSource, Scenario, SyntheticSource
from .metrics import MetricsRecord, npll, rmse, wasserstein2_gaussians
from .streams import Stream, inject_outliers, load_grid_dataset, synth_stream

__all__ = [
    "RunError",
    "RunResult",
    "materialize_stream",
    "run_scenario",
    "save_snapshot",
    "load_snapshot",
    "SNAPSHOT_MAGIC",
]

SNAPSHOT_MAGIC = b"GGPSNAP1"


class RunError(RuntimeError):
    """A module failure during a run, annotated with epoch/agent context."""


@dataclass
class RunResult:
    scenario: Scenario
    stream: Stream = field(repr=False)
    records: list[MetricsRecord] = field(repr=False)
    feature_maps: list = field(repr=False)
    agent_states: list[EnsembleState] = field(repr=False)
    oracle_state: EnsembleState | None = field(repr=False)
    # snapshots[t]: each agent's EnsembleState, then the oracle's when w2
    # is requested, at every epoch of eval.snapshots.
    snapshots: dict[int, list[EnsembleState]] = field(repr=False)
    jitter_retries: int = 0  # factorizations that needed jitter


def materialize_stream(scenario: Scenario) -> Stream:
    if isinstance(scenario.stream_source, GridFileSource):
        stream = load_grid_dataset(scenario.stream_source.path, scenario.num_agents)
    elif isinstance(scenario.stream_source, SyntheticSource):
        stream = synth_stream(scenario.stream_source.params, seed=scenario.seed)
    else:
        raise TypeError(f"unknown stream source {scenario.stream_source!r}")
    if scenario.outliers is not None:
        stream = inject_outliers(stream, scenario.outliers)
    return stream


def run_scenario(scenario: Scenario) -> RunResult:
    stream = materialize_stream(scenario)
    _check_stream(scenario, stream)
    K = scenario.num_agents
    spec = scenario.ensemble
    M = spec.num_members
    dim = 2 * spec.shared_J
    # Inputs get a time column exactly when the kernel has a temporal scale.
    timed = spec.members[0].temporal_lengthscale is not None

    need_w2 = "w2" in scenario.eval.metrics
    unit_oracle = need_w2 and scenario.eval.w2_oracle == "unit"
    share_increments = scenario.consensus_mode == "sum"
    share_evidence = share_increments and scenario.evidence_mode == "consensus"

    eval_epochs = scenario.eval.epochs
    if eval_epochs is None:
        eval_epochs = stream.epochs
    else:
        missing = set(eval_epochs) - set(stream.epochs)
        if missing:
            raise RunError(f"eval epochs {sorted(missing)} are not in the stream")
    eval_set = set(eval_epochs)
    snapshot_set = set(scenario.eval.snapshot_epochs)
    bad_snapshots = snapshot_set - set(stream.epochs)
    if bad_snapshots:
        raise RunError(f"snapshot epochs {sorted(bad_snapshots)} are not in the stream")

    # One row per posterior: the K agents, then the oracle when w2 needs it.
    # Their states live in buffers allocated once per run, every row starting
    # from the one prior, and are updated in place; rows[i] holds views of
    # row i, so whatever outlives an epoch is a deep copy.
    prior, fmaps = init_ensemble(spec)
    R = K + 1 if need_w2 else K
    D = np.tile(np.stack([x.D for x in prior.models]), (R, 1, 1))
    eta = np.tile(np.stack([x.eta for x in prior.models]), (R, 1, 1))
    log_evidence = np.tile(prior.log_evidence, (R, 1))
    prior_variances = np.array([x.prior_variance for x in prior.models])
    rows = [EnsembleState(models=[replace(x, D=D[i, m], eta=eta[i, m])
                                  for m, x in enumerate(prior.models)],
                          log_evidence=log_evidence[i]) for i in range(R)]
    labels = [f"agent {k}" for k in range(K)] + ["centralized oracle"]

    # The gossip message, allocated once per run and overwritten every epoch:
    # for each agent and member, P, s and the evidence. The local step writes
    # the increments straight into it. The oracle sums the same increments,
    # or the unit-weight ones.
    message = np.empty((K, M, dim * (dim + 1) // 2 + dim + 1))
    P, s, ev = _split(message, dim)
    oracle_message = np.empty_like(message) if unit_oracle else message
    oracle_P, oracle_s, oracle_ev = _split(oracle_message, dim)

    records: list[MetricsRecord] = []
    snapshots: dict[int, list[EnsembleState]] = {}
    jittered = []
    # On a grid stream each member's features over the whole grid serve every
    # batch and the evaluation; otherwise each batch is featurized. The grid
    # is featurized at t = 0, again only when an epoch's sites differ from
    # the ones it was built for, and a timed kernel rotates those features to
    # each epoch's time in buffers allocated with them.
    sites = grid_Phis0 = grid_Phis = None
    for t in stream.epochs:
        apply_forgetting(D, eta, prior_variances, scenario.dynamics)

        if stream.batch_rows is not None:
            if sites is None or not np.array_equal(stream.eval_inputs[t], sites):
                sites = stream.eval_inputs[t]
                grid_Phis0 = _grid_features(sites, t, 0.0 if timed else None, fmaps)
                grid_Phis = [np.empty_like(Phi) for Phi in grid_Phis0] if timed else grid_Phis0
            if timed:
                for fm, Phi0, Phi in zip(fmaps, grid_Phis0, grid_Phis):
                    shift_time(fm, Phi0, t, out=Phi)

        # Per-agent local step: weigh residuals, build increments.
        batches = stream.batches[t]
        for k in range(K):
            batch = batches[k]
            if grid_Phis is None:
                X_in = augment_time_matrix(batch.X, t) if timed else batch.X
            for m in range(M):
                try:
                    obs_variance = spec.members[m].obs_variance
                    if grid_Phis is None:
                        Phi = feature_matrix(fmaps[m], X_in)
                    else:
                        Phi = grid_Phis[m][:, stream.batch_rows[t][k]]
                    factor = factorize(rows[k].models[m])
                    jittered.append(factor.jitter > 0.0)
                    means, variances = predict_batch(factor, Phi)
                    w = weights_for(standardized_residuals(batch.y, means, variances),
                                    scenario.robust)
                    robust_increment(Phi, batch.y, w, obs_variance, out=(P[k, m], s[k, m]))
                    log_pdf = gaussian_log_density(batch.y, means, variances)
                    ev[k, m] = float(np.sum(w * log_pdf))
                    if unit_oracle:
                        ones = np.ones_like(batch.y)
                        robust_increment(Phi, batch.y, ones, obs_variance,
                                         out=(oracle_P[k, m], oracle_s[k, m]))
                        oracle_ev[k, m] = float(np.sum(log_pdf))
                except Exception as exc:
                    raise RunError(f"epoch {t}, agent {k}, member {m}: {exc}") from exc

        # Gossip approximates the network sums; the oracle takes the exact
        # sums, added in agent order. Then one apply-and-evidence pass over
        # every row; with local evidence the agents read the unmixed column.
        mixed = message
        if share_increments:
            mixed = consensus_sum(message, scenario.topology, scenario.consensus)
        increments = list(mixed)
        if need_w2:
            increments.append(oracle_message.sum(axis=0))
        for i, inc in enumerate(increments):
            inc_P, inc_s, inc_ev = _split(inc, dim)
            if i < K and not share_evidence:
                inc_ev = ev[i]
            try:
                apply_increment(D[i], eta[i], inc_P, inc_s)
                update_evidence(log_evidence[i], inc_ev)
            except Exception as exc:
                raise RunError(f"epoch {t}, {labels[i]}: {exc}") from exc

        if t in eval_set:
            records.extend(_evaluate_epoch(scenario, stream, t, timed, rows, fmaps, jittered,
                                           grid_Phis))
        if t in snapshot_set:
            snapshots[t] = copy.deepcopy(rows)

    final = copy.deepcopy(rows)
    return RunResult(
        scenario=scenario,
        stream=stream,
        records=records,
        feature_maps=fmaps,
        agent_states=final[:K],
        oracle_state=final[K] if need_w2 else None,
        snapshots=snapshots,
        jitter_retries=sum(jittered),
    )


def _split(message: np.ndarray, dim: int):
    """Views of a (..., dim(dim+1)/2 + dim + 1) message as packed P, s and the evidence."""
    return message[..., : -dim - 1], message[..., -dim - 1 : -1], message[..., -1]


def _check_stream(scenario: Scenario, stream: Stream) -> None:
    if stream.num_agents != scenario.num_agents:
        raise RunError(
            f"stream has {stream.num_agents} agents, topology has {scenario.num_agents}"
        )
    member_dim = scenario.ensemble.members[0].spatial_dim
    if stream.spatial_dim != member_dim:
        raise RunError(
            f"stream spatial dim {stream.spatial_dim} does not match "
            f"ensemble spatial dim {member_dim}"
        )
    if scenario.eval.mode == "stitched" and stream.eval_owner is None:
        raise RunError("stitched evaluation requires a stream with block ownership")


def _grid_features(X, t, time, fmaps):
    """Each member's feature matrix over the epoch-t evaluation inputs X.

    The inputs get a time column of value `time` unless it is None.
    """
    try:
        X = X if time is None else augment_time_matrix(X, time)
        return [feature_matrix(fm, X) for fm in fmaps]
    except Exception as exc:
        raise RunError(f"epoch {t}, features of the evaluation grid: {exc}") from exc


def _evaluate_epoch(scenario, stream, t, timed, rows, fmaps, jittered, Phis):
    """One MetricsRecord per agent; each (agent, member) is factorized once.

    rows are the agents' states, then the oracle's when w2 is requested.

    Each member's features over the whole evaluation grid are built once and
    shared by all agents (Phis, when the local step already built them);
    stitched evaluation selects an agent's own columns.
    """
    y_true = stream.eval_truth[t]
    want = scenario.eval.metrics
    predict = "rmse" in want or "npll" in want
    need_w2 = "w2" in want
    if predict and Phis is None:
        Phis = _grid_features(stream.eval_inputs[t], t, t if timed else None, fmaps)
    if need_w2:
        try:
            oracle = rows[scenario.num_agents]
            oracle_factors = [factorize(m) for m in oracle.models]
            jittered.extend(f.jitter > 0.0 for f in oracle_factors)
            oracle_roots = [posterior_root(f) for f in oracle_factors]
        except Exception as exc:
            raise RunError(f"epoch {t}, centralized oracle: {exc}") from exc

    out = []
    for k, agent in enumerate(rows[: scenario.num_agents]):
        try:
            if scenario.eval.mode == "stitched":
                sel = stream.eval_owner[t] == k
                y_k = y_true[sel]
            else:
                sel, y_k = None, y_true
            predict_k = predict and y_k.size > 0
            factors, w2_terms = [], []
            if predict_k or need_w2:
                for m, model in enumerate(agent.models):
                    try:
                        factor = factorize(model)
                        jittered.append(factor.jitter > 0.0)
                        if need_w2:
                            mu, B = posterior_root(factor)
                            w2_terms.append(wasserstein2_gaussians(mu, B, *oracle_roots[m]))
                    except Exception as exc:
                        raise RunError(
                            f"epoch {t}, agent {k}, member {m}, evaluation: {exc}"
                        ) from exc
                    factors.append(factor)
            w = ensemble_weights(agent)
            rmse_val = npll_val = w2_val = None
            if predict_k:
                Phis_k = Phis if sel is None else [Phi[:, sel] for Phi in Phis]
                mean, _, mm, mv = mixture_predict_batch(w, factors, Phis_k)
                if "rmse" in want:
                    rmse_val = rmse(mean, y_k)
                if "npll" in want:
                    npll_val = npll(mm, mv, y_k, weights=w)
            if need_w2:
                # Evidence-weighted member-wise distance to the centralized posterior.
                w2_val = float(sum(w_m * d for w_m, d in zip(w, w2_terms)))
            out.append(
                MetricsRecord(
                    t=t, agent_id=k, rmse=rmse_val, npll=npll_val,
                    w2_to_centralized=w2_val,
                )
            )
        except RunError:
            raise
        except Exception as exc:
            raise RunError(f"epoch {t}, agent {k}, evaluation: {exc}") from exc
    return out


def save_snapshot(path, states: list[InfoState]) -> None:
    """Write one agent's per-member states as a single binary snapshot."""
    with open(path, "wb") as fp:
        fp.write(SNAPSHOT_MAGIC)
        fp.write(struct.pack("<I", len(states)))
        for state in states:
            save_state(state, fp)


def load_snapshot(path) -> list[InfoState]:
    """Read a snapshot written by save_snapshot; any corruption is a ValueError."""
    with open(path, "rb") as fp:
        magic = fp.read(len(SNAPSHOT_MAGIC))
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r}")
        raw = fp.read(4)
        if len(raw) != 4:
            raise ValueError("truncated snapshot: the member count is missing")
        (count,) = struct.unpack("<I", raw)
        states = [_read_state(fp) for _ in range(count)]
        if fp.read(1):
            raise ValueError(f"trailing data after the {count} snapshot states")
    return states
