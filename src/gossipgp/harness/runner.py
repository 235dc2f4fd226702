"""Multi-agent simulation loop.

Each epoch runs, in order: forgetting, residual weighing, local increment
and evidence construction, gossip, which adds the mixed increments and
evidence straight into the states, then metric evaluation. All agents share
the ensemble's feature maps, so network-wide sums of increments are exactly
the increments a fusion center would form from the pooled batch.

A shadow centralized oracle is maintained whenever the w2 metric is
requested: it is one more row beside the agents' posteriors, goes through
the same forgetting pass, and adds the exact network sum of the per-agent
increments every epoch. With eval.w2_oracle == "identical" the
oracle uses the same robustness weights as the agents; with "unit" it uses
unit weights, measuring what the robust network deviates from a
non-robust fusion center.

An agent whose posterior is bitwise the previous agent's takes that agent's
factors instead of factorizing again, and its evaluation reuses the previous
agent's work. That is every agent at epoch 0, where all hold the prior, and
on a complete graph whose mixing weights 1/K are exact (K = 4, say) every
agent at every epoch. The factors depend on D and eta alone, so the local
step shares them even where local evidence keeps the agents' log-evidence
apart; evaluation, whose mixture weights follow the evidence, compares it
too.
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
    mixture_predict_batch,
)
from ..features import feature_matrix, shift_time
from ..info_filter import (
    InfoState,
    _read_state,
    factorize,
    posterior_root,
    predict_batch,
    save_state,
)
from ..robust import robust_increment, standardized_residuals, weights_for
from .config import GridFileSource, Scenario, SyntheticSource
from .metrics import MetricsRecord, _MemberError, _sq_frobenius, _weighted_w2, npll, rmse
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
    # Factorizations that needed jitter, each counted once however many
    # agents share it.
    jitter_retries: int = 0


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
    share_increments = scenario.consensus.mode == "sum"
    share_evidence = share_increments and scenario.ensemble.evidence == "consensus"

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
    # Every row's posterior lives in one buffer allocated once per run, with
    # the gossip message's layout: for each member, the packed D, eta and the
    # log-evidence. Every row starts from the one prior and is updated in
    # place; rows[i] holds views of row i, so whatever outlives an epoch is a
    # deep copy.
    prior, fmaps = init_ensemble(spec)
    R = K + 1 if need_w2 else K
    width = dim * (dim + 1) // 2 + dim + 1
    state = np.empty((R, M, width))
    D, eta, log_evidence = _split(state, dim)
    D[...] = np.stack([x.D for x in prior.models])
    eta[...] = np.stack([x.eta for x in prior.models])
    log_evidence[...] = prior.log_evidence
    prior_variances = np.array([x.prior_variance for x in prior.models])
    rows = [EnsembleState(models=[replace(x, D=D[i, m], eta=eta[i, m])
                                  for m, x in enumerate(prior.models)],
                          log_evidence=log_evidence[i]) for i in range(R)]

    records: list[MetricsRecord] = []
    snapshots: dict[int, list[EnsembleState]] = {}
    jittered = []
    # Each member's features over the evaluation inputs are built at t = 0,
    # again only when an epoch's inputs differ from the ones they were built
    # for, and a timed kernel rotates them to each epoch's time in buffers
    # allocated with them. A grid stream needs them at every epoch, since
    # each batch is a block of the grid's columns, read as a view; otherwise
    # each batch is featurized, and the evaluation inputs only at epochs
    # that predict.
    predict = "rmse" in scenario.eval.metrics or "npll" in scenario.eval.metrics
    sites = Phis0 = Phis = None
    for t in stream.epochs:
        apply_forgetting(D, eta, prior_variances, scenario.dynamics)

        if stream.batch_rows is not None or (predict and t in eval_set):
            if sites is None or not np.array_equal(stream.eval_inputs[t], sites):
                sites = stream.eval_inputs[t]
                Phis0 = _grid_features(sites, t, 0.0 if timed else None, fmaps)
                Phis = [np.empty_like(Phi) for Phi in Phis0] if timed else Phis0
            if timed:
                for fm, Phi0, Phi in zip(fmaps, Phis0, Phis):
                    shift_time(fm, Phi0, t, out=Phi)

        # The gossip message lives from the local step to gossip: for each
        # agent and member, P, s and the evidence. The local step writes the
        # increments straight into it. The oracle sums the same increments,
        # or the unit-weight ones. It is freed before evaluation, which then
        # reuses its memory.
        message = np.empty((K, M, width))
        oracle_message = np.empty_like(message) if unit_oracle else message

        # Per-agent local step: weigh residuals, build increments. A
        # member's factor is kept in factors[m] only while the next agent's
        # posterior is bitwise this one's; that agent then uses it.
        batches = stream.batches[t]
        factors = [None] * M
        for k in range(K):
            batch = batches[k]
            if stream.batch_rows is None:
                X_in = augment_time_matrix(batch.X, t) if timed else batch.X
            next_shares = k + 1 < K and _same_posterior((eta, D), k + 1, k)
            for m in range(M):
                try:
                    obs_variance = spec.members[m].obs_variance
                    if stream.batch_rows is None:
                        Phi = feature_matrix(fmaps[m], X_in)
                    else:
                        Phi = Phis[m][:, stream.batch_rows[t][k]]
                    factor = factors[m]
                    if factor is None:
                        factor = factorize(rows[k].models[m])
                        jittered.append(factor.jitter > 0.0)
                    factors[m] = factor if next_shares else None
                    means, variances = predict_batch(factor, Phi)
                    w = weights_for(standardized_residuals(batch.y, means, variances),
                                    scenario.robust)
                    robust_increment(Phi, batch.y, w, obs_variance,
                                     out=_split(message[k, m], dim)[:2])
                    log_pdf = gaussian_log_density(batch.y, means, variances)
                    message[k, m, -1] = float(np.sum(w * log_pdf))
                    if unit_oracle:
                        robust_increment(Phi, batch.y, np.ones_like(batch.y), obs_variance,
                                         out=_split(oracle_message[k, m], dim)[:2])
                        oracle_message[k, m, -1] = float(np.sum(log_pdf))
                    for term in (message[k, m, -1], oracle_message[k, m, -1]):
                        if not np.isfinite(term):
                            raise ValueError(f"evidence term {float(term)} is not finite")
                except Exception as exc:
                    raise RunError(f"epoch {t}, agent {k}, member {m}: {exc}") from exc

        # Gossip adds the approximate network sums straight into the agents'
        # states, with no mixed copy of the message; local mode adds each
        # agent's own message. With local evidence the agents keep their own
        # evidence terms. The oracle adds the exact sums, in agent order.
        if share_increments:
            local_evidence = None if share_evidence else log_evidence[:K] + message[..., -1]
            consensus_sum(message, scenario.topology, scenario.consensus, add_to=state[:K])
            if local_evidence is not None:
                log_evidence[:K] = local_evidence
        else:
            state[:K] += message
        if need_w2:
            state[K] += oracle_message.sum(axis=0)
        del message, oracle_message

        if t in eval_set:
            records.extend(_evaluate_epoch(scenario, stream, t, (log_evidence, eta, D), rows,
                                           jittered, Phis))
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


def _same_posterior(stacks, i: int, j: int) -> bool:
    """Whether rows i and j hold the same bytes in each of the stacks.

    The stacks are views of the state (see _split), compared in the order
    given, so a small first one spares the full comparison of rows that
    differ (0.3 ms at n = 400, M = 3). Equal values with different bits (0.0
    and -0.0) do not count, so whatever is computed from one row is exactly
    what the other would give.
    """
    return all(np.array_equal(x[i].view(np.int64), x[j].view(np.int64)) for x in stacks)


def _split(message: np.ndarray, dim: int):
    """Views of a (..., dim(dim+1)/2+dim+1) message (or state): packed P (D), s (eta), evidence."""
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


def _evaluate_epoch(scenario, stream, t, stacks, rows, jittered, Phis):
    """One MetricsRecord per agent; each (agent, member) is factorized once.

    rows are the posteriors of the agents, then the oracle's when w2 is
    requested, and stacks their log-evidence, eta and packed D. Phis are
    each member's features over the whole evaluation grid, shared by all
    agents; stitched evaluation reads an agent's own columns, one block
    since the owners are nondecreasing, as a view. An agent
    whose posterior (evidence included) is bitwise the previous agent's
    copies that agent's record under global evaluation, and under stitched
    evaluation reuses its factors and w2 to score its own sites.
    """
    y_true = stream.eval_truth[t]
    want = scenario.eval.metrics
    predict = "rmse" in want or "npll" in want
    need_w2 = "w2" in want
    if need_w2:
        # Only the oracle's roots are kept, not its factors.
        oracle_roots = []
        try:
            for model in rows[scenario.num_agents].models:
                factor = factorize(model)
                jittered.append(factor.jitter > 0.0)
                oracle_roots.append(posterior_root(factor))
        except Exception as exc:
            raise RunError(f"epoch {t}, centralized oracle: {exc}") from exc
        oracle_traces = [_sq_frobenius(B) for _, B in oracle_roots]

    stitched = scenario.eval.mode == "stitched"
    if stitched:
        owner = stream.eval_owner[t]
        bounds = np.searchsorted(owner, np.arange(scenario.num_agents + 1)).tolist()
    out = []
    for k, agent in enumerate(rows[: scenario.num_agents]):
        try:
            shared = k > 0 and _same_posterior(stacks, k, k - 1)
            if stitched:
                sel = slice(bounds[k], bounds[k + 1])
                y_k = y_true[sel]
            elif shared:
                out.append(replace(out[-1], agent_id=k))
                continue
            else:
                sel, y_k = None, y_true
            predict_k = predict and y_k.size > 0
            w = ensemble_weights(agent)
            if not shared:
                factors, w2_val = [], None
            if (predict_k or need_w2) and not factors:
                for m, model in enumerate(agent.models):
                    try:
                        factors.append(factorize(model))
                    except Exception as exc:
                        raise RunError(
                            f"epoch {t}, agent {k}, member {m}, evaluation: {exc}"
                        ) from exc
                    jittered.append(factors[m].jitter > 0.0)
            if need_w2 and w2_val is None:
                # Evidence-weighted member-wise distance to the centralized
                # posterior. Each root is made as its term is reached, so one
                # lives at a time.
                try:
                    w2_val = _weighted_w2(w, map(posterior_root, factors), oracle_roots,
                                          oracle_traces)
                except _MemberError as exc:
                    raise RunError(
                        f"epoch {t}, agent {k}, member {exc.member}, evaluation: {exc}"
                    ) from exc
            rmse_val = npll_val = None
            if predict_k:
                Phis_k = Phis if sel is None else [Phi[:, sel] for Phi in Phis]
                mean, _, mm, mv = mixture_predict_batch(w, factors, Phis_k)
                if "rmse" in want:
                    rmse_val = rmse(mean, y_k)
                if "npll" in want:
                    npll_val = npll(mm, mv, y_k, weights=w)
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
