"""Multi-agent simulation loop.

Each epoch runs forgetting, then member by member residual weighing, local
increment and evidence construction and one consensus_sum call, which adds
what consensus.mode gives each agent (the mixed sums, or its own message)
straight into the states, then metric evaluation, member by member too. All
agents share the ensemble's feature maps, so network-wide sums of increments
are exactly the increments a fusion center would form from the pooled batch.

The local step predicts at each batch only where something reads the
prediction: robust weights, or the evidence of an ensemble of two or more
members. A one-member run without robust weights skips the prediction, gives
each observation weight 1 and adds an evidence term of 0, so its states'
log-evidence stays 0; no metric or snapshot reads it there.

A shadow centralized oracle is maintained whenever the w2 metric is
requested: it is one more row beside the agents' posteriors, goes through
the same forgetting pass, and adds the exact network sum of the per-agent
increments every epoch. With eval.w2_oracle == "identical" it uses the
agents' robustness weights; with "unit" it uses unit weights, measuring
what the robust network deviates from a non-robust fusion center. Without
robust weights the two are the same, and the oracle adds the agents' sums.
Its evidence is the network sum of the agents' evidence terms, each from
that agent's own prediction, weighted or not as its increments are; it is
0 where the local step does not predict.

A kernel with a temporal scale keeps the states in the frame of the t = 0
features (see dynamics), turned each epoch after forgetting, so inputs are
featurized at t = 0 only. Snapshots and final states are in w's frame.

Where an epoch's batches are the agents' blocks of its evaluation grid, as
a grid file's are, Stream.blocks gives their row offsets, read once per
epoch: each member's features are built over the grid, and the local step
and stitched evaluation read each agent's block of columns. Otherwise each
batch is featurized on its own, and stitched evaluation is refused.

An agent whose posterior is bitwise the previous agent's takes that agent's
factors and evaluation instead of its own: every agent at epoch 0, and on a
complete graph with exact mixing weights 1/K (K = 4, say) at every epoch.
The local step compares D and eta, on which the factors depend; evaluation,
whose mixture weights follow the evidence, compares the evidence too.
"""
from __future__ import annotations

import copy
import io
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from ..consensus import consensus_sum
from ..dynamics import apply_forgetting, rotate
from ..ensemble import (
    EnsembleState,
    ensemble_weights,
    gaussian_log_density,
    init_ensemble,
    mixture_moments,
)
from ..features import feature_matrix
from ..info_filter import InfoState, factorize, posterior_root, predict_batch
from ..robust import robust_increment, standardized_residuals, weights_for
from .config import GridFileSource, Scenario, SyntheticSource
from .metrics import MetricsRecord, _add_w2, _negligible, _sq_frobenius, npll, rmse
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
_BLOCK_MAGIC = b"GGPIF002"
_BLOCK_HEADER = struct.Struct("<Idd")  # dim, obs_variance, prior_variance


class RunError(RuntimeError):
    """A module failure during a run, annotated with epoch/agent context."""


@contextmanager
def _context(where: str):
    """Re-raise a failure inside as a RunError prefixed with where; a RunError passes."""
    try:
        yield
    except RunError:
        raise
    except Exception as exc:
        raise RunError(f"{where}: {exc}") from exc


@dataclass
class RunResult:
    """A run's records, final states and snapshots.

    An agent state's log_evidence sums each member's evidence terms, the
    weighted log densities of its batches under the pre-update prediction.
    The oracle's sums every agent's evidence terms, each from that agent's
    own prediction: weighted under w2_oracle identical, unweighted under
    unit. A one-member run without robust weights does not predict in the
    local step, and every log_evidence stays 0. Where evidence is computed,
    a non-finite term stops the run, naming the agent and member.
    Non-finite observations are refused before that, when the stream is
    loaded (StreamBatch.__post_init__).
    """

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
    # Each epoch's row offsets of the agents' blocks in its evaluation grid,
    # or None where the batches are not its blocks (see Stream.blocks).
    blocks = {t: stream.blocks(t) for t in stream.epochs}
    _check_stream(scenario, stream, blocks)
    K = scenario.num_agents
    spec = scenario.ensemble
    M = spec.num_members
    dim = 2 * spec.shared_J

    need_w2 = "w2" in scenario.eval.metrics
    weighs = scenario.robust.kind != "none"
    local_predicts = weighs or M > 1
    unit_oracle = need_w2 and scenario.eval.w2_oracle == "unit" and weighs

    eval_set = set(stream.epochs if scenario.eval.epochs is None else scenario.eval.epochs)
    snapshot_set = set(scenario.eval.snapshot_epochs)
    for name, wanted in (("eval", eval_set), ("snapshot", snapshot_set)):
        missing = sorted(wanted - set(stream.epochs))
        if missing:
            raise RunError(f"{name} epochs {missing} are not in the stream")

    # One row per posterior: the K agents, then the oracle when w2 needs it.
    # All live in one member-major buffer allocated once per run, in the
    # gossip message's layout: per member and row, the packed D, eta and the
    # log-evidence. Each row starts from the prior and is updated in place;
    # rows[i] views row i, so a snapshot is a deep copy.
    prior, fmaps = init_ensemble(spec)
    R = K + 1 if need_w2 else K
    width = dim * (dim + 1) // 2 + dim + 1
    state = np.empty((M, R, width))
    D, eta, log_evidence = _split(state, dim)
    for m, x in enumerate(prior.models):
        D[m], eta[m], log_evidence[m] = x.D, x.eta, 0.0
    prior_variances = np.array([x.prior_variance for x in prior.models])
    rows = [EnsembleState(models=[replace(x, D=D[m, i], eta=eta[m, i])
                                  for m, x in enumerate(prior.models)],
                          log_evidence=log_evidence[:, i]) for i in range(R)]
    del prior
    # Each member's v_time, and the epoch whose frame the states are in.
    v_time = np.stack([fm.frequencies[:, -1] for fm in fmaps]) if fmaps[0].timed else None
    frame = stream.epochs[0]
    # Static and b2p forgetting keep D >= I / sigma_theta^2, so ||B||_F^2 =
    # tr(D^-1) <= n sigma_theta^2; twice that leaves room for rounding.
    trace_bounds = 2 * dim * prior_variances if scenario.dynamics.mode != "ui" else [np.inf] * M

    records: list[MetricsRecord] = []
    snapshots: dict[int, list[EnsembleState]] = {}
    jittered = []
    # Each member's features over the evaluation inputs are built at t = 0,
    # again only when an epoch's inputs differ from the ones they were built
    # for. An epoch whose batches are blocks of the grid needs them, since
    # each batch's features are its block of the grid's columns, read as a
    # view; otherwise each batch is featurized, and the evaluation inputs
    # only at epochs that predict.
    predict = "rmse" in scenario.eval.metrics or "npll" in scenario.eval.metrics
    sites = Phis = None
    for t in stream.epochs:
        apply_forgetting(D, eta, prior_variances[:, None], scenario.dynamics)
        if v_time is not None:
            rotate(D, eta, v_time[:, None] * (t - frame))
            frame = t

        offsets = blocks[t]
        if offsets is not None or (predict and t in eval_set):
            if sites is None or not np.array_equal(stream.eval_inputs[t], sites):
                sites = stream.eval_inputs[t]
                with _context(f"epoch {t}, features of the evaluation grid"):
                    Phis = [feature_matrix(fm, sites) for fm in fmaps]

        for m in range(M):
            obs_variance = spec.members[m].obs_variance
            # Member m's message (each agent's P, s and evidence) lives from
            # its local step to its gossip; the oracle's holds the same or the
            # unit-weight increments. A factor is kept only while the next
            # agent's member-m posterior is bitwise this one's.
            message = np.empty((K, width))
            oracle_message = np.empty_like(message) if unit_oracle else message
            factor = None
            for k, batch in enumerate(stream.batches[t]):
                with _context(f"epoch {t}, agent {k}, member {m}"):
                    if offsets is None:
                        Phi = feature_matrix(fmaps[m], batch.X)
                    else:
                        Phi = Phis[m][:, offsets[k] : offsets[k + 1]]
                    if local_predicts:
                        if factor is None:
                            factor = _factorize(rows[k].models[m], jittered)
                        means, variances = predict_batch(factor, Phi)
                        w = weights_for(standardized_residuals(batch.y, means, variances),
                                        scenario.robust)
                        log_pdf = gaussian_log_density(batch.y, means, variances)
                    else:
                        w, log_pdf = np.ones_like(batch.y), np.zeros_like(batch.y)
                    robust_increment(Phi, batch.y, w, obs_variance,
                                     out=_split(message[k], dim)[:2])
                    message[k, -1] = float(np.sum(w * log_pdf))
                    if unit_oracle:
                        robust_increment(Phi, batch.y, np.ones_like(batch.y), obs_variance,
                                         out=_split(oracle_message[k], dim)[:2])
                        oracle_message[k, -1] = float(np.sum(log_pdf))
                    for term in (message[k, -1], oracle_message[k, -1]):
                        if not np.isfinite(term):
                            raise ValueError(f"evidence term {float(term)} is not finite")
                if factor is not None and not (
                        k + 1 < K and _same_posterior((eta[m], D[m]), k + 1, k)):
                    factor = None

            # Gossip adds what each agent receives straight into the agents'
            # states. With local evidence the agents keep their own evidence
            # terms. The oracle adds the exact sums, in agent order.
            own = log_evidence[m, :K] + message[:, -1] if spec.evidence == "local" else None
            consensus_sum(message, scenario.topology, scenario.consensus, add_to=state[m, :K])
            if own is not None:
                log_evidence[m, :K] = own
            if need_w2:
                state[m, K] += oracle_message.sum(axis=0)
            del message, oracle_message

        if t in eval_set:
            records.extend(_evaluate_epoch(scenario, stream, t, (log_evidence, eta, D), rows,
                                           jittered, Phis, offsets, trace_bounds))
        if t in snapshot_set:
            snapshots[t] = copy.deepcopy(rows)
            for row in snapshots[t] if v_time is not None else ():
                for model, v in zip(row.models, v_time):
                    rotate(model.D, model.eta, -t * v)

    if v_time is not None:
        rotate(D, eta, -frame * v_time[:, None])
    return RunResult(
        scenario=scenario,
        stream=stream,
        records=records,
        feature_maps=fmaps,
        agent_states=rows[:K],
        oracle_state=rows[K] if need_w2 else None,
        snapshots=snapshots,
        jitter_retries=sum(jittered),
    )


def _same_posterior(stacks, i: int, j: int) -> bool:
    """Whether rows i and j, along the first axis, hold the same bytes in each stack.

    The stacks are compared in the order given, so a small first one spares
    the full comparison of rows that differ. Equal values with different
    bits (0.0 and -0.0) do not count, so whatever is computed from one row
    is exactly what the other would give.
    """
    return all(np.array_equal(x[i].view(np.int64), x[j].view(np.int64)) for x in stacks)


def _split(message: np.ndarray, dim: int):
    """Views of a (..., dim(dim+1)/2+dim+1) message (or state): packed P (D), s (eta), evidence."""
    return message[..., : -dim - 1], message[..., -dim - 1 : -1], message[..., -1]


def _check_stream(scenario: Scenario, stream: Stream, blocks) -> None:
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
    if scenario.eval.mode == "stitched":
        for t in stream.epochs:
            if blocks[t] is None:
                raise RunError(
                    f"stitched evaluation requires each agent's batch to be its block of "
                    f"the evaluation grid, and epoch {t}'s batches are not"
                )


def _factorize(model, jittered):
    """factorize(model), noting in jittered whether it needed jitter."""
    factor = factorize(model)
    jittered.append(factor.jitter > 0.0)
    return factor


def _evaluate_epoch(scenario, stream, t, stacks, rows, jittered, Phis, offsets, trace_bounds):
    """One MetricsRecord per agent; each (agent, member) is factorized once.

    rows are the posteriors of the agents, then the oracle's when w2 is
    requested, and stacks their member-major log-evidence, eta and packed D.
    Phis are each member's features over the whole evaluation grid; stitched
    evaluation reads agent k's columns offsets[k]:offsets[k + 1] as a view.
    The work runs member by member, with one oracle root and one agent
    factor alive: each agent's W2 terms are summed in member order, with
    trace_bounds[m] bounding ||B||_F^2 of member m's roots (see _negligible),
    and its member moments are held until its last member, then scored and
    freed. An agent whose posterior (evidence included) is bitwise the
    previous agent's copies its record, or under stitched evaluation its
    factors and w2.
    """
    K, M = scenario.num_agents, len(rows[0].models)
    y_true = stream.eval_truth[t]
    want = scenario.eval.metrics
    need_w2 = "w2" in want
    stitched = scenario.eval.mode == "stitched"
    shared = [k > 0 and _same_posterior([x.swapaxes(0, 1) for x in stacks], k, k - 1)
              for k in range(K)]
    scored = [stitched or not shared[k] for k in range(K)]
    weights = [ensemble_weights(agent) for agent in rows[:K]]
    sel = [slice(offsets[k], offsets[k + 1]) if stitched else slice(None) for k in range(K)]
    predicts = [scored[k] and ("rmse" in want or "npll" in want) and y_true[sel[k]].size > 0
                for k in range(K)]
    moments, w2, out = [None] * K, [0.0 if need_w2 else None] * K, []
    for m in range(M):
        factor = root = oracle_root = None
        if need_w2:
            # Only the oracle's root is kept, not its factor.
            with _context(f"epoch {t}, centralized oracle"):
                oracle_root = posterior_root(_factorize(rows[K].models[m], jittered))
            oracle_trace = _sq_frobenius(oracle_root[1])
        for k in range(K):
            if scored[k]:
                with _context(f"epoch {t}, agent {k}, member {m}, evaluation"):
                    if factor is None and (need_w2 or predicts[k]):
                        factor = _factorize(rows[k].models[m], jittered)
                    if predicts[k]:
                        if m == 0:
                            moments[k] = np.empty((2, M, y_true[sel[k]].size))
                        moments[k][:, m] = predict_batch(factor, Phis[m][:, sel[k]])
                    if need_w2 and not shared[k] and not _negligible(
                            w2[k], weights[k][m], factor.mu, oracle_root[0],
                            np.inf if factor.jitter else trace_bounds[m], oracle_trace):
                        root = posterior_root(factor)
                    # Freed before W2 makes its n x n arrays, the factor leaves
                    # less at the heap's top for glibc to return and fault in.
                    if not (stitched and k + 1 < K and shared[k + 1]):
                        factor = None
                    if root is not None:
                        w2[k], root = _add_w2(w2[k], weights[k][m], root, oracle_root,
                                              oracle_trace), None
            if m < M - 1:
                continue
            if not scored[k]:
                out.append(replace(out[-1], agent_id=k))
                continue
            w2[k] = w2[k - 1] if shared[k] else w2[k]
            rmse_val = npll_val = None
            if predicts[k]:
                with _context(f"epoch {t}, agent {k}, evaluation"):
                    mean, _ = mixture_moments(weights[k], *moments[k])
                    if "rmse" in want:
                        rmse_val = rmse(mean, y_true[sel[k]])
                    if "npll" in want:
                        npll_val = npll(*moments[k], y_true[sel[k]], weights=weights[k])
                moments[k] = None
            out.append(MetricsRecord(t=t, agent_id=k, rmse=rmse_val, npll=npll_val,
                                     w2_to_centralized=w2[k]))
    return out


def save_snapshot(path, states: list[InfoState]) -> None:
    """Write one agent's per-member states as a single binary snapshot.

    Little-endian: SNAPSHOT_MAGIC and a uint32 member count, then per state
    a block of _BLOCK_MAGIC, uint32 dim, float64 obs_variance and
    prior_variance, D packed as the state holds it (dim(dim+1)/2 float64)
    and eta (dim float64).
    """
    with open(path, "wb") as fp:
        fp.write(SNAPSHOT_MAGIC + struct.pack("<I", len(states)))
        for state in states:
            fp.write(_BLOCK_MAGIC)
            fp.write(_BLOCK_HEADER.pack(state.dim, state.obs_variance, state.prior_variance))
            fp.write(np.concatenate([state.D, state.eta], dtype="<f8").tobytes())


def load_snapshot(path) -> list[InfoState]:
    """Read a snapshot written by save_snapshot; any corruption is a ValueError."""
    with open(path, "rb") as fp:
        magic = fp.read(len(SNAPSHOT_MAGIC))
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r}")
        (count,) = struct.unpack("<I", _read_exact(fp, 4, "the member count"))
        states = [_read_block(fp) for _ in range(count)]
        if fp.read(1):
            raise ValueError(f"trailing data after the {count} snapshot states")
    return states


def _read_block(fp) -> InfoState:
    """Read and validate one state block, leaving fp just past it."""
    magic = fp.read(len(_BLOCK_MAGIC))
    if magic != _BLOCK_MAGIC:
        raise ValueError(f"bad snapshot magic {magic!r}, expected {_BLOCK_MAGIC!r}")
    dim, obs_variance, prior_variance = _BLOCK_HEADER.unpack(
        _read_exact(fp, _BLOCK_HEADER.size, "state header")
    )
    packed = dim * (dim + 1) // 2
    body = np.frombuffer(_read_exact(fp, 8 * (packed + dim), f"state of dim {dim}"), dtype="<f8")
    if not (np.all(np.isfinite(body)) and np.isfinite(obs_variance)
            and np.isfinite(prior_variance)):
        raise ValueError(f"snapshot state of dim {dim} holds non-finite values")
    return InfoState(D=body[:packed].astype(float), eta=body[packed:].astype(float),
                     obs_variance=obs_variance, prior_variance=prior_variance)


def _read_exact(fp, n: int, what: str) -> bytes:
    """Read exactly n bytes, checking first that the stream holds them.

    A corrupt length field is thus reported before any buffer is requested.
    """
    here = fp.tell()
    left = fp.seek(0, io.SEEK_END) - here
    fp.seek(here)
    if left < n:
        raise ValueError(f"truncated snapshot: {what} needs {n} bytes, only {left} remain")
    return fp.read(n)
