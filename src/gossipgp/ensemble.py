"""Ensembles of RF-GP models with evidence-weighted mixture predictions.

Each agent runs M models with distinct kernel hyperparameters. Member
weights are the softmax of accumulated prequential evidence (one-step-ahead
predictive log-densities of incoming batches). Mixture moments are matched
exactly; log-density evaluation uses the exact Gaussian mixture, not the
moment-matched Gaussian.

Every member's feature basis is derived from (base_seed, member_index) and
is therefore identical at every agent, which is what makes summing
information increments across the network meaningful.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._lapack import blas
from .features import FeatureMap, KernelSpec, sample_frequencies
from .info_filter import InfoState, prior_state

__all__ = [
    "EnsembleSpec",
    "EnsembleState",
    "member_seed",
    "init_ensemble",
    "ensemble_weights",
    "mixture_moments",
    "gaussian_log_density",
    "mixture_log_density",
]


def member_seed(base_seed: int, index: int) -> int:
    """Agent-independent frequency seed for one ensemble member."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class EnsembleSpec:
    """M kernel hypotheses sharing a feature count and a base seed.

    evidence consensus weights members by the network's summed evidence;
    local weights them by each agent's own.
    """

    members: tuple[KernelSpec, ...]
    shared_J: int
    base_seed: int = 0
    evidence: str = "consensus"

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if len(members) == 0:
            raise ValueError("ensemble needs at least one member")
        if self.shared_J < 1:
            raise ValueError(f"shared_J must be >= 1, got {self.shared_J}")
        if self.evidence not in ("consensus", "local"):
            raise ValueError(f"evidence must be consensus or local, got {self.evidence!r}")
        d = members[0].spatial_dim
        temporal = members[0].temporal_lengthscale is not None
        for m in members:
            if m.spatial_dim != d:
                raise ValueError("all members must share the spatial input dimension")
            if (m.temporal_lengthscale is not None) != temporal:
                raise ValueError("members must all have or all lack a temporal lengthscale")

    @property
    def num_members(self) -> int:
        return len(self.members)


@dataclass
class EnsembleState:
    """Per-member information states plus accumulated log-evidence."""

    models: list[InfoState]
    log_evidence: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.log_evidence = np.asarray(self.log_evidence, dtype=float)
        if self.log_evidence.shape != (len(self.models),):
            raise ValueError("log_evidence length must match the member count")

    @property
    def num_members(self) -> int:
        return len(self.models)


def init_ensemble(spec: EnsembleSpec) -> tuple[EnsembleState, list[FeatureMap]]:
    """Prior states, zero evidence, and the shared per-member feature maps."""
    maps = [sample_frequencies(m, spec.shared_J, member_seed(spec.base_seed, i))
            for i, m in enumerate(spec.members)]
    models = [prior_state(m, spec.shared_J) for m in spec.members]
    state = EnsembleState(models=models, log_evidence=np.zeros(spec.num_members))
    return state, maps


def ensemble_weights(state: EnsembleState) -> np.ndarray:
    """Softmax of log-evidence, invariant to a common additive shift."""
    z = state.log_evidence - state.log_evidence.max()
    w = np.exp(z)
    return w / w.sum()


def gaussian_log_density(y, means, variances) -> np.ndarray:
    """Elementwise log N(y | means, variances)."""
    return -0.5 * (np.log(2.0 * np.pi * variances) + (y - means) ** 2 / variances)


def mixture_log_density(
    weights: np.ndarray,
    member_means: np.ndarray,
    member_variances: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """log sum_m w_m N(y | mu_m, var_m) for vectors of evaluation points.

    member_means/member_variances have shape (M, n), weights (M,) and y
    (n,); other shapes are a ValueError, not broadcast.
    """
    w, mm, mv = _member_moments(weights, member_means, member_variances)
    y = np.asarray(y, dtype=float)
    if y.shape != mm.shape[1:]:
        raise ValueError(f"y {y.shape} does not match member moments {mm.shape}")
    with np.errstate(divide="ignore"):
        log_w = np.log(w)
    terms = log_w[:, np.newaxis] + gaussian_log_density(y[np.newaxis, :], mm, mv)
    # Shift by the largest weighted term: exp cannot overflow, and that term
    # is exp(0) = 1, so the sum cannot underflow to 0 where a member whose
    # weight is 0 has the largest density.
    top = terms.max(axis=0)
    top = np.where(np.isfinite(top), top, 0.0)
    return top + np.log(np.exp(terms - top).sum(axis=0))


def mixture_moments(weights, member_means, member_variances) -> tuple[np.ndarray, np.ndarray]:
    """Mixture mean and variance at n points from the members' (M, n) moments.

    The variance is moment-matched: sum_m w_m (var_m + mu_m^2) - mean^2.
    """
    w, mm, mv = _member_moments(weights, member_means, member_variances)
    mean = blas.dgemv(1.0, mm, w, trans=1)
    return mean, blas.dgemv(1.0, mv + mm**2, w, trans=1) - mean**2


def _member_moments(weights, member_means, member_variances):
    """The three as float64 arrays, once weights is (M,) and the moments are both (M, n)."""
    w, mm, mv = (np.asarray(x, dtype=float) for x in (weights, member_means, member_variances))
    if mm.ndim != 2 or mv.shape != mm.shape or w.shape != mm.shape[:1]:
        raise ValueError(f"weights {w.shape} do not match member moments {mm.shape}, {mv.shape}")
    return w, mm, mv
