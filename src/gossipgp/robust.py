"""Robust per-observation weights and weighted information increments.

Each observation is scored by its standardized residual
e = (y - yhat) / sigma_y against the pre-update predictive distribution
(sigma_y includes observation noise), mapped to a weight in [0, 1] by a
Huber or Hampel function, and folded into the increment through a diagonal
weight matrix W:

    P = sigma_obs^-2 Phi W Phi^T (packed, as D is),   s = sigma_obs^-2 Phi W y.

Weights of one downweight nothing; a weight of zero deletes the observation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import blas, lapack

__all__ = [
    "RobustConfig",
    "huber_weight",
    "hampel_weight",
    "weights_for",
    "standardized_residuals",
    "robust_increment",
]

# Classical M-estimation defaults.
DEFAULT_HUBER_DELTA = 1.345
DEFAULT_HAMPEL_ABC = (2.0, 4.0, 8.0)


@dataclass(frozen=True)
class RobustConfig:
    """Choice of weight function: none, huber (delta), or hampel (a < b < c)."""

    kind: str = "none"
    delta: float = DEFAULT_HUBER_DELTA
    a: float = DEFAULT_HAMPEL_ABC[0]
    b: float = DEFAULT_HAMPEL_ABC[1]
    c: float = DEFAULT_HAMPEL_ABC[2]

    def __post_init__(self):
        if self.kind not in ("none", "huber", "hampel"):
            raise ValueError(f"unknown robust kind {self.kind!r}")
        if self.kind == "huber" and not 0 < self.delta < np.inf:
            raise ValueError(f"huber requires delta finite and > 0, got {self.delta}")
        if self.kind == "hampel" and not (0 < self.a < self.b < self.c):
            raise ValueError(
                f"hampel requires 0 < a < b < c, got ({self.a}, {self.b}, {self.c})"
            )


def _residuals(e) -> np.ndarray:
    """e as a float array, where a NaN residual is a ValueError.

    A NaN has no weight; a residual of +-inf is legal and gets the weight of
    the far tail.
    """
    e = np.asarray(e, dtype=float)
    if np.isnan(e).any():
        raise ValueError("residuals must not be NaN")
    return e


def huber_weight(e, delta: float):
    """Huber weight: 1 for |e| <= delta, else delta/|e|.

    Accepts a scalar or an array of residuals; returns the same shape.
    """
    if not 0 < delta < np.inf:
        raise ValueError(f"delta must be finite and strictly positive, got {delta}")
    ae = np.abs(_residuals(e))
    w = np.where(ae <= delta, 1.0, delta / np.maximum(ae, delta))
    return float(w) if w.ndim == 0 else w


def hampel_weight(e, a: float, b: float, c: float):
    """Redescending Hampel weight.

    1 on [0, a]; a/|e| on (a, b]; a(c-|e|)/(|e|(c-b)) on (b, c]; 0 beyond c.
    Continuous everywhere, identically zero past c.
    """
    if not (0 < a < b < c):
        raise ValueError(f"breakpoints must satisfy 0 < a < b < c, got ({a}, {b}, {c})")
    ae = np.abs(_residuals(e))
    # Every branch is evaluated; clipping to [a, c] keeps the ones not taken
    # finite (no division by zero, no inf / inf past c).
    safe = np.clip(ae, a, c)
    w = np.select(
        [ae <= a, ae <= b, ae <= c],
        [1.0, a / safe, a * (c - safe) / (safe * (c - b))],
        default=0.0,
    )
    return float(w) if w.ndim == 0 else w


def weights_for(e, cfg: RobustConfig):
    """Weights of the configured kind; all-ones for kind 'none'.

    A NaN residual is a ValueError for every kind.
    """
    if cfg.kind == "huber":
        return huber_weight(e, cfg.delta)
    if cfg.kind == "hampel":
        return hampel_weight(e, cfg.a, cfg.b, cfg.c)
    return np.ones_like(_residuals(e))


def standardized_residuals(y, means, variances) -> np.ndarray:
    """Residuals (y - yhat)/sigma_y against pre-update predictive moments.

    `means` and `variances` are the predictive moments at the inputs of `y`,
    as predict_batch returns them (variances include observation noise).
    """
    y = np.asarray(y, dtype=float)
    if np.shape(means) != y.shape or np.shape(variances) != y.shape:
        raise ValueError(
            f"y shape {y.shape} does not match predictive moments of shapes "
            f"{np.shape(means)} and {np.shape(variances)}"
        )
    return (y - means) / np.sqrt(variances)


def robust_increment(
    Phi: np.ndarray, y: np.ndarray, weights: np.ndarray, obs_variance: float, out=None
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted increment (P, s): P = Phi W Phi^T / s2, s = Phi W y / s2, W = diag(weights).

    P comes from one symmetric rank-k update (dsyrk) of Phi W^1/2, whose
    lower triangle LAPACK's dtrttp packs into P. With out=(P, s), slices of a
    gossip message say, the increment is written into them and they are
    returned; otherwise new arrays are.
    """
    Phi = np.asarray(Phi, dtype=float)
    y = np.asarray(y, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if y.shape != (Phi.shape[1],) or weights.shape != y.shape:
        raise ValueError(
            f"shape mismatch: Phi {Phi.shape}, y {y.shape}, weights {weights.shape}"
        )
    # Written so that a NaN weight fails the test too.
    if weights.size and not (weights.min() >= 0.0 and weights.max() <= 1.0):
        raise ValueError("weights must lie in [0, 1]")
    if obs_variance <= 0:
        raise ValueError("obs_variance must be strictly positive")
    dim = Phi.shape[0]
    packed = dim * (dim + 1) // 2
    P, s = out if out is not None else (np.empty(packed), np.empty(dim))
    if (P.shape != (packed,) or s.shape != (dim,)
            or P.dtype != np.float64 or s.dtype != np.float64):
        raise ValueError(f"out needs a float64 ({packed},) packed P and a float64 ({dim},) s")
    if y.size == 0:
        P.fill(0.0)
        s.fill(0.0)
        return P, s
    # dsyrk writes the lower triangle of a Fortran-ordered scratch, which
    # dtrttp packs without a copy (a C-ordered one would be copied first).
    # A Fortran-ordered Phi, as feature_matrix makes it, is read in place.
    full = np.empty((dim, dim), order="F")
    blas.dsyrk(1.0 / obs_variance, Phi * np.sqrt(weights), beta=0.0, c=full, lower=1,
               overwrite_c=1)
    P[...] = lapack.dtrttp(full, uplo="L")[0]
    s[...] = blas.dgemv(1.0 / obs_variance, Phi, weights * y)
    return P, s
