"""Temporal adaptation of information states.

Two forgetting operators discount stale evidence with a coefficient
nu in [0, 1], applied once per time step before the new batch:

    back-to-prior (b2p):        D <- nu D + (1 - nu) sigma_theta^-2 I,  eta <- nu eta
    uncertainty injection (ui): D <- nu D,                              eta <- nu eta

b2p re-injects prior precision so information never falls below the prior;
ui inflates the covariance by 1/nu while leaving the posterior mean exactly
unchanged. The spatiotemporal mode instead augments inputs with time and
leaves states untouched, as does static.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .info_filter import _packed_layout

__all__ = ["DynamicsConfig", "apply_forgetting", "augment_time_matrix"]

MODES = ("static", "b2p", "ui", "spatiotemporal")

# ui with nu below this would send the precision to numerical zero.
_MIN_UI_NU = 1e-6


@dataclass(frozen=True)
class DynamicsConfig:
    """Temporal mode and forgetting coefficient (ignored for static/spatiotemporal)."""

    mode: str = "static"
    nu: float = 1.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown dynamics mode {self.mode!r}")
        if not 0.0 <= self.nu <= 1.0:
            raise ValueError(f"nu must lie in [0, 1], got {self.nu}")
        if self.mode == "ui" and self.nu < _MIN_UI_NU:
            raise ValueError(
                f"ui forgetting needs nu >= {_MIN_UI_NU}: nu={self.nu} "
                "degenerates the precision"
            )


def apply_forgetting(D: np.ndarray, eta: np.ndarray, prior_variance, cfg: DynamicsConfig) -> None:
    """Discount (D, eta) in place per the configured mode; no-op for static modes.

    D (..., dim(dim+1)/2) and eta (..., dim) are one state's packed arrays or
    a stack of them; prior_variance is a scalar or an array that broadcasts
    against their leading shape (one value per ensemble member, say).
    """
    if cfg.mode in ("static", "spatiotemporal") or cfg.nu == 1.0:
        return
    nu = cfg.nu
    D *= nu
    eta *= nu
    if cfg.mode == "b2p":
        diagonal = _packed_layout(eta.shape[-1])[1]
        D[..., diagonal] += ((1.0 - nu) / np.asarray(prior_variance, dtype=float))[..., np.newaxis]


def augment_time_matrix(X: np.ndarray, t: float) -> np.ndarray:
    """Append a constant time column to an N x d input matrix.

    Time is deliberately not normalized.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    col = np.full((X.shape[0], 1), float(t))
    return np.hstack([X, col])
