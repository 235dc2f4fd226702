"""Temporal adaptation of information states.

Two forgetting operators discount stale evidence with a coefficient
nu in [0, 1], applied once per time step before the new batch:

    back-to-prior (b2p):        D <- nu D + (1 - nu) sigma_theta^-2 I,  eta <- nu eta
    uncertainty injection (ui): D <- nu D,                              eta <- nu eta

b2p re-injects prior precision so information never falls below the prior;
ui inflates the covariance by 1/nu while leaving the posterior mean exactly
unchanged; static leaves states untouched.

A temporal scale adds linear dynamics: phi(x, t) = R(t) phi(x, 0) (see
features), so a state kept in the frame of the t = 0 features moves from
epoch t' to t by rotate with the angles v_time (t - t'), G = R(t - t')^T.
This is exact: the prior is isotropic, forgetting commutes with G, and all
states of a network share the frame. rotate unpacks each state of a stack
with LAPACK (info_filter._lower), turns its row pairs and then its column
pairs through strided slices, and packs the lower triangle back (dtrttp).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import lapack
from .info_filter import _diagonal, _lower

__all__ = ["DynamicsConfig", "apply_forgetting", "rotate"]

MODES = ("static", "b2p", "ui")

# ui with nu below this would send the precision to numerical zero.
_MIN_UI_NU = 1e-6


@dataclass(frozen=True)
class DynamicsConfig:
    """Forgetting mode and coefficient; static takes only nu == 1."""

    mode: str = "static"
    nu: float = 1.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown dynamics mode {self.mode!r}")
        if not 0.0 <= self.nu <= 1.0:
            raise ValueError(f"nu must lie in [0, 1], got {self.nu}")
        if self.mode == "static" and self.nu != 1.0:
            raise ValueError(f"static dynamics forgets nothing, so nu must be 1, got {self.nu}")
        if self.mode == "ui" and self.nu < _MIN_UI_NU:
            raise ValueError(
                f"ui forgetting needs nu >= {_MIN_UI_NU}: nu={self.nu} "
                "degenerates the precision"
            )


def apply_forgetting(D: np.ndarray, eta: np.ndarray, prior_variance, cfg: DynamicsConfig) -> None:
    """Discount (D, eta) in place per the configured mode; no-op for static or nu == 1.

    D (..., dim(dim+1)/2) and eta (..., dim) are one state's packed arrays or
    a stack of them; prior_variance is a scalar or an array that broadcasts
    against their leading shape (one value per ensemble member, say). A D
    that does not pack eta's states is a ValueError, in every mode.
    """
    n = eta.shape[-1]
    if D.shape != eta.shape[:-1] + (n * (n + 1) // 2,) or D.dtype != np.float64:
        raise ValueError(f"rows D {D.dtype} {D.shape} and eta {eta.shape} are not "
                         f"packed float64 states")
    if cfg.mode == "static" or cfg.nu == 1.0:
        return
    nu = cfg.nu
    D *= nu
    eta *= nu
    if cfg.mode == "b2p":
        diagonal = _diagonal(n)
        D[..., diagonal] += ((1.0 - nu) / np.asarray(prior_variance, dtype=float))[..., np.newaxis]


def rotate(D: np.ndarray, eta: np.ndarray, angles) -> None:
    """D <- G D G^T, eta <- G eta in place, G block diagonal of [[cos a, -sin a], [sin a, cos a]].

    Angle angles[j] turns frequency j's (sin, cos) pair. D and eta are packed
    as for apply_forgetting, and angles (..., n/2) broadcasts like its
    prior_variance. Elementwise, so equal states stay bitwise equal; zero
    angles change nothing.

    The lower triangle of the turned matrix reads no entry of the strict
    upper triangle but A[2p, 2p+1] in each diagonal block p, so only those
    are copied from A[2p+1, 2p] after unpacking.
    """
    angles = np.asarray(angles, dtype=float)
    n = eta.shape[-1]
    if n % 2:
        raise ValueError(f"states of odd dimension {n} have no feature pairs to turn: "
                         f"D {D.shape}, eta {eta.shape}, angles {angles.shape}")
    if (D.shape != eta.shape[:-1] + (n * (n + 1) // 2,) or D.dtype != np.float64
            or angles.shape[-1:] != (n // 2,)):
        raise ValueError(
            f"rows D {D.dtype} {D.shape} and eta {eta.shape} are not packed float64 states "
            f"of the {2 * angles.shape[-1]} features the angles {angles.shape} turn"
        )
    if not angles.any():
        return
    c = np.broadcast_to(np.cos(angles), D.shape[:-1] + (n // 2,))
    s = np.broadcast_to(np.sin(angles), c.shape)
    even = np.arange(0, n, 2)
    for i in np.ndindex(D.shape[:-1]):
        a = _lower(D[i], n)
        a[even, even + 1] = a[even + 1, even]
        rc, rs = c[i][:, None], s[i][:, None]
        a[0::2], a[1::2] = rc * a[0::2] - rs * a[1::2], rs * a[0::2] + rc * a[1::2]
        a[:, 0::2], a[:, 1::2] = (c[i] * a[:, 0::2] - s[i] * a[:, 1::2],
                                  s[i] * a[:, 0::2] + c[i] * a[:, 1::2])
        D[i] = lapack.dtrttp(a, uplo="L")[0]
    x0, x1 = eta[..., 0::2], eta[..., 1::2]
    eta[..., 0::2], eta[..., 1::2] = c * x0 - s * x1, s * x0 + c * x1
