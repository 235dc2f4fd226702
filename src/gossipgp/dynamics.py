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
states of a network share the frame.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .info_filter import _diagonal

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
    against their leading shape (one value per ensemble member, say).
    """
    if cfg.mode == "static" or cfg.nu == 1.0:
        return
    nu = cfg.nu
    D *= nu
    eta *= nu
    if cfg.mode == "b2p":
        diagonal = _diagonal(eta.shape[-1])
        D[..., diagonal] += ((1.0 - nu) / np.asarray(prior_variance, dtype=float))[..., np.newaxis]


def rotate(D: np.ndarray, eta: np.ndarray, angles) -> None:
    """D <- G D G^T, eta <- G eta in place, G block diagonal of [[cos a, -sin a], [sin a, cos a]].

    Angle angles[j] turns frequency j's (sin, cos) pair. D and eta are packed
    as for apply_forgetting, and angles (..., n/2) broadcasts like its
    prior_variance. Elementwise, so equal states stay bitwise equal; zero
    angles change nothing.
    """
    angles = np.asarray(angles, dtype=float)
    n = eta.shape[-1]
    if (D.shape != eta.shape[:-1] + (n * (n + 1) // 2,) or D.dtype != np.float64
            or angles.shape[-1:] != (n // 2,)):
        raise ValueError(
            f"rows D {D.dtype} {D.shape} and eta {eta.shape} are not packed float64 states "
            f"of the {2 * angles.shape[-1]} features the angles {angles.shape} turn"
        )
    if not angles.any():
        return
    c, s = np.cos(angles), np.sin(angles)
    unpack, pack = _packed_index(n)
    blocks = D[..., unpack].reshape(D.shape[:-1] + (n // 2, 2, n // 2, 2))
    blocks = _turn(blocks, c[..., :, None, None], s[..., :, None, None], axis=-3)
    blocks = _turn(blocks, c[..., None, None, :], s[..., None, None, :], axis=-1)
    D[...] = blocks.reshape(D.shape[:-1] + (n * n,))[..., pack]
    eta[...] = _turn(eta.reshape(eta.shape[:-1] + (n // 2, 2)), c, s, axis=-1).reshape(eta.shape)


def _turn(x: np.ndarray, c, s, axis: int) -> np.ndarray:
    """x with each pair (x0, x1) along axis turned to (c x0 - s x1, s x0 + c x1)."""
    x0, x1 = np.take(x, 0, axis), np.take(x, 1, axis)
    return np.stack([c * x0 - s * x1, s * x0 + c * x1], axis=axis)


@functools.lru_cache(maxsize=8)
def _packed_index(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only gathers between a packed triangle and a C-ordered dim x dim matrix.

    unpack[r, c] is the packed offset of entry (r, c) of a symmetric matrix;
    pack is the flat index of each packed entry A[i >= j], in packed order.
    """
    row, col = np.indices((dim, dim))
    r, c = np.maximum(row, col), np.minimum(row, col)
    unpack = c * dim - c * (c - 1) // 2 + r - c
    j, i = np.triu_indices(dim)
    pack = i * dim + j
    unpack.flags.writeable = pack.flags.writeable = False
    return unpack, pack
