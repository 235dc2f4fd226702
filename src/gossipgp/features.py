"""Spectral sampling of ARD-RBF kernels and the random Fourier feature map.

A stationary kernel is approximated by k(x, x') ~ phi(x)^T phi(x') with

    phi(x) = (1/sqrt(J)) [sin(x^T v_1), cos(x^T v_1), ..., sin(x^T v_J), cos(x^T v_J)]

where the frequency rows v_j are drawn from the kernel's spectral density.
For an ARD RBF kernel with lengthscales l_1..l_d the spectral density is
N(0, diag(1/l_1^2, ..., 1/l_d^2)); a temporal lengthscale appends one more
column with scale 1/l_t (product kernel k_s * k_t).

Time enters the projection additively, x^T v_j + t v_{j,time} with the time
column last, so shifting the time by t rotates each frequency's (sin, cos)
row pair by the angle a_j = v_{j,time} t:

    sin(p + a_j) = sin(p) cos(a_j) + cos(p) sin(a_j)
    cos(p + a_j) = cos(p) cos(a_j) - sin(p) sin(a_j)

So features of fixed sites, built once at t = 0, give their features at any
t through shift_time: elementwise passes with no trigonometry per site.

All agents of a network must evaluate the same basis, so frequency sampling
is strictly deterministic in (spec, J, seed).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas

__all__ = [
    "KernelSpec",
    "FeatureMap",
    "sample_frequencies",
    "feature_matrix",
    "shift_time",
]


@dataclass(frozen=True)
class KernelSpec:
    """ARD RBF kernel with optional temporal factor and model variances.

    spatial_lengthscales: one positive lengthscale per spatial input dimension.
    temporal_lengthscale: positive lengthscale of the temporal RBF factor, or
        None for a purely spatial (static) kernel.
    prior_variance: weight-prior variance sigma_theta^2.
    obs_variance: observation noise variance sigma_obs^2.
    """

    spatial_lengthscales: tuple[float, ...]
    temporal_lengthscale: float | None = None
    prior_variance: float = 1.0
    obs_variance: float = 0.1

    def __post_init__(self):
        ls = tuple(float(l) for l in np.atleast_1d(self.spatial_lengthscales))
        object.__setattr__(self, "spatial_lengthscales", ls)
        if len(ls) == 0:
            raise ValueError("spatial_lengthscales must be non-empty")
        if any(l <= 0 or not np.isfinite(l) for l in ls):
            raise ValueError(f"lengthscales must be strictly positive, got {ls}")
        if self.temporal_lengthscale is not None and self.temporal_lengthscale <= 0:
            raise ValueError("temporal_lengthscale must be strictly positive")
        if self.prior_variance <= 0:
            raise ValueError("prior_variance must be strictly positive")
        if self.obs_variance <= 0:
            raise ValueError("obs_variance must be strictly positive")

    @property
    def spatial_dim(self) -> int:
        return len(self.spatial_lengthscales)

    @property
    def input_dim(self) -> int:
        """Input dimension after any time augmentation."""
        return self.spatial_dim + (0 if self.temporal_lengthscale is None else 1)

    def scales(self) -> np.ndarray:
        """Per-column lengthscale vector of the (possibly augmented) input."""
        ls = list(self.spatial_lengthscales)
        if self.temporal_lengthscale is not None:
            ls.append(self.temporal_lengthscale)
        return np.asarray(ls, dtype=float)


@dataclass(frozen=True)
class FeatureMap:
    """Sampled spectral frequencies defining a 2J-dimensional embedding.

    frequencies: J x p matrix, row j is the frequency v_j.
    num_features: J.
    seed: the seed the frequencies were drawn with (reproducibility tag).
    """

    frequencies: np.ndarray = field(repr=False)
    num_features: int
    seed: int

    def __post_init__(self):
        V = np.asarray(self.frequencies, dtype=float)
        if V.ndim != 2:
            raise ValueError("frequencies must be a 2-D matrix")
        if V.shape[0] != self.num_features:
            raise ValueError(
                f"row count {V.shape[0]} does not match num_features {self.num_features}"
            )
        V.setflags(write=False)
        object.__setattr__(self, "frequencies", V)

    @property
    def input_dim(self) -> int:
        return self.frequencies.shape[1]


def sample_frequencies(spec: KernelSpec, J: int, d: int, seed: int) -> FeatureMap:
    """Draw J spectral frequencies for an ARD RBF kernel, deterministically.

    Each row is an independent N(0, diag(lengthscales)^-2) draw; a temporal
    lengthscale on `spec` appends one extra column with scale 1/l_t. The same
    (spec, J, d, seed) always reproduces the identical matrix bit-for-bit.
    """
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if spec.spatial_dim != d:
        raise ValueError(
            f"lengthscale vector has length {spec.spatial_dim}, expected d={d}"
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    scales = spec.scales()
    # Draw standard normals first, then scale columns: the map with a time
    # column is the spatial-only map on per-dimension-scaled inputs.
    V = rng.standard_normal((J, scales.size)) / scales[np.newaxis, :]
    return FeatureMap(frequencies=V, num_features=J, seed=seed)


def feature_matrix(fm: FeatureMap, X: np.ndarray) -> np.ndarray:
    """Feature matrix Phi (2J x N) whose column i is phi of row i of X."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be an N x p matrix, got shape {X.shape}")
    if X.shape[1] != fm.input_dim:
        raise ValueError(
            f"input dimension {X.shape[1]} does not match frequency columns {fm.input_dim}"
        )
    # J x N projections V X^T; the transposed views are Fortran-ordered, so
    # BLAS reads both operands in place.
    proj = blas.dgemm(1.0, fm.frequencies.T, X.T, trans_a=True)
    J = fm.num_features
    Phi = np.empty((2 * J, X.shape[0]), dtype=float)
    Phi[0::2, :] = np.sin(proj)
    Phi[1::2, :] = np.cos(proj)
    Phi /= np.sqrt(J)
    return Phi


def shift_time(fm: FeatureMap, Phi0: np.ndarray, t: float, out: np.ndarray) -> np.ndarray:
    """Write into out the features at time t of the inputs Phi0 was built for at t = 0.

    Phi0 is feature_matrix(fm, X) for inputs X whose last column, the time,
    is 0; out (same shape, not overlapping Phi0) receives what
    feature_matrix(fm, X) would give with that column set to t, up to the
    rounding of the angles. At t = 0 out is a bitwise copy of Phi0.
    """
    Phi0 = np.asarray(Phi0)
    J = fm.num_features
    if Phi0.ndim != 2 or Phi0.shape[0] != 2 * J:
        raise ValueError(f"Phi0 must be a {2 * J} x N feature matrix, got shape {Phi0.shape}")
    if out.shape != Phi0.shape or out.dtype != np.float64:
        raise ValueError(
            f"out must be a float64 array of shape {Phi0.shape}, "
            f"got {out.dtype} of shape {out.shape}"
        )
    if np.may_share_memory(out, Phi0):
        raise ValueError("out must not overlap Phi0")
    if t == 0:  # exactly Phi0, signed zeros included
        np.copyto(out, Phi0)
        return out
    angle = fm.frequencies[:, -1] * float(t)
    c, s = np.cos(angle)[:, np.newaxis], np.sin(angle)[:, np.newaxis]
    S0, C0, S, C = Phi0[0::2], Phi0[1::2], out[0::2], out[1::2]
    np.multiply(S0, c, out=S)
    scratch = np.multiply(C0, s)
    S += scratch
    np.multiply(C0, c, out=C)
    np.multiply(S0, s, out=scratch)
    C -= scratch
    return out
