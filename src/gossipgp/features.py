"""Spectral sampling of ARD-RBF kernels and the random Fourier feature map.

A stationary kernel is approximated by k(x, x') ~ phi(x)^T phi(x') with

    phi(x) = (1/sqrt(J)) [sin(x^T v_1), cos(x^T v_1), ..., sin(x^T v_J), cos(x^T v_J)]

where the frequency rows v_j are drawn from the kernel's spectral density.
For an ARD RBF kernel with lengthscales l_1..l_d the spectral density is
N(0, diag(1/l_1^2, ..., 1/l_d^2)); a temporal lengthscale appends one more
column with scale 1/l_t (product kernel k_s * k_t).

Time enters the projection as x^T v_j + t v_{j,time}, so shifting it by t
turns each (sin, cos) pair by v_{j,time} t: phi(x, t) = R(t) phi(x, 0) with
R(t) block diagonal and orthogonal, and phi(x, t)^T w = phi(x, 0)^T v for
v = R(t)^T w. States are kept in v's frame (dynamics.rotate), so
feature_matrix takes spatial inputs and gives phi(x, 0).

All agents of a network must evaluate the same basis, so frequency sampling
is strictly deterministic in (spec, J, seed).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._lapack import blas

__all__ = [
    "KernelSpec",
    "FeatureMap",
    "sample_frequencies",
    "feature_matrix",
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
        for name in ("temporal_lengthscale", "prior_variance", "obs_variance"):
            value = getattr(self, name)
            if value is not None and not 0 < value < np.inf:
                raise ValueError(f"{name} must be finite and strictly positive, got {value}")

    @property
    def spatial_dim(self) -> int:
        return len(self.spatial_lengthscales)

    def scales(self) -> np.ndarray:
        """Per-column lengthscales of the frequencies, the temporal one last."""
        ls = list(self.spatial_lengthscales)
        if self.temporal_lengthscale is not None:
            ls.append(self.temporal_lengthscale)
        return np.asarray(ls, dtype=float)


@dataclass(frozen=True)
class FeatureMap:
    """Sampled spectral frequencies defining a 2J-dimensional embedding.

    frequencies: J x p matrix, row j is the frequency v_j.
    seed: the seed the frequencies were drawn with (reproducibility tag).
    timed: whether the last column of frequencies is the time's, v_time.
    """

    frequencies: np.ndarray = field(repr=False)
    seed: int
    timed: bool = False

    def __post_init__(self):
        V = np.asarray(self.frequencies, dtype=float)
        if V.ndim != 2:
            raise ValueError("frequencies must be a 2-D matrix")
        V.setflags(write=False)
        object.__setattr__(self, "frequencies", V)

    @property
    def num_features(self) -> int:
        """J, the number of frequencies."""
        return self.frequencies.shape[0]

    @property
    def spatial_dim(self) -> int:
        return self.frequencies.shape[1] - self.timed


def sample_frequencies(spec: KernelSpec, J: int, seed: int) -> FeatureMap:
    """Draw J spectral frequencies for an ARD RBF kernel, deterministically.

    Each row is an independent N(0, diag(lengthscales)^-2) draw, one column
    per spatial lengthscale of `spec`; a temporal lengthscale appends one
    extra column with scale 1/l_t. The same (spec, J, seed) always
    reproduces the identical matrix bit-for-bit.
    """
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    scales = spec.scales()
    # Draw standard normals first, then scale columns: the map with a time
    # column is the spatial-only map on per-dimension-scaled inputs.
    V = rng.standard_normal((J, scales.size)) / scales[np.newaxis, :]
    return FeatureMap(frequencies=V, seed=seed, timed=spec.temporal_lengthscale is not None)


def feature_matrix(fm: FeatureMap, X: np.ndarray) -> np.ndarray:
    """Phi (2J x N, Fortran-ordered) whose column i is phi at t = 0 of spatial input row i of X."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be an N x d matrix, got shape {X.shape}")
    d = fm.spatial_dim
    if X.shape[1] != d:
        raise ValueError(f"input dimension {X.shape[1]} does not match spatial columns {d}")
    # J x N projections V X^T, BLAS reading X^T in place.
    proj = blas.dgemm(1.0, fm.frequencies[:, :d].T, X.T, trans_a=True)
    J = fm.num_features
    Phi = np.empty((2 * J, X.shape[0]), order="F")
    np.sin(proj, out=Phi[0::2])
    np.cos(proj, out=Phi[1::2])
    Phi /= np.sqrt(J)
    return Phi
