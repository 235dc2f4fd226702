"""Information-form posterior of the random-feature GP linear model.

The model is y = phi(x)^T theta + noise with theta ~ N(0, sigma_theta^2 I).
The posterior after T batches is Gaussian with

    D = sigma_obs^-2 sum_t Phi_t Phi_t^T + sigma_theta^-2 I    (precision)
    eta = sigma_obs^-2 sum_t Phi_t y_t                         (information vector)
    Sigma = D^-1,  mu = D^-1 eta.

Each batch contributes an additive increment (P, s) with
P = sigma_obs^-2 Phi Phi^T and s = sigma_obs^-2 Phi y, which makes the
recursion online (D += P, eta += s, in place) and makes network-wide fusion
a plain sum of per-agent increments. The symmetric D and P are held as their
packed lower triangle, LAPACK's 'L' column-major layout of n(n+1)/2 floats
(for a symmetric A, its row-major upper triangle).

Predictions and covariance roots of a state come from one Cholesky factor
D = L L^T (factorize): the predictive variance at phi is |L^-1 phi|^2 plus
the noise variance, and the root of Sigma is B = L^-1. A prediction at N
points forms Z = L^-1 Phi by a triangular solve when N < n, and as B Phi, a
triangular product after one inversion (posterior_root), when N >= n.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

from .features import KernelSpec

__all__ = [
    "InfoState",
    "PosteriorFactor",
    "NumericalDegeneracyError",
    "prior_state",
    "apply_increment",
    "factorize",
    "posterior_root",
    "predict_batch",
]

# Relative jitter added once if the Cholesky factorization fails.
_JITTER_SCALE = 1e-10


class NumericalDegeneracyError(RuntimeError):
    """Raised when the information matrix cannot be factorized as SPD."""


@functools.lru_cache(maxsize=8)
def _strict_upper(dim: int) -> np.ndarray:
    """Read-only mask of the strict upper triangle of a dim x dim matrix."""
    mask = np.triu(np.ones((dim, dim), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


@functools.lru_cache(maxsize=8)
def _packed_layout(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only flat indices of A[i >= j] in a C-ordered A, and packed offsets of diag(A)."""
    j, i = np.triu_indices(dim)
    lower, diagonal = i * dim + j, np.flatnonzero(i == j)
    lower.flags.writeable = diagonal.flags.writeable = False
    return lower, diagonal


def _lower(D: np.ndarray, dim: int) -> np.ndarray:
    """A fresh Fortran-ordered dim x dim array whose lower triangle is the packed D."""
    return lapack.dtpttr(dim, D, uplo="L")[0]


@dataclass
class InfoState:
    """Information-form Gaussian posterior of one RF-GP model.

    D is the packed precision. D and eta may be views into a run's stacked
    state buffers; apply_increment and apply_forgetting update such arrays
    in place, so copy a state that must outlive the next update.
    Single-writer per agent and per ensemble member.
    """

    D: np.ndarray = field(repr=False)
    eta: np.ndarray = field(repr=False)
    obs_variance: float
    prior_variance: float

    def __post_init__(self):
        self.D = np.asarray(self.D, dtype=float)
        self.eta = np.asarray(self.eta, dtype=float)
        if self.eta.ndim != 1 or self.D.shape != (self.dim * (self.dim + 1) // 2,):
            raise ValueError(f"D shape {self.D.shape} does not pack eta shape {self.eta.shape}")
        if self.obs_variance <= 0 or self.prior_variance <= 0:
            raise ValueError("variances must be strictly positive")

    @property
    def dim(self) -> int:
        return self.eta.shape[0]


def prior_state(spec: KernelSpec, J: int) -> InfoState:
    """Prior information state: D = I / sigma_theta^2, eta = 0."""
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    dim = 2 * J
    return InfoState(
        D=np.eye(dim).ravel()[_packed_layout(dim)[0]] / spec.prior_variance,
        eta=np.zeros(dim),
        obs_variance=spec.obs_variance,
        prior_variance=spec.prior_variance,
    )


def apply_increment(D: np.ndarray, eta: np.ndarray, P: np.ndarray, s: np.ndarray) -> None:
    """Add increments in place: D += P, eta += s.

    D (..., dim(dim+1)/2) and eta (..., dim) are one state's packed arrays
    or a stack of them, and P and s must have exactly their shapes.
    """
    P = np.asarray(P, dtype=float)
    s = np.asarray(s, dtype=float)
    n = eta.shape[-1]
    if (P.shape, s.shape, D.shape) != (D.shape, eta.shape, eta.shape[:-1] + (n * (n + 1) // 2,)):
        raise ValueError(
            f"increment shapes P {P.shape}, s {s.shape} do not match state shapes "
            f"D {D.shape}, eta {eta.shape}"
        )
    D += P
    eta += s


@dataclass(frozen=True)
class PosteriorFactor:
    """One factorization of a posterior: D = L L^T and the mean mu = D^-1 eta.

    Only the lower triangle of L is meaningful; the strict upper triangle
    holds whatever cho_factor left there. Predictions and the covariance
    root of one state both come from one PosteriorFactor.
    """

    L: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)
    obs_variance: float
    jitter: float = 0.0  # added to the diagonal of D; 0.0 unless a first Cholesky failed

    @property
    def dim(self) -> int:
        return self.L.shape[0]


def factorize(state: InfoState) -> PosteriorFactor:
    """Cholesky factor of D and the posterior mean it gives.

    If D is not numerically SPD, one retry factorizes D + jitter I, and the
    factor records the jitter. Each attempt unpacks D afresh, since
    cho_factor overwrites its input.
    """
    jitter = 0.0
    try:
        L = scipy.linalg.cho_factor(_lower(state.D, state.dim), lower=True, overwrite_a=True,
                                    check_finite=False)[0]
    except scipy.linalg.LinAlgError:
        a = _lower(state.D, state.dim)
        jitter = _JITTER_SCALE * np.trace(a) / state.dim
        a[np.diag_indices(state.dim)] += jitter
        try:
            L = scipy.linalg.cho_factor(a, lower=True, overwrite_a=True, check_finite=False)[0]
        except scipy.linalg.LinAlgError:
            smallest = scipy.linalg.eigvalsh(_lower(state.D, state.dim), check_finite=False)[0]
            raise NumericalDegeneracyError(
                f"information matrix is not positive definite even after jitter "
                f"{jitter:.3e}; smallest eigenvalue {smallest:.6e}"
            ) from None
    mu = scipy.linalg.cho_solve((L, True), state.eta, check_finite=False)
    return PosteriorFactor(L=L, mu=mu, obs_variance=state.obs_variance, jitter=jitter)


def posterior_root(factor: PosteriorFactor) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean mu and a covariance root B with Sigma = B^T B.

    B = L^-1 is lower triangular, so the dense D^-1 is never formed.
    """
    inv, info = lapack.dtrtri(factor.L, lower=1)
    if info != 0:
        raise NumericalDegeneracyError(f"Cholesky factor is singular (dtrtri info {info})")
    # dtrtri leaves the strict upper triangle of L's storage in its output.
    np.copyto(inv, 0.0, where=_strict_upper(factor.dim))
    return factor.mu, inv


def predict_batch(
    factor: PosteriorFactor, Phi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Predictive means and variances at the columns of the feature matrix Phi.

    mean_i = phi_i^T mu and var_i = |L^-1 phi_i|^2 + sigma_obs^2, since
    phi^T Sigma phi = |L^-1 phi|^2 with D = L L^T. Z = L^-1 Phi is one
    triangular solve below N = n points, and B Phi with B = L^-1 from N = n
    on, where the product is the faster of the two.
    """
    Phi = np.asarray(Phi, dtype=float)
    if Phi.ndim != 2 or Phi.shape[0] != factor.dim:
        raise ValueError(
            f"feature matrix of shape {Phi.shape} does not match state dim {factor.dim}"
        )
    if Phi.shape[1] == 0:
        return np.zeros(0), np.zeros(0)
    # dgemv reads a Fortran-ordered Phi in place. Both paths write Z^T =
    # Phi^T L^-T into a copy of Phi^T: Z = L^-1 Phi from the left raised the
    # peak RSS of 3,600 predictions at n = 100 by 2.5 MB.
    means = blas.dgemv(1.0, Phi, factor.mu, trans=1)
    if Phi.shape[1] >= factor.dim:
        B = posterior_root(factor)[1]
        Z = blas.dtrmm(1.0, B, Phi.T, side=1, lower=1, trans_a=1).T
    else:
        Z = blas.dtrsm(1.0, factor.L, Phi.T, side=1, lower=1, trans_a=1).T
    variances = np.einsum("jn,jn->n", Z, Z) + factor.obs_variance
    if not np.all(np.isfinite(variances)):
        raise NumericalDegeneracyError("predictive variance overflows")
    return means, variances
