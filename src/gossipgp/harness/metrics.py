"""Evaluation metrics and the deterministic metrics.csv format.

The 2-Wasserstein distance between Gaussians takes covariance roots: with
Sigma_i = B_i^T B_i (for a posterior in information form, B = L^-1 where
D = L L^T) and A = B1 B2^T,

    W2^2 = |mu1 - mu2|^2 + ||B1||_F^2 + ||B2||_F^2 - 2 ||A||_*,
    ||A||_* = sum_i sqrt(lambda_i(A A^T)),

since tr(Sigma_i) = ||B_i||_F^2 and the singular values of A are the square
roots of the eigenvalues of Sigma1 Sigma2, whose square roots sum to the
cross term tr((Sigma2^1/2 Sigma1 Sigma2^1/2)^1/2) (Dowson & Landau 1982).

An ensemble's distance is the evidence-weighted sum S = sum_m w_m W2_m,
accumulated in member order. Since ||A||_* >= 0, each distance is bounded by

    u_m = sqrt(|mu1 - mu2|^2 + ||B1||_F^2 + ||B2||_F^2),

and u_m is computed with the very operations that begin W2^2, so the
computed W2_m never exceeds the computed u_m. A term with
w_m u_m < spacing(S)/4 is below half an ulp of the running sum S >= 0, so
adding it would round back to S: its W2 is not computed and the sum is
bitwise the one that computes every term. The first term (S = 0) and any
term whose bound is not finite are always computed, so a non-finite root
still raises. An upper bound on ||B1||_F^2 in its place only raises u_m, so
a term negligible even then needs no B1 (see _negligible).

Floats are written with repr(), which round-trips float64 exactly, so two
runs that produce bitwise-equal numbers produce byte-identical files.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import blas

from ..ensemble import mixture_log_density

__all__ = [
    "rmse",
    "npll",
    "wasserstein2_gaussians",
    "MetricsRecord",
    "write_metrics_csv",
    "read_metrics_csv",
]

CSV_HEADER = ("t", "agent_id", "rmse", "npll", "w2_to_centralized")


def rmse(predictions: np.ndarray, truths: np.ndarray) -> float:
    predictions = np.asarray(predictions, dtype=float)
    truths = np.asarray(truths, dtype=float)
    if predictions.shape != truths.shape:
        raise ValueError(
            f"shape mismatch: predictions {predictions.shape}, truths {truths.shape}"
        )
    if predictions.size == 0:
        raise ValueError("rmse over an empty set is undefined")
    return float(np.sqrt(np.mean((predictions - truths) ** 2)))


def npll(member_means, member_variances, truths, weights=None) -> float:
    """Mean negative predictive log-likelihood of truths.

    member_means / member_variances may be (n,) for a single predictive
    Gaussian per point or (M, n) for an M-component mixture; in the mixture
    case the exact mixture density is scored, not a moment-matched Gaussian.
    """
    means = np.asarray(member_means, dtype=float)
    variances = np.asarray(member_variances, dtype=float)
    truths = np.asarray(truths, dtype=float)
    if means.ndim == 1:
        means = means[np.newaxis, :]
        variances = variances[np.newaxis, :]
    if weights is None:
        if means.shape[0] != 1:
            raise ValueError("weights are required for a multi-member mixture")
        weights = np.ones(1)
    weights = np.asarray(weights, dtype=float)
    if truths.size == 0:
        raise ValueError("npll over an empty set is undefined")
    log_densities = mixture_log_density(weights, means, variances, truths)
    return float(-np.mean(log_densities))


def wasserstein2_gaussians(mu1, B1, mu2, B2) -> float:
    """2-Wasserstein distance between N(mu1, B1^T B1) and N(mu2, B2^T B2).

    B1 and B2 are covariance roots of one shape (see the module docstring).
    """
    mu1 = np.asarray(mu1, dtype=float)
    mu2 = np.asarray(mu2, dtype=float)
    B1 = np.asarray(B1, dtype=float)
    B2 = np.asarray(B2, dtype=float)
    if B1.ndim != 2 or B1.shape != B2.shape or mu1.shape != mu2.shape \
            or mu1.shape != (B1.shape[1],):
        raise ValueError(
            f"shapes do not match: mu {mu1.shape}, {mu2.shape}; roots {B1.shape}, {B2.shape}"
        )
    for name, B in (("B1", B1), ("B2", B2)):
        if not np.all(np.isfinite(B)):
            raise ValueError(f"covariance root {name} holds non-finite values")
    # A = B1 B2^T; the transposed views are Fortran-ordered, so BLAS reads
    # them in place.
    A = blas.dgemm(1.0, B1.T, B2.T, trans_a=True)
    if not np.all(np.isfinite(A)):
        raise ValueError("the cross product B1 B2^T of the covariance roots overflows")
    # Scaling A in place by 2^-e (largest entry in [0.5, 1)) keeps the Gram
    # A A^T finite; a power of two scales exactly, so ||A||_* = 2^e ||2^-e A||_*.
    _, e = np.frexp(max(A.max(), -A.min()))
    gram = blas.dsyrk(1.0, np.ldexp(A, -e, out=A))  # upper triangle
    eig = scipy.linalg.eigvalsh(gram, lower=False, overwrite_a=True, check_finite=False)
    nuclear = float(np.ldexp(np.sum(np.sqrt(np.clip(eig, 0.0, None))), e))
    trace1, trace2 = _sq_frobenius(B1), _sq_frobenius(B2)
    d2 = float(np.sum((mu1 - mu2) ** 2)) + trace1 + trace2 - 2.0 * nuclear
    if not np.isfinite(d2):
        raise ValueError(f"squared distance {d2} is not finite")
    if d2 < -1e-10 * max(trace1 + trace2, 1.0):
        raise ValueError(f"negative squared distance {d2:.3e} beyond tolerance")
    return float(np.sqrt(max(d2, 0.0)))


def _add_w2(total, w, root, other, other_trace) -> float:
    """total + w * wasserstein2_gaussians(*root, *other), one term of a weighted sum.

    root and other are (mu, B) pairs, and other_trace is _sq_frobenius of
    other's B, so a caller that scores many roots against the same other
    computes it once. Where the term cannot change total (see the module
    docstring), its W2 is not computed and total is returned, so terms
    added in member order from 0.0 give bitwise the full sum. The bound
    w * u is computed as W2 computes its parts; a non-finite root or weight
    makes it inf or nan, silently, so the term is computed and W2 reports it.
    """
    (mu1, B1), (mu2, B2) = root, other
    if _negligible(total, w, mu1, mu2, _sq_frobenius(B1), other_trace):
        return total
    return float(total + w * wasserstein2_gaussians(mu1, B1, mu2, B2))


def _negligible(total, w, mu1, mu2, trace1, trace2) -> bool:
    """Whether total > 0 and w * sqrt(|mu1 - mu2|^2 + trace1 + trace2) < spacing(total) / 4."""
    with np.errstate(all="ignore"):
        d = np.asarray(mu1, dtype=float) - np.asarray(mu2, dtype=float)
        u = np.sqrt(float(np.sum(d**2)) + trace1 + trace2)
        return total > 0.0 and float(w * u) < np.spacing(total) / 4


def _sq_frobenius(B) -> float:
    """||B||_F^2, computed as W2 computes it; inf or nan, silently, for a non-finite B."""
    with np.errstate(all="ignore"):
        return float(np.einsum("ij,ij->", B, B))


@dataclass(frozen=True)
class MetricsRecord:
    """One metrics.csv row: per agent, per evaluated epoch."""

    t: int
    agent_id: int
    rmse: float | None = None
    npll: float | None = None
    w2_to_centralized: float | None = None


def _cell(value) -> str:
    return "" if value is None else repr(float(value))


def _row(r: MetricsRecord) -> list:
    """The metrics.csv cells of one record."""
    return [r.t, r.agent_id, _cell(r.rmse), _cell(r.npll), _cell(r.w2_to_centralized)]


def write_metrics_csv(path, records: list[MetricsRecord]) -> None:
    """Write records in (t, agent_id) order with repr() float formatting."""
    ordered = sorted(records, key=lambda r: (r.t, r.agent_id))
    with open(path, "w", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in ordered:
            writer.writerow(_row(r))


def read_metrics_csv(path) -> list[MetricsRecord]:
    records = []
    with open(path, "r", newline="") as fp:
        reader = csv.reader(fp)
        header = next(reader)
        if tuple(header) != CSV_HEADER:
            raise ValueError(f"unexpected metrics header {header!r}")
        for row in reader:
            t, agent_id, r_, n_, w_ = row
            records.append(
                MetricsRecord(
                    t=int(t),
                    agent_id=int(agent_id),
                    rmse=float(r_) if r_ else None,
                    npll=float(n_) if n_ else None,
                    w2_to_centralized=float(w_) if w_ else None,
                )
            )
    return records
