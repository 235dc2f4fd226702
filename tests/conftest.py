"""Helpers shared by the test modules."""
import numpy as np
import pytest


@pytest.fixture(scope="session")
def features_at():
    """features_at(fm, X, t): the features of spatial inputs X at time t.

    The library featurizes at t = 0 only and turns the states instead
    (dynamics.rotate). This builds phi([x, t]) straight from the definition,
    sines and cosines of the projections [x, t]^T v_j, as the oracle that
    rotation is checked against.
    """
    def featurize(fm, X, t):
        X = np.asarray(X, dtype=float)
        proj = np.column_stack([X, np.full(len(X), float(t))]) @ fm.frequencies.T
        Phi = np.empty((2 * fm.num_features, len(X)))
        Phi[0::2], Phi[1::2] = np.sin(proj).T, np.cos(proj).T
        return Phi / np.sqrt(fm.num_features)

    return featurize


def pack(A):
    """The packed D of a symmetric A: its lower triangle in LAPACK's 'L' layout."""
    A = np.asarray(A, dtype=float)
    return A.T[np.triu_indices(len(A))]


def unpack(D, dim):
    """The full symmetric dim x dim matrix of a packed D, its row-major upper triangle."""
    A = np.zeros((dim, dim))
    A[np.triu_indices(dim)] = D
    return np.where(np.tri(dim, dtype=bool), A.T, A)
