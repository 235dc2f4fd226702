"""Network topology, Metropolis mixing weights, and additive consensus.

Agents approximate the network-wide sums of their local increments by L
synchronous rounds of neighbor averaging with the Metropolis rule

    W[i][j] = 1 / (1 + max(deg_i, deg_j))   for edges {i, j},
    W[i][i] = 1 - sum_{j != i} W[i][j],

which is symmetric, doubly stochastic, and needs only local degrees. The
rounds drive every agent to the network average; a final scale by K converts
the average fixed point into the sum. On a complete graph one round is exact.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ._lapack import blas

__all__ = [
    "Topology",
    "ConsensusConfig",
    "build_topology",
    "metropolis_weights",
    "consensus_sum",
]

TOPOLOGY_KINDS = ("ring", "complete", "grid", "custom")


@dataclass(frozen=True)
class Topology:
    """Undirected connected communication graph over K agents."""

    num_agents: int
    adjacency: np.ndarray = field(repr=False)

    def __post_init__(self):
        A = np.asarray(self.adjacency, dtype=bool)
        K = self.num_agents
        if K < 1:
            raise ValueError(f"num_agents must be >= 1, got {K}")
        if A.shape != (K, K):
            raise ValueError(f"adjacency shape {A.shape} does not match K={K}")
        if not np.array_equal(A, A.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(A)):
            raise ValueError("adjacency must have a zero diagonal")
        if not _is_connected(A):
            raise ValueError("topology is not connected")
        A.setflags(write=False)
        object.__setattr__(self, "adjacency", A)

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)


@dataclass(frozen=True)
class ConsensusConfig:
    """Number of synchronous Metropolis mixing rounds L, and what agents share.

    mode sum gossips every increment to the network sum; local keeps each
    agent's increments its own (no gossip).
    """

    rounds: int = 1
    mode: str = "sum"

    def __post_init__(self):
        if self.rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {self.rounds}")
        if self.mode not in ("sum", "local"):
            raise ValueError(f"mode must be sum or local, got {self.mode!r}")


def _is_connected(A: np.ndarray) -> bool:
    K = A.shape[0]
    seen = np.zeros(K, dtype=bool)
    queue = deque([0])
    seen[0] = True
    while queue:
        i = queue.popleft()
        for j in np.flatnonzero(A[i]):
            if not seen[j]:
                seen[j] = True
                queue.append(j)
    return bool(seen.all())


def build_topology(
    kind: str, K: int, custom_edges: Iterable[tuple[int, int]] | None = None
) -> Topology:
    """Construct a named topology: ring, complete, grid, or custom edge list.

    A ring needs K >= 3 for a proper cycle; K <= 2 degenerates to complete.
    The grid is a near-square 4-neighbor lattice. Custom graphs must be
    connected; an edge list for any other kind is an error, not ignored.
    """
    if kind not in TOPOLOGY_KINDS:
        raise ValueError(f"unknown topology kind {kind!r}")
    if custom_edges is not None and kind != "custom":
        raise ValueError(f"custom_edges needs topology kind custom, not {kind!r}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    A = np.zeros((K, K), dtype=bool)
    if kind == "complete" or (kind == "ring" and K <= 2):
        A[:] = True
        np.fill_diagonal(A, False)
    elif kind == "ring":
        for i in range(K):
            j = (i + 1) % K
            A[i, j] = A[j, i] = True
    elif kind == "grid":
        rows, cols = _grid_shape(K)
        for i in range(K):
            r, c = divmod(i, cols)
            if c + 1 < cols:
                A[i, i + 1] = A[i + 1, i] = True
            if r + 1 < rows:
                A[i, i + cols] = A[i + cols, i] = True
    else:  # custom
        if custom_edges is None:
            raise ValueError("custom topology requires an edge list")
        for edge in custom_edges:
            ids = list(edge) if isinstance(edge, (list, tuple, np.ndarray)) else []
            if len(ids) != 2 or not all(
                isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in ids
            ):
                raise ValueError(f"custom edge {edge!r} must be a pair of integer agent ids")
            i, j = ids
            if not (0 <= i < K and 0 <= j < K) or i == j:
                raise ValueError(f"invalid edge ({i}, {j}) for K={K}")
            A[i, j] = A[j, i] = True
    return Topology(num_agents=K, adjacency=A)


def _grid_shape(K: int) -> tuple[int, int]:
    """Factor K into rows x cols, as square as possible, with rows <= cols.

    Node r * cols + c of the grid topology and spatial block (r, c) of a grid
    file's partition (harness.streams) both use this split, so grid
    neighbours own edge-adjacent blocks.
    """
    r = int(np.floor(np.sqrt(K)))
    while K % r:
        r -= 1
    return r, K // r


def metropolis_weights(topo: Topology) -> np.ndarray:
    """Symmetric doubly stochastic mixing matrix from local degrees only."""
    A = topo.adjacency
    deg = topo.degrees()
    K = topo.num_agents
    W = np.zeros((K, K))
    for i in range(K):
        for j in np.flatnonzero(A[i]):
            W[i, j] = 1.0 / (1.0 + max(deg[i], deg[j]))
        W[i, i] = 1.0 - W[i].sum()
    return W


def consensus_sum(
    values: np.ndarray, topo: Topology, cfg: ConsensusConfig, add_to: np.ndarray | None = None
) -> np.ndarray:
    """Add to each agent K W^L times the messages under mode sum, its own under local.

    Axis 0 of `values` is the agent: values[k] is agent k's message, of any
    shape. After L rounds of v_k <- sum_j W[k][j] v_j elementwise, each agent
    holds an approximation of the network average, so K times it
    approximates the network sum. L=0 gives K times each local value. Mode
    local sends nothing: each agent adds its own message, whatever L is.

    The L rounds are applied as one product with W^L, built from the K x K
    matrix, so each message is read once whatever L is. The product adds the
    sums into `add_to` (say the agents' states), so no mixed copy of the
    messages is formed, and returns it; without `add_to`, into a new zero
    array. `add_to` must be a writeable C-contiguous float64 array of the
    shape of `values` that does not overlap them, else ValueError.
    """
    K = topo.num_agents
    V = np.asarray(values, dtype=float)
    if V.ndim == 0 or V.shape[0] != K:
        raise ValueError(f"expected {K} per-agent messages on axis 0, got shape {V.shape}")
    if add_to is None:
        add_to = np.zeros(V.shape)
    elif not (isinstance(add_to, np.ndarray) and add_to.shape == V.shape
              and add_to.dtype == np.float64 and add_to.flags.c_contiguous
              and add_to.flags.writeable and not np.may_share_memory(add_to, V)):
        raise ValueError(f"add_to must be a writeable C-contiguous float64 array of "
                         f"shape {V.shape} that does not overlap the messages")
    if cfg.mode == "local":
        return np.add(add_to, V, out=add_to)
    flat = V.reshape(K, -1)
    W = metropolis_weights(topo)
    WL = np.eye(K)
    for _ in range(cfg.rounds):
        WL = blas.dgemm(1.0, W, WL)
    # add_to^T += K flat^T (W^L)^T: the transposes of the C-ordered flat and
    # add_to are Fortran-ordered views, so BLAS reads the messages and
    # updates the target in place.
    blas.dgemm(float(K), flat.T, WL, beta=1.0, c=add_to.reshape(K, -1).T, trans_b=True,
               overwrite_c=1)
    return add_to
