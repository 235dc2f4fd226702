"""A message-level reference executor for gossip (a test helper, not library code).

The library simulates L rounds of gossip as one product with W^L. This
executor runs them as agents would: each agent holds its own vector and
knows only its own degree and its neighbours' degrees. In a synchronous
round every agent sends its current vector to each neighbour, then combines
what it received with the Metropolis weights it computes from those
degrees. Every float sent is counted per directed link, so an operator can
be checked for what it computes and for the traffic it claims.
"""
import numpy as np


def edge_weights(topo):
    """{(i, j): w}: the weight agent i gives neighbour j's message, 1 / (1 + max(deg_i, deg_j))."""
    A = topo.adjacency
    degree = {i: int(A[i].sum()) for i in range(topo.num_agents)}
    return {(i, int(j)): 1.0 / (1.0 + max(degree[i], degree[int(j)]))
            for i in range(topo.num_agents) for j in np.flatnonzero(A[i])}


def run_gossip(values, topo, cfg):
    """(result, sent) of cfg.rounds message-passing rounds over topo.

    result[k] is what agent k adds to its state: K times its vector after the
    rounds under mode sum, its own message under local. sent[(i, j)] counts
    the floats agent i sent to neighbour j; local sends nothing.
    """
    K = topo.num_agents
    held = [np.array(v, dtype=float) for v in values]
    sent = {}
    if cfg.mode == "local":
        return np.array(held), sent
    weights = edge_weights(topo)
    for _ in range(cfg.rounds):
        inbox = [[] for _ in range(K)]
        for (i, j) in weights:
            inbox[j].append((i, held[i].copy()))
            sent[i, j] = sent.get((i, j), 0) + held[i].size
        held = [_combine(k, held[k], inbox[k], weights) for k in range(K)]
    return K * np.array(held), sent


def _combine(k, own, inbox, weights):
    """Agent k's Metropolis average of its own vector and the (sender, vector) messages it received."""
    inbox_weights = [weights[k, sender] for sender, _ in inbox]
    out = (1.0 - sum(inbox_weights)) * own
    for w, (_, vector) in zip(inbox_weights, inbox):
        out += w * vector
    return out
