"""Topology construction, Metropolis weights, and additive consensus."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipgp import (
    ConsensusConfig,
    Topology,
    build_topology,
    consensus_sum,
    metropolis_weights,
    robust_increment,
)

from conftest import unpack
from network import edge_weights, run_gossip


class TestBuildTopology:
    def test_ring_degrees(self):
        topo = build_topology("ring", 3)
        assert np.array_equal(topo.degrees(), np.array([2, 2, 2]))

    def test_complete_degrees(self):
        topo = build_topology("complete", 5)
        assert np.array_equal(topo.degrees(), np.full(5, 4))

    def test_ring_of_three_is_complete(self):
        ring = build_topology("ring", 3)
        complete = build_topology("complete", 3)
        assert np.array_equal(ring.adjacency, complete.adjacency)

    def test_grid_topology(self):
        topo = build_topology("grid", 6)  # 2 x 3 lattice
        # corner nodes have 2 neighbors, middle-edge nodes 3
        assert sorted(topo.degrees().tolist()) == [2, 2, 2, 2, 3, 3]

    def test_custom_edges(self):
        topo = build_topology("custom", 4, custom_edges=[(0, 1), (1, 2), (2, 3)])
        assert np.array_equal(topo.degrees(), np.array([1, 2, 2, 1]))

    def test_isolated_node_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            build_topology("custom", 4, custom_edges=[(0, 1), (1, 2)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            build_topology("custom", 3, custom_edges=[(0, 0), (0, 1), (1, 2)])

    @pytest.mark.parametrize("edge", [(0, 1.5), (0, 1, 2), (True, 1), "01", 2])
    def test_edge_that_is_not_an_integer_pair_rejected(self, edge):
        with pytest.raises(ValueError, match="custom edge .* must be a pair of integer"):
            build_topology("custom", 3, custom_edges=[edge, (1, 2)])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_topology("torus", 4)

    def test_single_agent(self):
        topo = build_topology("complete", 1)
        assert topo.num_agents == 1
        assert topo.degrees()[0] == 0

    @pytest.mark.parametrize("shape", [(0, 0), (2, 3), (4,)])
    def test_adjacency_that_is_not_square_rejected(self, shape):
        # K is the adjacency's own size; there is no second record to match.
        with pytest.raises(ValueError, match="non-empty square matrix"):
            Topology(adjacency=np.zeros(shape, dtype=bool))


class TestMetropolisWeights:
    def test_complete_k4_is_uniform(self):
        W = metropolis_weights(build_topology("complete", 4))
        assert np.allclose(W, np.full((4, 4), 0.25), atol=1e-15)

    def test_ring_k3_is_uniform_third(self):
        W = metropolis_weights(build_topology("ring", 3))
        assert np.allclose(W, np.full((3, 3), 1.0 / 3.0), atol=1e-15)

    def test_doubly_stochastic(self):
        for kind, K in [("ring", 5), ("ring", 7), ("complete", 6), ("grid", 6)]:
            W = metropolis_weights(build_topology(kind, K))
            assert np.all(np.abs(W.sum(axis=0) - 1.0) <= 1e-14)
            assert np.all(np.abs(W.sum(axis=1) - 1.0) <= 1e-14)
            assert np.array_equal(W, W.T)

    def test_unequal_degrees(self):
        # path 0-1-2: deg = (1, 2, 1); W[0,1] = 1/(1+2) = 1/3
        W = metropolis_weights(build_topology("custom", 3, custom_edges=[(0, 1), (1, 2)]))
        assert W[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert W[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert W[1, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 1000))
    def test_random_connected_graphs_doubly_stochastic(self, K, seed):
        rng = np.random.default_rng(seed)
        # random spanning tree plus a few extra edges guarantees connectivity
        edges = [(i, int(rng.integers(0, i))) for i in range(1, K)]
        for _ in range(int(rng.integers(0, K))):
            i, j = rng.integers(0, K, size=2)
            if i != j:
                edges.append((int(i), int(j)))
        W = metropolis_weights(build_topology("custom", K, custom_edges=edges))
        assert np.all(W >= 0)
        assert np.all(np.abs(W.sum(axis=0) - 1.0) <= 1e-14)
        assert np.all(np.abs(W.sum(axis=1) - 1.0) <= 1e-14)


class TestConsensusSum:
    def test_zero_rounds_returns_scaled_local(self):
        topo = build_topology("ring", 4)
        values = [np.full((2, 2), float(k)) for k in range(4)]
        out = consensus_sum(values, topo, ConsensusConfig(rounds=0))
        for k in range(4):
            assert np.array_equal(out[k], 4.0 * values[k])

    def test_complete_graph_one_round_is_exact(self):
        topo = build_topology("complete", 4)
        rng = np.random.default_rng(0)
        values = [rng.standard_normal((3, 3)) for _ in range(4)]
        total = sum(values)
        out = consensus_sum(values, topo, ConsensusConfig(rounds=1))
        for k in range(4):
            assert np.linalg.norm(out[k] - total) <= 1e-12 * np.linalg.norm(total)

    def test_ring_error_decreases_monotonically(self):
        topo = build_topology("ring", 5)
        rng = np.random.default_rng(1)
        values = [rng.standard_normal(6) for _ in range(5)]
        total = sum(values)
        errs = []
        for rounds in (1, 2, 5, 10, 20, 40):
            out = consensus_sum(values, topo, ConsensusConfig(rounds=rounds))
            errs.append(max(np.linalg.norm(o - total) for o in out) / np.linalg.norm(total))
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-6

    def test_total_sum_preserved_every_round(self):
        # W is doubly stochastic, so the network-wide total is invariant.
        topo = build_topology("ring", 6)
        rng = np.random.default_rng(2)
        values = [rng.standard_normal(4) for _ in range(6)]
        total = sum(values)
        out = consensus_sum(values, topo, ConsensusConfig(rounds=3))
        # out values are K * averages; their mean is the preserved total
        assert np.allclose(sum(out) / 6.0, total, atol=1e-12)

    def test_single_agent_identity(self):
        topo = build_topology("complete", 1)
        values = [np.array([1.5, -2.0])]
        out = consensus_sum(values, topo, ConsensusConfig(rounds=0))
        assert np.array_equal(out[0], values[0])

    def test_stacked_messages_keep_their_shape(self):
        # Axis 0 is the agent; each agent's message may have any shape, and
        # the caller's array is left untouched.
        topo = build_topology("complete", 3)
        values = np.random.default_rng(3).standard_normal((3, 2, 4, 4))
        before = values.copy()
        for rounds in (0, 1):
            out = consensus_sum(values, topo, ConsensusConfig(rounds=rounds))
            assert out.shape == values.shape
            assert np.array_equal(values, before)
        assert np.allclose(out, np.broadcast_to(values.sum(axis=0), values.shape),
                           rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("rounds", [0, 1, 5])
    def test_sum_is_added_into_the_target_in_place(self, rounds):
        topo = build_topology("ring", 5)
        rng = np.random.default_rng(rounds)
        values = rng.standard_normal((5, 2, 7))
        target = rng.standard_normal(values.shape)
        before = target.copy()
        cfg = ConsensusConfig(rounds=rounds)
        out = consensus_sum(values, topo, cfg, add_to=target)
        assert out is target
        np.testing.assert_allclose(target, before + consensus_sum(values, topo, cfg),
                                   rtol=1e-14, atol=1e-14 * np.abs(before).max())

    @pytest.mark.parametrize("rounds", [0, 1, 5, 60])
    @pytest.mark.parametrize("topo", [
        build_topology("ring", 5),
        build_topology("grid", 6),
        build_topology("complete", 4),
        build_topology("custom", 4, custom_edges=[(0, 1), (1, 2), (2, 3)]),
    ], ids=["ring", "grid", "complete", "custom"])
    def test_local_mode_adds_each_agents_own_message(self, topo, rounds):
        # Nothing is sent under mode local: whatever the graph and L, each
        # agent adds exactly its own message.
        rng = np.random.default_rng(rounds)
        K = topo.num_agents
        values = rng.standard_normal((K, 2, 7))
        target = rng.standard_normal(values.shape)
        want = target + values
        cfg = ConsensusConfig(rounds=rounds, mode="local")
        assert consensus_sum(values, topo, cfg, add_to=target) is target
        assert np.array_equal(target.view(np.int64), want.view(np.int64))
        assert np.array_equal(consensus_sum(values, topo, cfg), values)

    def test_stacked_target_rows_are_updated_in_place(self):
        # The runner's case: the agents' rows of a buffer that also holds
        # an oracle row, which must be left alone.
        topo = build_topology("complete", 3)
        values = np.random.default_rng(0).standard_normal((3, 2, 4))
        state = np.ones((4, 2, 4))
        consensus_sum(values, topo, ConsensusConfig(rounds=1), add_to=state[:3])
        np.testing.assert_allclose(state[:3], np.broadcast_to(1.0 + values.sum(axis=0), (3, 2, 4)),
                                   rtol=1e-14, atol=1e-14)
        assert np.array_equal(state[3], np.ones((2, 4)))

    @pytest.mark.parametrize("target", [
        np.zeros((3, 2, 5)),
        np.zeros((3, 10)),
        np.zeros((3, 2, 4), dtype=np.float32),
        np.zeros((3, 2, 8))[:, :, ::2],
        np.zeros((2, 3, 4)).transpose(1, 0, 2),
    ], ids=["misshaped", "flattened", "float32", "strided", "fortran"])
    def test_target_that_cannot_be_updated_in_place_rejected(self, target):
        topo = build_topology("complete", 3)
        before = target.copy()
        with pytest.raises(ValueError, match="add_to must be"):
            consensus_sum(np.ones((3, 2, 4)), topo, ConsensusConfig(rounds=1), add_to=target)
        assert np.array_equal(target, before)

    def test_target_overlapping_the_messages_rejected(self):
        topo = build_topology("complete", 3)
        values = np.ones((3, 2, 4))
        with pytest.raises(ValueError, match="add_to must be"):
            consensus_sum(values, topo, ConsensusConfig(rounds=1), add_to=values)

    def test_shape_mismatch_rejected(self):
        topo = build_topology("ring", 3)
        values = [np.zeros(2), np.zeros(2), np.zeros(3)]
        with pytest.raises(ValueError):
            consensus_sum(values, topo, ConsensusConfig(rounds=1))

    def test_wrong_count_rejected(self):
        topo = build_topology("ring", 3)
        with pytest.raises(ValueError):
            consensus_sum([np.zeros(2)] * 2, topo, ConsensusConfig(rounds=1))

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError):
            ConsensusConfig(rounds=-1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="sum or local"):
            ConsensusConfig(mode="average")


EXECUTOR_TOPOLOGIES = [
    build_topology("ring", 7),
    build_topology("grid", 16),
    build_topology("complete", 5),
    build_topology("custom", 9, custom_edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                                              (5, 6), (6, 7), (7, 8), (0, 4), (2, 7)]),
    build_topology("complete", 1),
]
EXECUTOR_IDS = ["ring", "grid", "complete", "custom", "single"]


def links(topo):
    """The directed links (i, j) of topo, one per neighbour of each agent."""
    return {(i, int(j)) for i in range(topo.num_agents) for j in np.flatnonzero(topo.adjacency[i])}


class TestMessageExecutor:
    """consensus_sum against agents that exchange messages (tests/network.py)."""

    @pytest.mark.parametrize("rounds", [0, 1, 3, 17, 60])
    @pytest.mark.parametrize("topo", EXECUTOR_TOPOLOGIES, ids=EXECUTOR_IDS)
    def test_sum_equals_the_executor(self, topo, rounds):
        # Positive messages, so no entry cancels and a relative tolerance holds.
        K = topo.num_agents
        values = np.random.default_rng(rounds).uniform(0.5, 1.5, size=(K, 2, 5))
        want, sent = run_gossip(values, topo, ConsensusConfig(rounds=rounds))
        got = consensus_sum(values, topo, ConsensusConfig(rounds=rounds))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        # Each agent sends its whole message to each neighbour once a round.
        assert set(sent) == (links(topo) if rounds else set())
        assert all(count == rounds * values[0].size for count in sent.values())

    @pytest.mark.parametrize("rounds", [0, 5, 60])
    @pytest.mark.parametrize("topo", EXECUTOR_TOPOLOGIES, ids=EXECUTOR_IDS)
    def test_local_sends_nothing(self, topo, rounds):
        values = np.random.default_rng(rounds).standard_normal((topo.num_agents, 3))
        cfg = ConsensusConfig(rounds=rounds, mode="local")
        want, sent = run_gossip(values, topo, cfg)
        assert sent == {}
        assert np.array_equal(want, values)
        assert np.array_equal(consensus_sum(values, topo, cfg), want)

    @pytest.mark.parametrize("topo", EXECUTOR_TOPOLOGIES + [
        build_topology("ring", 32), build_topology("grid", 20), build_topology("complete", 17),
    ], ids=EXECUTOR_IDS + ["ring32", "grid20", "complete17"])
    def test_edge_weights_are_metropolis_weights_bitwise(self, topo):
        # Each agent's weights, from its own and its neighbours' degrees,
        # are the bits of the off-diagonal entries of metropolis_weights.
        W = metropolis_weights(topo)
        weights = edge_weights(topo)
        assert set(weights) == links(topo)
        got = np.array(list(weights.values()))
        want = np.array([W[edge] for edge in weights])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def connected_topologies(draw):
    """Random connected graphs: a random spanning tree plus random extra edges."""
    K = draw(st.integers(1, 12))
    edges = [(i, draw(st.integers(0, i - 1))) for i in range(1, K)]
    if K > 1:
        pair = st.tuples(st.integers(0, K - 1), st.integers(0, K - 1))
        edges += [(i, j) for i, j in draw(st.lists(pair, max_size=2 * K)) if i != j]
    return build_topology("custom", K, custom_edges=edges)


class TestGossipInvariants:
    """Properties of Metropolis mixing that must hold for any connected graph and L."""

    @settings(max_examples=60, deadline=None)
    @given(connected_topologies(), st.integers(0, 60), st.integers(0, 2**32 - 1),
           st.integers(1, 40))
    def test_mixing_invariants(self, topo, rounds, seed, n):
        K, M = topo.num_agents, 2
        W = metropolis_weights(topo)
        assert np.array_equal(W, W.T)
        assert np.all(W >= 0)
        assert np.all(np.abs(W.sum(axis=0) - 1.0) <= 1e-14)
        assert np.all(np.abs(W.sum(axis=1) - 1.0) <= 1e-14)

        # Each agent's message: per member a weighted batch increment (the
        # packed triangle of a rank-deficient PSD P and a signed s), stacked
        # as the runner stacks them.
        rng = np.random.default_rng(seed)
        T = n * (n + 1) // 2
        values = np.empty((K, M, T + n))
        for k in range(K):
            for m in range(M):
                robust_increment(rng.standard_normal((n, 2)), rng.standard_normal(2),
                                 rng.uniform(size=2), 0.3,
                                 out=(values[k, m, :T], values[k, m, T:]))
        out = consensus_sum(values, topo, ConsensusConfig(rounds=rounds))
        assert out.shape == values.shape
        assert out.flags.c_contiguous

        # Agent mean equals the exact network sum; the tolerance is relative
        # to the summed magnitudes, since signed entries may cancel.
        scale = np.abs(values).sum(axis=0)
        total = values.sum(axis=0)
        assert np.all(np.abs(out.mean(axis=0) - total) <= 1e-12 * scale)

        # The one W^L product equals L explicit rounds.
        loop = values.reshape(K, -1)
        for _ in range(rounds):
            loop = W @ loop
        loop = (K * loop).reshape(values.shape)
        np.testing.assert_allclose(out, loop, rtol=1e-12,
                                   atol=1e-12 * K * np.abs(values).max())

        # W^L has nonnegative entries, so each mixed P, unpacked, stays PSD.
        for packed in out[:, :, :T].reshape(K * M, T):
            Pk = unpack(packed, n)
            smallest = np.linalg.eigvalsh(Pk)[0]
            assert smallest >= -1e-12 * np.trace(Pk)
