"""Forgetting operators and the time rotation of states."""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gossipgp import (
    DynamicsConfig,
    KernelSpec,
    apply_forgetting,
    factorize,
    feature_matrix,
    posterior_root,
    prior_state,
    robust_increment,
    rotate,
    sample_frequencies,
)
from gossipgp.dynamics import _MIN_UI_NU, MODES

from conftest import pack, unpack


def fitted_state(seed=0, prior_variance=1.0, obs_variance=0.2):
    spec = KernelSpec(
        spatial_lengthscales=(0.5,), prior_variance=prior_variance, obs_variance=obs_variance
    )
    fm = sample_frequencies(spec, J=3, d=1, seed=seed)
    rng = np.random.default_rng(seed + 1)
    X = rng.uniform(size=(12, 1))
    y = rng.standard_normal(12)
    state = prior_state(spec, J=3)
    P, s = robust_increment(feature_matrix(fm, X), y, np.ones(12), obs_variance)
    state.D += P
    state.eta += s
    return state, spec


def forgotten(state, cfg):
    """A copy of state with forgetting applied to it in place."""
    out = replace(state, D=state.D.copy(), eta=state.eta.copy())
    apply_forgetting(out.D, out.eta, out.prior_variance, cfg)
    return out


class TestDynamicsConfig:
    def test_valid_modes(self):
        # The modes are forgetting only; time features are set by the kernel.
        assert MODES == ("static", "b2p", "ui")
        DynamicsConfig(mode="static", nu=1.0)
        for mode in ("b2p", "ui"):
            DynamicsConfig(mode=mode, nu=0.9)

    def test_invalid_mode(self):
        for mode in ("exponential", "spatiotemporal"):
            with pytest.raises(ValueError, match="unknown dynamics mode"):
                DynamicsConfig(mode=mode)

    def test_static_rejects_a_forgetting_coefficient(self):
        for nu in (0.0, 0.5, 0.9):
            with pytest.raises(ValueError, match="nu must be 1"):
                DynamicsConfig(mode="static", nu=nu)

    def test_nu_range(self):
        DynamicsConfig(mode="b2p", nu=0.0)
        DynamicsConfig(mode="b2p", nu=1.0)
        with pytest.raises(ValueError):
            DynamicsConfig(mode="b2p", nu=1.1)
        with pytest.raises(ValueError):
            DynamicsConfig(mode="b2p", nu=-0.1)


class TestApplyForgetting:
    def test_static_modes_leave_state_unchanged(self):
        state, _ = fitted_state()
        out = forgotten(state, DynamicsConfig(mode="static"))
        assert np.array_equal(out.D, state.D)
        assert np.array_equal(out.eta, state.eta)

    def test_nu_one_is_identity_for_both_modes(self):
        state, _ = fitted_state()
        for mode in ("b2p", "ui"):
            out = forgotten(state, DynamicsConfig(mode=mode, nu=1.0))
            assert np.array_equal(out.D, state.D)
            assert np.array_equal(out.eta, state.eta)

    def test_b2p_nu_zero_resets_to_prior(self):
        state, spec = fitted_state(prior_variance=2.5)
        out = forgotten(state, DynamicsConfig(mode="b2p", nu=0.0))
        fresh = prior_state(spec, J=3)
        assert np.array_equal(out.D, fresh.D)
        assert np.array_equal(out.eta, fresh.eta)

    def test_b2p_formula(self):
        # In place on the packed D, b2p gives exactly the bits of
        # nu D + ((1 - nu) / pv) I on the full matrix.
        state, spec = fitted_state(prior_variance=2.0)
        nu = 0.7
        out = forgotten(state, DynamicsConfig(mode="b2p", nu=nu))
        full = unpack(state.D, state.dim)
        expected_D = pack(nu * full + ((1.0 - nu) / 2.0) * np.eye(state.dim))
        assert np.array_equal(out.D, expected_D)
        assert np.array_equal(out.eta, nu * state.eta)

    def test_stack_with_per_member_prior_variances(self):
        # One call over a (rows, members, dim(dim+1)/2) stack equals forgetting
        # each state alone with its member's prior variance.
        states = [[fitted_state(seed=3 * r + m, prior_variance=pv)[0]
                   for m, pv in enumerate((0.5, 2.0, 8.0))] for r in range(2)]
        D = np.array([[x.D for x in row] for row in states])
        eta = np.array([[x.eta for x in row] for row in states])
        cfg = DynamicsConfig(mode="b2p", nu=0.8)
        apply_forgetting(D, eta, np.array([0.5, 2.0, 8.0]), cfg)
        for r, row in enumerate(states):
            for m, x in enumerate(row):
                out = forgotten(x, cfg)
                assert np.array_equal(D[r, m], out.D)
                assert np.array_equal(eta[r, m], out.eta)

    def test_ui_preserves_mean_and_inflates_covariance(self):
        state, _ = fitted_state()
        nu = 0.6
        out = forgotten(state, DynamicsConfig(mode="ui", nu=nu))
        mu0, B0 = posterior_root(factorize(state))
        mu1, B1 = posterior_root(factorize(out))
        assert np.linalg.norm(mu1 - mu0) <= 1e-10 * max(np.linalg.norm(mu0), 1.0)
        assert np.allclose(B1.T @ B1, B0.T @ B0 / nu, atol=1e-10)

    def test_ui_rejects_degenerate_nu(self):
        # The degenerate ui coefficient is a configuration error, caught when
        # the config is built rather than mid-run.
        for nu in (0.0, 0.5 * _MIN_UI_NU):
            with pytest.raises(ValueError, match="degenerates"):
                DynamicsConfig(mode="ui", nu=nu)
        state, _ = fitted_state()
        out = forgotten(state, DynamicsConfig(mode="ui", nu=_MIN_UI_NU))
        assert np.array_equal(out.D, _MIN_UI_NU * state.D)
        # Other modes accept any nu in [0, 1].
        DynamicsConfig(mode="b2p", nu=0.0)

    def test_forgetting_updates_in_place(self):
        state, _ = fitted_state()
        D, eta = state.D, state.eta
        D0, eta0 = D.copy(), eta.copy()
        cfg = DynamicsConfig(mode="b2p", nu=0.5)
        assert apply_forgetting(D, eta, state.prior_variance, cfg) is None
        assert state.D is D and state.eta is eta
        expected = 0.5 * unpack(D0, 6) + (0.5 / state.prior_variance) * np.eye(6)
        assert np.array_equal(D, pack(expected))
        assert np.array_equal(eta, 0.5 * eta0)


def turn_matrix(angles):
    """The dense block rotation G that rotate applies."""
    G = np.zeros((2 * len(angles),) * 2)
    for j, a in enumerate(angles):
        G[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = [[np.cos(a), -np.sin(a)],
                                                   [np.sin(a), np.cos(a)]]
    return G


class TestTimeAugmentation:
    """A temporal scale enters as the rotation of the states (rotate)."""

    def test_basic(self):
        state, _ = fitted_state()
        angles = np.array([0.3, -1.2, 2.5])
        G = turn_matrix(angles)
        D, eta = state.D.copy(), state.eta.copy()
        assert rotate(D, eta, angles) is None
        assert np.allclose(unpack(D, 6), G @ unpack(state.D, 6) @ G.T, rtol=0, atol=1e-13)
        assert np.allclose(eta, G @ state.eta, rtol=0, atol=1e-14)

    def test_matrix_form(self):
        # A stack of rows with one row of angles per member turns each row
        # bitwise as it turns on its own, signed zeros included.
        rows = [[fitted_state(seed=2 * k + m)[0] for m in range(2)] for k in range(3)]
        for k, row in enumerate(rows):
            for m, x in enumerate(row):
                x.D[(k + m) % 4::4] = 0.0 if (k + m) % 2 else -0.0
                x.eta[k % 3] = -0.0
        D = np.stack([[x.D for x in row] for row in rows])
        eta = np.stack([[x.eta for x in row] for row in rows])
        angles = np.array([[0.3, -1.2, 2.5], [4.0, 0.1, -0.7]])
        rotate(D, eta, angles)
        for k, row in enumerate(rows):
            for m, x in enumerate(row):
                rotate(x.D, x.eta, angles[m])
                assert np.array_equal(D[k, m].view(np.int64), x.D.view(np.int64))
                assert np.array_equal(eta[k, m].view(np.int64), x.eta.view(np.int64))

    def test_time_column_not_normalized(self):
        # Epoch indices enter the angles v_time t unchanged, whatever their
        # magnitude: 47 one-epoch turns equal one turn by 47.
        state, _ = fitted_state()
        v_time = np.array([0.25, -0.6, 1.1])
        D, eta = state.D.copy(), state.eta.copy()
        for _ in range(47):
            rotate(D, eta, v_time)
        rotate(state.D, state.eta, 47 * v_time)
        assert np.allclose(D, state.D, rtol=1e-12, atol=1e-12)
        assert np.allclose(eta, state.eta, rtol=1e-12, atol=1e-12)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError, match=r"odd dimension 3 .*D \(6,\), eta \(3,\), angles \(1,\)"):
            rotate(np.zeros(6), np.zeros(3), np.ones(1))

    def test_turns_without_index_tables(self):
        # At dim 1010, one state turns within 3.5 unpacked copies of itself
        # and keeps nothing once it returns: no cached index tables.
        n = 1010
        rng = np.random.default_rng(0)
        D, eta = rng.standard_normal(n * (n + 1) // 2), rng.standard_normal(n)
        angles = rng.uniform(-3.0, 3.0, n // 2)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rotate(D, eta, angles)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        full = 8 * n * n
        assert after - before < 0.01 * full
        assert peak - before <= 3.5 * full

    def test_zero_dimensional_edge(self):
        D, eta = np.empty((0, 21)), np.empty((0, 6))
        rotate(D, eta, np.ones(3))
        assert D.shape == (0, 21) and eta.shape == (0, 6)

    @pytest.mark.parametrize("cfg", [DynamicsConfig(mode="b2p", nu=0.6),
                                     DynamicsConfig(mode="ui", nu=0.6)], ids=["b2p", "ui"])
    def test_forgetting_commutes_with_rotation(self, cfg):
        # The prior precision is isotropic, so forgetting before or after the
        # turn gives the same state.
        state, _ = fitted_state()
        angles = np.array([0.3, -1.2, 2.5])
        first = forgotten(state, cfg)
        rotate(first.D, first.eta, angles)
        rotate(state.D, state.eta, angles)
        second = forgotten(state, cfg)
        assert np.allclose(first.D, second.D, rtol=1e-13, atol=1e-13)
        assert np.allclose(first.eta, second.eta, rtol=1e-13, atol=1e-13)
