"""Information-filter tests against brute-force Bayesian linear regression."""
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import lapack

from gossipgp import (
    InfoState,
    KernelSpec,
    NumericalDegeneracyError,
    PosteriorFactor,
    apply_increment,
    factorize,
    feature_matrix,
    posterior_root,
    predict_batch,
    prior_state,
    robust_increment,
    sample_frequencies,
)
from gossipgp.harness.runner import load_snapshot, save_snapshot
from gossipgp.info_filter import _lower, _packed_layout

from conftest import unpack


def pack(A):
    """The packed triangle of a symmetric matrix A."""
    return np.asarray(A, dtype=float).ravel()[_packed_layout(len(A))[0]]


def increment(Phi, y, obs_variance):
    """The plain (unit-weight) increment of one batch."""
    return robust_increment(Phi, y, np.ones(np.shape(y)), obs_variance)


def fitted(spec, J, Phi, y, obs_variance):
    """The prior state of spec with one plain increment applied in place."""
    state = prior_state(spec, J=J)
    apply_increment(state.D, state.eta, *increment(Phi, y, obs_variance))
    return state


def brute_force_posterior(Phi, y, obs_variance, prior_variance):
    """Direct dense evaluation of the Gaussian posterior over weights."""
    dim = Phi.shape[0]
    D = Phi @ Phi.T / obs_variance + np.eye(dim) / prior_variance
    Sigma = np.linalg.inv(D)
    mu = Sigma @ (Phi @ y) / obs_variance
    return mu, Sigma, D


def make_model(J=4, d=2, seed=0, prior_variance=1.0, obs_variance=0.1):
    spec = KernelSpec(
        spatial_lengthscales=(0.5,) * d,
        prior_variance=prior_variance,
        obs_variance=obs_variance,
    )
    fm = sample_frequencies(spec, J=J, d=d, seed=seed)
    return spec, fm


class TestPriorState:
    def test_unit_prior_is_identity(self):
        spec = KernelSpec(spatial_lengthscales=(1.0,), prior_variance=1.0)
        state = prior_state(spec, J=1)
        assert np.array_equal(state.D, [1.0, 0.0, 1.0])
        assert np.array_equal(unpack(state.D, 2), np.eye(2))
        assert np.array_equal(state.eta, np.zeros(2))

    def test_prior_variance_25(self):
        spec = KernelSpec(spatial_lengthscales=(1.0,), prior_variance=25.0)
        state = prior_state(spec, J=2)
        assert np.array_equal(unpack(state.D, 4), 0.04 * np.eye(4))

    def test_prior_moments(self):
        spec = KernelSpec(spatial_lengthscales=(1.0,), prior_variance=7.5)
        mu, B = posterior_root(factorize(prior_state(spec, J=3)))
        assert np.allclose(mu, 0.0, atol=1e-12)
        assert np.allclose(B.T @ B, 7.5 * np.eye(6), atol=1e-10)

    def test_rejects_bad_j(self):
        spec = KernelSpec(spatial_lengthscales=(1.0,))
        with pytest.raises(ValueError):
            prior_state(spec, J=0)


class TestComputeIncrement:
    """The batch increment (P, s), formed by robust_increment at unit weights."""

    def test_empty_batch_is_zero(self):
        P, s = increment(np.zeros((4, 0)), np.zeros(0), obs_variance=0.5)
        assert np.array_equal(P, np.zeros(10))
        assert np.array_equal(s, np.zeros(4))

    def test_single_observation_hand_case(self):
        # phi = (0, 1) at the origin with J=1; y=2, noise variance 0.5:
        # P = 2 * phi phi^T has a single nonzero entry, s = (0, 4).
        spec, fm = make_model(J=1, d=1)
        Phi = feature_matrix(fm, np.zeros((1, 1)))
        assert np.array_equal(Phi, np.array([[0.0], [1.0]]))
        P, s = increment(Phi, np.array([2.0]), obs_variance=0.5)
        assert np.array_equal(P, np.array([0.0, 0.0, 2.0]))
        assert np.array_equal(unpack(P, 2), np.array([[0.0, 0.0], [0.0, 2.0]]))
        assert np.array_equal(s, np.array([0.0, 4.0]))

    def test_batch_equals_sum_of_singles(self):
        spec, fm = make_model(J=3, d=2)
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(3, 2))
        y = rng.standard_normal(3)
        Phi = feature_matrix(fm, X)
        whole_P, whole_s = increment(Phi, y, obs_variance=0.2)
        parts = [increment(Phi[:, i : i + 1], y[i : i + 1], 0.2) for i in range(3)]
        assert np.allclose(whole_P, sum(P for P, _ in parts), atol=1e-14)
        assert np.allclose(whole_s, sum(s for _, s in parts), atol=1e-14)

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            robust_increment(np.zeros((4, 2)), np.zeros(3), np.ones(3), 0.1)
        with pytest.raises(ValueError):
            increment(np.zeros((4, 2)), np.zeros(2), 0.0)

    def test_increment_is_symmetric(self):
        # The packed P is the triangle of the symmetric Gram Phi Phi^T / s2.
        spec, fm = make_model(J=5, d=2)
        X = np.random.default_rng(2).uniform(size=(10, 2))
        Phi = feature_matrix(fm, X)
        P, _ = increment(Phi, np.ones(10), 0.3)
        assert P.shape == (55,)
        np.testing.assert_allclose(unpack(P, 10), Phi @ Phi.T / 0.3, rtol=1e-14, atol=1e-15)


class TestApplyIncrement:
    def test_zero_increment_no_op(self):
        spec, fm = make_model(J=2)
        state = prior_state(spec, J=2)
        D0, eta0 = state.D.copy(), state.eta.copy()
        apply_increment(state.D, state.eta, np.zeros(10), np.zeros(4))
        assert np.array_equal(state.D, D0)
        assert np.array_equal(state.eta, eta0)

    def test_updates_in_place(self):
        spec, fm = make_model(J=2)
        state = prior_state(spec, J=2)
        D, eta = state.D, state.eta
        D0 = D.copy()
        assert apply_increment(D, eta, pack(np.eye(4)), np.ones(4)) is None
        assert state.D is D and state.eta is eta
        assert np.array_equal(D, D0 + pack(np.eye(4)))
        assert np.array_equal(eta, np.ones(4))

    def test_sequential_matches_batch_oracle(self):
        # Streaming through T batches reproduces the one-shot posterior on the
        # pooled data to 1e-10 relative Frobenius error.
        spec, fm = make_model(J=6, d=2, obs_variance=0.3)
        rng = np.random.default_rng(3)
        state = prior_state(spec, J=6)
        all_Phi, all_y = [], []
        for _ in range(8):
            X = rng.uniform(size=(5, 2))
            y = rng.standard_normal(5)
            Phi = feature_matrix(fm, X)
            apply_increment(state.D, state.eta, *increment(Phi, y, 0.3))
            all_Phi.append(Phi)
            all_y.append(y)
        Phi = np.hstack(all_Phi)
        y = np.concatenate(all_y)
        _, _, D_direct = brute_force_posterior(Phi, y, 0.3, spec.prior_variance)
        eta_direct = Phi @ y / 0.3
        D = unpack(state.D, 12)
        assert np.linalg.norm(D - D_direct) <= 1e-10 * np.linalg.norm(D_direct)
        assert np.linalg.norm(state.eta - eta_direct) <= 1e-10 * np.linalg.norm(eta_direct)

    def test_commutativity(self):
        spec, fm = make_model(J=4, d=2)
        rng = np.random.default_rng(4)
        ab, ba = prior_state(spec, J=4), prior_state(spec, J=4)
        incs = []
        for _ in range(2):
            X = rng.uniform(size=(3, 2))
            incs.append(increment(feature_matrix(fm, X), rng.standard_normal(3), 0.1))
        for inc in incs:
            apply_increment(ab.D, ab.eta, *inc)
        for inc in reversed(incs):
            apply_increment(ba.D, ba.eta, *inc)
        assert np.allclose(ab.D, ba.D, atol=1e-14)
        assert np.allclose(ab.eta, ba.eta, atol=1e-14)

    def test_stack_equals_each_slice(self):
        # A (2, 3, dim(dim+1)/2) stack updates exactly as its six states one by one.
        rng = np.random.default_rng(9)
        Phi = rng.standard_normal((2, 3, 5, 4))
        incs = [[increment(Phi[i, m], rng.standard_normal(4), 0.2) for m in range(3)]
                for i in range(2)]
        P = np.array([[P for P, _ in row] for row in incs])
        s = np.array([[s for _, s in row] for row in incs])
        D = np.tile(pack(np.eye(5)), (2, 3, 1))
        eta = rng.standard_normal((2, 3, 5))
        D_each, eta_each = D.copy(), eta.copy()
        apply_increment(D, eta, P, s)
        for i in range(2):
            for m in range(3):
                apply_increment(D_each[i, m], eta_each[i, m], P[i, m], s[i, m])
        assert np.array_equal(D, D_each)
        assert np.array_equal(eta, eta_each)

    def test_dim_mismatch_rejected(self):
        spec, fm = make_model(J=2)
        state = prior_state(spec, J=2)
        with pytest.raises(ValueError, match="do not match state shapes"):
            apply_increment(state.D, state.eta, np.zeros((2, 2)), np.zeros(2))

    def test_stack_shape_mismatch_rejected(self):
        D, eta = np.tile(pack(np.eye(3)), (2, 1)), np.zeros((2, 3))
        with pytest.raises(ValueError, match="do not match state shapes"):
            apply_increment(D, eta, pack(np.eye(3)), np.zeros(3))
        with pytest.raises(ValueError, match="do not match state shapes"):
            apply_increment(D, eta, D.copy(), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="do not match state shapes"):
            apply_increment(D, eta, np.tile(np.eye(3), (2, 1, 1)), eta.copy())
        # A state whose D does not pack its eta is rejected, whatever P and s.
        with pytest.raises(ValueError, match="do not match state shapes"):
            apply_increment(D, np.zeros((2, 4)), D.copy(), np.zeros((2, 4)))
        assert np.array_equal(D, np.tile(pack(np.eye(3)), (2, 1)))


class TestPosteriorMoments:
    def test_single_observation_matches_textbook_formula(self):
        spec, fm = make_model(J=1, d=1, prior_variance=2.0, obs_variance=0.5)
        x = np.array([0.7])
        y = np.array([1.3])
        phi = feature_matrix(fm, x[np.newaxis, :])
        state = fitted(spec, 1, phi, y, 0.5)
        mu, B = posterior_root(factorize(state))
        mu_direct, Sigma_direct, _ = brute_force_posterior(phi, y, 0.5, 2.0)
        assert np.allclose(mu, mu_direct, atol=1e-12)
        assert np.allclose(B.T @ B, Sigma_direct, atol=1e-12)

    def test_mean_solves_information_equation(self):
        spec, fm = make_model(J=5, d=2, obs_variance=0.2)
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(20, 2))
        y = rng.standard_normal(20)
        state = fitted(spec, 5, feature_matrix(fm, X), y, 0.2)
        mu, _ = posterior_root(factorize(state))
        residual = np.linalg.norm(unpack(state.D, 10) @ mu - state.eta)
        assert residual <= 1e-10 * np.linalg.norm(state.eta)

    def test_degenerate_matrix_raises_with_eigenvalue(self):
        state = prior_state(KernelSpec(spatial_lengthscales=(1.0,)), J=1)
        state.D = pack([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(NumericalDegeneracyError, match="eigenvalue"):
            factorize(state)

    def test_root_is_lower_triangular_inverse_cholesky_factor(self):
        # B = L^-1 for D = L L^T: lower triangular, B D B^T = I, B^T B = D^-1.
        spec, fm = make_model(J=6, d=2, obs_variance=0.2)
        X = np.random.default_rng(8).uniform(size=(15, 2))
        y = np.sin(X[:, 0])
        state = fitted(spec, 6, feature_matrix(fm, X), y, 0.2)
        factor = factorize(state)
        _, B = posterior_root(factor)
        D = unpack(state.D, 12)
        assert np.array_equal(B, np.tril(B))
        assert np.allclose(np.tril(factor.L) @ np.tril(factor.L).T, D, rtol=1e-12, atol=1e-12)
        assert np.allclose(B @ D @ B.T, np.eye(12), atol=1e-10)
        assert np.allclose(B.T @ B, np.linalg.inv(D), rtol=1e-9, atol=1e-12)


class TestPredict:
    def test_prior_prediction(self):
        spec, fm = make_model(J=8, d=2, prior_variance=3.0, obs_variance=0.25)
        state = prior_state(spec, J=8)
        Phi = feature_matrix(fm, np.array([[0.4, -0.2], [1.0, 3.0]]))
        means, variances = predict_batch(factorize(state), Phi)
        assert np.all(np.abs(means) <= 1e-12)
        # ||phi||^2 = 1, so the prior predictive variance is
        # prior_variance + obs_variance exactly.
        assert np.all(np.abs(variances - 3.25) <= 1e-10)

    def test_variance_floor_is_observation_noise(self):
        spec, fm = make_model(J=4, d=1, obs_variance=0.1)
        X_star = np.array([[0.5]])
        Phi = np.repeat(feature_matrix(fm, X_star), 400, axis=1)
        y = np.full(400, 2.0)
        state = fitted(spec, 4, Phi, y, 0.1)
        _, variances = predict_batch(factorize(state), feature_matrix(fm, X_star))
        assert 0.1 < variances[0] < 0.101

    def test_hand_case_against_direct_formula(self):
        spec, fm = make_model(J=1, d=1, prior_variance=1.5, obs_variance=0.4)
        X = np.array([[0.2], [0.9], [-0.3]])
        y = np.array([0.5, -1.0, 0.25])
        Phi = feature_matrix(fm, X)
        state = fitted(spec, 1, Phi, y, 0.4)
        mu_direct, Sigma_direct, _ = brute_force_posterior(Phi, y, 0.4, 1.5)
        X_star = np.array([[0.6], [-1.1]])
        Phi_star = feature_matrix(fm, X_star)
        means, variances = predict_batch(factorize(state), feature_matrix(fm, X_star))
        assert np.allclose(means, Phi_star.T @ mu_direct, rtol=0, atol=1e-12)
        direct_var = np.einsum("jn,jk,kn->n", Phi_star, Sigma_direct, Phi_star) + 0.4
        assert np.allclose(variances, direct_var, rtol=0, atol=1e-12)

    def test_batch_matches_pointwise(self):
        spec, fm = make_model(J=3, d=2)
        rng = np.random.default_rng(6)
        X = rng.uniform(size=(12, 2))
        y = rng.standard_normal(12)
        state = fitted(spec, 3, feature_matrix(fm, X), y, 0.1)
        X_star = rng.uniform(size=(5, 2))
        factor = factorize(state)
        means, variances = predict_batch(factor, feature_matrix(fm, X_star))
        for i in range(5):
            mean_i, variance_i = predict_batch(factor, feature_matrix(fm, X_star[i : i + 1]))
            assert abs(means[i] - mean_i[0]) <= 1e-12
            assert abs(variances[i] - variance_i[0]) <= 1e-12

    def test_empty_batch(self):
        spec, fm = make_model(J=3, d=2)
        state = prior_state(spec, J=3)
        means, variances = predict_batch(factorize(state), feature_matrix(fm, np.zeros((0, 2))))
        assert means.shape == (0,) and variances.shape == (0,)

    def test_variance_overflow_raises(self):
        spec, fm = make_model(J=2, d=1)
        factor = PosteriorFactor(L=1e-200 * np.eye(4), mu=np.zeros(4), obs_variance=0.1)
        with pytest.raises(NumericalDegeneracyError, match="variance overflows"):
            predict_batch(factor, feature_matrix(fm, np.array([[0.3]])))

    @pytest.mark.parametrize("N", [7, 8, 9, 40])
    def test_solve_and_product_paths_agree(self, N):
        # At dim n = 8, a batch of N >= n points takes the product with
        # B = L^-1 and a single point the triangular solve; every point must
        # get the same prediction either way.
        spec, fm = make_model(J=4, d=2)
        rng = np.random.default_rng(11)
        X = rng.uniform(size=(30, 2))
        state = fitted(spec, 4, feature_matrix(fm, X), rng.standard_normal(30), 0.1)
        factor = factorize(state)
        Phi = feature_matrix(fm, rng.uniform(size=(N, 2)))
        means, variances = predict_batch(factor, Phi)
        single = [predict_batch(factor, Phi[:, i : i + 1]) for i in range(N)]
        assert np.allclose(means, [m[0] for m, _ in single], rtol=1e-12, atol=0)
        assert np.allclose(variances, [v[0] for _, v in single], rtol=1e-12, atol=0)
        Sigma = np.linalg.inv(unpack(state.D, 8))
        direct = np.einsum("jn,jk,kn->n", Phi, Sigma, Phi) + 0.1
        assert np.allclose(variances, direct, rtol=1e-10, atol=0)

    def test_variance_overflow_raises_on_the_product_path(self):
        spec, fm = make_model(J=2, d=1)
        factor = PosteriorFactor(L=1e-200 * np.eye(4), mu=np.zeros(4), obs_variance=0.1)
        Phi = feature_matrix(fm, np.linspace(0.0, 1.0, 4)[:, np.newaxis])
        with pytest.raises(NumericalDegeneracyError, match="variance overflows"):
            predict_batch(factor, Phi)

    def test_feature_dim_mismatch_rejected(self):
        spec, fm = make_model(J=3, d=2)
        factor = factorize(prior_state(spec, J=4))
        with pytest.raises(ValueError, match="does not match state dim 8"):
            predict_batch(factor, feature_matrix(fm, np.zeros((2, 2))))

    def test_jittered_factor_predicts_from_the_jittered_matrix(self):
        # A rank-deficient D fails the first Cholesky; the prediction then
        # uses the factor of D + jitter I, as the mean and root do.
        spec, fm = make_model(J=2, d=1)
        state = prior_state(spec, J=2)
        state.D = pack(np.diag([1.0, 1.0, 1.0, 0.0]))
        factor = factorize(state)
        jittered = unpack(state.D, 4) + 1e-10 * 0.75 * np.eye(4)
        assert np.allclose(np.tril(factor.L) @ np.tril(factor.L).T, jittered,
                           rtol=0, atol=1e-15)
        Phi = feature_matrix(fm, np.array([[0.3], [-0.8]]))
        _, variances = predict_batch(factor, Phi)
        direct = np.einsum("jn,jk,kn->n", Phi, np.linalg.inv(jittered), Phi)
        assert np.allclose(variances, direct + state.obs_variance, rtol=1e-9)


class TestJitter:
    def test_spd_state_needs_no_jitter(self):
        spec, fm = make_model(J=3, d=2)
        X = np.random.default_rng(12).uniform(size=(4, 2))
        state = fitted(spec, 3, feature_matrix(fm, X), np.ones(4), 0.1)
        assert factorize(state).jitter == 0.0

    def test_rank_deficient_state_records_its_jitter(self):
        # tr(D)/n of diag(2, 1, 1, 0) is 1, so the jitter is exactly 1e-10.
        spec, _ = make_model(J=2, d=1)
        state = prior_state(spec, J=2)
        D = np.diag([2.0, 1.0, 1.0, 0.0])
        state.D = pack(D)
        factor = factorize(state)
        assert factor.jitter == 1e-10 * np.trace(D) / 4 == 1e-10
        assert np.allclose(np.tril(factor.L) @ np.tril(factor.L).T,
                           D + factor.jitter * np.eye(4), rtol=0, atol=1e-15)


class TestSerialization:
    """The state blocks of a snapshot file, written and read by the runner."""

    def test_round_trip_bitwise(self, tmp_path):
        spec, fm = make_model(J=4, d=2, prior_variance=2.0, obs_variance=0.3)
        rng = np.random.default_rng(7)
        X = rng.uniform(size=(9, 2))
        y = rng.standard_normal(9)
        state = fitted(spec, 4, feature_matrix(fm, X), y, 0.3)
        save_snapshot(tmp_path / "state.bin", [state])
        (loaded,) = load_snapshot(tmp_path / "state.bin")
        assert np.array_equal(loaded.D, state.D)
        assert np.array_equal(loaded.eta, state.eta)
        assert loaded.obs_variance == state.obs_variance
        assert loaded.prior_variance == state.prior_variance

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            load_bytes(snapshot_bytes()[:12] + b"NOTMAGIC" + b"\x00" * 64)

    def test_short_header_rejected(self):
        with pytest.raises(ValueError, match="state header"):
            load_bytes(snapshot_bytes()[:26])

    def test_corrupt_dim_rejected_without_reading_it(self):
        # dim 2^32 - 1 implies ~7e19 bytes; the loader must report the
        # shortfall instead of requesting that much memory.
        data = bytearray(snapshot_bytes())
        data[20:24] = b"\xff\xff\xff\xff"
        with pytest.raises(ValueError, match="truncated"):
            load_bytes(bytes(data))

    def test_non_finite_rejected(self):
        state = fitted_state()
        state.D[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            load_bytes(snapshot_bytes(state))
        state = fitted_state()
        state.eta[1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            load_bytes(snapshot_bytes(state))

    def test_snapshot_layout_holds_the_packed_d(self, tmp_path):
        # A snapshot file is the one built by hand: the GGPSNAP1 container,
        # then each state's GGPIF002 block with D packed column by column
        # (column j holds D[j:, j]), and it loads back to the same packed
        # states, bit for bit.
        state = fitted_state()
        D = unpack(state.D, 4)
        block = (b"GGPIF002" + struct.pack("<Idd", 4, state.obs_variance, state.prior_variance)
                 + np.concatenate([D[j:, j] for j in range(4)]).astype("<f8").tobytes()
                 + state.eta.astype("<f8").tobytes())
        assert len(block) == 8 + 20 + 8 * (10 + 4)
        path = tmp_path / "hand.bin"
        path.write_bytes(b"GGPSNAP1" + struct.pack("<I", 2) + block + block)
        loaded = load_snapshot(path)
        assert len(loaded) == 2
        for got in loaded:
            assert got.D.tobytes() == state.D.tobytes()
            assert got.eta.tobytes() == state.eta.tobytes()
        save_snapshot(tmp_path / "again.bin", [state, state])
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    def test_full_matrix_blocks_of_ggpif001_rejected(self, tmp_path):
        # The earlier block format held the full row-major D under the magic
        # GGPIF001; such a file is refused, not read as packed states.
        state = fitted_state()
        block = (b"GGPIF001" + struct.pack("<Idd", 4, state.obs_variance, state.prior_variance)
                 + unpack(state.D, 4).astype("<f8").tobytes() + state.eta.astype("<f8").tobytes())
        path = tmp_path / "old.bin"
        path.write_bytes(b"GGPSNAP1" + struct.pack("<I", 1) + block)
        with pytest.raises(ValueError, match="magic b'GGPIF001'"):
            load_snapshot(path)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ValueError, match="trailing"):
            load_bytes(snapshot_bytes() + b"\x00")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_truncation_and_bit_flips_fail_only_with_value_error(self, data):
        raw = snapshot_bytes()
        cut = data.draw(st.integers(0, len(raw) - 1))
        with pytest.raises(ValueError):
            load_bytes(raw[:cut])
        flipped = bytearray(raw)
        bit = data.draw(st.integers(0, 8 * len(raw) - 1))
        flipped[bit // 8] ^= 1 << (bit % 8)
        try:
            load_bytes(bytes(flipped))
        except ValueError:
            pass


def fitted_state():
    spec, fm = make_model(J=2, d=2, prior_variance=2.0, obs_variance=0.3)
    X = np.random.default_rng(8).uniform(size=(5, 2))
    Phi = feature_matrix(fm, X)
    return fitted(spec, 2, Phi, np.ones(5), 0.3)


def snapshot_bytes(state=None):
    """The snapshot file of one state: a 12-byte container header, then its block."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.bin"
        save_snapshot(path, [fitted_state() if state is None else state])
        return path.read_bytes()


def load_bytes(raw):
    """load_snapshot of a file holding raw."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.bin"
        path.write_bytes(raw)
        return load_snapshot(path)


class TestPackedLayout:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40).flatmap(
        lambda n: arrays(np.float64, (n, n), elements=st.floats(allow_nan=False))))
    def test_round_trip(self, B):
        # Any symmetric A, signed zeros and infinities included: unpacking its
        # packed triangle gives A back bit for bit, and factorize's unpacking
        # its lower triangle; the packing is LAPACK's 'L' layout, and the
        # packed diagonal offsets pick exactly diag(A).
        n = len(B)
        A = np.where(np.tri(n, dtype=bool), B, B.T)
        packed = pack(A)
        assert packed.shape == (n * (n + 1) // 2,)
        assert unpack(packed, n).tobytes() == A.tobytes()
        assert np.tril(_lower(packed, n)).tobytes() == np.tril(A).tobytes()
        assert lapack.dtrttp(A, uplo="L")[0].tobytes() == packed.tobytes()
        assert packed[_packed_layout(n)[1]].tobytes() == np.diag(A).tobytes()


class TestValidation:
    def test_info_state_shape_checks(self):
        with pytest.raises(ValueError):
            InfoState(D=np.zeros((2, 3)), eta=np.zeros(2), obs_variance=1.0, prior_variance=1.0)
        with pytest.raises(ValueError):
            InfoState(D=np.eye(2), eta=np.zeros(2), obs_variance=1.0, prior_variance=1.0)
        with pytest.raises(ValueError):
            InfoState(D=np.zeros(3), eta=np.zeros(3), obs_variance=1.0, prior_variance=1.0)
        with pytest.raises(ValueError):
            InfoState(D=np.zeros(3), eta=np.zeros(2), obs_variance=0.0, prior_variance=1.0)

    def test_increment_shape_checks(self):
        state = InfoState(D=pack(np.eye(2)), eta=np.zeros(2), obs_variance=1.0,
                          prior_variance=1.0)
        with pytest.raises(ValueError):
            apply_increment(state.D, state.eta, np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            apply_increment(state.D, state.eta, np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            apply_increment(state.D, state.eta, pack(np.eye(2)), np.zeros(3))
