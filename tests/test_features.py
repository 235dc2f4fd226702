"""Feature-map tests: spectral sampling law, embedding identities, kernel MAE."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipgp import (
    KernelSpec,
    factorize,
    feature_matrix,
    predict_batch,
    prior_state,
    robust_increment,
    rotate,
    sample_frequencies,
)


def rbf(x, xp, lengthscales):
    """Closed-form unit-variance ARD RBF kernel, the approximation target."""
    d = (np.asarray(x) - np.asarray(xp)) / np.asarray(lengthscales)
    return np.exp(-0.5 * np.sum(d**2))


class TestSampleFrequencies:
    def test_seeded_determinism(self):
        spec = KernelSpec(spatial_lengthscales=(1.0,))
        a = sample_frequencies(spec, J=3, seed=42)
        b = sample_frequencies(spec, J=3, seed=42)
        assert a.frequencies.shape == (3, 1)
        assert np.array_equal(a.frequencies, b.frequencies)

    def test_different_seeds_differ(self):
        spec = KernelSpec(spatial_lengthscales=(1.0,))
        a = sample_frequencies(spec, J=3, seed=0)
        b = sample_frequencies(spec, J=3, seed=1)
        assert not np.array_equal(a.frequencies, b.frequencies)

    def test_spectral_variance_matches_inverse_squared_lengthscale(self):
        # Frequencies for an RBF with lengthscale l have variance 1/l^2.
        spec = KernelSpec(spatial_lengthscales=(0.1,))
        fm = sample_frequencies(spec, J=10000, seed=5)
        v = fm.frequencies[:, 0].var()
        assert abs(v - 100.0) / 100.0 < 0.05

    def test_temporal_column_is_scaled_standard_draw(self):
        # The sampler draws standard normals, then divides each column by its
        # lengthscale; the temporal column uses the temporal lengthscale.
        spec = KernelSpec(spatial_lengthscales=(1.0, 1.0), temporal_lengthscale=4.0)
        fm = sample_frequencies(spec, J=5, seed=0)
        assert fm.frequencies.shape == (5, 3)
        raw = np.random.default_rng(np.random.SeedSequence(0)).standard_normal((5, 3))
        expected = raw / np.array([1.0, 1.0, 4.0])
        assert np.array_equal(fm.frequencies, expected)

    def test_invalid_sizes_rejected(self):
        spec = KernelSpec(spatial_lengthscales=(1.0,))
        with pytest.raises(ValueError):
            sample_frequencies(spec, J=0, seed=0)

    def test_frequencies_are_write_protected(self):
        spec = KernelSpec(spatial_lengthscales=(1.0,))
        fm = sample_frequencies(spec, J=3, seed=0)
        with pytest.raises(ValueError):
            fm.frequencies[0, 0] = 99.0


class TestKernelSpec:
    def test_rejects_nonpositive_lengthscales(self):
        with pytest.raises(ValueError):
            KernelSpec(spatial_lengthscales=(0.0,))
        with pytest.raises(ValueError):
            KernelSpec(spatial_lengthscales=(1.0, -2.0))

    def test_rejects_nonpositive_variances(self):
        with pytest.raises(ValueError):
            KernelSpec(spatial_lengthscales=(1.0,), prior_variance=0.0)
        with pytest.raises(ValueError):
            KernelSpec(spatial_lengthscales=(1.0,), obs_variance=-1.0)


class TestFeatureMapEvaluation:
    def test_origin_features_alternate_zero_and_inv_sqrt_j(self):
        spec = KernelSpec(spatial_lengthscales=(0.5, 0.5))
        J = 4
        fm = sample_frequencies(spec, J=J, seed=1)
        phi = feature_matrix(fm, np.zeros((1, 2)))[:, 0]
        expected = np.zeros(2 * J)
        expected[1::2] = 1.0 / np.sqrt(J)
        assert np.array_equal(phi, expected)

    def test_unit_norm(self):
        spec = KernelSpec(spatial_lengthscales=(0.3, 0.7))
        fm = sample_frequencies(spec, J=16, seed=2)
        X = np.random.default_rng(3).uniform(-5, 5, size=(20, 2))
        Phi = feature_matrix(fm, X)
        assert np.all(np.abs(np.sum(Phi**2, axis=0) - 1.0) <= 1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=2))
    def test_unit_norm_property(self, coords):
        spec = KernelSpec(spatial_lengthscales=(0.3, 0.7))
        fm = sample_frequencies(spec, J=8, seed=2)
        phi = feature_matrix(fm, np.asarray([coords]))[:, 0]
        assert abs(phi @ phi - 1.0) <= 1e-12

    def test_kernel_approximation_1d(self):
        # Mean absolute error against the closed-form RBF stays below 3/sqrt(J).
        J = 2000
        spec = KernelSpec(spatial_lengthscales=(1.0,))
        fm = sample_frequencies(spec, J=J, seed=7)
        rng = np.random.default_rng(11)
        errs = []
        for _ in range(100):
            x, xp = rng.uniform(-2, 2, size=(2, 1))
            Phi = feature_matrix(fm, np.stack([x, xp]))
            approx = Phi[:, 0] @ Phi[:, 1]
            errs.append(abs(approx - rbf(x, xp, [1.0])))
        assert np.mean(errs) <= 3.0 / np.sqrt(J)

    def test_product_kernel_approximation_with_time(self, features_at):
        # Frequencies with a temporal column approximate the product of a
        # spatial RBF and a temporal RBF on inputs [x, t].
        J = 2000
        spec = KernelSpec(spatial_lengthscales=(1.0,), temporal_lengthscale=4.0)
        fm = sample_frequencies(spec, J=J, seed=13)
        rng = np.random.default_rng(17)
        errs = []
        for _ in range(100):
            x, xp = rng.uniform(-2, 2, size=2)
            t, tp = rng.uniform(0, 48, size=2)
            approx = features_at(fm, [[x]], t)[:, 0] @ features_at(fm, [[xp]], tp)[:, 0]
            exact = rbf([x], [xp], [1.0]) * rbf([t], [tp], [4.0])
            errs.append(abs(approx - exact))
        assert np.mean(errs) <= 3.0 / np.sqrt(J)

    def test_timed_map_featurizes_at_t_zero(self, features_at):
        # A timed map takes spatial inputs only and gives their features at
        # t = 0, bitwise; the time column gives only the angles.
        spec = KernelSpec(spatial_lengthscales=(0.4, 0.9), temporal_lengthscale=3.0)
        fm = sample_frequencies(spec, J=6, seed=4)
        X = np.random.default_rng(5).uniform(-2, 2, size=(9, 2))
        assert fm.timed and fm.spatial_dim == 2
        assert np.array_equal(feature_matrix(fm, X), features_at(fm, X, 0))
        with pytest.raises(ValueError, match="spatial columns 2"):
            feature_matrix(fm, np.zeros((3, 3)))


@st.composite
def blocks_of_sites(draw):
    """A feature map, sites, and a block a:b of their rows (possibly empty)."""
    J = draw(st.integers(1, 24))
    d = draw(st.integers(1, 3))
    lengthscales = draw(st.lists(st.floats(0.05, 5.0), min_size=d, max_size=d))
    spec = KernelSpec(spatial_lengthscales=tuple(lengthscales))
    fm = sample_frequencies(spec, J=J, seed=draw(st.integers(0, 2**32 - 1)))
    N = draw(st.integers(1, 40))
    sites = draw(st.lists(st.floats(-10.0, 10.0), min_size=N * d, max_size=N * d))
    a = draw(st.integers(0, N))
    return fm, np.reshape(sites, (N, d)), a, draw(st.integers(a, N))


class TestFeatureMatrix:
    def test_single_row_equals_column_of_batch(self):
        spec = KernelSpec(spatial_lengthscales=(0.4, 0.9))
        fm = sample_frequencies(spec, J=6, seed=4)
        X = np.array([[0.7, 0.1], [0.3, -1.2], [-2.0, 0.5]])
        Phi = feature_matrix(fm, X[1:2])
        assert Phi.shape == (12, 1)
        assert np.allclose(Phi[:, 0], feature_matrix(fm, X)[:, 1], rtol=0, atol=1e-15)

    def test_identical_rows_give_identical_columns(self):
        spec = KernelSpec(spatial_lengthscales=(0.4,))
        fm = sample_frequencies(spec, J=5, seed=4)
        X = np.array([[0.25], [0.25]])
        Phi = feature_matrix(fm, X)
        assert np.array_equal(Phi[:, 0], Phi[:, 1])

    def test_shape_contract(self):
        # 2J x N and Fortran-ordered, so a block of columns is contiguous.
        spec = KernelSpec(spatial_lengthscales=(1.0, 1.0, 1.0))
        fm = sample_frequencies(spec, J=5, seed=0)
        Phi = feature_matrix(fm, np.zeros((7, 3)))
        assert Phi.shape == (10, 7)
        assert Phi[:, 2:5].flags.f_contiguous

    def test_wrong_width_rejected(self):
        spec = KernelSpec(spatial_lengthscales=(1.0, 1.0))
        fm = sample_frequencies(spec, J=5, seed=0)
        with pytest.raises(ValueError):
            feature_matrix(fm, np.zeros((3, 3)))

    @settings(max_examples=90, deadline=None)
    @given(case=blocks_of_sites())
    def test_block_of_columns_equals_features_of_the_block(self, case):
        # A grid stream's local step reads each agent's features as its
        # block of the grid's columns: they equal featurizing the block. The
        # entries are at most 1/sqrt(J), the scale of the absolute term,
        # which covers sin and cos near their zeros.
        fm, X, a, b = case
        got, want = feature_matrix(fm, X)[:, a:b], feature_matrix(fm, X[a:b])
        assert got.shape == want.shape == (fm.num_features * 2, b - a)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 / np.sqrt(fm.num_features))



@st.composite
def timed_grids(draw):
    """A feature map with a time column, sites, and an integer time."""
    J = draw(st.integers(1, 24))
    d = draw(st.integers(1, 3))
    lengthscales = draw(st.lists(st.floats(0.05, 5.0), min_size=d, max_size=d))
    temporal = draw(st.floats(0.1, 100.0))
    spec = KernelSpec(spatial_lengthscales=tuple(lengthscales), temporal_lengthscale=temporal)
    fm = sample_frequencies(spec, J=J, seed=draw(st.integers(0, 2**32 - 1)))
    N = draw(st.integers(1, 12))
    sites = draw(st.lists(st.floats(-10.0, 10.0), min_size=N * d, max_size=N * d))
    return fm, np.reshape(sites, (N, d)), draw(st.integers(0, 10**4))


def fitted(fm, X, features_at, obs_variance=0.1):
    """A posterior in w's frame, after batches at X at times 0, 1 and 2."""
    state = prior_state(KernelSpec(spatial_lengthscales=(1.0,) * fm.spatial_dim,
                                   obs_variance=obs_variance), fm.num_features)
    rng = np.random.default_rng(fm.seed % 2**32)
    for t in range(3):
        y = rng.standard_normal(len(X))
        P, s = robust_increment(features_at(fm, X, t), y, np.ones(len(X)), obs_variance)
        state.D += P
        state.eta += s
    return state


class TestShiftTime:
    """Shifting time turns the state (dynamics.rotate); the features stay at t = 0."""

    @settings(max_examples=200, deadline=None)
    @given(case=timed_grids())
    def test_rotation_equals_featurizing_at_t(self, case, features_at):
        # Turning (D, eta) by v_time t and predicting with the t = 0 features
        # equals predicting from (D, eta) with the time-t features.
        fm, X, t = case
        state = fitted(fm, X, features_at)
        means, variances = predict_batch(factorize(state), features_at(fm, X, t))
        rotate(state.D, state.eta, fm.frequencies[:, -1] * t)
        got_means, got_variances = predict_batch(factorize(state), feature_matrix(fm, X))
        assert np.allclose(got_variances, variances, rtol=1e-9, atol=0)
        assert np.allclose(got_means, means, rtol=1e-9, atol=1e-9 * np.sqrt(variances))

    @settings(max_examples=50, deadline=None)
    @given(case=timed_grids())
    def test_zero_time_is_a_bitwise_copy(self, case, features_at):
        fm, X, _ = case
        state = fitted(fm, X, features_at)
        D, eta = state.D.copy(), state.eta.copy()
        rotate(D, eta, fm.frequencies[:, -1] * 0)
        assert D.tobytes() == state.D.tobytes() and eta.tobytes() == state.eta.tobytes()

    def test_zero_time_keeps_signed_zeros(self):
        # -0.0 cos(0) - x sin(0) could be +0.0; zero angles turn nothing.
        D, eta = np.array([1.0, -0.0, 1.0]), np.array([-0.0, 0.0])
        before = D.tobytes() + eta.tobytes()
        rotate(D, eta, np.array([0.0]))
        assert D.tobytes() + eta.tobytes() == before

    def test_out_may_be_a_strided_view(self, features_at):
        # The run turns strided views of its stacked state buffer, one row of
        # angles per member, and leaves the evidence column alone; each row
        # comes out bitwise as if turned on its own.
        spec = KernelSpec(spatial_lengthscales=(0.5,), temporal_lengthscale=2.0)
        fms = [sample_frequencies(spec, J=4, seed=seed) for seed in (1, 2)]
        X = np.linspace(-1.0, 1.0, 5)[:, np.newaxis]
        states = [fitted(fm, X, features_at) for fm in fms]
        packed, n = states[0].D.size, states[0].dim
        buffer = np.full((3, 2, packed + n + 1), 7.0)
        for m, state in enumerate(states):
            buffer[:, m, :packed], buffer[:, m, packed:-1] = state.D, state.eta
        angles = np.stack([fm.frequencies[:, -1] * t for fm, t in zip(fms, (3, 5))])
        rotate(buffer[..., :packed], buffer[..., packed:-1], angles)
        for m, state in enumerate(states):
            rotate(state.D, state.eta, angles[m])
            for row in buffer[:, m]:
                assert np.array_equal(row[:packed], state.D)
                assert np.array_equal(row[packed:-1], state.eta)
        assert (buffer[..., -1] == 7.0).all()

    @pytest.mark.parametrize("make_args", [
        lambda D, eta, angles: (np.append(D, 0.0), eta, angles),
        lambda D, eta, angles: (D, eta, angles[:-1]),
        lambda D, eta, angles: (D.astype(np.float32), eta, angles),
        lambda D, eta, angles: (D, D, angles),
        lambda D, eta, angles: (D, D[::-1], angles),
    ], ids=["wide", "short", "float32", "same", "reversed_view"])
    def test_misshaped_or_aliased_out_rejected(self, make_args):
        # A D that does not pack eta, angles for another count of pairs, a
        # float32 D (turned in place it would round), and an eta that is D
        # itself or a reversed view of it are all rejected, with nothing
        # written.
        rng = np.random.default_rng(0)
        D, eta, angles = rng.standard_normal(36), rng.standard_normal(8), rng.standard_normal(4)
        args = make_args(D, eta, angles)
        before = [a.copy() for a in args]
        with pytest.raises(ValueError, match="are not packed float64 states"):
            rotate(*args)
        assert all(np.array_equal(a, b) for a, b in zip(args, before))

    def test_phi0_of_another_map_rejected(self):
        # The angles of a map with 4 frequencies turn states of 8 features;
        # a state of 6 is rejected.
        with pytest.raises(ValueError, match="of the 8 features"):
            rotate(np.zeros(21), np.zeros(6), np.ones(4))
