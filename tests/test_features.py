"""Feature-map tests: spectral sampling law, embedding identities, kernel MAE."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipgp import (
    FeatureMap,
    KernelSpec,
    augment_time_matrix,
    feature_matrix,
    sample_frequencies,
    shift_time,
)


def rbf(x, xp, lengthscales):
    """Closed-form unit-variance ARD RBF kernel, the approximation target."""
    d = (np.asarray(x) - np.asarray(xp)) / np.asarray(lengthscales)
    return np.exp(-0.5 * np.sum(d**2))


class TestSampleFrequencies:
    def test_seeded_determinism(self):
        spec = KernelSpec(spatial_lengthscales=(1.0,))
        a = sample_frequencies(spec, J=3, d=1, seed=42)
        b = sample_frequencies(spec, J=3, d=1, seed=42)
        assert a.frequencies.shape == (3, 1)
        assert np.array_equal(a.frequencies, b.frequencies)

    def test_different_seeds_differ(self):
        spec = KernelSpec(spatial_lengthscales=(1.0,))
        a = sample_frequencies(spec, J=3, d=1, seed=0)
        b = sample_frequencies(spec, J=3, d=1, seed=1)
        assert not np.array_equal(a.frequencies, b.frequencies)

    def test_spectral_variance_matches_inverse_squared_lengthscale(self):
        # Frequencies for an RBF with lengthscale l have variance 1/l^2.
        spec = KernelSpec(spatial_lengthscales=(0.1,))
        fm = sample_frequencies(spec, J=10000, d=1, seed=5)
        v = fm.frequencies[:, 0].var()
        assert abs(v - 100.0) / 100.0 < 0.05

    def test_temporal_column_is_scaled_standard_draw(self):
        # The sampler draws standard normals, then divides each column by its
        # lengthscale; the temporal column uses the temporal lengthscale.
        spec = KernelSpec(spatial_lengthscales=(1.0, 1.0), temporal_lengthscale=4.0)
        fm = sample_frequencies(spec, J=5, d=2, seed=0)
        assert fm.frequencies.shape == (5, 3)
        raw = np.random.default_rng(np.random.SeedSequence(0)).standard_normal((5, 3))
        expected = raw / np.array([1.0, 1.0, 4.0])
        assert np.array_equal(fm.frequencies, expected)

    def test_dimension_mismatch_rejected(self):
        spec = KernelSpec(spatial_lengthscales=(1.0, 1.0))
        with pytest.raises(ValueError):
            sample_frequencies(spec, J=3, d=3, seed=0)

    def test_invalid_sizes_rejected(self):
        spec = KernelSpec(spatial_lengthscales=(1.0,))
        with pytest.raises(ValueError):
            sample_frequencies(spec, J=0, d=1, seed=0)
        with pytest.raises(ValueError):
            sample_frequencies(spec, J=3, d=0, seed=0)

    def test_frequencies_are_write_protected(self):
        spec = KernelSpec(spatial_lengthscales=(1.0,))
        fm = sample_frequencies(spec, J=3, d=1, seed=0)
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

    def test_input_dim_counts_time(self):
        spec = KernelSpec(spatial_lengthscales=(1.0, 1.0), temporal_lengthscale=4.0)
        assert spec.spatial_dim == 2
        assert spec.input_dim == 3
        assert KernelSpec(spatial_lengthscales=(1.0,)).input_dim == 1


class TestFeatureMapEvaluation:
    def test_origin_features_alternate_zero_and_inv_sqrt_j(self):
        spec = KernelSpec(spatial_lengthscales=(0.5, 0.5))
        J = 4
        fm = sample_frequencies(spec, J=J, d=2, seed=1)
        phi = feature_matrix(fm, np.zeros((1, 2)))[:, 0]
        expected = np.zeros(2 * J)
        expected[1::2] = 1.0 / np.sqrt(J)
        assert np.array_equal(phi, expected)

    def test_unit_norm(self):
        spec = KernelSpec(spatial_lengthscales=(0.3, 0.7))
        fm = sample_frequencies(spec, J=16, d=2, seed=2)
        X = np.random.default_rng(3).uniform(-5, 5, size=(20, 2))
        Phi = feature_matrix(fm, X)
        assert np.all(np.abs(np.sum(Phi**2, axis=0) - 1.0) <= 1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=2))
    def test_unit_norm_property(self, coords):
        spec = KernelSpec(spatial_lengthscales=(0.3, 0.7))
        fm = sample_frequencies(spec, J=8, d=2, seed=2)
        phi = feature_matrix(fm, np.asarray([coords]))[:, 0]
        assert abs(phi @ phi - 1.0) <= 1e-12

    def test_kernel_approximation_1d(self):
        # Mean absolute error against the closed-form RBF stays below 3/sqrt(J).
        J = 2000
        spec = KernelSpec(spatial_lengthscales=(1.0,))
        fm = sample_frequencies(spec, J=J, d=1, seed=7)
        rng = np.random.default_rng(11)
        errs = []
        for _ in range(100):
            x, xp = rng.uniform(-2, 2, size=(2, 1))
            Phi = feature_matrix(fm, np.stack([x, xp]))
            approx = Phi[:, 0] @ Phi[:, 1]
            errs.append(abs(approx - rbf(x, xp, [1.0])))
        assert np.mean(errs) <= 3.0 / np.sqrt(J)

    def test_product_kernel_approximation_with_time(self):
        # Frequencies with a temporal column approximate the product of a
        # spatial RBF and a temporal RBF on augmented inputs [x, t].
        J = 2000
        spec = KernelSpec(spatial_lengthscales=(1.0,), temporal_lengthscale=4.0)
        fm = sample_frequencies(spec, J=J, d=1, seed=13)
        rng = np.random.default_rng(17)
        errs = []
        for _ in range(100):
            x, xp = rng.uniform(-2, 2, size=2)
            t, tp = rng.uniform(0, 48, size=2)
            Phi = feature_matrix(fm, np.array([[x, t], [xp, tp]]))
            approx = Phi[:, 0] @ Phi[:, 1]
            exact = rbf([x], [xp], [1.0]) * rbf([t], [tp], [4.0])
            errs.append(abs(approx - exact))
        assert np.mean(errs) <= 3.0 / np.sqrt(J)


class TestFeatureMatrix:
    def test_single_row_equals_column_of_batch(self):
        spec = KernelSpec(spatial_lengthscales=(0.4, 0.9))
        fm = sample_frequencies(spec, J=6, d=2, seed=4)
        X = np.array([[0.7, 0.1], [0.3, -1.2], [-2.0, 0.5]])
        Phi = feature_matrix(fm, X[1:2])
        assert Phi.shape == (12, 1)
        assert np.allclose(Phi[:, 0], feature_matrix(fm, X)[:, 1], rtol=0, atol=1e-15)

    def test_identical_rows_give_identical_columns(self):
        spec = KernelSpec(spatial_lengthscales=(0.4,))
        fm = sample_frequencies(spec, J=5, d=1, seed=4)
        X = np.array([[0.25], [0.25]])
        Phi = feature_matrix(fm, X)
        assert np.array_equal(Phi[:, 0], Phi[:, 1])

    def test_shape_contract(self):
        spec = KernelSpec(spatial_lengthscales=(1.0, 1.0, 1.0))
        fm = sample_frequencies(spec, J=5, d=3, seed=0)
        Phi = feature_matrix(fm, np.zeros((7, 3)))
        assert Phi.shape == (10, 7)

    def test_wrong_width_rejected(self):
        spec = KernelSpec(spatial_lengthscales=(1.0, 1.0))
        fm = sample_frequencies(spec, J=5, d=2, seed=0)
        with pytest.raises(ValueError):
            feature_matrix(fm, np.zeros((3, 3)))


@st.composite
def timed_grids(draw):
    """A feature map with a time column, sites, and an integer time."""
    J = draw(st.integers(1, 24))
    d = draw(st.integers(1, 3))
    lengthscales = draw(st.lists(st.floats(0.05, 5.0), min_size=d, max_size=d))
    temporal = draw(st.floats(0.1, 100.0))
    spec = KernelSpec(spatial_lengthscales=tuple(lengthscales), temporal_lengthscale=temporal)
    fm = sample_frequencies(spec, J=J, d=d, seed=draw(st.integers(0, 2**32 - 1)))
    N = draw(st.integers(1, 12))
    sites = draw(st.lists(st.floats(-10.0, 10.0), min_size=N * d, max_size=N * d))
    return fm, np.reshape(sites, (N, d)), draw(st.integers(0, 10**4))


class TestShiftTime:
    @settings(max_examples=200, deadline=None)
    @given(timed_grids())
    def test_rotation_equals_featurizing_at_t(self, case):
        fm, X, t = case
        J = fm.num_features
        Phi0 = feature_matrix(fm, augment_time_matrix(X, 0))
        out = shift_time(fm, Phi0, t, out=np.empty_like(Phi0))
        expected = feature_matrix(fm, augment_time_matrix(X, t))
        # Both sides round the projections [x, t].v, each in its own order,
        # so they part by a few eps times the largest |x||v| + t|v_time|; the
        # rotation itself keeps 1e-12 below that.
        angle = np.max(np.abs(augment_time_matrix(X, t)) @ np.abs(fm.frequencies).T)
        atol = max(1e-12, 4 * np.finfo(float).eps * angle) / np.sqrt(J)
        assert np.max(np.abs(out - expected)) <= atol

    @settings(max_examples=50, deadline=None)
    @given(timed_grids())
    def test_zero_time_is_a_bitwise_copy(self, case):
        fm, X, _ = case
        Phi0 = feature_matrix(fm, augment_time_matrix(X, 0))
        out = np.full_like(Phi0, np.nan)
        assert shift_time(fm, Phi0, 0, out=out) is out
        assert out.tobytes() == Phi0.tobytes()

    def test_zero_time_keeps_signed_zeros(self):
        # -0.0 cos(0) + C sin(0) would be +0.0; t = 0 copies instead.
        fm = FeatureMap(frequencies=np.array([[0.5, 1.0]]), num_features=1, seed=0)
        Phi0 = np.array([[-0.0], [1.0]])
        out = shift_time(fm, Phi0, 0, out=np.empty_like(Phi0))
        assert out.tobytes() == Phi0.tobytes()

    def test_out_may_be_a_strided_view(self):
        spec = KernelSpec(spatial_lengthscales=(0.5,), temporal_lengthscale=2.0)
        fm = sample_frequencies(spec, J=4, d=1, seed=1)
        X = np.linspace(-1.0, 1.0, 5)[:, np.newaxis]
        Phi0 = feature_matrix(fm, augment_time_matrix(X, 0))
        buffer = np.zeros((8, 10))
        shift_time(fm, Phi0, 3, out=buffer[:, ::2])
        expected = feature_matrix(fm, augment_time_matrix(X, 3))
        assert np.allclose(buffer[:, ::2], expected, rtol=0, atol=1e-15)
        assert not buffer[:, 1::2].any()

    @pytest.mark.parametrize("make_out", [
        lambda Phi0: np.empty((Phi0.shape[0], Phi0.shape[1] + 1)),
        lambda Phi0: np.empty((Phi0.shape[0] - 2, Phi0.shape[1])),
        lambda Phi0: np.empty(Phi0.shape, dtype=np.float32),
        lambda Phi0: Phi0,
        lambda Phi0: Phi0[:, ::-1],
    ], ids=["wide", "short", "float32", "same", "reversed_view"])
    def test_misshaped_or_aliased_out_rejected(self, make_out):
        spec = KernelSpec(spatial_lengthscales=(0.5,), temporal_lengthscale=2.0)
        fm = sample_frequencies(spec, J=4, d=1, seed=1)
        Phi0 = feature_matrix(fm, augment_time_matrix(np.zeros((3, 1)), 0))
        before = Phi0.copy()
        with pytest.raises(ValueError, match="out"):
            shift_time(fm, Phi0, 5, out=make_out(Phi0))
        assert np.array_equal(Phi0, before)

    def test_phi0_of_another_map_rejected(self):
        spec = KernelSpec(spatial_lengthscales=(0.5,), temporal_lengthscale=2.0)
        fm = sample_frequencies(spec, J=4, d=1, seed=1)
        Phi0 = np.zeros((6, 3))
        with pytest.raises(ValueError, match="8 x N"):
            shift_time(fm, Phi0, 5, out=np.empty_like(Phi0))
