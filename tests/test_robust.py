"""Weight functions and weighted increments, checked against hand computation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipgp import (
    KernelSpec,
    RobustConfig,
    apply_increment,
    factorize,
    feature_matrix,
    hampel_weight,
    huber_weight,
    predict_batch,
    prior_state,
    robust_increment,
    sample_frequencies,
    standardized_residuals,
    weights_for,
)

from conftest import unpack


class TestHuberWeight:
    def test_small_residual_gets_unit_weight(self):
        assert huber_weight(0.0, delta=1.0) == 1.0
        assert huber_weight(1.0, delta=1.0) == 1.0
        assert huber_weight(-0.7, delta=1.0) == 1.0

    def test_large_residual_scaled_down(self):
        assert huber_weight(2.0, delta=1.0) == 0.5
        assert huber_weight(-4.0, delta=1.0) == 0.25

    def test_huge_delta_reduces_to_unit_weights(self):
        e = np.linspace(-50, 50, 101)
        assert np.array_equal(huber_weight(e, delta=1e9), np.ones_like(e))

    def test_piecewise_definition_on_grid(self):
        e = np.linspace(-10, 10, 1000)
        delta = 1.345
        expected = np.where(np.abs(e) <= delta, 1.0, delta / np.abs(e))
        assert np.array_equal(huber_weight(e, delta), expected)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(1e-3, 1e3, allow_nan=False),
    )
    def test_range_symmetry_monotonicity(self, e, delta):
        w = huber_weight(e, delta)
        assert 0.0 < w <= 1.0
        assert w == huber_weight(-e, delta)
        # weights never increase as |e| grows
        assert huber_weight(abs(e) + 1.0, delta) <= w

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            huber_weight(1.0, delta=0.0)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_rejects_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match="delta must be finite and strictly positive"):
            huber_weight(1.0, delta=delta)

    def test_nan_residual_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            huber_weight(np.nan, 1.345)
        with pytest.raises(ValueError, match="NaN"):
            huber_weight(np.array([0.5, np.nan]), 1.345)

    def test_infinite_residual_gets_zero_weight(self):
        assert huber_weight(np.inf, 1.345) == 0.0
        assert np.array_equal(huber_weight(np.array([-np.inf, 0.5]), 1.345), [0.0, 1.0])


class TestHampelWeight:
    def test_inlier_band(self):
        assert hampel_weight(0.5, 1.0, 2.0, 4.0) == 1.0
        assert hampel_weight(-1.0, 1.0, 2.0, 4.0) == 1.0

    def test_rejected_beyond_c(self):
        assert hampel_weight(5.0, 1.0, 2.0, 4.0) == 0.0
        assert hampel_weight(-100.0, 1.0, 2.0, 4.0) == 0.0
        assert hampel_weight(4.0 + 1e-12, 1.0, 2.0, 4.0) == 0.0

    def test_continuity_at_b(self):
        # Both branches give a/b at |e| = b.
        a, b, c = 1.0, 2.0, 4.0
        middle = a / b
        assert hampel_weight(b, a, b, c) == pytest.approx(middle, abs=1e-14)
        assert hampel_weight(b - 1e-9, a, b, c) == pytest.approx(middle, abs=1e-8)
        assert hampel_weight(b + 1e-9, a, b, c) == pytest.approx(middle, abs=1e-8)

    def test_continuity_on_grid(self):
        # Max slope of the weight is bounded by a/b^2 <= 1 on the descending
        # branches for the default breakpoints, so adjacent-grid jumps stay
        # below twice the grid spacing.
        e = np.linspace(0.0, 10.0, 2001)
        w = hampel_weight(e, 2.0, 4.0, 8.0)
        spacing = e[1] - e[0]
        assert np.max(np.abs(np.diff(w))) <= 2.0 * spacing

    def test_descending_branch_values(self):
        # a/|e| on (a, b]: at e=3 with (2,4,8) the weight is 2/3.
        assert hampel_weight(3.0, 2.0, 4.0, 8.0) == pytest.approx(2.0 / 3.0, rel=1e-14)
        # redescending branch a(c-|e|)/(|e|(c-b)): at e=6 with (2,4,8), 2*2/(6*4)=1/6.
        assert hampel_weight(6.0, 2.0, 4.0, 8.0) == pytest.approx(1.0 / 6.0, rel=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-1e6, 1e6, allow_nan=False))
    def test_range_and_symmetry(self, e):
        w = hampel_weight(e, 2.0, 4.0, 8.0)
        assert 0.0 <= w <= 1.0
        assert w == hampel_weight(-e, 2.0, 4.0, 8.0)

    def test_rejects_bad_breakpoints(self):
        with pytest.raises(ValueError):
            hampel_weight(1.0, 2.0, 2.0, 8.0)
        with pytest.raises(ValueError):
            hampel_weight(1.0, 0.0, 4.0, 8.0)
        with pytest.raises(ValueError):
            RobustConfig(kind="hampel", a=4.0, b=2.0, c=8.0)

    def test_nan_residual_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            hampel_weight(np.nan, 2.0, 4.0, 8.0)
        with pytest.raises(ValueError, match="NaN"):
            hampel_weight(np.array([0.5, np.nan]), 2.0, 4.0, 8.0)

    def test_infinite_residual_gets_zero_weight(self):
        # No branch that is not taken may warn either: the tests turn a
        # RuntimeWarning into an error.
        assert hampel_weight(np.inf, 2.0, 4.0, 8.0) == 0.0
        w = hampel_weight(np.array([-np.inf, 0.5, 6.0, np.inf]), 2.0, 4.0, 8.0)
        assert np.array_equal(w, [0.0, 1.0, 2.0 * 2.0 / (6.0 * 4.0), 0.0])


class TestWeightsFor:
    def test_none_gives_unit_weights(self):
        e = np.array([0.0, 5.0, -20.0])
        assert np.array_equal(weights_for(e, RobustConfig(kind="none")), np.ones(3))

    def test_dispatch(self):
        e = np.array([3.0])
        assert weights_for(e, RobustConfig(kind="huber", delta=1.0))[0] == 1.0 / 3.0
        assert weights_for(e, RobustConfig(kind="hampel", a=2.0, b=4.0, c=8.0))[0] == 2.0 / 3.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RobustConfig(kind="tukey")

    @pytest.mark.parametrize("kind", ["none", "huber", "hampel"])
    def test_nan_residual_rejected_for_every_kind(self, kind):
        with pytest.raises(ValueError, match="NaN"):
            weights_for(np.array([0.0, np.nan]), RobustConfig(kind=kind))

    @pytest.mark.parametrize("kind,weight", [("none", 1.0), ("huber", 0.0), ("hampel", 0.0)])
    def test_infinite_residual_keeps_its_weight(self, kind, weight):
        w = weights_for(np.array([np.inf, -np.inf]), RobustConfig(kind=kind))
        assert np.array_equal(w, [weight, weight])


class TestStandardizedResiduals:
    def test_exact_prediction_gives_zero(self):
        spec = KernelSpec(spatial_lengthscales=(0.5,), obs_variance=0.2)
        fm = sample_frequencies(spec, J=3, d=1, seed=0)
        state = prior_state(spec, J=3)
        X = np.array([[0.4]])
        # prior mean is 0, so y=0 sits exactly at the prediction
        moments = predict_batch(factorize(state), feature_matrix(fm, X))
        e = standardized_residuals(np.array([0.0]), *moments)
        assert e[0] == 0.0

    def test_prior_residual_scale(self):
        # Prior predictive variance is prior + obs = 2, so y = 2 gives 2/sqrt(2).
        spec = KernelSpec(spatial_lengthscales=(0.5,), prior_variance=1.0, obs_variance=1.0)
        fm = sample_frequencies(spec, J=4, d=1, seed=1)
        state = prior_state(spec, J=4)
        moments = predict_batch(factorize(state), feature_matrix(fm, np.array([[0.3]])))
        e = standardized_residuals(np.array([2.0]), *moments)
        assert e[0] == pytest.approx(2.0 / np.sqrt(2.0), abs=1e-10)

    def test_huber_membership_invariant_under_joint_scaling(self):
        # Scaling y and the prior variance by the same factor scales residuals
        # proportionally, which preserves which observations fall past delta
        # when the scaled residuals are compared against a rescaled threshold;
        # with a fixed threshold the {1, <1} pattern is preserved whenever the
        # residual scaling is exactly proportional. Here variance scales by 4
        # while y scales by 2, so e is unchanged and so are the weights.
        spec1 = KernelSpec(spatial_lengthscales=(0.5,), prior_variance=1.0, obs_variance=1.0)
        spec2 = KernelSpec(spatial_lengthscales=(0.5,), prior_variance=4.0, obs_variance=4.0)
        fm1 = sample_frequencies(spec1, J=4, d=1, seed=2)
        fm2 = sample_frequencies(spec2, J=4, d=1, seed=2)
        X = np.array([[0.1], [0.5], [0.9]])
        y = np.array([0.5, 3.0, -4.0])
        moments1 = predict_batch(factorize(prior_state(spec1, J=4)), feature_matrix(fm1, X))
        moments2 = predict_batch(factorize(prior_state(spec2, J=4)), feature_matrix(fm2, X))
        e1 = standardized_residuals(y, *moments1)
        e2 = standardized_residuals(2.0 * y, *moments2)
        assert np.allclose(e1, e2, atol=1e-12)
        cfg = RobustConfig(kind="huber", delta=1.345)
        w1, w2 = weights_for(e1, cfg), weights_for(e2, cfg)
        assert np.array_equal(w1 == 1.0, w2 == 1.0)

    def test_moment_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            standardized_residuals(np.zeros(3), np.zeros(2), np.ones(2))
        with pytest.raises(ValueError, match="does not match"):
            standardized_residuals(np.zeros(2), np.zeros(2), np.ones(3))


class TestRobustIncrement:
    def test_unit_weights_equal_plain_increment(self):
        spec = KernelSpec(spatial_lengthscales=(0.5, 0.5), obs_variance=0.3)
        fm = sample_frequencies(spec, J=4, d=2, seed=3)
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(6, 2))
        y = rng.standard_normal(6)
        Phi = feature_matrix(fm, X)
        P, s = robust_increment(Phi, y, np.ones(6), 0.3)
        assert P.shape == (36,)
        assert np.allclose(unpack(P, 8), Phi @ Phi.T / 0.3, rtol=1e-14, atol=1e-15)
        assert np.allclose(s, Phi @ y / 0.3, rtol=1e-14, atol=1e-15)

    def test_zero_weight_deletes_observation(self):
        spec = KernelSpec(spatial_lengthscales=(0.5,), obs_variance=0.2)
        fm = sample_frequencies(spec, J=3, d=1, seed=5)
        rng = np.random.default_rng(6)
        X = rng.uniform(size=(4, 1))
        y = rng.standard_normal(4)
        Phi = feature_matrix(fm, X)
        w = np.array([1.0, 1.0, 0.0, 1.0])
        masked_P, masked_s = robust_increment(Phi, y, w, 0.2)
        kept = [0, 1, 3]
        direct_P, direct_s = robust_increment(Phi[:, kept], y[kept], np.ones(3), 0.2)
        assert np.allclose(masked_P, direct_P, atol=1e-14)
        assert np.allclose(masked_s, direct_s, atol=1e-14)

    def test_two_point_hand_case(self):
        # Explicit matrix products for weights (1, 0.5).
        Phi = np.array([[1.0, 0.0], [0.0, 2.0]])
        y = np.array([3.0, 4.0])
        w = np.array([1.0, 0.5])
        P, s = robust_increment(Phi, y, w, obs_variance=0.5)
        W = np.diag(w)
        assert np.allclose(unpack(P, 2), Phi @ W @ Phi.T / 0.5, atol=1e-15)
        assert np.allclose(s, Phi @ W @ y / 0.5, atol=1e-15)
        # P is the Gram of Phi W^1/2, and sqrt(0.5)^2 rounds one ulp above
        # 0.5; s takes the weights themselves and stays exact. Packed, P is
        # (P00, P10, P11).
        np.testing.assert_array_max_ulp(P, np.array([2.0, 0.0, 4.0]), maxulp=1)
        assert np.array_equal(s, np.array([6.0, 8.0]))

    def test_downweighting_shrinks_information(self):
        spec = KernelSpec(spatial_lengthscales=(0.5,), obs_variance=0.1)
        fm = sample_frequencies(spec, J=3, d=1, seed=7)
        X = np.random.default_rng(8).uniform(size=(5, 1))
        Phi = feature_matrix(fm, X)
        y = np.ones(5)
        full_P, _ = robust_increment(Phi, y, np.ones(5), 0.1)
        half_P, _ = robust_increment(Phi, y, np.full(5, 0.5), 0.1)
        # trace measures total added information
        assert np.trace(unpack(half_P, 6)) == pytest.approx(
            0.5 * np.trace(unpack(full_P, 6)), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_packed_P_is_the_weighted_gram(self, n, N, seed):
        # Against Phi W Phi^T / s2 summed in extended precision. Entries may
        # cancel, so the absolute tolerance is relative to the largest
        # diagonal entry, which bounds every term's magnitude sum.
        rng = np.random.default_rng(seed)
        Phi = rng.standard_normal((n, N))
        w = rng.uniform(size=N)
        P, _ = robust_increment(Phi, rng.standard_normal(N), w, 0.3)
        Phi_ld = Phi.astype(np.longdouble)
        want = (np.einsum("in,jn,n->ij", Phi_ld, Phi_ld, w.astype(np.longdouble))
                / np.longdouble(0.3)).astype(float)
        np.testing.assert_allclose(unpack(P, n), want, rtol=1e-14,
                                   atol=1e-14 * np.diag(want).max())

    def test_out_writes_into_message_slices(self):
        # Into slices of a (2, dim(dim+1)/2 + dim + 1) message, as the epoch
        # loop writes: the same bits as a fresh increment whatever the slices
        # held (NaN here), and nothing else moves.
        rng = np.random.default_rng(11)
        Phi = rng.standard_normal((5, 7))
        y = rng.standard_normal(7)
        w = rng.uniform(size=7)
        message = np.full((2, 21), np.nan)
        out = (message[1, :15], message[1, 15:20])
        P, s = robust_increment(Phi, y, w, 0.2, out=out)
        assert P is out[0] and s is out[1]
        fresh_P, fresh_s = robust_increment(Phi, y, w, 0.2)
        assert np.array_equal(message[1, :15], fresh_P)
        assert np.array_equal(message[1, 15:20], fresh_s)
        assert np.all(np.isnan(message[0])) and np.isnan(message[1, 20])
        robust_increment(Phi[:, :0], y[:0], w[:0], 0.2, out=out)
        assert np.all(message[1, :20] == 0.0)

    def test_out_rejects_arrays_it_cannot_fill_in_place(self):
        Phi, y, w = np.ones((3, 2)), np.ones(2), np.ones(2)
        for P, s in ((np.empty(7), np.empty(3)),
                     (np.empty((3, 3)), np.empty(3)),
                     (np.empty(6, dtype=np.float32), np.empty(3)),
                     (np.empty(6), np.empty(4))):
            with pytest.raises(ValueError, match=r"out needs a float64 \(6,\) packed P"):
                robust_increment(Phi, y, w, 0.1, out=(P, s))

    def test_rejects_out_of_range_weights(self):
        Phi = np.zeros((2, 1))
        with pytest.raises(ValueError):
            robust_increment(Phi, np.zeros(1), np.array([1.5]), 0.1)
        with pytest.raises(ValueError):
            robust_increment(Phi, np.zeros(1), np.array([-0.1]), 0.1)

    def test_rejects_nan_weights(self):
        Phi = np.ones((2, 3))
        with pytest.raises(ValueError, match=r"weights must lie in \[0, 1\]"):
            robust_increment(Phi, np.zeros(3), np.array([1.0, np.nan, 1.0]), 0.05)

    def test_weighted_posterior_against_brute_force(self):
        # Weighted updates equal a dense recomputation with W folded in.
        spec = KernelSpec(spatial_lengthscales=(0.4,), prior_variance=2.0, obs_variance=0.3)
        fm = sample_frequencies(spec, J=4, d=1, seed=9)
        rng = np.random.default_rng(10)
        X = rng.uniform(size=(8, 1))
        y = rng.standard_normal(8)
        w = rng.uniform(0.1, 1.0, size=8)
        Phi = feature_matrix(fm, X)
        state = prior_state(spec, J=4)
        apply_increment(state.D, state.eta, *robust_increment(Phi, y, w, 0.3))
        D_direct = Phi @ np.diag(w) @ Phi.T / 0.3 + np.eye(8) / 2.0
        eta_direct = Phi @ np.diag(w) @ y / 0.3
        assert np.allclose(unpack(state.D, 8), D_direct, atol=1e-12)
        assert np.allclose(state.eta, eta_direct, atol=1e-12)
