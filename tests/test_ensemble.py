"""Ensemble bookkeeping: shared bases, evidence weighting, mixture predictions."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import norm

import gossipgp
from gossipgp import (
    EnsembleSpec,
    EnsembleState,
    KernelSpec,
    ensemble_weights,
    factorize,
    feature_matrix,
    gaussian_log_density,
    init_ensemble,
    member_seed,
    mixture_log_density,
    mixture_moments,
    predict_batch,
    robust_increment,
)


def mixture_at(state, maps, X):
    """Mixture mean and variance of an ensemble state at the rows of X, then
    its members' (M, n) means and variances and its weights.

    As the runner forms them: predict_batch per member, then mixture_moments.
    """
    w = ensemble_weights(state)
    mm, mv = np.array([predict_batch(factorize(model), feature_matrix(fm, X))
                       for model, fm in zip(state.models, maps)]).swapaxes(0, 1)
    return (*mixture_moments(w, mm, mv), mm, mv, w)


def two_member_spec(J=4, base_seed=3):
    members = (
        KernelSpec(spatial_lengthscales=(0.2, 0.2), prior_variance=1.0, obs_variance=0.1),
        KernelSpec(spatial_lengthscales=(0.8, 0.8), prior_variance=4.0, obs_variance=0.1),
    )
    return EnsembleSpec(members=members, shared_J=J, base_seed=base_seed)


class TestEnsembleSpec:
    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            EnsembleSpec(
                members=(
                    KernelSpec(spatial_lengthscales=(0.5,)),
                    KernelSpec(spatial_lengthscales=(0.5, 0.5)),
                ),
                shared_J=4,
            )

    def test_mixed_temporal_rejected(self):
        with pytest.raises(ValueError):
            EnsembleSpec(
                members=(
                    KernelSpec(spatial_lengthscales=(0.5,)),
                    KernelSpec(spatial_lengthscales=(0.5,), temporal_lengthscale=4.0),
                ),
                shared_J=4,
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EnsembleSpec(members=(), shared_J=4)

    def test_unknown_evidence_mode_rejected(self):
        with pytest.raises(ValueError, match="consensus or local"):
            EnsembleSpec(members=(KernelSpec(spatial_lengthscales=(0.5,)),), shared_J=4,
                         evidence="broadcast")


class TestSharedBases:
    def test_same_spec_and_seed_give_bitwise_identical_maps(self):
        # Two agents constructing the same ensemble draw identical bases,
        # which is the precondition for summing increments across the network.
        spec = two_member_spec()
        _, maps_a = init_ensemble(spec)
        _, maps_b = init_ensemble(spec)
        for fa, fb in zip(maps_a, maps_b):
            assert np.array_equal(fa.frequencies, fb.frequencies)

    def test_member_seeds_are_distinct(self):
        seeds = [member_seed(0, i) for i in range(6)]
        assert len(set(seeds)) == 6

    def test_member_seed_deterministic(self):
        assert member_seed(42, 3) == member_seed(42, 3)
        assert member_seed(42, 3) != member_seed(43, 3)

    def test_init_shapes(self):
        spec = two_member_spec(J=5)
        state, maps = init_ensemble(spec)
        assert state.num_members == 2
        assert np.array_equal(state.log_evidence, np.zeros(2))
        for st, fm in zip(state.models, maps):
            assert st.dim == 10
            assert fm.frequencies.shape == (5, 2)


class TestEvidenceWeights:
    def test_single_member_weight_is_one(self):
        spec = EnsembleSpec(
            members=(KernelSpec(spatial_lengthscales=(0.5,)),), shared_J=4
        )
        state, _ = init_ensemble(spec)
        assert np.array_equal(ensemble_weights(state), np.array([1.0]))
        state.log_evidence[...] = [-12.3]
        assert np.array_equal(ensemble_weights(state), np.array([1.0]))

    def test_equal_evidence_stays_uniform(self):
        state, _ = init_ensemble(two_member_spec())
        state.log_evidence[...] = [-3.0, -3.0]
        assert np.allclose(ensemble_weights(state), [0.5, 0.5], atol=1e-15)

    def test_fifty_nat_gap_saturates(self):
        state, _ = init_ensemble(two_member_spec())
        state.log_evidence[...] = [50.0, 0.0]
        w = ensemble_weights(state)
        # within 1e-20 of one: the losing member keeps less than 1e-20 mass
        assert 1.0 - w[0] <= 1e-20
        assert w[1] <= 1e-20

    def test_log3_gap_gives_three_to_one(self):
        state, _ = init_ensemble(two_member_spec())
        state.log_evidence[...] = [0.0, np.log(3.0)]
        assert np.allclose(ensemble_weights(state), [0.25, 0.75], atol=1e-12)

    def test_evidence_accumulates(self):
        # Weights follow the accumulated evidence only up to a common shift:
        # two batches' terms give the weights of their total.
        state, _ = init_ensemble(two_member_spec())
        state.log_evidence += [1.0, 2.0]
        state.log_evidence += [0.5, -1.0]
        assert np.allclose(state.log_evidence, [1.5, 1.0], atol=1e-15)
        total = EnsembleState(models=state.models, log_evidence=np.array([0.5, 0.0]))
        assert np.allclose(ensemble_weights(state), ensemble_weights(total), rtol=0, atol=1e-15)

    def test_stacked_rows_accumulate_in_place(self):
        # A state over one row of a stacked evidence array (the run keeps one
        # per agent) is a view: evidence added to the stack moves its weights.
        state, _ = init_ensemble(two_member_spec())
        log_evidence = np.zeros((3, 2))
        row = EnsembleState(models=state.models, log_evidence=log_evidence[1])
        log_evidence[1:] += [0.0, np.log(3.0)]
        assert np.shares_memory(row.log_evidence, log_evidence)
        assert np.allclose(ensemble_weights(row), [0.25, 0.75], atol=1e-12)


class TestMixturePrediction:
    def test_single_member_equals_plain_predict(self):
        spec = EnsembleSpec(
            members=(KernelSpec(spatial_lengthscales=(0.5, 0.5), obs_variance=0.2),),
            shared_J=4,
        )
        state, maps = init_ensemble(spec)
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(6, 2))
        y = rng.standard_normal(6)
        Phi = feature_matrix(maps[0], X)
        model = state.models[0]
        P, s = robust_increment(Phi, y, np.ones(6), 0.2)
        model.D += P
        model.eta += s
        X_star = np.array([[0.3, 0.6], [0.9, 0.1]])
        mean, variance, _, _, _ = mixture_at(state, maps, X_star)
        single_mean, single_variance = predict_batch(
            factorize(model), feature_matrix(maps[0], X_star)
        )
        assert np.allclose(mean, single_mean, rtol=0, atol=1e-14)
        assert np.allclose(variance, single_variance, rtol=0, atol=1e-14)

    def test_moment_matched_variance_equal_means(self):
        # equal weights, equal means, member variances (1, 3): variance 2
        w = np.array([0.5, 0.5])
        mm = np.array([[0.0], [0.0]])
        mv = np.array([[1.0], [3.0]])
        _, var = mixture_moments(w, mm, mv)
        assert var[0] == 2.0

    def test_moment_matched_variance_spread_means(self):
        # w=(0.5, 0.5), means (-1, 1), variances (1, 1): variance 1 + 1 = 2
        w = np.array([0.5, 0.5])
        mm = np.array([[-1.0], [1.0]])
        mv = np.array([[1.0], [1.0]])
        mean, var = mixture_moments(w, mm, mv)
        assert mean[0] == 0.0
        assert var[0] == 2.0

    def test_batch_moments_match_formula(self):
        spec = two_member_spec(J=3)
        state, maps = init_ensemble(spec)
        state.log_evidence[...] = [0.2, -0.4]
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(5, 2))
        mean, variance, mm, mv, w = mixture_at(state, maps, X)
        assert mm.shape == (2, 5) and mv.shape == (2, 5)
        assert np.allclose(mean, w @ mm, atol=1e-14)
        assert np.allclose(variance, w @ (mv + mm**2) - mean**2, atol=1e-14)

    def test_mixture_log_density_against_scipy(self):
        w = np.array([0.3, 0.7])
        mm = np.array([[0.0, 1.0], [2.0, -1.0]])
        mv = np.array([[1.0, 0.5], [4.0, 2.0]])
        y = np.array([0.5, 0.0])
        ours = mixture_log_density(w, mm, mv, y)
        direct = np.log(
            w[0] * norm.pdf(y, mm[0], np.sqrt(mv[0]))
            + w[1] * norm.pdf(y, mm[1], np.sqrt(mv[1]))
        )
        assert np.allclose(ours, direct, atol=1e-12)

    def test_mixture_log_density_in_the_far_tail(self):
        # Log-densities near -1e4 underflow exp(); the shifted sum keeps them.
        w = np.array([0.2, 0.5, 0.3])
        mm = np.array([[0.0, 3.0], [1.0, -2.0], [-1.0, -3.0]])
        mv = np.array([[1e-4, 2e-4], [3e-4, 1e-4], [2e-4, 5e-4]])
        y = np.array([2.0, 1.0])
        ours = mixture_log_density(w, mm, mv, y)
        log_pdf = -0.5 * (np.log(2.0 * np.pi * mv) + (y - mm) ** 2 / mv)
        assert np.all(log_pdf < -1e3)
        assert np.allclose(ours, logsumexp(log_pdf, axis=0, b=w[:, np.newaxis]),
                           rtol=1e-14, atol=0)

    def test_one_member_mixture_is_its_gaussian(self):
        mm, mv, y = np.array([[0.3, -1.0]]), np.array([[0.5, 2.0]]), np.array([1.0, 0.0])
        ours = mixture_log_density(np.ones(1), mm, mv, y)
        assert np.array_equal(ours, -0.5 * (np.log(2.0 * np.pi * mv[0])
                                            + (y - mm[0]) ** 2 / mv[0]))

    def test_mixture_log_density_when_a_zero_weight_member_dominates(self):
        # Member 0 has weight 0 and a log density about 764 above member 1's;
        # shifting by it alone would underflow the sum to 0 and give -inf.
        y = np.array([39.1])
        mm, mv = np.array([[39.1], [0.0]]), np.array([[1.0], [1.0]])
        ours = mixture_log_density(np.array([0.0, 1.0]), mm, mv, y)
        assert np.array_equal(ours, gaussian_log_density(y, mm[1], mv[1]))
        assert ours[0] == pytest.approx(-765.32, abs=0.01)

    def test_runner_import_leaves_scipy_special_out(self):
        # scipy.special costs tens of milliseconds to import; nothing a run
        # needs comes from it.
        src = str(Path(gossipgp.__file__).resolve().parents[1])
        code = "import sys, gossipgp.harness.runner; print('scipy.special' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

    def test_batch_prediction_log_density(self):
        spec = two_member_spec(J=3)
        state, maps = init_ensemble(spec)
        state.log_evidence[...] = [0.3, -0.2]
        _, _, mm, mv, w = mixture_at(state, maps, np.array([[0.1, 0.9]]))
        ours = mixture_log_density(w, mm, mv, np.array([0.7]))[0]
        direct = np.log(w @ norm.pdf(0.7, mm[:, 0], np.sqrt(mv[:, 0])))
        assert ours == pytest.approx(direct, abs=1e-12)

    def test_mixture_moments_reject_mismatched_weights(self):
        mm = mv = np.ones((2, 4))
        with pytest.raises(ValueError, match="weights"):
            mixture_moments(np.ones(3) / 3, mm, mv)
        with pytest.raises(ValueError, match="weights"):
            mixture_moments(np.ones(2) / 2, mm, np.ones((2, 3)))
        with pytest.raises(ValueError, match="weights"):
            mixture_moments(np.ones(1), np.ones(4), np.ones(4))

    @pytest.mark.parametrize("weights, variances, y", [
        (np.ones(1), np.ones((3, 4)), np.zeros(4)),
        (np.ones(3) / 3, np.ones((3, 1)), np.zeros(4)),
        (np.ones(3) / 3, np.ones((3, 4)), np.zeros(1)),
    ], ids=["one_weight", "variances", "y"])
    def test_mixture_log_density_rejects_what_it_would_broadcast(self, weights, variances, y):
        # Three members at four points: one weight would score the sum of the
        # three densities, and (3, 1) variances or a (1,) y would be spread
        # over every point.
        with pytest.raises(ValueError, match="does not match member moments|do not match"):
            mixture_log_density(weights, np.zeros((3, 4)), variances, y)
