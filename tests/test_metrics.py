"""Metric definitions and the deterministic CSV format."""
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import gossipgp.harness.metrics as metrics_mod
from gossipgp.harness.metrics import (
    MetricsRecord,
    _add_w2,
    _sq_frobenius,
    npll,
    read_metrics_csv,
    rmse,
    wasserstein2_gaussians,
    write_metrics_csv,
)


class TestRmse:
    def test_perfect_predictions(self):
        assert rmse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_unit_errors(self):
        assert rmse(np.array([1.0, -1.0]), np.array([0.0, 0.0])) == 1.0

    def test_hand_value(self):
        # squared errors 9 and 16, mean 12.5
        assert rmse(np.array([3.0, 0.0]), np.array([0.0, 4.0])) == pytest.approx(
            np.sqrt(12.5), abs=1e-14
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(0), np.zeros(0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(2), np.zeros(3))


class TestNpll:
    def test_standard_normal_at_mode(self):
        val = npll(np.array([0.0]), np.array([1.0]), np.array([0.0]))
        assert val == pytest.approx(0.5 * np.log(2.0 * np.pi), abs=1e-12)

    def test_matches_scipy_single_gaussian(self):
        means = np.array([0.5, -1.0, 2.0])
        variances = np.array([1.0, 0.25, 4.0])
        truths = np.array([0.0, -1.5, 3.0])
        ours = npll(means, variances, truths)
        direct = -np.mean(norm.logpdf(truths, means, np.sqrt(variances)))
        assert ours == pytest.approx(direct, abs=1e-12)

    def test_mixture_case(self):
        w = np.array([0.25, 0.75])
        mm = np.array([[0.0, 1.0], [2.0, 3.0]])
        mv = np.array([[1.0, 1.0], [0.5, 2.0]])
        truths = np.array([0.4, 2.0])
        ours = npll(mm, mv, truths, weights=w)
        dens = w[0] * norm.pdf(truths, mm[0], np.sqrt(mv[0])) + w[1] * norm.pdf(
            truths, mm[1], np.sqrt(mv[1])
        )
        assert ours == pytest.approx(-np.mean(np.log(dens)), abs=1e-12)

    def test_mixture_requires_weights(self):
        with pytest.raises(ValueError):
            npll(np.zeros((2, 3)), np.ones((2, 3)), np.zeros(3))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            npll(np.zeros(0), np.ones(0), np.zeros(0))


def root(Sigma):
    """Covariance root B with B^T B = Sigma (the transposed Cholesky factor)."""
    return np.linalg.cholesky(Sigma).T


def spd(rng, n, cond):
    """Random SPD matrix with eigenvalues log-spaced from 1 down to 1/cond."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (Q * np.logspace(0.0, -np.log10(cond), n)) @ Q.T


def w2_via_sqrtm(mu1, S1, mu2, S2):
    """W2 from the textbook formula with principal square roots (scipy sqrtm)."""
    r2 = scipy.linalg.sqrtm(S2).real
    cross = scipy.linalg.sqrtm(r2 @ S1 @ r2).real
    d2 = np.sum((mu1 - mu2) ** 2) + np.trace(S1) + np.trace(S2) - 2.0 * np.trace(cross)
    return float(np.sqrt(d2))


class TestWasserstein2:
    def test_identical_gaussians(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 4))
        Sigma = A @ A.T + np.eye(4)
        mu = rng.standard_normal(4)
        # d^2 is a difference of trace-sized terms, so it vanishes to rounding
        # relative to the trace; d itself then sits near sqrt(eps * trace).
        d = wasserstein2_gaussians(mu, root(Sigma), mu, root(Sigma))
        assert d**2 <= 1e-13 * np.trace(Sigma)

    def test_equal_covariance_mean_shift(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((3, 3))
        B = root(A @ A.T + np.eye(3))
        mu1 = np.array([1.0, 2.0, 3.0])
        v = np.array([0.3, -0.4, 1.2])
        d = wasserstein2_gaussians(mu1, B, mu1 + v, B)
        assert d == pytest.approx(np.linalg.norm(v), abs=1e-8)

    def test_1d_closed_form(self):
        # In 1D the distance is sqrt((mu1-mu2)^2 + (sd1-sd2)^2).
        d = wasserstein2_gaussians(
            np.array([0.0]), np.array([[1.0]]), np.array([0.0]), np.array([[2.0]])
        )
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_closed_form(self):
        # Commuting covariances: trace term reduces to sum of (sqrt(l1)-sqrt(l2))^2.
        B1 = np.diag([1.0, 2.0])
        B2 = np.diag([3.0, 1.0])
        mu1 = np.zeros(2)
        mu2 = np.array([1.0, 1.0])
        expected = np.sqrt(2.0 + (1.0 - 3.0) ** 2 + (2.0 - 1.0) ** 2)
        d = wasserstein2_gaussians(mu1, B1, mu2, B2)
        assert d == pytest.approx(expected, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            A = rng.standard_normal((3, 3))
            B = rng.standard_normal((3, 3))
            R1 = root(A @ A.T + 0.1 * np.eye(3))
            R2 = root(B @ B.T + 0.1 * np.eye(3))
            m1, m2 = rng.standard_normal((2, 3))
            d12 = wasserstein2_gaussians(m1, R1, m2, R2)
            d21 = wasserstein2_gaussians(m2, R2, m1, R1)
            assert d12 == pytest.approx(d21, rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("n, cond, seed", [(5, 10.0, 0), (40, 1e3, 1), (60, 1e8, 2)])
    def test_matches_sqrtm_formula(self, n, cond, seed):
        # Independent reference: the textbook formula with scipy's sqrtm. Any
        # root of Sigma gives the same distance: the Cholesky root and the
        # symmetric square root are both checked.
        rng = np.random.default_rng(seed)
        S1, S2 = spd(rng, n, cond), spd(rng, n, cond)
        assert np.linalg.cond(S1) >= 0.99 * cond
        mu1, mu2 = rng.standard_normal((2, n))
        expected = w2_via_sqrtm(mu1, S1, mu2, S2)
        for B1, B2 in ((root(S1), root(S2)),
                       (scipy.linalg.sqrtm(S1).real, scipy.linalg.sqrtm(S2).real)):
            d = wasserstein2_gaussians(mu1, B1, mu2, B2)
            assert d == pytest.approx(expected, rel=1e-9, abs=0.0)

    def test_rank_deficient_root_tolerated(self):
        # A rank-one root puts rounding-level negatives among the eigenvalues
        # of A A^T; they are clipped, and the distance of a Gaussian to
        # itself stays at the floor.
        v = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        B = np.zeros((3, 3))
        B[0] = v
        d = wasserstein2_gaussians(np.zeros(3), B, np.zeros(3), B)
        assert d <= 1e-6

    def test_negative_squared_distance_rejected(self, monkeypatch):
        # The nuclear norm never exceeds the mean of the two traces, so a
        # negative d^2 beyond rounding means broken linear algebra.
        exact = scipy.linalg.eigvalsh
        monkeypatch.setattr(scipy.linalg, "eigvalsh", lambda *a, **k: 4.0 * exact(*a, **k))
        with pytest.raises(ValueError, match="negative squared distance"):
            wasserstein2_gaussians(np.zeros(2), np.eye(2), np.zeros(2), np.eye(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            wasserstein2_gaussians(np.zeros(2), np.eye(2), np.zeros(3), np.eye(3))
        with pytest.raises(ValueError, match="shapes do not match"):
            wasserstein2_gaussians(np.zeros(3), np.eye(2), np.zeros(3), np.eye(2))

    def test_huge_roots_scale_exactly(self):
        # W2 is homogeneous of degree one. At a scale of 2^200 the Gram A A^T
        # of the cross product would overflow; scaling A by a power of two
        # keeps it finite and exact.
        rng = np.random.default_rng(9)
        B1 = np.tril(rng.standard_normal((6, 6)))
        B2 = np.tril(rng.standard_normal((6, 6)))
        mu1, mu2 = rng.standard_normal(6), rng.standard_normal(6)
        c = 2.0**200
        d = wasserstein2_gaussians(mu1, B1, mu2, B2)
        assert wasserstein2_gaussians(c * mu1, c * B1, c * mu2, c * B2) == c * d

    def test_scale_comes_from_the_largest_entry_of_either_sign(self):
        # Roots that differ only in sign give one Gaussian, so W2 = 0. The
        # cross product's largest entry, -2^400, is negative; a scale taken
        # from its positive entry alone (2^-400) would overflow the Gram.
        B1 = np.diag([2.0**200, 2.0**-200])
        B2 = np.diag([-(2.0**200), 2.0**-200])
        assert wasserstein2_gaussians(np.zeros(2), B1, np.zeros(2), B2) == 0.0

    def test_non_finite_root_rejected(self):
        B = np.eye(3)
        B[2, 1] = np.inf
        with pytest.raises(ValueError, match="covariance root B2 holds non-finite"):
            wasserstein2_gaussians(np.zeros(3), np.eye(3), np.zeros(3), B)

    def test_overflowing_squared_distance_rejected(self):
        # A = B1 B2^T is the identity, but tr(Sigma1) = ||B1||_F^2 overflows.
        B1, B2 = 1e160 * np.eye(3), 1e-160 * np.eye(3)
        with pytest.raises(ValueError, match="squared distance inf is not finite"):
            wasserstein2_gaussians(np.zeros(3), B1, np.zeros(3), B2)

    def test_overflowing_cross_product_rejected(self):
        B = 1e160 * np.ones((3, 3))
        with pytest.raises(ValueError, match="cross product .* overflows"):
            wasserstein2_gaussians(np.zeros(3), B, np.zeros(3), B)


def full_w2_sum(weights, roots, others):
    """The evidence-weighted W2 with every term computed, in member order."""
    return float(sum(w_m * wasserstein2_gaussians(*r, *o)
                     for w_m, r, o in zip(weights, roots, others)))


def random_roots(rng, count, n=3):
    """count (mu, B) pairs: B lower triangular, each at its own scale."""
    return [(rng.standard_normal(n),
             10.0 ** rng.uniform(-2, 2) * np.tril(rng.standard_normal((n, n))))
            for _ in range(count)]



def traces_of(others):
    """Each other root's ||B||_F^2, as _add_w2 takes them."""
    return [_sq_frobenius(B) for _, B in others]


def added_w2(weights, roots, others):
    """The evidence-weighted W2, each term added by _add_w2 in member order."""
    total = 0.0
    for w_m, root, other, trace in zip(weights, roots, others, traces_of(others)):
        total = _add_w2(total, w_m, root, other, trace)
    return total


# Weights of every magnitude the softmax of log-evidence can give.
WEIGHT = st.one_of(
    st.just(0.0),
    st.sampled_from([5e-324, 1e-310, 2.0**-1022]),
    st.floats(-300.0, 0.0).map(lambda e: 10.0**e),
)
NEGLIGIBLE = st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-310]),
                       st.floats(-300.0, -30.0).map(lambda e: 10.0**e))


class TestWeightedW2:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(WEIGHT, min_size=2, max_size=4), NEGLIGIBLE,
           st.sampled_from(["first", "middle", "last"]))
    def test_bitwise_equals_the_full_sum(self, seed, weights, negligible, where):
        at = {"first": 0, "middle": len(weights) // 2, "last": len(weights)}[where]
        weights = np.array(weights[:at] + [negligible] + weights[at:])
        rng = np.random.default_rng(seed)
        roots, others = random_roots(rng, len(weights)), random_roots(rng, len(weights))
        ours = added_w2(weights, roots, others)
        assert ours.hex() == full_w2_sum(weights, roots, others).hex()

    @pytest.mark.parametrize("weights, computed", [
        ((0.7, 0.3, 1e-60), [0, 1]),
        ((0.7, 1e-60, 0.3), [0, 2]),
        ((1e-60, 0.7, 0.3), [0, 1, 2]),  # the first term is always computed
        ((0.7, 0.0, 1e-10), [0, 2]),
    ])
    def test_computes_only_terms_that_can_move_the_sum(self, monkeypatch, weights, computed):
        rng = np.random.default_rng(4)
        roots, others = random_roots(rng, 3), random_roots(rng, 3)
        calls = []
        exact = metrics_mod.wasserstein2_gaussians

        def counted(mu1, B1, mu2, B2):
            calls.append(next(m for m, r in enumerate(roots) if r[1] is B1))
            return exact(mu1, B1, mu2, B2)

        monkeypatch.setattr(metrics_mod, "wasserstein2_gaussians", counted)
        total = added_w2(np.array(weights), roots, others)
        assert calls == computed
        # Each skipped term, added to the sum, would have left it unchanged.
        for m in set(range(3)) - set(computed):
            assert total + weights[m] * exact(*roots[m], *others[m]) == total
        assert total.hex() == full_w2_sum(weights, roots, others).hex()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("weight", [0.0, 1e-300])
    def test_non_finite_root_of_a_negligible_member_raises(self, bad, weight):
        rng = np.random.default_rng(5)
        roots, others = random_roots(rng, 3), random_roots(rng, 3)
        roots[1][1][2, 0] = bad
        traces = traces_of(others)
        total = _add_w2(0.0, 1.0, roots[0], others[0], traces[0])
        assert total > 0.0
        with pytest.raises(ValueError, match="covariance root B1 holds non-finite"):
            _add_w2(total, weight, roots[1], others[1], traces[1])


class TestMetricsCsv:
    def records(self):
        return [
            MetricsRecord(t=1, agent_id=1, rmse=0.5, npll=1.25, w2_to_centralized=None),
            MetricsRecord(t=0, agent_id=0, rmse=1.0 / 3.0, npll=-0.7, w2_to_centralized=2e-7),
            MetricsRecord(t=1, agent_id=0, rmse=0.25, npll=0.0, w2_to_centralized=None),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv(path, self.records())
        loaded = read_metrics_csv(path)
        assert [(r.t, r.agent_id) for r in loaded] == [(0, 0), (1, 0), (1, 1)]
        by_key = {(r.t, r.agent_id): r for r in loaded}
        assert by_key[(0, 0)].rmse == 1.0 / 3.0
        assert by_key[(0, 0)].w2_to_centralized == 2e-7
        assert by_key[(1, 1)].w2_to_centralized is None

    def test_byte_determinism(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_csv(p1, self.records())
        write_metrics_csv(p2, list(reversed(self.records())))
        assert p1.read_bytes() == p2.read_bytes()

    def test_floats_round_trip_exactly(self, tmp_path):
        # repr() of a float64 parses back to the identical float
        path = tmp_path / "m.csv"
        value = 0.1 + 0.2  # not representable nicely in decimal
        write_metrics_csv(path, [MetricsRecord(t=0, agent_id=0, rmse=value)])
        assert read_metrics_csv(path)[0].rmse == value

    def test_header(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv(path, [])
        assert path.read_text().splitlines()[0] == "t,agent_id,rmse,npll,w2_to_centralized"
