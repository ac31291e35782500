"""Posterior fit, slice sampler, the probability integral, and the baseline."""

import numpy as np
import pytest

from crnverify import (
    ConfigError,
    Posterior,
    bayes_smc,
    check_threshold,
    fit_posterior,
    majority_verdict,
    parse_crn,
    parse_csl,
    probability,
    slice_sample,
)
from crnverify.rng import stream
from crnverify.synthesis import LABEL_SAT, LABEL_UNDECIDED, LABEL_VIOL, RegionPartition


def fit(values, weights):
    """Fit to 1-d particles at ``values`` with ``weights``."""
    return fit_posterior(("p0",), np.array(values, dtype=float)[:, None], np.array(weights, dtype=float))


class TestFitPosterior:
    def test_two_equal_weight_particles_population_variance(self):
        post = fit([0.0, 2.0], [0.5, 0.5])
        assert post.mean[0] == pytest.approx(1.0)
        assert post.variance[0] == pytest.approx(1.0)

    def test_identical_particles_degenerate(self):
        with pytest.raises(ConfigError, match="degenerate"):
            fit([1.0, 1.0], [0.5, 0.5])

    def test_degenerate_weights_yield_that_mean_then_reject(self):
        # (almost) all mass on one particle: the weighted mean is that
        # particle, and the zero-variance fit of all mass is refused
        assert fit([3.0, 9.0], [1.0, 1e-300]).mean[0] == 3.0
        with pytest.raises(ConfigError, match="degenerate"):
            fit([3.0, 9.0], [1.0, 0.0])

    @pytest.mark.parametrize("values, weights", [
        ([0.0, 2.0], [0.5, float("nan")]),
        ([0.0, float("nan")], [0.5, 0.5]),
    ])
    def test_non_finite_moments_rejected(self, values, weights):
        # slice sampling a NaN posterior never returns, so the fit refuses it
        with pytest.raises(ConfigError, match="not finite"):
            fit(values, weights)

    def test_covariance_is_diagonal_by_construction(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(50, 2))
        post = fit_posterior(("p0", "p1"), pts, np.full(50, 1 / 50))
        assert post.variance.shape == (2,)


@pytest.fixture()
def posterior():
    return Posterior(names=("a", "b"), mean=np.array([0.002, 0.05]), variance=np.array([1e-8, 4e-6]))


class TestSliceSample:

    @pytest.mark.parametrize("k", range(1, 8))
    def test_scalar_density_is_the_array_formula_bit_for_bit(self, k):
        rng = np.random.default_rng(900 + k)
        mean = rng.normal(size=k) * 10.0 ** rng.integers(-3, 2, size=k)
        variance = rng.uniform(0.1, 2.0, size=k) * 10.0 ** rng.integers(-8, 1, size=k)
        post = Posterior(names=tuple(f"p{d}" for d in range(k)), mean=mean, variance=variance)
        log_norm = np.sum(np.log(2.0 * np.pi * variance))
        for _ in range(200):
            values = mean + np.sqrt(variance) * rng.normal(size=k) * rng.uniform(0.0, 30.0)
            array_formula = float(-0.5 * (np.sum((values - mean) ** 2 / variance) + log_norm))
            assert post.logpdf(values.tolist()) == array_formula

    def test_mean_within_three_standard_errors(self, posterior):
        draws = slice_sample(posterior, 10000, 2.0, stream(1, 0))
        for d in range(2):
            se = posterior.std()[d] / np.sqrt(len(draws))
            assert abs(draws[:, d].mean() - posterior.mean[d]) < 3 * se * 3  # wide guard: slight autocorrelation

    def test_variance_within_ten_percent(self, posterior):
        draws = slice_sample(posterior, 10000, 2.0, stream(2, 0))
        for d in range(2):
            assert np.var(draws[:, d]) == pytest.approx(posterior.variance[d], rel=0.1)

    def test_single_sample(self, posterior):
        draws = slice_sample(posterior, 1, 2.0, stream(3, 0))
        assert draws.shape == (1, 2)

    def test_deterministic_under_seed(self, posterior):
        a = slice_sample(posterior, 100, 2.0, stream(4, 0))
        b = slice_sample(posterior, 100, 2.0, stream(4, 0))
        assert np.array_equal(a, b)

    def test_custom_init(self, posterior):
        draws = slice_sample(posterior, 50, 2.0, stream(5, 0), init=np.array([0.0021, 0.049]))
        assert np.all(np.isfinite(draws))


def two_box_partition(split=0.002, labels=(LABEL_SAT, LABEL_VIOL)):
    return RegionPartition(
        param_names=("a", "b"),
        theta_lo=np.array([0.0, 0.0]),
        theta_hi=np.array([0.004, 0.1]),
        lo=np.array([[0.0, 0.0], [split, 0.0]]),
        hi=np.array([[split, 0.1], [0.004, 0.1]]),
        labels=np.array(labels),
        threshold=0.1,
        relation=">",
        volume_tolerance=0.1,
    )


class TestProbability:
    def _posterior(self):
        return Posterior(
            names=("a", "b"), mean=np.array([0.002, 0.05]), variance=np.array([1e-8, 4e-6])
        )

    def test_all_sat_partition_gives_one(self):
        part = two_box_partition(labels=(LABEL_SAT, LABEL_SAT))
        report = probability(part, self._posterior(), stream(1, 1), n_samples=2000)
        assert report.probability == 1.0

    def test_all_viol_partition_gives_zero(self):
        part = two_box_partition(labels=(LABEL_VIOL, LABEL_VIOL))
        report = probability(part, self._posterior(), stream(2, 1), n_samples=2000)
        assert report.probability == 0.0

    def test_half_split_at_posterior_mean(self):
        # Gaussian symmetric about its mean: half the mass on each side
        part = two_box_partition(split=0.002)
        report = probability(part, self._posterior(), stream(3, 1), n_samples=10000)
        assert report.probability == pytest.approx(0.5, abs=0.02)

    def test_mass_fractions_sum_to_one(self):
        part = two_box_partition(labels=(LABEL_SAT, LABEL_UNDECIDED))
        report = probability(part, self._posterior(), stream(4, 1), n_samples=3000)
        total = report.mass_sat + report.mass_viol + report.mass_undecided + report.mass_outside
        assert total == pytest.approx(1.0, abs=0.0)

    def test_undecided_mass_not_counted_as_satisfying(self):
        part = two_box_partition(labels=(LABEL_UNDECIDED, LABEL_UNDECIDED))
        report = probability(part, self._posterior(), stream(5, 1), n_samples=2000)
        assert report.probability == 0.0
        assert report.mass_undecided == 1.0

    def test_mass_outside_counted_separately(self):
        # posterior centered at the very edge of the space: half the draws leave
        post = Posterior(names=("a", "b"), mean=np.array([0.0, 0.05]), variance=np.array([1e-8, 4e-6]))
        part = two_box_partition(labels=(LABEL_SAT, LABEL_SAT))
        report = probability(part, post, stream(6, 1), n_samples=4000)
        assert report.mass_outside == pytest.approx(0.5, abs=0.05)
        assert report.probability == pytest.approx(0.5, abs=0.05)

    def test_mismatched_names_rejected(self):
        part = two_box_partition()
        post = Posterior(names=("x", "y"), mean=np.array([0.0, 0.0]), variance=np.array([1.0, 1.0]))
        with pytest.raises(ConfigError):
            probability(part, post, stream(7, 1), n_samples=10)


SIR = parse_crn(
    "format=1; species S I R;"
    "param ki in [5e-5, 0.003]; param kr in [0.005, 0.2];"
    "reaction infect: S + I -> I + I @ ki; reaction recover: I -> R @ kr;"
    "init S=95, I=5, R=0; conserve 100;"
)
CASE = parse_csl("P>0.1 [ (I>0) U[100,150] (I=0) ]")


class TestBayesSmc:
    def test_concentrated_posterior_agrees_with_exact_check(self):
        post = Posterior(
            names=("ki", "kr"),
            mean=np.array([0.002, 0.05]),
            variance=np.array([1e-16, 1e-14]),
        )
        results = bayes_smc(post, SIR, CASE, n_params=1, n_sims=400, rng=stream(8, 0))
        assert len(results) == 1
        point, estimate, verdict = results[0]
        assert verdict == check_threshold(SIR, (0.002, 0.05), CASE, tol=1e-8)

    def test_majority_verdicts_at_ground_truth_points(self):
        sat = Posterior(names=("ki", "kr"), mean=np.array([0.002, 0.05]), variance=np.array([1e-10, 1e-8]))
        results = bayes_smc(sat, SIR, CASE, n_params=20, n_sims=150, rng=stream(9, 0))
        assert sum(v for _, _, v in results) >= 19

        viol = Posterior(names=("ki", "kr"), mean=np.array([0.002, 0.18]), variance=np.array([1e-10, 1e-8]))
        results = bayes_smc(viol, SIR, CASE, n_params=20, n_sims=150, rng=stream(10, 0))
        assert sum(v for _, _, v in results) <= 1

    def test_majority_helper(self):
        point = (1.0,)
        assert majority_verdict([(point, 0.5, True), (point, 0.5, True), (point, 0.1, False)])
        assert not majority_verdict([(point, 0.5, True), (point, 0.1, False)])
