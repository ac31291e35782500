"""Sequential ABC: thresholds, kernels, weights, pooling, and posterior quality."""

import numpy as np
import pytest
from scipy import stats

from crnverify import (
    ConfigError,
    ExperimentConfig,
    ParticleSet,
    abcseq,
    adaptive_threshold,
    fit_posterior,
    observe,
    parse_crn,
    perturb,
    pool_batches,
)
from crnverify import abcsmc
from crnverify.abcsmc import STATUS_ABORTED, kernel_covariance, save_particles, load_particles
from crnverify.rng import stream
from crnverify.simulate import simulate
from reference_ssa import discrepancy, reference_simulate

DECAY = parse_crn(
    "format=1; species A B; param k in [0.1, 10];"
    "reaction decay: A -> B @ k; init A=50; conserve 50;"
)
K_TRUE = (1.0,)


@pytest.fixture(scope="module")
def decay_data():
    traj = simulate(DECAY, K_TRUE, 10.0, stream(100, 0))
    return observe(traj, np.linspace(0.5, 10.0, 20), 0.0, stream(100, 1), species=DECAY.species)


class TestAdaptiveThreshold:
    def test_odd_count(self):
        assert adaptive_threshold([1.0, 2.0, 3.0]) == 2.0

    def test_even_count_averages_middle(self):
        assert adaptive_threshold([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_constant_distances(self):
        assert adaptive_threshold([0.7, 0.7, 0.7]) == 0.7


class TestPerturb:
    def test_kernel_covariance_doubles_hand_computed(self):
        # weights (0.5, 0.3, 0.2) on 1-d points (1, 2, 4):
        # mean = 1.9, weighted var = 0.5*0.81 + 0.3*0.01 + 0.2*4.41 = 1.29
        cov = kernel_covariance(np.array([[1.0], [2.0], [4.0]]), np.array([0.5, 0.3, 0.2]))
        assert cov[0, 0] == pytest.approx(2 * 1.29, rel=1e-9)

    def test_degenerate_cloud_regularizes(self):
        chol = np.linalg.cholesky(kernel_covariance(np.array([(1.0, 2.0)] * 5), np.full(5, 0.2)))
        out = perturb(np.array([1.0, 2.0]), chol, stream(1, 0))
        assert abs(out[0] - 1.0) < 1e-4
        assert abs(out[1] - 2.0) < 1e-4

    def test_kernel_is_symmetric(self):
        # the Gaussian kernel density depends only on the difference
        from crnverify.abcsmc import _kernel_mixture_density

        cov = np.array([[0.5, 0.1], [0.1, 0.3]])
        a = np.array([[1.0, 2.0]])
        b = np.array([[1.7, 1.1]])
        d_ab = _kernel_mixture_density(a, b, np.array([1.0]), cov)[0]
        d_ba = _kernel_mixture_density(b, a, np.array([1.0]), cov)[0]
        assert d_ab == pytest.approx(d_ba, rel=1e-12)

    def test_kernel_mixture_matches_per_pair_densities(self):
        # 600 new points span three blocks of the mixture evaluation
        from crnverify.abcsmc import _kernel_mixture_density

        rng = stream(3, 0)
        new, old = rng.normal(size=(600, 2)), rng.normal(size=(40, 2))
        weights = rng.random(40)
        cov = np.array([[0.5, 0.1], [0.1, 0.3]])
        expected = sum(w * stats.multivariate_normal(o, cov).pdf(new) for o, w in zip(old, weights))
        assert np.allclose(_kernel_mixture_density(new, old, weights, cov), expected, rtol=1e-12, atol=0)

    def test_kernel_mixture_memory_is_linear_in_particles(self):
        # an (m, m, k) difference array alone would take 64 MB at m = 2000
        import tracemalloc

        from crnverify.abcsmc import _kernel_mixture_density

        rng = stream(4, 0)
        pts = rng.normal(size=(2000, 2))
        weights = np.full(2000, 1 / 2000)
        tracemalloc.start()
        try:
            _kernel_mixture_density(pts, pts, weights, np.eye(2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_perturbation_spread_matches_covariance(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        chol = np.linalg.cholesky(kernel_covariance(pts, np.full(4, 0.25)))
        rng = stream(2, 0)
        draws = np.array([perturb(np.array([1.5, 0.0]), chol, rng)[0] for _ in range(4000)])
        # var of the 'a' coordinate: 2 * 1.25
        assert np.var(draws) == pytest.approx(2.5, rel=0.1)


class TestAbcseq:
    def test_single_round_is_prior_sampling_with_uniform_weights(self, decay_data):
        (res,) = abcseq(DECAY, decay_data, ExperimentConfig(seed=5, abc_particles=50, abc_rounds=1))
        assert res.round == 0
        assert np.allclose(res.weights, 1.0 / 50)
        assert res.threshold == float("inf")
        pts = res.points
        assert np.all((0.1 <= pts) & (pts <= 10.0))

    def test_posterior_mean_within_band_and_near_rejection_oracle(self, decay_data):
        (res,) = abcseq(DECAY, decay_data, ExperimentConfig(seed=42, abc_particles=500, abc_rounds=6))
        w = res.weights
        pts = res.points[:, 0]
        mean = float(w @ pts)
        assert 0.5 <= mean <= 2.0
        # independent oracle: plain rejection ABC at the final adaptive
        # threshold, its paths from the one-path loop (the same draws as
        # ``simulate`` on the shared generator, without the lane arrays)
        eps = res.threshold
        rng = stream(999, 0)
        accepted = []
        for _ in range(40000):
            k = 0.1 + 9.9 * rng.random()
            traj = reference_simulate(DECAY, (k,), 10.0, rng)
            if discrepancy(decay_data, traj) <= eps:
                accepted.append(k)
            if len(accepted) >= 1000:
                break
        oracle_mean = float(np.mean(accepted))
        assert 0.5 <= oracle_mean <= 2.0
        assert abs(mean - oracle_mean) < 0.3

    def test_weights_normalized_every_round(self, decay_data):
        for rounds in (1, 3, 6):
            (res,) = abcseq(DECAY, decay_data, ExperimentConfig(seed=9, abc_particles=100, abc_rounds=rounds))
            w = res.weights
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.all(w >= 0)

    def test_thresholds_strictly_decreasing(self, decay_data):
        (res,) = abcseq(DECAY, decay_data, ExperimentConfig(seed=17, abc_particles=200, abc_rounds=6))
        finite = [t for t in res.thresholds if np.isfinite(t)]
        assert all(a > b for a, b in zip(finite, finite[1:]))

    def test_all_particles_inside_parameter_space(self, decay_data):
        (res,) = abcseq(DECAY, decay_data, ExperimentConfig(seed=23, abc_particles=200, abc_rounds=5))
        pts = res.points
        assert np.all((0.1 <= pts) & (pts <= 10.0))

    def test_distances_within_final_threshold(self, decay_data):
        (res,) = abcseq(DECAY, decay_data, ExperimentConfig(seed=31, abc_particles=100, abc_rounds=4))
        assert np.all(res.distances <= res.threshold)

    def test_abort_returns_previous_round_flagged(self, decay_data):
        # max_attempts=1 cannot satisfy round 1's median threshold
        (res,) = abcseq(
            DECAY, decay_data,
            ExperimentConfig(seed=3, abc_particles=50, abc_rounds=4, abc_max_attempts=1),
        )
        assert res.status == STATUS_ABORTED
        assert res.round < 3

    def test_prior_recovery_under_infinite_threshold(self, decay_data, monkeypatch):
        # thresholds pinned to infinity (an infinite previous threshold also
        # skips the stall check): the final weighted sample must be
        # prior-distributed; the standard kernel-mixture weights leave a
        # small boundary bias, so this is a fixed-seed regression guard
        monkeypatch.setattr(abcsmc, "adaptive_threshold", lambda distances: float("inf"))
        (res,) = abcseq(DECAY, decay_data, ExperimentConfig(seed=1, abc_particles=400, abc_rounds=3))
        assert res.thresholds == (float("inf"),) * 3
        w = res.weights
        pts = res.points[:, 0]
        rng = stream(1, 99)
        resampled = pts[rng.choice(len(pts), size=400, p=w)]
        prior_draws = 0.1 + 9.9 * rng.random(400)
        ks = stats.ks_2samp(resampled, prior_draws)
        assert ks.pvalue > 0.01

    def test_posterior_contracts_with_more_observations(self):
        traj = simulate(DECAY, K_TRUE, 10.0, stream(100, 0))

        def pooled_std(q):
            data = observe(traj, np.linspace(10.0 / q, 10.0, q), 0.0, stream(100, 1), species=DECAY.species)
            sets = abcseq(DECAY, data, ExperimentConfig(seed=11, abc_particles=500, abc_rounds=6), [0, 1])
            return float(fit_posterior(*pool_batches(sets)).std()[0])

        assert pooled_std(20) < pooled_std(5)

    def test_determinism(self, decay_data):
        cfg = ExperimentConfig(seed=77, abc_particles=60, abc_rounds=3)
        (a,) = abcseq(DECAY, decay_data, cfg)
        (b,) = abcseq(DECAY, decay_data, cfg)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.distances, b.distances)
        assert a.thresholds == b.thresholds

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="abc_particles"):
            ExperimentConfig(seed=1, abc_particles=1, abc_rounds=2)
        with pytest.raises(ConfigError, match="abc_rounds"):
            ExperimentConfig(seed=1, abc_particles=10, abc_rounds=0)


class TestPooling:
    def _batch(self, values, weights, names=("k",)):
        return ParticleSet(
            names=names,
            points=np.array(values, dtype=float)[:, None],
            weights=np.array(weights, dtype=float),
            distances=np.full(len(values), 0.1),
            round=2,
            attempts=9,
            thresholds=(float("inf"), 1.0),
        )

    def test_single_batch_identity(self):
        b = self._batch([1.0, 2.0], [0.5, 0.5])
        names, points, weights = pool_batches([b])
        assert names == ("k",)
        assert weights.tolist() == [0.5, 0.5]
        assert points[:, 0].tolist() == [1.0, 2.0]

    def test_two_identical_batches_same_mean(self):
        b = self._batch([1.0, 3.0], [0.5, 0.5])
        _, points, weights = pool_batches([b, b])
        assert weights.sum() == pytest.approx(1.0)
        assert weights @ points[:, 0] == pytest.approx(2.0)

    def test_disjoint_batches_average_of_means(self):
        b1 = self._batch([1.0, 2.0], [0.5, 0.5])  # mean 1.5
        b2 = self._batch([5.0, 7.0], [0.5, 0.5])  # mean 6.0
        _, points, weights = pool_batches([b1, b2])
        assert weights @ points[:, 0] == pytest.approx((1.5 + 6.0) / 2)

    def test_mismatched_spaces_rejected(self):
        b = self._batch([1.0, 2.0], [0.5, 0.5])
        other = self._batch([0.2, 0.4], [0.5, 0.5], names=("q",))
        with pytest.raises(ConfigError):
            pool_batches([b, other])


class TestParticleFiles:
    def test_round_trip(self, decay_data, tmp_path):
        sets = abcseq(DECAY, decay_data, ExperimentConfig(seed=5, abc_particles=40, abc_rounds=3), [0, 1])
        path = tmp_path / "particles.csv"
        save_particles(sets, DECAY.params, path, seed=5)
        loaded, space, meta = load_particles(path)
        assert space.names == ("k",)
        assert meta["seed"] == 5
        assert len(loaded) == 2
        for orig, back in zip(sets, loaded):
            assert back.round == orig.round
            assert back.thresholds == pytest.approx(orig.thresholds)
            assert back.names == orig.names
            assert np.array_equal(back.points, orig.points)
            assert np.array_equal(back.weights, orig.weights)
            assert np.array_equal(back.distances, orig.distances)
