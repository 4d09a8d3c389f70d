"""Tests for the §VI extensions: noise, threshold queries, adaptive rounds."""

import numpy as np
import pytest

from repro.core.signal import random_signal
from repro.core.thresholds import m_mn_threshold
from repro.extensions.adaptive import adaptive_reconstruct
from repro.extensions.threshold_gt import ThresholdDesign, run_threshold_trial, threshold_mn_decode
from repro.noise.models import DropoutNoise, GaussianNoise
from repro.noise.trial import run_noisy_mn_trial


class TestNoiseModels:
    def test_gaussian_zero_sigma_identity(self):
        y = np.array([3, 0, 7], dtype=np.int64)
        out = GaussianNoise(0.0).corrupt(y, np.random.default_rng(0))
        assert np.array_equal(out, y)

    def test_gaussian_nonnegative(self):
        y = np.zeros(1000, dtype=np.int64)
        out = GaussianNoise(5.0).corrupt(y, np.random.default_rng(1))
        assert (out >= 0).all()

    def test_gaussian_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            GaussianNoise(-1.0)

    def test_dropout_zero_identity(self):
        y = np.array([4, 2, 0], dtype=np.int64)
        out = DropoutNoise(0.0).corrupt(y, np.random.default_rng(2))
        assert np.array_equal(out, y)

    def test_dropout_one_zeroes(self):
        y = np.array([4, 2, 9], dtype=np.int64)
        out = DropoutNoise(1.0).corrupt(y, np.random.default_rng(3))
        assert (out == 0).all()

    def test_dropout_never_exceeds_input(self):
        y = np.arange(100, dtype=np.int64)
        out = DropoutNoise(0.3).corrupt(y, np.random.default_rng(4))
        assert (out <= y).all()

    def test_dropout_rejects_bad_q(self):
        with pytest.raises(ValueError):
            DropoutNoise(1.5)

    def test_dropout_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            DropoutNoise(0.1).corrupt(np.array([-1]), np.random.default_rng(0))


class TestNoisyTrials:
    def test_noiseless_channel_matches_clean_behaviour(self):
        r = run_noisy_mn_trial(400, 400, GaussianNoise(0.0), theta=0.3, root_seed=0)
        assert r.success  # comfortably above threshold

    def test_mild_noise_tolerated(self):
        successes = sum(
            run_noisy_mn_trial(400, 500, GaussianNoise(1.0), theta=0.3, root_seed=0, trial=t).success
            for t in range(8)
        )
        assert successes >= 6

    def test_extreme_noise_hurts(self):
        ov_clean = np.mean(
            [run_noisy_mn_trial(300, 150, GaussianNoise(0.0), theta=0.3, root_seed=1, trial=t).overlap for t in range(6)]
        )
        ov_noisy = np.mean(
            [run_noisy_mn_trial(300, 150, GaussianNoise(20.0), theta=0.3, root_seed=1, trial=t).overlap for t in range(6)]
        )
        assert ov_noisy < ov_clean

    def test_requires_exactly_one_sparsity(self):
        with pytest.raises(ValueError):
            run_noisy_mn_trial(100, 50, GaussianNoise(1.0))


class TestThresholdGT:
    def test_results_binary(self):
        rng = np.random.default_rng(0)
        sigma = random_signal(200, 6, rng)
        td = ThresholdDesign.sample(200, 50, 6, rng)
        b = td.query_results(sigma)
        assert set(np.unique(b)).issubset({0, 1})

    def test_default_threshold_median(self):
        rng = np.random.default_rng(1)
        td = ThresholdDesign.sample(100, 10, 7, rng)
        assert td.threshold == 4  # ceil(7/2)

    def test_decoder_output_weight(self):
        rng = np.random.default_rng(2)
        sigma = random_signal(200, 5, rng)
        td = ThresholdDesign.sample(200, 40, 5, rng)
        est = threshold_mn_decode(td, td.query_results(sigma), 5)
        assert est.sum() == 5

    def test_recovery_with_many_queries(self):
        # One-bit channel: needs substantially more than MN, but recovers.
        hits = sum(run_threshold_trial(300, 2500, theta=0.3, seed=s).success for s in range(5))
        assert hits >= 3

    def test_needs_more_than_mn(self):
        # At MN's threshold the one-bit decoder should usually fail.
        m_mn = int(m_mn_threshold(300, 0.3))
        hits = sum(run_threshold_trial(300, m_mn, theta=0.3, seed=s).success for s in range(5))
        assert hits <= 2

    def test_rejects_wrong_b_length(self):
        rng = np.random.default_rng(3)
        td = ThresholdDesign.sample(100, 10, 4, rng)
        with pytest.raises(ValueError):
            threshold_mn_decode(td, np.zeros(11, dtype=np.int8), 4)


class TestAdaptive:
    def test_recovers_and_stops(self):
        rng = np.random.default_rng(0)
        sigma = random_signal(400, 5, rng)
        result = adaptive_reconstruct(sigma, 5, units=40, rng=rng)
        assert result.converged
        assert np.array_equal(result.sigma_hat, sigma)
        assert result.queries_used == result.rounds * 40

    def test_uses_fewer_queries_than_one_shot_threshold(self):
        rng = np.random.default_rng(1)
        n, k, theta = 400, 5, np.log(5) / np.log(400)
        sigma = random_signal(n, k, rng)
        result = adaptive_reconstruct(sigma, k, units=25, rng=rng)
        assert result.converged
        assert result.queries_used < m_mn_threshold(n, theta, k=k) * 1.5

    def test_round_cap_respected(self):
        rng = np.random.default_rng(2)
        sigma = random_signal(1000, 30, rng)
        result = adaptive_reconstruct(sigma, 30, units=2, rng=rng, max_rounds=3)
        assert result.rounds == 3
        assert not result.converged

    def test_rejects_bad_units(self):
        with pytest.raises(ValueError):
            adaptive_reconstruct(np.array([1, 0], dtype=np.int8), 1, units=0, rng=np.random.default_rng(0))
