"""Tests for the noise subsystem: models, keyed streams, robust decoding,
and the noisy batched engine path."""

import numpy as np
import pytest

from repro.core.design import DesignStats, PoolingDesign, stream_design_stats
from repro.core.estimate import robust_calibrate_k
from repro.core.mn import run_mn_trial
from repro.core.reconstruction import reconstruct
from repro.engine.backend import SharedMemBackend
from repro.engine.batch import reconstruct_batch, signals_oracle
from repro.noise import (
    DropoutNoise,
    GaussianNoise,
    average_replicas,
    corrupt_batch,
    corrupt_single,
    noise_stream,
    parse_noise_spec,
    run_noisy_mn_trial,
    score_noise_std,
    threshold_decode,
)


def _signals(B, n, k, seed=0):
    rng = np.random.default_rng(seed)
    sigmas = np.zeros((B, n), dtype=np.int8)
    for b in range(B):
        sigmas[b, rng.choice(n, k, replace=False)] = 1
    return sigmas


class TestModels:
    def test_deterministic_under_fixed_stream(self):
        y = np.arange(50, dtype=np.int64)
        for model in (GaussianNoise(2.5), DropoutNoise(0.3)):
            a = model.corrupt(y, noise_stream(7, index=3, replica=1))
            b = model.corrupt(y, noise_stream(7, index=3, replica=1))
            assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        y = np.arange(200, dtype=np.int64)
        model = GaussianNoise(5.0)
        assert not np.array_equal(
            model.corrupt(y, noise_stream(7, index=0)),
            model.corrupt(y, noise_stream(7, index=1)),
        )

    @pytest.mark.parametrize("model", [GaussianNoise(0.0), DropoutNoise(0.0)])
    def test_zero_noise_is_exact_noop_single(self, model):
        y = np.array([3, 0, 7, 12], dtype=np.int64)
        assert np.array_equal(model.corrupt(y, np.random.default_rng(0)), y)

    @pytest.mark.parametrize("model", [GaussianNoise(0.0), DropoutNoise(0.0)])
    def test_zero_noise_is_exact_noop_batched(self, model):
        y = np.arange(24, dtype=np.int64).reshape(4, 6)
        assert np.array_equal(model.corrupt(y, np.random.default_rng(0)), y)

    def test_corrupt_preserves_batch_shape(self):
        y = np.ones((3, 10), dtype=np.int64)
        for model in (GaussianNoise(1.0), DropoutNoise(0.5)):
            assert model.corrupt(y, np.random.default_rng(1)).shape == (3, 10)

    def test_with_level_and_level(self):
        assert GaussianNoise(2.0).with_level(0.5) == GaussianNoise(0.5)
        assert DropoutNoise(0.2).with_level(0.0).level == 0.0
        assert GaussianNoise(3.0).level == 3.0

    def test_result_std(self):
        assert GaussianNoise(2.0).result_std(100.0) == 2.0
        assert DropoutNoise(0.0).result_std(100.0) == 0.0
        assert DropoutNoise(0.5).result_std(100.0) == pytest.approx(5.0)

    def test_parse_noise_spec(self):
        assert parse_noise_spec("gaussian:2.0") == GaussianNoise(2.0)
        assert parse_noise_spec("dropout:0.05") == DropoutNoise(0.05)
        with pytest.raises(ValueError, match="unknown noise family"):
            parse_noise_spec("cauchy:1.0")
        with pytest.raises(ValueError, match="missing a level"):
            parse_noise_spec("gaussian")
        with pytest.raises(ValueError, match="not a number"):
            parse_noise_spec("gaussian:lots")


class TestChannel:
    def test_batch_rows_match_single_streams(self):
        y = np.random.default_rng(0).integers(0, 50, size=(8, 30)).astype(np.int64)
        model = GaussianNoise(3.0)
        out = corrupt_batch(y, model, 11)
        for b in range(8):
            assert np.array_equal(out[b], corrupt_single(y[b], model, 11, index=b))

    def test_b1_batch_identical_to_single(self):
        y = np.arange(40, dtype=np.int64)
        model = DropoutNoise(0.25)
        assert np.array_equal(
            corrupt_batch(y[None, :], model, 5)[0],
            corrupt_single(y, model, 5, index=0),
        )

    def test_index_stride_keys_rows_by_trial_id(self):
        y = np.arange(60, dtype=np.int64).reshape(2, 30)
        model = GaussianNoise(1.0)
        out = corrupt_batch(y, model, 3, base_index=1000, index_stride=1)
        assert np.array_equal(out[1], corrupt_single(y[1], model, 3, index=1001))

    def test_replicas_draw_independent_streams(self):
        y = np.zeros(500, dtype=np.int64) + 20
        model = GaussianNoise(4.0)
        r0 = corrupt_single(y, model, 9, replica=0)
        r1 = corrupt_single(y, model, 9, replica=1)
        assert not np.array_equal(r0, r1)

    def test_average_replicas_identity_on_identical(self):
        y = np.arange(12, dtype=np.int64)
        stacked = np.stack([y, y, y])
        assert np.array_equal(average_replicas(stacked), y)

    def test_average_replicas_rejects_flat(self):
        with pytest.raises(ValueError, match="axis 0"):
            average_replicas(np.arange(5))


class TestNoisyFacades:
    N, M, B, K = 200, 260, 64, 12

    def test_batch_b64_bit_identical_per_signal(self):
        sigmas = _signals(self.B, self.N, self.K)
        noise = GaussianNoise(1.5)
        batch = reconstruct_batch(
            self.N,
            self.M,
            signals_oracle(sigmas),
            self.B,
            rng=np.random.default_rng(5),
            noise=noise,
            noise_seed=21,
            repeats=3,
        )
        for b in range(self.B):
            sig = sigmas[b]
            single = reconstruct(
                self.N,
                self.M,
                lambda pools: [int(sig[p].sum()) for p in pools],
                rng=np.random.default_rng(5),
                noise=noise,
                noise_seed=21,
                noise_index=b,
                repeats=3,
            )
            assert np.array_equal(single.sigma_hat, batch.sigma_hat[b])
            assert single.k == int(batch.k[b])
            assert np.array_equal(single.y, batch.y[b])

    @pytest.mark.parametrize("model", [GaussianNoise(0.0), DropoutNoise(0.0)])
    def test_zero_noise_channel_matches_noiseless_facades(self, model):
        sigmas = _signals(8, self.N, 5, seed=3)
        clean = reconstruct_batch(self.N, self.M, signals_oracle(sigmas), 8, rng=np.random.default_rng(2))
        noisy = reconstruct_batch(
            self.N, self.M, signals_oracle(sigmas), 8, rng=np.random.default_rng(2), noise=model, repeats=2
        )
        assert np.array_equal(clean.sigma_hat, noisy.sigma_hat)
        assert np.array_equal(clean.y, noisy.y)
        assert np.array_equal(clean.k, noisy.k)

    def test_repeats_without_noise_is_noop(self):
        sigmas = _signals(4, self.N, 5, seed=1)
        one = reconstruct_batch(self.N, self.M, signals_oracle(sigmas), 4, rng=np.random.default_rng(9))
        many = reconstruct_batch(self.N, self.M, signals_oracle(sigmas), 4, rng=np.random.default_rng(9), repeats=4)
        assert np.array_equal(one.sigma_hat, many.sigma_hat)

    def test_noisy_calibration_goes_through_replica_median(self):
        sigmas = _signals(4, self.N, self.K, seed=4)
        report = reconstruct_batch(
            self.N,
            self.M,
            signals_oracle(sigmas),
            4,
            rng=np.random.default_rng(0),
            noise=GaussianNoise(1.0),
            noise_seed=2,
            repeats=5,
        )
        assert report.calibrated
        # Median of 5 replicas of N(12, 1) is within 1 of the truth.
        assert np.all(np.abs(report.k - self.K) <= 1)

    def test_repeats_validated(self):
        sigmas = _signals(2, self.N, 5)
        with pytest.raises(ValueError, match="repeats"):
            reconstruct_batch(self.N, self.M, signals_oracle(sigmas), 2, repeats=0)


class TestStreamingNoise:
    def test_zero_noise_noop(self):
        sig = _signals(1, 300, 5)[0]
        clean = stream_design_stats(sig, 200, root_seed=4)
        noisy = stream_design_stats(sig, 200, root_seed=4, noise=GaussianNoise(0.0))
        assert np.array_equal(clean.y, noisy.y)
        assert np.array_equal(clean.psi, noisy.psi)

    def test_noise_worker_invariant(self):
        sig = _signals(1, 300, 5)[0]
        a = stream_design_stats(sig, 600, root_seed=4, noise=GaussianNoise(2.0))
        with SharedMemBackend(2) as backend:
            b = stream_design_stats(sig, 600, root_seed=4, noise=GaussianNoise(2.0), backend=backend)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.psi, b.psi)

    def test_run_mn_trial_accepts_noise(self):
        clean = run_mn_trial(300, 300, theta=0.3, root_seed=1)
        same = run_mn_trial(300, 300, theta=0.3, root_seed=1, noise=DropoutNoise(0.0))
        assert clean == same
        noisy = run_mn_trial(300, 300, theta=0.3, root_seed=1, noise=GaussianNoise(30.0))
        assert noisy.overlap <= clean.overlap


class TestRobustCalibration:
    def test_median_scalar(self):
        assert int(robust_calibrate_k(np.array([10, 12, 11]))) == 11

    def test_median_batched(self):
        calibs = np.array([[10, 5], [12, 5], [11, 50]])
        assert np.array_equal(robust_calibrate_k(calibs), np.array([11, 5]))

    def test_single_replica_is_identity(self):
        assert int(robust_calibrate_k(np.array([7]))) == 7

    def test_zero_rejected_with_signal_index(self):
        with pytest.raises(ValueError, match="signal 1"):
            robust_calibrate_k(np.array([[3, 0], [3, 0], [3, 0]]))
        with pytest.raises(ValueError, match="no one-entries"):
            robust_calibrate_k(np.array([0, 0, 0]))

    def test_exceeding_n_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            robust_calibrate_k(np.array([200, 200]), n=100)


class TestThresholdDecode:
    def _stats(self, sigmas, m=400, seed=1):
        design = PoolingDesign.sample(sigmas.shape[-1], m, np.random.default_rng(seed))
        return design, design.stats(sigmas)

    def test_clean_matches_truth(self):
        sig = _signals(1, 300, 5, seed=2)[0]
        _, stats = self._stats(sig)
        result = threshold_decode(stats)
        assert np.array_equal(result.sigma_hat, sig)
        assert result.reliable

    def test_batched_rows_match_single(self):
        sigmas = _signals(6, 300, 5, seed=5)
        _, stats = self._stats(sigmas)
        batched = threshold_decode(stats)
        for b in range(6):
            single = threshold_decode(stats.signal(b))
            assert np.array_equal(batched.sigma_hat[b], single.sigma_hat)

    def test_dropout_shrink_corrected(self):
        sigmas = _signals(8, 300, 5, seed=6)
        design, _ = self._stats(sigmas)
        noise = DropoutNoise(0.2)
        y = corrupt_batch(design.query_results(sigmas), noise, 9)
        stats = DesignStats(
            y=y,
            psi=design.psi(y),
            dstar=design.dstar(),
            delta=design.delta(),
            n=300,
            m=400,
            gamma=design.mean_pool_size,
        )
        result = threshold_decode(stats, noise=noise)
        exact = np.mean([np.array_equal(result.sigma_hat[b], sigmas[b]) for b in range(8)])
        assert exact >= 0.75

    def test_unreliable_under_huge_noise(self):
        sig = _signals(1, 300, 5, seed=2)[0]
        _, stats = self._stats(sig)
        result = threshold_decode(stats, noise=GaussianNoise(100.0))
        assert not result.reliable
        assert result.score_std == pytest.approx(score_noise_std(stats, GaussianNoise(100.0)))

    def test_repeats_shrink_score_std(self):
        sig = _signals(1, 300, 5, seed=2)[0]
        _, stats = self._stats(sig)
        noise = GaussianNoise(8.0)
        assert score_noise_std(stats, noise, repeats=4) == pytest.approx(score_noise_std(stats, noise) / 2.0)

    def test_rejects_bad_z(self):
        sig = _signals(1, 300, 5)[0]
        _, stats = self._stats(sig)
        with pytest.raises(ValueError, match="z must be positive"):
            threshold_decode(stats, z=0.0)


class TestNoisyTrialHooks:
    def test_deterministic(self):
        a = run_noisy_mn_trial(200, 200, GaussianNoise(2.0), theta=0.3, root_seed=3, trial=1)
        b = run_noisy_mn_trial(200, 200, GaussianNoise(2.0), theta=0.3, root_seed=3, trial=1)
        assert a == b

    @pytest.mark.parametrize("decoder", ["lp", "omp"])
    def test_baseline_hooks_run(self, decoder):
        r = run_noisy_mn_trial(120, 140, GaussianNoise(0.0), theta=0.3, root_seed=0, decoder=decoder)
        assert r.n == 120 and 0.0 <= r.overlap <= 1.0

    def test_unknown_decoder_rejected(self):
        with pytest.raises(ValueError, match="unknown decoder"):
            run_noisy_mn_trial(100, 100, GaussianNoise(1.0), theta=0.3, decoder="amp2")

    def test_repeat_averaging_not_worse_under_noise(self):
        noise = GaussianNoise(8.0)
        single = np.mean(
            [run_noisy_mn_trial(200, 220, noise, theta=0.3, root_seed=1, trial=t).overlap for t in range(6)]
        )
        averaged = np.mean(
            [run_noisy_mn_trial(200, 220, noise, theta=0.3, root_seed=1, trial=t, repeats=4).overlap for t in range(6)]
        )
        assert averaged >= single - 0.02
