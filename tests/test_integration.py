"""End-to-end integration tests across the whole stack.

Each test exercises a realistic pipeline through the *public* API only:
design → (machine) → queries → decoder → verification, plus the
experiment drivers wired to CSV output.
"""

import numpy as np
import pytest

from repro import (
    MNDecoder,
    PoolingDesign,
    SharedMemBackend,
    SimulatedLab,
    exact_recovery,
    m_information_parallel,
    m_mn_threshold,
    mn_reconstruct,
    random_signal,
    reconstruct,
    stream_design_stats,
    theta_to_k,
)
from repro.baselines import adaptive_binary_splitting, basis_pursuit_decode, oracle_from_signal
from repro.core.exhaustive import exhaustive_decode
from repro.core.posterior import bayes_marginal_decode
from repro.machine.latency import DeterministicLatency


class TestFullPipelines:
    def test_materialised_pipeline(self):
        """Design → query → MN decode → verify, all explicit objects."""
        rng = np.random.default_rng(0)
        n, theta = 800, 0.3
        k = theta_to_k(n, theta)
        m = int(1.4 * m_mn_threshold(n, theta))
        sigma = random_signal(n, k, rng)
        design = PoolingDesign.sample(n, m, rng)
        y = design.query_results(sigma)
        sigma_hat = mn_reconstruct(design, y, k)
        assert exact_recovery(sigma, sigma_hat)

    def test_streaming_pipeline_matches_decoder_api(self):
        """Streaming stats feed the decoder identically to the explicit path."""
        rng = np.random.default_rng(1)
        n, k, m = 400, 5, 400
        sigma = random_signal(n, k, rng)
        stats = stream_design_stats(sigma, m, root_seed=11)
        sigma_hat = MNDecoder().decode(stats, k)
        assert exact_recovery(sigma, sigma_hat)

    def test_lab_pipeline_with_machine_model(self):
        """The SimulatedLab produces the same answer as direct decoding."""
        rng = np.random.default_rng(2)
        n, k, m = 600, 5, 500
        sigma = random_signal(n, k, rng)
        design = PoolingDesign.sample(n, m, rng)
        lab = SimulatedLab(units=64, latency=DeterministicLatency(1.0))
        report = lab.run(design, sigma, k, np.random.default_rng(3))
        direct = mn_reconstruct(design, design.query_results(sigma), k)
        assert np.array_equal(report.sigma_hat, direct)
        assert report.schedule.rounds == -(-m // 64)

    def test_oracle_facade_roundtrip(self):
        """reconstruct() against a stateful oracle, k calibrated."""
        rng = np.random.default_rng(4)
        n = 700
        sigma = random_signal(n, 6, rng)
        log = []

        def oracle(pools):
            log.append(len(pools))
            return [int(sigma[p].sum()) for p in pools]

        report = reconstruct(n, 450, oracle, rng=np.random.default_rng(5))
        assert exact_recovery(sigma, report.sigma_hat)
        assert log == [451]  # one batch, one calibration query

    def test_three_decoders_agree_above_threshold(self):
        """MN, LP and exhaustive search coincide on an easy small instance."""
        rng = np.random.default_rng(6)
        n, k = 24, 3
        # Above both the IT threshold (exhaustive) and MN's own (larger,
        # finite-size-corrected) requirement.
        theta_eff = np.log(k) / np.log(n)
        m = int(max(3 * m_information_parallel(n, k), 2.5 * m_mn_threshold(n, theta_eff, k=k)))
        sigma = random_signal(n, k, rng)
        design = PoolingDesign.sample(n, m, rng)
        y = design.query_results(sigma)
        mn = mn_reconstruct(design, y, k)
        lp = basis_pursuit_decode(design, y, k)
        ex, count = exhaustive_decode(design, y, k)
        assert count == 1
        assert np.array_equal(mn, sigma)
        assert np.array_equal(lp, sigma)
        assert np.array_equal(ex, sigma)

    def test_bayes_decoder_via_public_stack(self):
        rng = np.random.default_rng(7)
        n, k, m = 20, 3, 12
        sigma = random_signal(n, k, rng)
        design = PoolingDesign.sample(n, m, rng)
        est, post = bayes_marginal_decode(design, design.query_results(sigma), k)
        assert est.sum() == k
        assert post.num_consistent >= 1

    def test_sequential_and_parallel_agree(self):
        """Adaptive splitting and one-shot MN recover the same signal."""
        rng = np.random.default_rng(8)
        n, k = 512, 4
        sigma = random_signal(n, k, rng)
        seq = adaptive_binary_splitting(n, oracle_from_signal(sigma))
        design = PoolingDesign.sample(n, 400, rng)
        par = mn_reconstruct(design, design.query_results(sigma), k)
        assert np.array_equal(seq.sigma_hat, par)


class TestParallelIntegration:
    def test_shared_pool_across_stages(self):
        """One backend serves streaming stats for several trials and m values."""
        rng = np.random.default_rng(9)
        sigma = random_signal(300, 4, rng)
        with SharedMemBackend(3) as backend:
            for m in (50, 120, 300):
                stats = stream_design_stats(sigma, m, root_seed=21, trial_key=(m,), backend=backend)
                assert stats.m == m
                serial = stream_design_stats(sigma, m, root_seed=21, trial_key=(m,))
                assert np.array_equal(stats.psi, serial.psi)

    def test_pool_survives_decoder_usage(self):
        """Interleaving pool tasks with decoding does not corrupt state."""
        rng = np.random.default_rng(10)
        sigma = random_signal(300, 4, rng)
        with SharedMemBackend(2) as backend:
            stats1 = stream_design_stats(sigma, 250, root_seed=31, backend=backend)
            est1 = MNDecoder().decode(stats1, 4)
            stats2 = stream_design_stats(sigma, 250, root_seed=32, backend=backend)
            est2 = MNDecoder().decode(stats2, 4)
        assert exact_recovery(sigma, est1)
        assert exact_recovery(sigma, est2)


class TestFailurePaths:
    def test_wrong_oracle_arity_detected(self):
        with pytest.raises(ValueError):
            reconstruct(100, 10, lambda pools: [1])

    def test_ragged_design_rejected_by_gamma(self):
        d = PoolingDesign.from_pools(10, [[0, 1], [2]])
        with pytest.raises(ValueError, match="ragged"):
            _ = d.gamma

    def test_decoder_requires_matching_lengths(self):
        rng = np.random.default_rng(11)
        design = PoolingDesign.sample(50, 10, rng)
        with pytest.raises(ValueError):
            mn_reconstruct(design, np.zeros(9, dtype=np.int64), 3)
