"""Tests for MN scores and their identities."""

import numpy as np
import pytest

from repro.core.design import PoolingDesign
from repro.core.scores import expected_score_gap, mn_scores, phi_from_psi, psi_phi_identity_check
from repro.core.signal import random_signal


@pytest.fixture
def instance():
    rng = np.random.default_rng(0)
    n, k, m = 200, 5, 150
    sigma = random_signal(n, k, rng)
    design = PoolingDesign.sample(n, m, rng)
    return design.stats(sigma), sigma, k


class TestMNScores:
    def test_shape_and_dtype(self, instance):
        stats, _, k = instance
        scores = mn_scores(stats, k)
        assert scores.shape == (stats.n,)
        assert scores.dtype == np.float64

    def test_centring_formula(self, instance):
        stats, _, k = instance
        scores = mn_scores(stats, k)
        manual = stats.psi - stats.dstar * (k / 2)
        assert np.allclose(scores, manual)

    def test_one_entries_score_higher_on_average(self, instance):
        stats, sigma, k = instance
        scores = mn_scores(stats, k)
        ones_mean = scores[sigma == 1].mean()
        zeros_mean = scores[sigma == 0].mean()
        assert ones_mean > zeros_mean + stats.m / 4  # separation ~ m/2

    def test_rejects_bad_k(self, instance):
        stats, _, _ = instance
        with pytest.raises(ValueError):
            mn_scores(stats, 0)


class TestPhi:
    def test_phi_removes_self_contribution(self, instance):
        stats, sigma, _ = instance
        phi = phi_from_psi(stats, sigma)
        ones = sigma == 1
        assert np.array_equal(phi[~ones], stats.psi[~ones])
        assert np.array_equal(phi[ones], stats.psi[ones] - stats.delta[ones])

    def test_identity_check_true_on_real_data(self, instance):
        stats, sigma, _ = instance
        assert psi_phi_identity_check(stats, sigma)

    def test_identity_check_false_on_corrupted_data(self, instance):
        stats, sigma, _ = instance
        bad = stats.y.copy()
        bad[0] += 1
        from repro.core.design import DesignStats

        corrupted = DesignStats(
            y=bad, psi=stats.psi, dstar=stats.dstar, delta=stats.delta, n=stats.n, m=stats.m, gamma=stats.gamma
        )
        assert not psi_phi_identity_check(corrupted, sigma)

    def test_readers_of_delta_reject_stats_without_it(self, instance):
        import dataclasses

        stats, sigma, _ = instance
        no_delta = dataclasses.replace(stats, delta=None)
        assert np.array_equal(mn_scores(no_delta, 3), mn_scores(stats, 3))  # MN needs only Ψ and Δ*
        for reader in (phi_from_psi, psi_phi_identity_check):
            with pytest.raises(ValueError, match=rf"{reader.__name__} needs Δ"):
                reader(no_delta, sigma)


class TestExpectedGap:
    def test_value(self):
        assert expected_score_gap(100, 5, 60) == 30.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            expected_score_gap(0, 5, 60)
