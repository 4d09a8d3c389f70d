"""Tests for score diagnostics and the Lemma-3 concentration event."""

import numpy as np
import pytest

from repro.core.design import PoolingDesign, stream_design_stats
from repro.core.diagnostics import ClassScores, concentration_event_holds, diagnose_scores
from repro.core.signal import random_signal


@pytest.fixture
def instance():
    rng = np.random.default_rng(0)
    n, k, m = 500, 6, 500
    sigma = random_signal(n, k, rng)
    design = PoolingDesign.sample(n, m, rng)
    return design.stats(sigma), sigma


class TestClassScores:
    def test_from_values(self):
        cs = ClassScores.from_values(np.array([1.0, 3.0, 2.0]))
        assert cs.count == 3
        assert cs.mean == 2.0
        assert cs.minimum == 1.0 and cs.maximum == 3.0

    def test_singleton_zero_std(self):
        assert ClassScores.from_values(np.array([5.0])).std == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ClassScores.from_values(np.array([]))


class TestDiagnoseScores:
    def test_separation_above_threshold(self, instance):
        stats, sigma = instance
        diag = diagnose_scores(stats, sigma)
        assert diag.separated
        assert diag.margin > 0
        assert diag.ones.mean > diag.zeros.mean

    def test_gap_scale_matches_prediction(self, instance):
        stats, sigma = instance
        diag = diagnose_scores(stats, sigma)
        gap = diag.ones.mean - diag.zeros.mean
        # Corollary-4 accounting: gap ≈ m/2 − γ·Γ·m/(n−1); within 20%.
        assert abs(gap - diag.predicted_separation) < 0.2 * diag.predicted_separation

    def test_no_separation_with_few_queries(self):
        rng = np.random.default_rng(1)
        n, k = 500, 6
        sigma = random_signal(n, k, rng)
        design = PoolingDesign.sample(n, 5, rng)
        diag = diagnose_scores(design.stats(sigma), sigma)
        assert not diag.separated

    def test_rejects_degenerate_signal(self, instance):
        stats, _ = instance
        with pytest.raises(ValueError):
            diagnose_scores(stats, np.zeros(stats.n, dtype=np.int8))
        with pytest.raises(ValueError):
            diagnose_scores(stats, np.ones(stats.n, dtype=np.int8))

    def test_explicit_k(self, instance):
        stats, sigma = instance
        diag = diagnose_scores(stats, sigma, k=4)
        assert diag.ones.count == int(sigma.sum())


class TestConcentrationEvent:
    def test_holds_on_random_design(self):
        sigma = random_signal(2000, 10, np.random.default_rng(2))
        stats = stream_design_stats(sigma, 400, root_seed=3)
        assert concentration_event_holds(stats, slack=4.0)

    def test_fails_with_tiny_slack(self):
        sigma = random_signal(2000, 10, np.random.default_rng(2))
        stats = stream_design_stats(sigma, 400, root_seed=3)
        assert not concentration_event_holds(stats, slack=0.01)

    def test_rejects_tiny_n(self):
        from repro.core.design import DesignStats

        stats = DesignStats(
            y=np.zeros(1, dtype=np.int64),
            psi=np.zeros(1, dtype=np.int64),
            dstar=np.zeros(1, dtype=np.int64),
            delta=np.zeros(1, dtype=np.int64),
            n=1,
            m=1,
            gamma=1,
        )
        with pytest.raises(ValueError):
            concentration_event_holds(stats)

    def test_rejects_stats_without_delta(self):
        import dataclasses

        sigma = random_signal(2000, 10, np.random.default_rng(2))
        stats = stream_design_stats(sigma, 400, root_seed=3)
        with pytest.raises(ValueError, match="concentration_event_holds needs Δ"):
            concentration_event_holds(dataclasses.replace(stats, delta=None))
