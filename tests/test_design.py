"""Tests for the pooling design: invariants, both execution paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.design import DesignStats, PoolingDesign, default_gamma, stream_design_stats
from repro.core.signal import random_signal
from repro.engine.backend import SharedMemBackend
from repro.rng.streams import batch_generator


@pytest.fixture
def small_instance():
    rng = np.random.default_rng(0)
    n, k, m = 120, 4, 80
    sigma = random_signal(n, k, rng)
    design = PoolingDesign.sample(n, m, rng)
    return design, sigma


class TestDefaultGamma:
    def test_half(self):
        assert default_gamma(10) == 5
        assert default_gamma(11) == 5

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            default_gamma(1)


class TestSampling:
    def test_shape_invariants(self):
        rng = np.random.default_rng(1)
        d = PoolingDesign.sample(50, 20, rng)
        assert d.m == 20
        assert d.gamma == 25
        assert d.entries.size == 20 * 25
        assert d.entries.min() >= 0 and d.entries.max() < 50

    def test_custom_gamma(self):
        rng = np.random.default_rng(1)
        d = PoolingDesign.sample(50, 4, rng, gamma=10)
        assert d.gamma == 10

    @pytest.mark.parametrize("gamma", [5000, 4999], ids=["even-gamma", "odd-gamma"])
    @pytest.mark.parametrize("rows", [1, 3, 7, 13, 64])
    def test_chunked_draws_equal_the_one_call_sample(self, rows, gamma):
        """Drawing ``rc·Γ`` entries chunk by chunk from one generator yields
        the one-call ``m·Γ`` sequence ``sample`` draws.  m = 97 leaves a
        short last chunk for every chunk size but 1."""
        n, m = 10_000, 97
        design = PoolingDesign.sample(n, m, batch_generator(3, 64007, 5), gamma=gamma)
        rng = batch_generator(3, 64007, 5)
        chunks = [rng.integers(0, n, size=(min(m, lo + rows) - lo) * gamma) for lo in range(0, m, rows)]
        assert np.array_equal(np.concatenate(chunks), design.entries)

    def test_pool_accessor(self):
        rng = np.random.default_rng(2)
        d = PoolingDesign.sample(30, 5, rng)
        p = d.pool(3)
        assert p.size == 15
        with pytest.raises(IndexError):
            d.pool(5)

    def test_from_pools_ragged(self):
        d = PoolingDesign.from_pools(10, [[0, 1], [2, 3, 4], [5]])
        assert d.m == 3
        with pytest.raises(ValueError):
            _ = d.gamma  # ragged

    def test_entry_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            PoolingDesign.from_pools(3, [[0, 3]])

    def test_inconsistent_indptr_rejected(self):
        with pytest.raises(ValueError):
            PoolingDesign(5, np.array([0, 1]), np.array([0, 3]))


class TestFig1:
    def test_results_match_paper(self):
        design, sigma = PoolingDesign.fig1_example()
        assert design.query_results(sigma).tolist() == [2, 2, 3, 1, 1]

    def test_contains_multi_edge(self):
        design, _ = PoolingDesign.fig1_example()
        assert (design.delta() > design.dstar()).any()


class TestStatistics:
    def test_delta_mass_conservation(self, small_instance):
        design, _ = small_instance
        assert design.delta().sum() == design.m * design.gamma

    def test_dstar_le_delta(self, small_instance):
        design, _ = small_instance
        assert (design.dstar() <= design.delta()).all()
        assert (design.dstar() >= 0).all()

    def test_query_results_count_multiplicity(self):
        # Entry 0 appears twice in the single pool; σ(0)=1 ⇒ y = 2.
        d = PoolingDesign.from_pools(4, [[0, 0, 1]])
        sigma = np.array([1, 0, 0, 0], dtype=np.int8)
        assert d.query_results(sigma).tolist() == [2]

    def test_psi_counts_queries_once(self):
        # Entry 0 in query 0 twice: Ψ_0 must add y_0 once.
        d = PoolingDesign.from_pools(4, [[0, 0, 1], [2, 3]])
        sigma = np.array([1, 0, 1, 0], dtype=np.int8)
        y = d.query_results(sigma)  # [2, 1]
        psi = d.psi(y)
        assert psi[0] == 2  # not 4
        assert psi[1] == 2
        assert psi[2] == 1

    def test_total_result_mass_identity(self, small_instance):
        design, sigma = small_instance
        stats = design.stats(sigma)
        lhs = int((sigma.astype(np.int64) * stats.delta).sum())
        assert lhs == int(stats.y.sum())

    def test_matrices_consistent(self, small_instance):
        from repro.designs import compile_design

        design, sigma = small_instance
        counts = design.dense_counts()
        assert counts.shape == (design.m, design.n) and counts.dtype == np.int64
        assert counts.sum() == design.m * design.gamma
        y_via_matrix = counts @ sigma.astype(np.int64)
        assert np.array_equal(y_via_matrix, design.query_results(sigma))
        indicator = (counts > 0).astype(np.int64)
        assert np.array_equal(indicator.sum(axis=0), design.dstar())
        # The baselines' float64 counts block is this matrix, value for value.
        assert np.array_equal(compile_design(design).counts_block(), counts)

    def test_psi_via_indicator_matrix(self, small_instance):
        design, sigma = small_instance
        y = design.query_results(sigma)
        indicator = (design.dense_counts() > 0).astype(np.int64)
        assert np.array_equal(indicator.T @ y, design.psi(y))

    def test_stats_validation(self):
        with pytest.raises(ValueError):
            DesignStats(
                y=np.zeros(3, dtype=np.int64),
                psi=np.zeros(5, dtype=np.int64),
                dstar=np.zeros(5, dtype=np.int64),
                delta=np.zeros(4, dtype=np.int64),  # wrong length
                n=5,
                m=3,
                gamma=2,
            )

    def test_psi_rejects_bad_y(self, small_instance):
        design, _ = small_instance
        with pytest.raises(ValueError):
            design.psi(np.zeros(design.m + 1, dtype=np.int64))


class TestStreaming:
    def test_reproducible_same_key(self):
        sigma = random_signal(100, 3, np.random.default_rng(0))
        a = stream_design_stats(sigma, 60, root_seed=5, trial_key=(2,))
        b = stream_design_stats(sigma, 60, root_seed=5, trial_key=(2,))
        for field in ("y", "psi", "dstar", "delta"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_different_key_different_design(self):
        sigma = random_signal(100, 3, np.random.default_rng(0))
        a = stream_design_stats(sigma, 60, root_seed=5, trial_key=(2,))
        b = stream_design_stats(sigma, 60, root_seed=5, trial_key=(3,))
        assert not np.array_equal(a.y, b.y)

    def test_worker_count_invariance(self):
        sigma = random_signal(300, 6, np.random.default_rng(1))
        serial = stream_design_stats(sigma, 700, root_seed=9, batch_queries=64)
        with SharedMemBackend(3) as backend:
            par = stream_design_stats(sigma, 700, root_seed=9, batch_queries=64, backend=backend)
        for field in ("y", "psi", "dstar", "delta"):
            assert np.array_equal(getattr(serial, field), getattr(par, field))

    def test_mass_conservation_streaming(self):
        sigma = random_signal(200, 5, np.random.default_rng(2))
        st_ = stream_design_stats(sigma, 100, root_seed=1)
        assert int((sigma.astype(np.int64) * st_.delta).sum()) == int(st_.y.sum())
        assert st_.delta.sum() == st_.m * st_.gamma
        assert (st_.dstar <= st_.delta).all()

    def test_gamma_override(self):
        sigma = random_signal(100, 3, np.random.default_rng(0))
        st_ = stream_design_stats(sigma, 10, root_seed=0, gamma=7)
        assert st_.gamma == 7
        assert st_.delta.sum() == 70

    @given(st.integers(0, 10**6), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_property_stream_invariants(self, seed, kf):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 150))
        k = min(n, kf)
        m = int(rng.integers(1, 80))
        sigma = random_signal(n, k, rng)
        stats = stream_design_stats(sigma, m, root_seed=seed % 2**31)
        assert stats.y.min() >= 0
        assert stats.y.max() <= stats.gamma
        assert (stats.dstar <= np.minimum(stats.delta, m)).all()
        assert int((sigma.astype(np.int64) * stats.delta).sum()) == int(stats.y.sum())
