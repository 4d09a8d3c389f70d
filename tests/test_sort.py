"""Tests for top-k selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.sort import parallel_top_k


def _oracle(x: np.ndarray, k: int) -> np.ndarray:
    """Independent reference: rank by (-score, index), keep k, ascending."""
    return np.sort(np.lexsort((np.arange(x.size), -x))[:k])


class TestTopK:
    def test_basic(self):
        x = np.array([5.0, 1.0, 9.0, 3.0, 7.0])
        assert np.array_equal(parallel_top_k(x, 2), np.array([2, 4]))

    def test_k_equals_n(self):
        x = np.array([1.0, 2.0])
        assert np.array_equal(parallel_top_k(x, 2), np.array([0, 1]))

    def test_ties_prefer_small_indices(self):
        x = np.zeros(10)
        assert np.array_equal(parallel_top_k(x, 3), np.array([0, 1, 2]))

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            parallel_top_k(np.arange(3), 4)

    def test_rejects_3d(self):
        # 2-D means a batch of score rows (one selection per row); anything
        # deeper is still an error.
        with pytest.raises(ValueError):
            parallel_top_k(np.zeros((2, 2, 2)), 1)

    def test_batch_rows_match_single_calls(self):
        rng = np.random.default_rng(11)
        scores = rng.integers(-3, 3, size=(5, 40)).astype(np.float64)  # many ties
        batch = parallel_top_k(scores, 4)
        assert batch.shape == (5, 4)
        for b in range(5):
            assert np.array_equal(batch[b], parallel_top_k(scores[b], 4))

    def test_batch_k_equals_n(self):
        scores = np.zeros((3, 4))
        assert np.array_equal(parallel_top_k(scores, 4), np.tile(np.arange(4), (3, 1)))

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_selects_k_largest(self, values, data):
        x = np.asarray(values, dtype=np.float64)
        k = data.draw(st.integers(1, len(values)))
        # Exact selection, smallest-index-first on ties.
        assert np.array_equal(parallel_top_k(x, k), _oracle(x, k))


class TestTopKNaN:
    """NaN scores take the whole-array ranking fallback: exactly k, NaN last."""

    @pytest.mark.parametrize("seed", range(4))
    def test_1d_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            k = int(rng.integers(1, n))
            x = rng.integers(0, 4, size=n).astype(np.float64)
            x[rng.random(n) < 0.3] = np.nan
            idx = parallel_top_k(x, k)
            assert idx.shape == (k,)
            assert np.all(np.diff(idx) > 0)
            assert np.array_equal(idx, _oracle(x, k))
            # NaN ranks last: a NaN is only chosen once every number is.
            if np.isnan(x[idx]).any():
                assert set(np.flatnonzero(~np.isnan(x))) <= set(idx.tolist())

    def test_nan_ranks_last(self):
        x = np.array([np.nan, 1.0, np.nan, 0.0, 2.0])
        assert np.array_equal(parallel_top_k(x, 3), np.array([1, 3, 4]))
        assert np.array_equal(parallel_top_k(x, 4), np.array([0, 1, 3, 4]))

    def test_all_nan(self):
        x = np.full(6, np.nan)
        assert np.array_equal(parallel_top_k(x, 2), np.array([0, 1]))
        assert np.array_equal(parallel_top_k(np.full((2, 6), np.nan), 2), np.array([[0, 1], [0, 1]]))

    @pytest.mark.parametrize("rows", [1, 2])
    def test_batch_rows_match_single_calls(self, rows):
        rng = np.random.default_rng(40 + rows)
        for _ in range(20):
            n = int(rng.integers(2, 50))
            k = int(rng.integers(1, n))
            scores = rng.integers(0, 3, size=(rows, n)).astype(np.float64)
            scores[rng.random((rows, n)) < 0.3] = np.nan
            if rows == 2 and rng.random() < 0.3:
                scores[1] = np.nan  # an all-NaN row next to a mixed one
            batch = parallel_top_k(scores, k)
            assert batch.shape == (rows, k)
            for b in range(rows):
                assert np.array_equal(batch[b], parallel_top_k(scores[b], k))
                assert np.array_equal(batch[b], _oracle(scores[b], k))
