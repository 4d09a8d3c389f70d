"""Tests for chunk counting (repro.parallel.partition)."""

import pytest

from repro.parallel.partition import chunk_count


class TestChunkCount:
    @pytest.mark.parametrize("total,chunk,expected", [(0, 5, 0), (1, 5, 1), (5, 5, 1), (6, 5, 2), (10, 3, 4)])
    def test_values(self, total, chunk, expected):
        assert chunk_count(total, chunk) == expected

    def test_rejects_zero_chunk(self):
        with pytest.raises(ValueError):
            chunk_count(10, 0)
