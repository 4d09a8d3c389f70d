"""Tests for the from-scratch CSR matrix."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.matvec import CSRMatrix


def _random_dense(rng, rows, cols, density=0.3):
    dense = rng.random((rows, cols))
    dense[dense > density] = 0.0
    return dense


class TestConstruction:
    def test_from_dense_roundtrip(self):
        rng = np.random.default_rng(0)
        dense = _random_dense(rng, 6, 9)
        mat = CSRMatrix.from_dense(dense)
        assert np.allclose(mat.to_dense(), dense)

    def test_from_coo_sums_duplicates(self):
        mat = CSRMatrix.from_coo(
            np.array([0, 0, 1]), np.array([2, 2, 0]), np.array([1.0, 3.0, 5.0]), (2, 3)
        )
        dense = mat.to_dense()
        assert dense[0, 2] == 4.0
        assert dense[1, 0] == 5.0
        assert mat.nnz == 2

    def test_invalid_indptr(self):
        with pytest.raises(ValueError):
            CSRMatrix(np.array([1, 2]), np.array([0]), np.array([1.0]), (1, 3))
        with pytest.raises(ValueError):
            CSRMatrix(np.array([0, 2, 1]), np.array([0, 1]), np.array([1.0, 1.0]), (2, 3))

    def test_column_out_of_range(self):
        with pytest.raises(ValueError):
            CSRMatrix(np.array([0, 1]), np.array([5]), np.array([1.0]), (1, 3))

    def test_coo_out_of_range(self):
        with pytest.raises(ValueError):
            CSRMatrix.from_coo(np.array([2]), np.array([0]), np.array([1.0]), (2, 3))

    def test_empty_matrix(self):
        mat = CSRMatrix(np.zeros(4, dtype=np.int64), np.array([], dtype=np.int64), np.array([]), (3, 5))
        assert mat.nnz == 0
        assert np.array_equal(mat.matvec(np.ones(5)), np.zeros(3))


class TestProducts:
    def test_matvec_matches_scipy(self):
        rng = np.random.default_rng(1)
        dense = _random_dense(rng, 20, 15)
        x = rng.random(15)
        ours = CSRMatrix.from_dense(dense).matvec(x)
        ref = sp.csr_matrix(dense) @ x
        assert np.allclose(ours, ref)

    def test_rmatvec_matches_transpose(self):
        rng = np.random.default_rng(2)
        dense = _random_dense(rng, 12, 8)
        y = rng.random(12)
        mat = CSRMatrix.from_dense(dense)
        assert np.allclose(mat.rmatvec(y), dense.T @ y)

    def test_matmul_operator(self):
        dense = np.array([[1.0, 0.0], [0.0, 2.0]])
        mat = CSRMatrix.from_dense(dense)
        assert np.allclose(mat @ np.array([3.0, 4.0]), [3.0, 8.0])

    def test_matvec_rejects_bad_shape(self):
        mat = CSRMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            mat.matvec(np.ones(4))

    def test_empty_rows_handled(self):
        dense = np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
        mat = CSRMatrix.from_dense(dense)
        assert np.allclose(mat.matvec(np.array([1.0, 1.0])), [0.0, 3.0, 0.0])

    def test_transpose(self):
        rng = np.random.default_rng(3)
        dense = _random_dense(rng, 7, 11)
        mat = CSRMatrix.from_dense(dense)
        assert np.allclose(mat.transpose().to_dense(), dense.T)

    def test_row_slice(self):
        rng = np.random.default_rng(4)
        dense = _random_dense(rng, 10, 6)
        mat = CSRMatrix.from_dense(dense)
        block = mat.row_slice(3, 7)
        assert np.allclose(block.to_dense(), dense[3:7])

    def test_row_slice_bounds(self):
        mat = CSRMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            mat.row_slice(2, 5)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_property_matvec_linear(self, seed):
        rng = np.random.default_rng(seed)
        dense = _random_dense(rng, 8, 8)
        mat = CSRMatrix.from_dense(dense)
        x, z = rng.random(8), rng.random(8)
        assert np.allclose(mat.matvec(x + z), mat.matvec(x) + mat.matvec(z))
