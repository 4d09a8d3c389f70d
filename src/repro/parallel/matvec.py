"""CSR sparse matrix for the MN score mat-vecs.

The paper observes (§I-C, "Parallelized Reconstruction") that the MN score
computation is two matrix–vector products with the unweighted biadjacency
matrix ``M`` of the pooling graph: ``Δ* = M·1`` and ``Ψ = M·y`` (with ``M``
in entry-major orientation).  This module provides exactly that kernel:
:class:`CSRMatrix`, a from-scratch compressed-sparse-row container with
validated construction, transpose, dense round-trip, and ``@`` products
(vectorised with ``np.add.reduceat`` — no Python per-row loop).
"""

from __future__ import annotations

import numpy as np

__all__ = ["CSRMatrix"]


class CSRMatrix:
    """Minimal CSR matrix supporting the kernels the decoder needs.

    Instances are **immutable by contract**: :meth:`matvec` caches segment
    metadata (and an all-ones-data flag) on first use, so mutating
    ``data``/``indices``/``indptr`` after construction yields stale
    products.  Build a new matrix instead of editing one in place.

    Parameters
    ----------
    indptr:
        Row pointer array, length ``rows+1``, non-decreasing.
    indices:
        Column indices, length ``nnz``, each in ``[0, cols)``.
    data:
        Values, length ``nnz``.
    shape:
        ``(rows, cols)``.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, shape: "tuple[int, int]"):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data)
        rows, cols = int(shape[0]), int(shape[1])
        self.shape = (rows, cols)
        if self.indptr.ndim != 1 or self.indptr.size != rows + 1:
            raise ValueError(f"indptr must have length rows+1={rows + 1}")
        if self.indptr[0] != 0 or np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must start at 0 and be non-decreasing")
        nnz = int(self.indptr[-1])
        if self.indices.shape != (nnz,) or self.data.shape != (nnz,):
            raise ValueError("indices/data length must equal indptr[-1]")
        if nnz and (self.indices.min() < 0 or self.indices.max() >= cols):
            raise ValueError("column index out of range")
        # Lazily computed matvec metadata (segment starts, all-ones flag);
        # sound because the matrix is treated as immutable after construction.
        self._matvec_meta: "tuple[np.ndarray, np.ndarray, bool, bool] | None" = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_coo(cls, rows: np.ndarray, cols: np.ndarray, data: np.ndarray, shape: "tuple[int, int]") -> "CSRMatrix":
        """Build from coordinate triples (duplicates are summed)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        data = np.asarray(data)
        if not (rows.shape == cols.shape == data.shape) or rows.ndim != 1:
            raise ValueError("rows/cols/data must be equal-length 1-D arrays")
        nrows, ncols = int(shape[0]), int(shape[1])
        if rows.size and (rows.min() < 0 or rows.max() >= nrows or cols.min() < 0 or cols.max() >= ncols):
            raise ValueError("coordinate out of range")
        # Sum duplicates by linearising coordinates.
        lin = rows * ncols + cols
        order = np.argsort(lin, kind="stable")
        lin = lin[order]
        vals = data[order]
        if lin.size:
            first = np.concatenate(([True], lin[1:] != lin[:-1]))
            starts = np.flatnonzero(first)
            summed = np.add.reduceat(vals, starts)
            lin = lin[first]
        else:
            summed = vals
        r = lin // ncols
        c = lin % ncols
        counts = np.bincount(r, minlength=nrows)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return cls(indptr, c, summed, (nrows, ncols))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """Compress a dense 2-D array (zeros dropped)."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError("from_dense expects a 2-D array")
        r, c = np.nonzero(dense)
        return cls.from_coo(r, c, dense[r, c], dense.shape)

    # -- conversions -----------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indptr[-1])

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense array (small matrices / tests only).

        Uses a scatter-*add* so that directly constructed matrices with
        repeated (row, col) entries accumulate instead of overwriting
        (``from_coo``/``from_dense`` never produce repeats, but the raw
        constructor may).
        """
        out = np.zeros(self.shape, dtype=self.data.dtype)
        row_ids = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        np.add.at(out, (row_ids, self.indices), self.data)
        return out

    def transpose(self) -> "CSRMatrix":
        """CSR of the transpose (i.e. this matrix in CSC order)."""
        rows = np.repeat(np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr))
        return CSRMatrix.from_coo(self.indices, rows, self.data, (self.shape[1], self.shape[0]))

    # -- products ------------------------------------------------------------------

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` with a fully vectorised segmented reduction.

        Tuned for repeated calls on one matrix: segment starts and the
        all-ones-data flag are computed once and cached, the gather runs
        through ``np.take`` and the multiply happens in place on the
        gathered buffer — no per-call dtype-promotion copies.  Values are
        bit-identical to the naive ``data * x[indices]`` + ``reduceat``
        formulation (same products, same reduction order).
        """
        x = np.asarray(x)
        if x.shape != (self.shape[1],):
            raise ValueError(f"x must have shape ({self.shape[1]},), got {x.shape}")
        out_dtype = np.result_type(self.data.dtype, x.dtype)
        if self.nnz == 0:
            return np.zeros(self.shape[0], dtype=out_dtype)
        if self._matvec_meta is None:
            lens = np.diff(self.indptr)
            nonempty = lens > 0
            all_nonempty = bool(nonempty.all())
            starts = self.indptr[:-1] if all_nonempty else self.indptr[:-1][nonempty]
            self._matvec_meta = (starts, nonempty, all_nonempty, bool(np.all(self.data == 1)))
        starts, nonempty, all_nonempty, data_is_ones = self._matvec_meta
        products = np.take(x, self.indices).astype(out_dtype, copy=False)
        if not data_is_ones:
            # The gathered buffer is fresh and already out_dtype, so the
            # multiply can land in it.
            np.multiply(products, self.data, out=products)
        if all_nonempty:
            return np.add.reduceat(products, starts)
        out = np.zeros(self.shape[0], dtype=out_dtype)
        out[nonempty] = np.add.reduceat(products, starts)
        return out

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``Aᵀ @ y`` via bincount scatter-add."""
        y = np.asarray(y)
        if y.shape != (self.shape[0],):
            raise ValueError(f"y must have shape ({self.shape[0]},), got {y.shape}")
        row_ids = np.repeat(np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr))
        weights = (self.data * y[row_ids]).astype(np.float64, copy=False)
        return np.bincount(self.indices, weights=weights, minlength=self.shape[1])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def row_slice(self, lo: int, hi: int) -> "CSRMatrix":
        """Contiguous row block ``[lo, hi)`` as an independent CSR matrix."""
        if not (0 <= lo <= hi <= self.shape[0]):
            raise ValueError("invalid row slice")
        a, b = int(self.indptr[lo]), int(self.indptr[hi])
        return CSRMatrix(self.indptr[lo : hi + 1] - self.indptr[lo], self.indices[a:b], self.data[a:b], (hi - lo, self.shape[1]))
