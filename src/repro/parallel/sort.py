"""Top-k selection for Lines 7–9 of Algorithm 1.

The MN decoder declares the ``k`` highest-scoring entries one.  It needs
a *selection*, not a sort: :func:`parallel_top_k` partitions for the
``k``-th largest score with ``np.argpartition`` (``O(n)``) and breaks
ties deterministically towards smaller indices.  The same function
serves every decoder family (MN, LP/OMP/AMP rounding, the posterior and
threshold-GT), for one score vector or a ``(B, n)`` batch.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_positive_int

__all__ = ["parallel_top_k"]


def parallel_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest scores, ascending, smallest-index-first on ties.

    Batch-aware: a ``(B, n)`` score matrix selects per row and returns a
    ``(B, k)`` index matrix; row ``b`` equals the 1-D call on
    ``scores[b]``.

    Partition for the ``k``-th largest value, then realise the
    tie-break by taking every index strictly above the threshold plus the
    lowest tied indices.  NaN scores defeat the threshold comparisons;
    they fall back to a whole-array ``(-score, index)`` ranking, which
    ranks NaN last.

    Examples
    --------
    >>> import numpy as np
    >>> parallel_top_k(np.array([0.5, 2.0, 1.0, 2.0]), 2)
    array([1, 3])
    """
    scores = np.asarray(scores)
    if scores.ndim == 2:
        return _batch_top_k(scores, k)
    if scores.ndim != 1:
        raise ValueError("parallel_top_k expects a 1-D or (B, n) array")
    k = check_positive_int(k, "k")
    n = scores.size
    if k > n:
        raise ValueError(f"k={k} exceeds array length {n}")
    if k == n:
        return np.arange(n)
    thresh = scores[np.argpartition(scores, n - k)[n - k :]].min()
    above = np.flatnonzero(scores > thresh)
    sel = np.concatenate((above, np.flatnonzero(scores == thresh)[: k - above.size]))
    if sel.size != k:  # NaN scores: both comparisons come back short
        sel = np.lexsort((np.arange(n), -scores))[:k]
    return np.sort(sel)


def _batch_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Row-wise :func:`parallel_top_k` over a ``(B, n)`` score matrix.

    The argpartition's own ``k`` columns, sorted, are the answer on every
    row whose threshold ties all fall inside the partition.  A row whose
    ties spill outside it refills the partition's tie slots with its
    lowest-index ties.  A batch holding NaN falls back to a stable argsort
    of ``-scores`` (stable realises the smallest-index-first tie-break).
    """
    k = check_positive_int(k, "k")
    if scores.shape[0] < 1:
        raise ValueError("batched scores must hold at least one row")
    B, n = scores.shape
    if k > n:
        raise ValueError(f"k={k} exceeds array length {n}")
    if k == n:
        return np.tile(np.arange(n), (B, 1))
    part = np.argpartition(scores, n - k, axis=1)[:, n - k :]
    top = np.take_along_axis(scores, part, axis=1)
    thresh = top.min(axis=1, keepdims=True)
    if (thresh != thresh).any():  # NaN sorts last in argpartition, so it reaches thresh
        ranked = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        ranked.sort(axis=1)
        return ranked
    # Every score above the threshold is in the partition; only its tie
    # slots can be wrong, and only on a row holding ties outside it.
    slots = top == thresh
    need = np.count_nonzero(slots, axis=1)
    ties = scores == thresh
    for r in np.flatnonzero(np.count_nonzero(ties, axis=1) > need):
        part[r, slots[r]] = np.flatnonzero(ties[r])[: need[r]]
    part.sort(axis=1)
    return part
