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

    The argpartition selection vectorised over rows, with a cumulative
    tie-rank mask on the rows whose threshold ties outnumber their free
    slots; a batch holding NaN falls back to a stable argsort of
    ``-scores`` (stable realises the smallest-index-first tie-break).
    """
    k = check_positive_int(k, "k")
    if scores.shape[0] < 1:
        raise ValueError("batched scores must hold at least one row")
    n = scores.shape[1]
    if k > n:
        raise ValueError(f"k={k} exceeds array length {n}")
    if k == n:
        return np.tile(np.arange(n), (scores.shape[0], 1))
    part = np.argpartition(scores, n - k, axis=1)[:, n - k :]
    thresh = np.take_along_axis(scores, part, axis=1).min(axis=1, keepdims=True)
    above = scores > thresh
    ties = scores == thresh
    need = k - np.count_nonzero(above, axis=1)
    chosen = above | ties
    # Only a row holding more threshold ties than it needs drops its
    # highest-index ties; the cumulative tie rank runs on those rows alone.
    surplus = np.flatnonzero(np.count_nonzero(ties, axis=1) > need)
    if surplus.size:
        t = ties[surplus]
        chosen[surplus] = above[surplus] | (t & (np.cumsum(t, axis=1) <= need[surplus, None]))
    # Every row holds exactly k marks unless NaN broke the comparisons;
    # nonzero walks row-major, so the reshape yields ascending indices.
    if int(chosen.sum()) == scores.shape[0] * k:
        return np.nonzero(chosen)[1].reshape(scores.shape[0], k)
    top = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    top.sort(axis=1)
    return top
