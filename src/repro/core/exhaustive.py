"""The information-theoretic decoder: exhaustive search over supports.

Theorem 2 is a statement about the *student with unlimited computational
power*: above ``m_IT = 2k·ln(n/k)/ln k`` the observed pair ``(G, y)``
determines ``σ`` uniquely w.h.p., so exhaustive search recovers it.  This
module implements that search (vectorised over candidate batches) plus the
overlap-resolved census ``Z_{k,ℓ}`` that Propositions 7/11 analyse — which
lets the benchmark suite *measure* the phase transition at ``c = 2``.

Complexity is ``C(n,k)·m`` — fine for the small instances the IT experiment
uses (``n ≤ ~30``); a guard refuses anything bigger.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List

import numpy as np

from repro.core.design import PoolingDesign
from repro.util.validation import check_binary_signal, check_positive_int

__all__ = ["exhaustive_decode", "count_consistent_by_overlap", "consistent_supports"]

#: Refuse searches beyond this many candidate supports.
MAX_CANDIDATES = 5_000_000


def _candidate_guard(n: int, k: int) -> int:
    total = math.comb(n, k)
    if total > MAX_CANDIDATES:
        raise ValueError(
            f"C({n},{k}) = {total} candidate supports exceeds the exhaustive-search guard ({MAX_CANDIDATES})"
        )
    return total


def _counts_transpose(design: PoolingDesign) -> np.ndarray:
    """Dense ``(n, m)`` count matrix ``Aᵀ`` for vectorised candidate scoring."""
    return design.dense_counts().T


def consistent_supports(design: PoolingDesign, y: np.ndarray, k: int, batch: int = 2048) -> "List[np.ndarray]":
    """All weight-``k`` supports whose query results equal ``y``.

    The ground truth is always a member (sanity-checked by the tests); the
    list has length 1 exactly when information-theoretic recovery succeeds.
    """
    k = check_positive_int(k, "k")
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (design.m,):
        raise ValueError(f"y must have length m={design.m}")
    _candidate_guard(design.n, k)
    at = _counts_transpose(design)

    found: "List[np.ndarray]" = []
    combo_iter = itertools.combinations(range(design.n), k)
    while True:
        block = list(itertools.islice(combo_iter, batch))
        if not block:
            break
        idx = np.asarray(block, dtype=np.int64)  # (B, k)
        y_hat = at[idx].sum(axis=1)  # (B, m)
        hits = np.flatnonzero((y_hat == y).all(axis=1))
        for h in hits:
            found.append(idx[h].copy())
    return found


def exhaustive_decode(design: PoolingDesign, y: np.ndarray, k: int) -> "tuple[np.ndarray | None, int]":
    """ML decoding with unlimited compute.

    Returns
    -------
    (sigma_hat, num_consistent):
        ``sigma_hat`` is the reconstructed signal when the consistent
        support is *unique*, else ``None`` (the student would have to
        guess); ``num_consistent`` is ``Z_k(G, y)``.
    """
    supports = consistent_supports(design, y, k)
    if len(supports) == 1:
        sigma_hat = np.zeros(design.n, dtype=np.int8)
        sigma_hat[supports[0]] = 1
        return sigma_hat, 1
    return None, len(supports)


def count_consistent_by_overlap(design: PoolingDesign, y: np.ndarray, sigma: np.ndarray, k: int) -> "Dict[int, int]":
    """The census ``ℓ ↦ Z_{k,ℓ}(G, y)`` of Propositions 7/11.

    Counts *alternative* consistent signals by their overlap ``ℓ`` with the
    ground truth (the ground truth itself, overlap ``k``, is excluded —
    matching the paper's definition ``σ ≠ σ``).
    """
    sigma = check_binary_signal(sigma, length=design.n)
    true_support = set(np.flatnonzero(sigma).tolist())
    if len(true_support) != k:
        raise ValueError(f"sigma has weight {len(true_support)}, expected k={k}")
    census: "Dict[int, int]" = {ell: 0 for ell in range(k)}
    for supp in consistent_supports(design, y, k):
        ell = len(true_support.intersection(supp.tolist()))
        if ell == k:
            continue  # the ground truth itself
        census[ell] += 1
    return census
