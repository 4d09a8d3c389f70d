"""Estimating the signal weight ``k`` from the query results themselves.

The paper removes the decoder's dependence on ``k`` with one extra
all-entries query.  When even that query is unavailable (fixed assay
plates, retrospective data), ``k`` is still identifiable from the pooled
results: each result satisfies ``E[y_j] = Γ·k/n``, so the method-of-moments
estimator

    k̂ = round( n · ȳ / Γ )

is unbiased before rounding, with standard deviation ``≈ √(2k/m)·...``
shrinking like ``1/√m`` — far below 1 at any query count the decoder can
succeed with, so the rounding recovers ``k`` exactly w.h.p.  This module
provides the estimator, its standard error, and a convenience decode mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.design import DesignStats
from repro.core.mn import MNDecoder

__all__ = ["KEstimate", "estimate_k", "decode_with_estimated_k", "robust_calibrate_k"]


@dataclass(frozen=True)
class KEstimate:
    """Weight estimate with uncertainty.

    Attributes
    ----------
    k_hat:
        Rounded method-of-moments estimate (≥ 0).
    raw:
        Unrounded estimate ``n·ȳ/Γ``.
    std_error:
        Estimated standard error of ``raw`` (CLT over the m results).
    reliable:
        Whether the ±2·SE window rounds to a single integer — if False,
        callers should spend the paper's calibration query instead.
    """

    k_hat: int
    raw: float
    std_error: float
    reliable: bool


def estimate_k(stats: DesignStats) -> KEstimate:
    """Method-of-moments estimate of the signal weight from ``y``.

    Raises
    ------
    ValueError
        On an empty observation vector, or on batched stats (one pooled
        ``k̂`` across signals of different weights would be silently
        wrong — estimate per signal via ``stats.signal(b)``).
    """
    if stats.batch is not None:
        raise ValueError("estimate_k needs single-signal stats; estimate per signal via stats.signal(b)")
    if stats.m < 1 or stats.gamma < 1:
        raise ValueError("need at least one non-empty query")
    scale = stats.n / stats.gamma
    raw = scale * float(stats.y.mean())
    if stats.m > 1:
        se = scale * float(stats.y.std(ddof=1)) / math.sqrt(stats.m)
    else:
        se = float("inf")
    k_hat = max(0, int(round(raw)))
    reliable = math.isfinite(se) and (round(raw - 2 * se) == round(raw + 2 * se))
    return KEstimate(k_hat=k_hat, raw=raw, std_error=se, reliable=reliable)


def robust_calibrate_k(calibrations: np.ndarray, *, n: "int | None" = None) -> np.ndarray:
    """Median of replicated all-entries calibration queries.

    The paper's single calibration query returns ``k`` exactly; through a
    noisy channel each replica returns ``k`` plus corruption, and the
    median of ``r`` replicas is the standard robust location estimate
    (breakdown point 50% — a few wild replicas cannot move it).  With
    identical replicas (the exact channel, any ``r``) the median *is* the
    single-query answer, so the robust path degrades to the paper's.

    Parameters
    ----------
    calibrations:
        Replicated calibration results: ``(r,)`` for one signal (returns a
        0-d ``int64`` scalar) or ``(r, B)`` for a batch (returns ``(B,)``).
        The replica axis always comes first.
    n:
        Signal length; when given, calibrated weights are validated
        against it.

    Raises
    ------
    ValueError
        If any calibrated weight is 0 (no signal to find) or above ``n``.
    """
    calibs = np.asarray(calibrations, dtype=np.int64)
    if calibs.ndim not in (1, 2) or calibs.shape[0] < 1:
        raise ValueError(f"calibrations must have shape (r,) or (r, B), got {calibs.shape}")
    k_arr = np.rint(np.median(calibs, axis=0)).astype(np.int64)
    if np.any(k_arr < 1):
        if k_arr.ndim == 0:
            raise ValueError("calibration query returned 0: the signal has no one-entries")
        bad = int(np.flatnonzero(k_arr < 1)[0])
        raise ValueError(f"calibration query returned 0 for signal {bad}: it has no one-entries")
    if n is not None and np.any(k_arr > n):
        raise ValueError(f"calibration query exceeded n={n} — oracle inconsistent")
    return k_arr


def decode_with_estimated_k(stats: DesignStats) -> "tuple[np.ndarray, KEstimate]":
    """MN decoding with ``k`` estimated from the same observations.

    Returns the estimate alongside so callers can audit ``reliable``.

    Raises
    ------
    RuntimeError
        If the estimate is 0 (no signal mass observed at all).
    """
    est = estimate_k(stats)
    if est.k_hat == 0:
        raise RuntimeError("estimated weight is 0 — no one-entries observable in y")
    sigma_hat = MNDecoder().decode(stats, est.k_hat)
    return sigma_hat, est
