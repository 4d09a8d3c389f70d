"""Score-concentration diagnostics — the quantities §III actually proves.

Theorem 1's proof machinery is a separation argument: conditioned on the
event ``R`` (Lemma 3), the centred neighbourhood sums concentrate so that a
threshold ``T(α)`` splits zero- and one-entries.  This module measures the
proof's quantities on concrete instances, so a user (or a test) can see
*why* a given ``(n, k, m)`` configuration succeeds or fails:

* per-class score statistics (mean/std/min/max),
* the empirical margin between classes and the proof's predicted
  separation ``(1 − α)·m/2`` at the optimal ``α``,
* the Lemma-3 concentration event ``R`` itself: are all ``Δ_i`` and
  ``Δ*_i`` within their ``O(√(m ln n))`` windows?

Nothing here feeds back into decoding — it is observability, the kind a
production library ships for debugging configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.design import DesignStats
from repro.core.scores import mn_scores
from repro.core.thresholds import GAMMA, optimal_alpha, optimal_d
from repro.util.validation import check_binary_signal, check_positive_int

__all__ = ["ClassScores", "ScoreDiagnostics", "diagnose_scores", "concentration_event_holds"]


@dataclass(frozen=True)
class ClassScores:
    """Summary statistics of one class's score distribution."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float

    @classmethod
    def from_values(cls, values: np.ndarray) -> "ClassScores":
        """Summarise a non-empty score sample."""
        if values.size == 0:
            raise ValueError("class has no members")
        return cls(
            count=int(values.size),
            mean=float(values.mean()),
            std=float(values.std(ddof=1)) if values.size > 1 else 0.0,
            minimum=float(values.min()),
            maximum=float(values.max()),
        )


@dataclass(frozen=True)
class ScoreDiagnostics:
    """Everything the §III separation argument predicts, measured.

    Attributes
    ----------
    ones, zeros:
        Per-class score summaries.
    margin:
        ``min(score | σ=1) − max(score | σ=0)`` — positive iff the MN
        decoder classifies this instance perfectly for the true ``k``.
    predicted_separation:
        The expected class gap ``m/2 − γ·Γ·m/(n−1)`` — the one-entry's own
        ``Δ_i`` minus the k-vs-(k−1) neighbourhood correction of
        Corollary 4.
    predicted_margin_at_alpha:
        The slack the proof needs at the optimal ``α``: both classes must
        stay within ``(1−α)·m/2`` of their means.
    separated:
        ``margin > 0``.
    """

    ones: ClassScores
    zeros: ClassScores
    margin: float
    predicted_separation: float
    predicted_margin_at_alpha: float
    separated: bool


def diagnose_scores(stats: DesignStats, sigma: np.ndarray, k: "int | None" = None) -> ScoreDiagnostics:
    """Measure the class-score geometry of one instance.

    Parameters
    ----------
    stats:
        Accumulated design statistics (either execution path).
    sigma:
        Ground truth (diagnostics are a teacher-side tool).
    k:
        Decoding weight; defaults to the true weight.
    """
    if stats.batch is not None:
        raise ValueError("diagnose_scores needs single-signal stats; diagnose per signal via stats.signal(b)")
    sigma = check_binary_signal(sigma, length=stats.n)
    true_k = int(sigma.sum())
    if true_k == 0 or true_k == stats.n:
        raise ValueError("diagnostics need both classes present")
    k = true_k if k is None else check_positive_int(k, "k")

    scores = mn_scores(stats, k)
    ones = ClassScores.from_values(scores[sigma == 1])
    zeros = ClassScores.from_values(scores[sigma == 0])
    margin = ones.minimum - zeros.maximum

    # One-entries carry their own Δ_i ≈ m/2, but their second
    # neighbourhood holds k−1 (not k) other ones, which costs
    # Γ·Δ*/(n−1) ≈ γ·m/2 back — the exact Corollary-4 accounting:
    gamma_pool = stats.gamma
    predicted_separation = stats.m / 2.0 - gamma_pool * GAMMA * stats.m / max(1, stats.n - 1)
    theta = math.log(max(2, true_k)) / math.log(stats.n) if stats.n > 1 else 0.5
    try:
        alpha = optimal_alpha(optimal_d(min(max(theta, 1e-3), 1 - 1e-3)))
    except ValueError:  # pragma: no cover - degenerate θ
        alpha = 0.25
    predicted_margin_at_alpha = (1.0 - alpha) * stats.m / 2.0

    return ScoreDiagnostics(
        ones=ones,
        zeros=zeros,
        margin=float(margin),
        predicted_separation=predicted_separation,
        predicted_margin_at_alpha=predicted_margin_at_alpha,
        separated=bool(margin > 0),
    )


def concentration_event_holds(stats: DesignStats, slack: float = 4.0) -> bool:
    """Check the Lemma-3 event ``R`` on a concrete design.

    ``R`` requires, for every entry ``i``::

        |Δ_i − m/2|                    ≤ slack·√(m·ln n)
        |Δ*_i − (1 − e^{−1/2})·m|      ≤ slack·√(m·ln n)

    Lemma 3 proves this w.h.p. with some constant; ``slack`` exposes it.
    The property tests assert ``R`` holds for generous slack on random
    designs — exactly the sanity the analysis conditions on.
    """
    if stats.n < 2:
        raise ValueError("need n >= 2 for the ln n window")
    delta = stats.require_delta("concentration_event_holds")
    window = slack * math.sqrt(stats.m * math.log(stats.n))
    delta_ok = np.all(np.abs(delta - stats.m / 2.0) <= window)
    dstar_ok = np.all(np.abs(stats.dstar - GAMMA * stats.m) <= window)
    return bool(delta_ok and dstar_ok)
