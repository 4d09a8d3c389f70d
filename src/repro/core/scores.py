"""The MN score statistic and its identities.

Algorithm 1 ranks entries by the *centred neighbourhood sum*

    score_i  =  Ψ_i − Δ*_i · k/2 ,

where ``Ψ_i`` sums the results of the distinct queries containing entry
``i`` and ``Δ*_i·k/2`` is its conditional expectation for a zero entry
(each query result concentrates at ``Γ·k/n = k/2``).  Non-zero entries
additionally contribute their own ``Δ_i ≈ m/2`` to their neighbourhood,
which is exactly the separation Theorem 1 exploits.

Also provided: the auxiliary ``Φ_i = Ψ_i − 1{σ_i=1}·Δ_i`` of §II (used only
by the analysis, not by the algorithm) and a checker for the identity that
links them — handy as a property test on the design implementation.
"""

from __future__ import annotations

import numpy as np

from repro.core.design import DesignStats
from repro.util.validation import (
    check_binary_batch,
    check_binary_signal,
    check_positive_int,
    check_weight_vector,
)

__all__ = ["mn_scores", "phi_from_psi", "psi_phi_identity_check", "expected_score_gap"]


def mn_scores(stats: DesignStats, k: "int | np.ndarray") -> np.ndarray:
    """Score vector ``Ψ − Δ*·k/2`` (float64).

    ``k`` is the signal weight (or a calibration estimate of it; the paper
    notes one extra all-entries query reveals ``k`` exactly).

    Batch-aware: with batched stats (``psi`` of shape ``(B, n)``) the
    result is ``(B, n)``; ``k`` may then also be a length-``B`` array of
    per-signal weights (e.g. from per-signal calibration queries).  Row
    ``b`` always equals the single-signal score of ``stats.signal(b)``.
    """
    if np.ndim(k) == 0:
        k = check_positive_int(k[()] if isinstance(k, np.ndarray) else k, "k")
        return stats.psi.astype(np.float64) - stats.dstar.astype(np.float64) * (k / 2.0)
    k_arr = np.asarray(k)
    if stats.batch is None:
        raise ValueError("per-signal k array requires batched stats")
    k_arr = check_weight_vector(k_arr, stats.batch)
    halves = k_arr.astype(np.float64)[:, None] / 2.0
    return stats.psi.astype(np.float64) - stats.dstar.astype(np.float64)[None, :] * halves


def phi_from_psi(stats: DesignStats, sigma: np.ndarray) -> np.ndarray:
    """``Φ_i = Ψ_i − 1{σ(i)=1}·Δ_i`` — the self-contribution-free sum (§II).

    Batch-aware: batched stats require the matching ``(B, n)`` signal
    stack (each row's own self-contribution is subtracted); a single
    signal against batched stats is rejected rather than silently
    broadcast across rows.
    """
    sigma = np.asarray(sigma)
    if stats.batch is not None:
        if sigma.shape != (stats.batch, stats.n):
            raise ValueError(
                f"batched stats need sigma of shape (B={stats.batch}, n={stats.n}); "
                "for one signal use stats.signal(b)"
            )
        rows = check_binary_batch(sigma, length=stats.n)
        return stats.psi - rows.astype(np.int64) * stats.require_delta("phi_from_psi")
    sigma = check_binary_signal(sigma, length=stats.n)
    return stats.psi - sigma.astype(np.int64) * stats.require_delta("phi_from_psi")


def psi_phi_identity_check(stats: DesignStats, sigma: np.ndarray) -> bool:
    """Verify ``Σ_i 1{σ_i=1} Δ_i = Σ_j y_j`` (mass conservation).

    Every one-entry contributes once per occupied slot to exactly one query
    result, so total result mass equals the one-entries' slot count.  This
    ties together three independently computed statistics and is used as an
    integration check on both execution paths.
    """
    if stats.batch is not None:
        raise ValueError("psi_phi_identity_check needs single-signal stats; check per signal via stats.signal(b)")
    sigma = check_binary_signal(sigma, length=stats.n)
    lhs = int((sigma.astype(np.int64) * stats.require_delta("psi_phi_identity_check")).sum())
    rhs = int(stats.y.sum())
    return lhs == rhs


def expected_score_gap(n: int, k: int, m: int) -> float:
    """The asymptotic score separation ``E[Δ_i] = m/2`` between classes.

    Used by diagnostics to report how many standard deviations the observed
    class gap sits from the theory value.
    """
    check_positive_int(n, "n")
    check_positive_int(k, "k")
    check_positive_int(m, "m")
    return m / 2.0
