"""Closed-form thresholds and constants from the paper.

Summary of the threshold landscape in the sublinear regime ``k = n^θ``:

====================  ==========================================  =========
quantity              formula                                      source
====================  ==========================================  =========
``m_seq`` (lower bd)  ``k·ln(n/k)/ln k``                           Eq. (1)
``m_para`` (IT)       ``2·k·ln(n/k)/ln k = 2(1−θ)/θ·k``            Eq. (2)/Thm 2
``m_MN`` (algorithm)  ``4γ·(1+√θ)/(1−√θ)·k·ln(n/k)``, γ=1−e^{−1/2} Thm 1
Karimi et al.         ``1.72·k·ln(n/k)`` / ``1.515·k·ln(n/k)``     §I-B
binary GT (OR)        ``ln⁻¹(2)·k·ln(n/k)`` for θ ≤ ~0.409         §I-D
====================  ==========================================  =========

All functions take concrete ``(n, k)`` or ``(n, θ)`` and return *query
counts* (floats; callers round).  The exact counting bound
``ln C(n,k) / ln(k+1)`` is provided alongside the asymptotic Eq. (1) form
because for the small ``n`` of the simulations the two differ noticeably.
"""

from __future__ import annotations

import math

from repro.core.signal import theta_to_k
from repro.util.validation import check_in_open_unit_interval, check_positive_int

__all__ = [
    "GAMMA",
    "log_binom",
    "m_counting_exact",
    "m_counting_sequential",
    "m_information_parallel",
    "mn_constant",
    "m_mn_threshold",
    "optimal_alpha",
    "optimal_d",
    "finite_size_factor",
    "karimi_rate",
    "gt_rate",
    "theta_star_gt",
]

#: ``γ = 1 − e^{−1/2}`` — the probability that an entry appears in a fixed
#: query at least once (paper's recurring constant).
GAMMA: float = 1.0 - math.exp(-0.5)

#: Karimi et al. (2019) rate constants quoted in §I-B.
KARIMI_CONSTANTS = (1.72, 1.515)

#: θ-range of validity for the optimal binary-group-testing comparator (§I-D).
THETA_STAR_GT: float = math.log(2.0) / (1.0 + math.log(2.0))


def log_binom(n: int, k: int) -> float:
    """``ln C(n, k)`` via log-gamma (exact enough for n in the billions)."""
    # Imported here so that importing the package never loads SciPy.
    from scipy.special import gammaln

    n = check_positive_int(n, "n")
    if not (0 <= k <= n):
        raise ValueError(f"k={k} must lie in [0, n={n}]")
    return float(gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1))


def _check_nk(n: int, k: int) -> "tuple[int, int]":
    n = check_positive_int(n, "n")
    k = check_positive_int(k, "k")
    if k >= n:
        raise ValueError(f"require k < n, got k={k}, n={n}")
    return n, k


def m_counting_exact(n: int, k: int) -> float:
    """Non-asymptotic counting bound ``ln C(n,k) / ln(k+1)`` (folklore).

    Any design (even adaptive) with fewer queries cannot distinguish all
    weight-``k`` signals, since each query has ``k+1`` possible outcomes.
    """
    n, k = _check_nk(n, k)
    return log_binom(n, k) / math.log(k + 1)


def m_counting_sequential(n: int, k: int) -> float:
    """Asymptotic form of Eq. (1): ``k·ln(n/k)/ln k`` (needs ``k ≥ 2``)."""
    n, k = _check_nk(n, k)
    if k < 2:
        raise ValueError("the asymptotic bound needs k >= 2 (ln k > 0)")
    return k * math.log(n / k) / math.log(k)


def m_information_parallel(n: int, k: int) -> float:
    """Theorem 2 / Eq. (2): the sharp parallel threshold ``2·k·ln(n/k)/ln k``.

    Equals ``2(1−θ)/θ·k`` when ``k = n^θ`` exactly.
    """
    return 2.0 * m_counting_sequential(n, k)


def mn_constant(theta: float) -> float:
    """Theorem 1's constant ``4γ·(1+√θ)/(1−√θ)`` in front of ``k·ln(n/k)``."""
    theta = check_in_open_unit_interval(theta, "theta")
    root = math.sqrt(theta)
    return 4.0 * GAMMA * (1.0 + root) / (1.0 - root)


def m_mn_threshold(n: int, theta: float, k: "int | None" = None) -> float:
    """Theorem 1: queries sufficient for MN recovery w.h.p.

    ``m_MN = 4γ·(1+√θ)/(1−√θ)·k·ln(n/k)``.  Pass an explicit ``k`` to match
    a simulation that rounded ``n^θ``; otherwise ``k = round(n^θ)``.
    """
    n = check_positive_int(n, "n")
    theta = check_in_open_unit_interval(theta, "theta")
    if k is None:
        k = theta_to_k(n, theta)
    k = check_positive_int(k, "k")
    if k >= n:
        raise ValueError("require k < n")
    return mn_constant(theta) * k * math.log(n / k)


def optimal_d(theta: float) -> float:
    """The critical density ``d = 4γ(1+√θ)/(1−√θ)`` from Corollary 6."""
    return mn_constant(theta)


def optimal_alpha(d: float, theta: "float | None" = None) -> float:
    """Corollary 6's optimal threshold location ``α = (d − 4γ)/(2d)``.

    At the critical ``d(θ)`` this evaluates to ``α* = (1+√θ·(...))``-free
    closed form; for any ``d > 4γ`` it lies in ``(0, 1/2]``.  Passing
    ``theta`` instead of ``d`` uses the critical density.
    """
    if theta is not None:
        d = optimal_d(theta)
    if not (d > 4.0 * GAMMA):
        raise ValueError(f"alpha is only defined for d > 4γ ≈ {4 * GAMMA:.4f}, got d={d}")
    return (d - 4.0 * GAMMA) / (2.0 * d)


def finite_size_factor(n: int, k: int, m: int) -> float:
    """§V Remark: multiplicative finite-``n`` overhead of the MN bound.

    ``1 + sqrt(2·ln n) · (4γ·m·k)^{−1/2}`` — the lower-order term hidden in
    Eq. (4)'s ``o(1)``, which explains why small-``n`` simulations need more
    queries than the asymptotic line.
    """
    n, k = _check_nk(n, k)
    m = check_positive_int(m, "m")
    return 1.0 + math.sqrt(2.0 * math.log(n)) / math.sqrt(4.0 * GAMMA * m * k)


def karimi_rate(n: int, k: int, variant: int = 0) -> float:
    """Query counts of Karimi et al.'s graph-code decoders (§I-B).

    ``variant=0`` → ``1.72·k·ln(n/k)``; ``variant=1`` → ``1.515·k·ln(n/k)``.
    Reproduced as reference lines (their decoders target bespoke ensembles).
    """
    n, k = _check_nk(n, k)
    if variant not in (0, 1):
        raise ValueError("variant must be 0 or 1")
    return KARIMI_CONSTANTS[variant] * k * math.log(n / k)


def gt_rate(n: int, k: int) -> float:
    """Optimal binary group testing rate ``ln⁻¹(2)·k·ln(n/k)`` (§I-D).

    Achievable by efficient decoders for ``θ ≤ ln2/(1+ln2) ≈ 0.409``.
    """
    n, k = _check_nk(n, k)
    return k * math.log(n / k) / math.log(2.0)


def theta_star_gt() -> float:
    """The θ-threshold ``ln2/(1+ln2)`` below which binary GT beats MN (§I-D)."""
    return THETA_STAR_GT
