"""Quantitative in-text claims, reproduced as a table ("Table A").

The paper has no numbered tables; its evaluation text makes point claims.
The headline one (§VI): *"on average we correctly identify 99% of the
one-entries when conducting only 220 queries for n = 1000 and θ = 0.3."*
This driver measures exactly that cell, plus the companion threshold
quantities, with confidence intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.signal import theta_to_k
from repro.core.thresholds import m_information_parallel, m_mn_threshold
from repro.engine.backend import backend_for_workers
from repro.experiments.io import write_csv
from repro.experiments.runner import run_trials
from repro.util.stats import SummaryStats, summarize_bool, summarize_float

__all__ = ["run_claim_table", "ClaimRow"]


@dataclass(frozen=True)
class ClaimRow:
    """Paper-claim vs measured value for one cell."""

    label: str
    n: int
    theta: float
    m: int
    paper_value: float
    measured_overlap: SummaryStats
    measured_success: SummaryStats


def run_claim_table(
    trials: int = 50,
    root_seed: int = 2022,
    workers: int = 1,
    csv_name: "str | None" = "claims",
) -> "list[ClaimRow]":
    """Measure the §VI claim cell (and a sanity cell above threshold).

    Returns rows comparing the paper's 0.99 overlap claim at
    ``(n=1000, θ=0.3, m=220)`` with our measurement, plus the same
    configuration at the Theorem-1 query count where exact recovery should
    be near-certain.
    """
    cells = [
        ("sec6_99pct_overlap", 1000, 0.3, 220, 0.99),
        ("thm1_recovery", 1000, 0.3, int(round(m_mn_threshold(1000, 0.3) * 1.3)), 1.0),
    ]
    rows: "list[ClaimRow]" = []
    with backend_for_workers(workers) as backend:
        for i, (label, n, theta, m, paper_value) in enumerate(cells):
            results = run_trials(n, m, theta=theta, trials=trials, root_seed=root_seed, point_id=i, backend=backend)
            rows.append(
                ClaimRow(
                    label=label,
                    n=n,
                    theta=theta,
                    m=m,
                    paper_value=paper_value,
                    measured_overlap=summarize_float([r.overlap for r in results]),
                    measured_success=summarize_bool([r.success for r in results]),
                )
            )
    if csv_name:
        write_csv(
            csv_name,
            [
                "label", "n", "theta", "m", "paper_value",
                "overlap_mean", "overlap_lo", "overlap_hi",
                "success_mean", "success_lo", "success_hi", "trials",
            ],
            [
                (
                    r.label, r.n, r.theta, r.m, r.paper_value,
                    r.measured_overlap.mean, r.measured_overlap.lo, r.measured_overlap.hi,
                    r.measured_success.mean, r.measured_success.lo, r.measured_success.hi,
                    r.measured_overlap.n,
                )
                for r in rows
            ],
        )
    return rows


def threshold_summary(n: int = 1000, theta: float = 0.3) -> "dict[str, float]":
    """The threshold constants for a configuration ("Table B" helper)."""
    k = theta_to_k(n, theta)
    return {
        "n": float(n),
        "theta": theta,
        "k": float(k),
        "m_IT_parallel": m_information_parallel(n, k),
        "m_MN": m_mn_threshold(n, theta),
    }
