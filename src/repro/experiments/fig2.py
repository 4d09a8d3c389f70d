"""Fig. 2 — required queries for exact recovery vs ``n``, per θ.

Paper setting: ``n ∈ [10^2, 10^6]``, ``θ ∈ {0.1, 0.2, 0.3, 0.4}``, 100
independent runs per point, log-log axes, with the Theorem-1 asymptote
(dotted in the paper) for comparison.  Defaults here are laptop-scale
(``n ≤ 3·10^4``, 20 runs); pass the paper's grid explicitly for the full
reproduction.

Shape criteria asserted by the benchmark: measured curves sit *above* the
asymptote, approach it as ``n`` grows (ratio decreasing), and order by θ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.signal import theta_to_k
from repro.core.thresholds import finite_size_factor, m_mn_threshold
from repro.engine.backend import backend_for_workers
from repro.experiments.io import write_csv
from repro.experiments.search import minimal_queries_for_recovery
from repro.util.asciiplot import ascii_series_plot
from repro.util.stats import SummaryStats, summarize_float
from repro.util.validation import check_positive_int

__all__ = ["run_fig2", "Fig2Row", "DEFAULT_NS", "DEFAULT_THETAS"]

DEFAULT_NS: "tuple[int, ...]" = (100, 316, 1000, 3162, 10000, 31623)
DEFAULT_THETAS: "tuple[float, ...]" = (0.1, 0.2, 0.3, 0.4)


@dataclass(frozen=True)
class Fig2Row:
    """One (θ, n) point of Fig. 2."""

    theta: float
    n: int
    k: int
    required_m: SummaryStats
    theory_m: float
    theory_corrected: float

    def as_row(self):
        """CSV row."""
        return (
            self.theta,
            self.n,
            self.k,
            self.required_m.mean,
            self.required_m.lo,
            self.required_m.hi,
            self.theory_m,
            self.theory_corrected,
            self.required_m.n,
        )


def _fig2_task(payload, cache) -> int:
    """Worker task: one minimal-m search trial."""
    n, theta, root_seed, trial = payload
    return minimal_queries_for_recovery(n, theta=theta, root_seed=root_seed, trial=trial)


def run_fig2(
    ns: Sequence[int] = DEFAULT_NS,
    thetas: Sequence[float] = DEFAULT_THETAS,
    trials: int = 20,
    root_seed: int = 0,
    workers: int = 1,
    csv_name: "str | None" = "fig2",
    plot: bool = False,
) -> "list[Fig2Row]":
    """Regenerate the Fig. 2 data (and optionally the ASCII plot).

    Returns one row per (θ, n) with the empirical mean required ``m``, the
    Theorem-1 asymptote, and the §V-Remark finite-size-corrected line.
    """
    trials = check_positive_int(trials, "trials")
    rows: "list[Fig2Row]" = []
    with backend_for_workers(workers) as backend:
        for ti, theta in enumerate(thetas):
            for ni, n in enumerate(ns):
                k = theta_to_k(n, theta)
                point_seed = root_seed + 7_919 * (ti * len(ns) + ni)
                payloads = [(n, theta, point_seed, t) for t in range(trials)]
                required = backend.map(_fig2_task, payloads)
                theory = m_mn_threshold(n, theta)
                corrected = theory * finite_size_factor(n, k, max(1, int(round(theory))))
                rows.append(
                    Fig2Row(
                        theta=theta,
                        n=n,
                        k=k,
                        required_m=summarize_float([float(r) for r in required]),
                        theory_m=theory,
                        theory_corrected=corrected,
                    )
                )
    if csv_name:
        write_csv(
            csv_name,
            ["theta", "n", "k", "m_mean", "m_lo", "m_hi", "m_theory", "m_theory_corrected", "trials"],
            [r.as_row() for r in rows],
        )
    if plot:
        series = {}
        for theta in thetas:
            series[f"theta={theta}"] = [(r.n, r.required_m.mean) for r in rows if r.theta == theta]
            series[f"thry {theta}"] = [(r.n, r.theory_m) for r in rows if r.theta == theta]
        print(
            ascii_series_plot(
                series,
                logx=True,
                logy=True,
                title="Fig. 2: required queries vs n",
                xlabel="n",
                ylabel="m",
            )
        )
    return rows
