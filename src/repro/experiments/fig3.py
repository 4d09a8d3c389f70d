"""Fig. 3 — exact-recovery success rate vs ``m``.

Paper setting: two panels (``n = 10^3`` with ``m ∈ [0, 1000]``;
``n = 10^4`` with ``m ∈ [0, 3000]``), ``θ ∈ {0.1, …, 0.4}``, 100 runs per
point; vertical dashed lines mark Theorem 1's prediction.

Shape criteria: each curve is an S-curve from ~0 to ~1; its 50% crossing
sits near (for small ``n``: right of) the asymptotic threshold, and curves
for larger θ cross later in absolute ``m``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.signal import theta_to_k
from repro.core.thresholds import m_mn_threshold
from repro.engine.backend import backend_for_workers
from repro.experiments.io import write_csv
from repro.experiments.runner import CurvePoint, success_and_overlap_curve
from repro.util.asciiplot import ascii_series_plot

__all__ = ["run_fig3", "Fig3Series", "default_m_grid"]


def default_m_grid(n: int, points: int = 12) -> "tuple[int, ...]":
    """The paper's x-range for panel ``n`` (1000 → 0..1000, 10^4 → 0..3000).

    Returns ``points`` positive multiples up to the panel maximum.
    """
    m_max = 1000 if n <= 3000 else 3000
    grid = np.unique(np.linspace(m_max / points, m_max, points).astype(int))
    return tuple(int(m) for m in grid if m > 0)


@dataclass(frozen=True)
class Fig3Series:
    """One θ-curve of a Fig. 3 panel."""

    n: int
    theta: float
    k: int
    threshold_theory: float
    points: "tuple[CurvePoint, ...]"

    def crossing_m(self, level: float = 0.5) -> "float | None":
        """First grid ``m`` whose success rate reaches ``level`` (None if never)."""
        for p in self.points:
            if p.success.mean >= level:
                return float(p.m)
        return None


def run_fig3(
    n: int = 1000,
    thetas: Sequence[float] = (0.1, 0.2, 0.3, 0.4),
    ms: "Sequence[int] | None" = None,
    trials: int = 20,
    root_seed: int = 0,
    workers: int = 1,
    csv_name: "str | None" = None,
    plot: bool = False,
    engine: str = "trial",
) -> "list[Fig3Series]":
    """Regenerate one panel of Fig. 3 (success) — and Fig. 4's data too.

    The overlap projection of the same grid is what Fig. 4 plots; use
    :func:`repro.experiments.fig4.run_fig4` for that view.
    ``engine="batched"`` switches the sweep to the batched grid runner
    (one design per point, trials vectorised — see
    :mod:`repro.engine.grid`).
    """
    ms = tuple(ms) if ms is not None else default_m_grid(n)
    series: "list[Fig3Series]" = []
    with backend_for_workers(workers) as backend:
        for ti, theta in enumerate(thetas):
            pts = success_and_overlap_curve(
                n,
                ms,
                theta=theta,
                trials=trials,
                root_seed=root_seed + 104_729 * ti,
                backend=backend,
                engine=engine,
            )
            series.append(
                Fig3Series(
                    n=n,
                    theta=theta,
                    k=theta_to_k(n, theta),
                    threshold_theory=m_mn_threshold(n, theta),
                    points=tuple(pts),
                )
            )
    if csv_name:
        write_csv(
            csv_name,
            ["theta", "n", "m", "success", "success_lo", "success_hi", "overlap", "overlap_lo", "overlap_hi", "trials"],
            [
                (s.theta, *p.as_row())
                for s in series
                for p in s.points
            ],
        )
    if plot:
        chart = {f"theta={s.theta}": [(p.m, p.success.mean) for p in s.points] for s in series}
        print(ascii_series_plot(chart, title=f"Fig. 3: success rate vs m (n={n})", xlabel="m", ylabel="success"))
    return series
