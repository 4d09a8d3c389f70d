"""Robustness phase diagram — exact recovery over a (θ, noise-level) grid.

The paper's figures assume the exact-count oracle; §VI poses robustness to
noisy results as the natural extension.  This driver maps it: for each
sparsity exponent θ it fixes a query budget ``m`` just above Theorem 1's
threshold (where the noiseless decoder succeeds w.h.p.) and sweeps the
channel's noise level from 0 upward, measuring the exact-recovery rate at
every grid cell — the empirical phase boundary of noisy reconstruction.

Statistical contract (``engine="batched"``): each (θ, level) cell runs
through :func:`~repro.engine.grid.run_batched_point` with the *same*
stream keys as the batched Fig. 3 runner at ``point_id = 0`` — per-θ root
seed ``root_seed + 104729·ti``, design keyed by the point, signals keyed
by :data:`~repro.core.mn.SIGNAL_STREAM_TAG`.  Consequences:

* at level 0 every cell is **bit-identical** to the noiseless Fig. 3 path
  at the matching (θ, m) point (asserted by the test suite), and
* all levels of one θ share design, signals *and* base noise draws
  (common random numbers), so the degradation along a row is paired, not
  resampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.mn import run_mn_trial
from repro.core.signal import theta_to_k
from repro.core.thresholds import m_mn_threshold
from repro.engine.backend import backend_for_workers
from repro.experiments.io import write_csv
from repro.noise.models import NoiseModel
from repro.util.asciiplot import ascii_series_plot
from repro.util.stats import SummaryStats, summarize_bool, summarize_float
from repro.util.validation import check_positive_int

__all__ = ["run_fignoise", "FignoiseSeries", "FignoisePoint", "default_level_grid", "THETA_SEED_STRIDE"]

#: Per-θ root-seed stride — the Fig. 3 driver's convention, shared so that
#: fignoise cells and fig3 points with matching (θ, m) see identical streams.
THETA_SEED_STRIDE = 104_729

#: Headroom factor over Theorem 1's threshold for the default per-θ budget:
#: enough that the noiseless cell recovers w.h.p., close enough that the
#: noise-driven collapse happens within a moderate level range.
DEFAULT_M_FACTOR = 1.25


def default_level_grid(noise: NoiseModel, points: int = 5) -> "tuple[float, ...]":
    """Evenly spaced noise levels ``0 … noise.level`` (``points`` cells).

    Level 0 (the exact channel, bit-identical to the noiseless sweep) is
    always included, so the spec's level is the *maximum* of the grid.
    """
    points = check_positive_int(points, "points")
    if points == 1:
        return (0.0,)
    return tuple(float(x) for x in np.linspace(0.0, noise.level, points))


def _fignoise_row_task(payload, cache):
    """Module-level worker task (picklable): one θ-row of the phase diagram.

    Runs the whole level sweep of one θ through
    :func:`~repro.engine.grid.run_batched_point_sweep`, so the first stage
    (design, signals, clean results) is paid once per row regardless of
    how many levels it spans.
    """
    n, m_theta, theta, trials, seed_theta, repeats, models = payload
    from repro.engine.grid import run_batched_point_sweep

    return run_batched_point_sweep(
        n,
        m_theta,
        models,
        theta=theta,
        trials=trials,
        root_seed=seed_theta,
        point_id=0,
        repeats=repeats,
    )


@dataclass(frozen=True)
class FignoisePoint:
    """One cell of the phase diagram (one θ, one noise level)."""

    theta: float
    level: float
    n: int
    m: int
    k: int
    success: SummaryStats
    overlap: SummaryStats

    def as_row(self) -> "tuple[float, float, int, int, float, float, float, float, float, float, int]":
        """CSV row: theta, level, n, m, success (mean, lo, hi), overlap (mean, lo, hi), trials."""
        return (
            self.theta,
            self.level,
            self.n,
            self.m,
            self.success.mean,
            self.success.lo,
            self.success.hi,
            self.overlap.mean,
            self.overlap.lo,
            self.overlap.hi,
            self.success.n,
        )


@dataclass(frozen=True)
class FignoiseSeries:
    """One θ-row of the phase diagram: recovery rate vs noise level."""

    n: int
    theta: float
    k: int
    m: int
    noise_family: str
    repeats: int
    points: "tuple[FignoisePoint, ...]"

    def critical_level(self, floor: float = 0.5) -> "float | None":
        """First grid level whose success rate drops below ``floor`` (None if never)."""
        for p in self.points:
            if p.success.mean < floor:
                return float(p.level)
        return None


def run_fignoise(
    n: int = 1000,
    noise: "NoiseModel | None" = None,
    thetas: Sequence[float] = (0.1, 0.2, 0.3, 0.4),
    levels: "Sequence[float] | None" = None,
    points: int = 5,
    m: Optional[int] = None,
    trials: int = 20,
    root_seed: int = 0,
    repeats: int = 1,
    workers: int = 1,
    csv_name: "str | None" = None,
    plot: bool = False,
    engine: str = "batched",
) -> "list[FignoiseSeries]":
    """Generate the robustness phase diagram.

    Parameters
    ----------
    n:
        Signal length.
    noise:
        The channel family and its *maximum* level (e.g.
        ``GaussianNoise(2.0)`` sweeps σ from 0 to 2).  Defaults to
        ``GaussianNoise(2.0)``.
    thetas:
        Sparsity exponents (diagram rows).
    levels:
        Explicit level grid; default ``default_level_grid(noise, points)``.
    m:
        Shared query budget; default per-θ
        ``ceil(1.25 · m_mn_threshold(n, θ))``.
    trials, root_seed, repeats, workers:
        Trials per cell, root entropy, repeat-query averaging factor, and
        worker fan-out (θ-rows fan out on the batched engine; per-trial
        streaming batches on the trial engine).  Results never depend on
        the worker count.
    csv_name:
        When given, write the full grid to ``<results>/<csv_name>.csv``.
    plot:
        Render an ASCII recovery-vs-level plot per θ.
    engine:
        ``"batched"`` (default; one design per θ, trials vectorised, the
        Fig. 3 batched stream contract above) or ``"trial"`` (classic
        per-trial streaming loop via :func:`~repro.core.mn.run_mn_trial`;
        noise enters the streaming path per query batch, and
        ``repeats`` is not supported).
    """
    if noise is None:
        from repro.noise.models import GaussianNoise

        noise = GaussianNoise(2.0)
    if engine not in ("batched", "trial"):
        raise ValueError(f"unknown engine {engine!r}; expected 'batched' or 'trial'")
    repeats = check_positive_int(repeats, "repeats")
    if engine == "trial" and repeats != 1:
        raise ValueError("repeat-query averaging (repeats > 1) requires engine='batched'")
    trials = check_positive_int(trials, "trials")
    level_grid = tuple(float(x) for x in levels) if levels is not None else default_level_grid(noise, points)
    if any(lv < 0 for lv in level_grid):
        raise ValueError("noise levels must be non-negative")

    rows_spec = []
    for ti, theta in enumerate(thetas):
        seed_theta = root_seed + THETA_SEED_STRIDE * ti
        m_theta = int(m) if m is not None else int(np.ceil(DEFAULT_M_FACTOR * m_mn_threshold(n, float(theta))))
        rows_spec.append((float(theta), seed_theta, m_theta, theta_to_k(n, float(theta))))

    models = tuple(noise.with_level(level) for level in level_grid)
    with backend_for_workers(workers) as backend:
        if engine == "batched":
            # One first stage (design + signals + clean results) per θ-row,
            # shared across every level of that row; rows fan out over workers.
            payloads = [
                (n, m_theta, theta, trials, seed_theta, repeats, models)
                for theta, seed_theta, m_theta, _ in rows_spec
            ]
            summaries = [
                [
                    (summarize_bool([bool(s) for s in r.success]), summarize_float([float(o) for o in r.overlap]))
                    for r in row
                ]
                for row in backend.map(_fignoise_row_task, payloads)
            ]
        else:
            summaries = []
            for theta, seed_theta, m_theta, _ in rows_spec:
                row = []
                for model in models:
                    results = [
                        run_mn_trial(
                            n,
                            m_theta,
                            theta=theta,
                            root_seed=seed_theta,
                            trial=t,  # point_id 0 of the fig3 trial-id convention
                            backend=backend,
                            noise=model,
                        )
                        for t in range(trials)
                    ]
                    row.append(
                        (
                            summarize_bool([res.success for res in results]),
                            summarize_float([res.overlap for res in results]),
                        )
                    )
                summaries.append(row)

    series: "list[FignoiseSeries]" = []
    for (theta, _, m_theta, k), row in zip(rows_spec, summaries):
        cells = tuple(
            FignoisePoint(theta=theta, level=level, n=n, m=m_theta, k=k, success=success, overlap=overlap)
            for level, (success, overlap) in zip(level_grid, row)
        )
        series.append(
            FignoiseSeries(
                n=n,
                theta=theta,
                k=k,
                m=m_theta,
                noise_family=type(noise).__name__,
                repeats=repeats,
                points=cells,
            )
        )

    if csv_name:
        write_csv(
            csv_name,
            [
                "theta",
                "level",
                "n",
                "m",
                "success",
                "success_lo",
                "success_hi",
                "overlap",
                "overlap_lo",
                "overlap_hi",
                "trials",
            ],
            [p.as_row() for s in series for p in s.points],
        )
    if plot:
        chart = {f"theta={s.theta}": [(p.level, p.success.mean) for p in s.points] for s in series}
        print(
            ascii_series_plot(
                chart,
                title=f"Noise phase diagram: exact recovery vs level (n={n}, {type(noise).__name__})",
                xlabel="noise level",
                ylabel="recovery",
            )
        )
    return series
