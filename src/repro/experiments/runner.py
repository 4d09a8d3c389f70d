"""Trial execution: deterministic seeds, optional trial-level parallelism.

The sweeps of Figs. 2–4 are embarrassingly parallel *across trials* (each
trial is one design + one decode), which is where the worker pool pays off
most at laptop scale — so the harness parallelises over trials and leaves
each trial's streaming simulation serial.  Every trial's randomness is
keyed by ``(root_seed, point_id, trial)``, so a sweep is reproducible
regardless of worker count, sweep order, or interleaving.

Two execution engines are offered by :func:`success_and_overlap_curve`:

* ``engine="trial"`` (default) — the classic per-trial loop above; every
  trial samples its own design, so confidence intervals average over both
  design and signal randomness.
* ``engine="batched"`` — the :mod:`repro.engine.grid` runner: one design
  per grid point, all trials decoded against it in one vectorised pass
  (the production-throughput mode; see that module for the statistical
  contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.mn import POINT_TRIAL_STRIDE, MNTrialResult, run_mn_trial
from repro.util.stats import SummaryStats, summarize_bool, summarize_float
from repro.util.validation import check_nonneg_int, check_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.backend import Backend

__all__ = ["run_trials", "success_and_overlap_curve", "CurvePoint"]


def _trial_task(payload, cache) -> MNTrialResult:
    """Module-level worker task (picklable) running one MN trial."""
    n, m, theta, k, root_seed, trial = payload
    return run_mn_trial(n, m, theta=theta, k=k, root_seed=root_seed, trial=trial)


def run_trials(
    n: int,
    m: int,
    *,
    theta: Optional[float] = None,
    k: Optional[int] = None,
    trials: int = 20,
    root_seed: int = 0,
    point_id: int = 0,
    backend: "Backend | None" = None,
) -> "list[MNTrialResult]":
    """Run ``trials`` independent MN trials at one ``(n, m)`` point.

    ``point_id`` disambiguates seeds across sweep points so that two points
    of the same sweep never share designs.  Trials fan out over
    ``backend`` (default: inline); results never depend on it.
    """
    from repro.engine.backend import resolved_backend

    check_positive_int(n, "n")
    check_positive_int(m, "m")
    trials = check_positive_int(trials, "trials")
    check_nonneg_int(point_id, "point_id")
    with resolved_backend(backend) as exec_backend:
        payloads = [(n, m, theta, k, root_seed, point_id * POINT_TRIAL_STRIDE + t) for t in range(trials)]
        return exec_backend.map(_trial_task, payloads)


@dataclass(frozen=True)
class CurvePoint:
    """Aggregated outcome of one sweep point (one x-value of Fig. 3/4)."""

    n: int
    m: int
    success: SummaryStats
    overlap: SummaryStats

    def as_row(self) -> "tuple[int, int, float, float, float, float, float, float, int]":
        """CSV row: n, m, success (mean, lo, hi), overlap (mean, lo, hi), trials."""
        return (
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


def success_and_overlap_curve(
    n: int,
    ms: Sequence[int],
    *,
    theta: Optional[float] = None,
    k: Optional[int] = None,
    trials: int = 20,
    root_seed: int = 0,
    backend: "Backend | None" = None,
    engine: str = "trial",
) -> "list[CurvePoint]":
    """Sweep ``m`` and aggregate success rate and overlap at each point.

    This single function generates the data of both Fig. 3 (success) and
    Fig. 4 (overlap): the paper's two figures are two projections of the
    same simulation grid, so we run it once.

    ``engine="batched"`` replaces the per-trial Python loop with the
    batched grid runner (:func:`repro.engine.grid.run_trial_grid`): one
    design per point, all trials vectorised — see the module docstring for
    the trade-off.
    """
    from repro.engine.backend import resolved_backend

    if engine not in ("trial", "batched"):
        raise ValueError(f"unknown engine {engine!r}; expected 'trial' or 'batched'")
    points: "list[CurvePoint]" = []
    with resolved_backend(backend) as exec_backend:
        if engine == "batched":
            from repro.engine.grid import run_trial_grid

            for r in run_trial_grid(
                n,
                [int(m) for m in ms],
                theta=theta,
                k=k,
                trials=trials,
                root_seed=root_seed,
                backend=exec_backend,
            ):
                points.append(
                    CurvePoint(
                        n=n,
                        m=r.m,
                        success=summarize_bool([bool(s) for s in r.success]),
                        overlap=summarize_float([float(o) for o in r.overlap]),
                    )
                )
            return points
        for idx, m in enumerate(ms):
            results = run_trials(
                n,
                int(m),
                theta=theta,
                k=k,
                trials=trials,
                root_seed=root_seed,
                point_id=idx,
                backend=exec_backend,
            )
            points.append(
                CurvePoint(
                    n=n,
                    m=int(m),
                    success=summarize_bool([r.success for r in results]),
                    overlap=summarize_float([r.overlap for r in results]),
                )
            )
    return points
