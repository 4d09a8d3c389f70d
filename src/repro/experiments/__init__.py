"""Evaluation harness: one driver per paper figure/claim.

Every driver

* takes a plain ``workers`` count, builds one backend from it
  (:func:`~repro.engine.backend.backend_for_workers`) and threads that
  backend down — through :mod:`repro.experiments.runner`, which fans
  trials out over it with deterministic per-trial seeds,
* writes machine-readable CSV through :mod:`repro.experiments.io`,
* returns structured rows that the benchmark suite asserts *shape*
  properties on (thresholds, monotonicity, crossovers), and
* renders an ASCII plot for eyeballing against the paper figure.

Scale note: the paper uses 100 repetitions and ``n`` up to ``10^6`` on a
20-core C++ testbed.  Drivers default to laptop-scale parameters and accept
the paper-scale ones explicitly (see EXPERIMENTS.md).
"""

from repro.experiments.runner import (
    run_trials,
    success_and_overlap_curve,
    CurvePoint,
)
from repro.experiments.search import minimal_queries_for_recovery
from repro.experiments.fig2 import run_fig2, Fig2Row
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fignoise import run_fignoise, FignoiseSeries, FignoisePoint
from repro.experiments.claims import run_claim_table
from repro.experiments.itcheck import run_it_threshold
from repro.experiments.io import write_csv, results_dir

__all__ = [
    "run_trials",
    "success_and_overlap_curve",
    "CurvePoint",
    "minimal_queries_for_recovery",
    "run_fig2",
    "Fig2Row",
    "run_fig3",
    "run_fig4",
    "run_fignoise",
    "FignoiseSeries",
    "FignoisePoint",
    "run_claim_table",
    "run_it_threshold",
    "write_csv",
    "results_dir",
]
