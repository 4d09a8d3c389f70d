"""Empirical verification of Theorem 2's phase transition (ablation).

The paper proves — but does not simulate — the information-theoretic
threshold ``m_IT = 2·k·ln(n/k)/ln k`` (equivalently: uniqueness of the
consistent signal once ``c > 2`` in ``m = c·k·ln(n/k)/ln k``).  At small
``n`` the exhaustive decoder makes this measurable: sweep ``c``, count how
often ``Z_k(G, y) = 1``, and watch the uniqueness probability transition.
This is the experiment a referee would ask for, and it doubles as an
end-to-end test of the design + exhaustive-search stack.

Finite-size caveat: at ``n ≤ 30`` the transition is smeared and shifted
(the theorem is asymptotic); the benchmark asserts monotone-ish behaviour
and separation between ``c ≪ 2`` and ``c ≫ 2`` rather than a sharp jump.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.design import PoolingDesign
from repro.core.exhaustive import exhaustive_decode
from repro.core.signal import random_signal
from repro.core.thresholds import m_counting_sequential
from repro.engine.backend import backend_for_workers
from repro.experiments.io import write_csv
from repro.util.stats import SummaryStats, summarize_bool
from repro.util.validation import check_positive_int

__all__ = ["run_it_threshold", "ITPoint"]


@dataclass(frozen=True)
class ITPoint:
    """Uniqueness probability at one value of the density parameter ``c``."""

    c: float
    m: int
    unique: SummaryStats


def _it_task(payload, cache) -> bool:
    """Worker task: one uniqueness probe at (n, k, m)."""
    n, k, m, seed = payload
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(313,))))
    sigma = random_signal(n, k, rng)
    design = PoolingDesign.sample(n, m, rng)
    y = design.query_results(sigma)
    sigma_hat, count = exhaustive_decode(design, y, k)
    if count == 1 and sigma_hat is not None and not np.array_equal(sigma_hat, sigma):
        raise AssertionError("unique consistent signal differs from ground truth — decoder bug")
    return count == 1


def run_it_threshold(
    n: int = 30,
    k: int = 3,
    cs: Sequence[float] = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0),
    trials: int = 20,
    root_seed: int = 0,
    workers: int = 1,
    csv_name: "str | None" = "it_threshold",
) -> "list[ITPoint]":
    """Sweep ``c`` and measure ``P[Z_k(G,y) = 1]`` with exhaustive search."""
    n = check_positive_int(n, "n")
    k = check_positive_int(k, "k")
    base = m_counting_sequential(n, k)
    points: "list[ITPoint]" = []
    with backend_for_workers(workers) as backend:
        for ci, c in enumerate(cs):
            m = max(1, int(round(c * base)))
            payloads = [(n, k, m, root_seed + 7001 * ci * trials + t) for t in range(trials)]
            unique = backend.map(_it_task, payloads)
            points.append(ITPoint(c=float(c), m=m, unique=summarize_bool(unique)))
    if csv_name:
        write_csv(
            csv_name,
            ["c", "m", "unique_mean", "unique_lo", "unique_hi", "trials"],
            [(p.c, p.m, p.unique.mean, p.unique.lo, p.unique.hi, p.unique.n) for p in points],
        )
    return points
