"""Decoder comparison phase diagram — exact recovery over a (θ, decoder) grid.

The paper positions the MN algorithm against compressed sensing (LP basis
pursuit), greedy pursuit (OMP), message passing (AMP) and binary group
testing (COMP/DD) — §I-B and §I-D.  This driver maps that comparison
empirically: for each sparsity exponent θ it fixes one query budget ``m``
just above Theorem 1's threshold and decodes the *same* designs, signals
and query results with every registry decoder, measuring the
exact-recovery rate per cell — the empirical phase boundary of each
decoder family at MN's operating point.

Statistical contract: every cell of one θ-row runs through
:func:`~repro.engine.grid.run_batched_point` at ``point_id = 0`` with the
per-θ root seed ``root_seed + 104729·ti`` — the fignoise/fig3 stream
convention.  The design and signal draws depend only on those keys, never
on the decoder, so a θ-row is a paired (common-random-numbers) comparison
and the ``mn`` column is bit-identical to the noiseless batched Fig. 3
point at the matching (θ, m).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.signal import theta_to_k
from repro.core.thresholds import m_mn_threshold
from repro.engine.backend import backend_for_workers
from repro.experiments.fignoise import DEFAULT_M_FACTOR, THETA_SEED_STRIDE
from repro.experiments.io import write_csv
from repro.util.asciiplot import ascii_series_plot
from repro.util.stats import SummaryStats, summarize_bool, summarize_float
from repro.util.validation import check_positive_int

__all__ = ["run_figdecoders", "FigdecodersSeries", "FigdecodersPoint", "DEFAULT_DECODER_GRID"]

#: Decoder columns of the default comparison grid (registry names).  LP is
#: included — its per-signal ``linprog`` makes it the slowest column, which
#: is itself part of the comparison story.
DEFAULT_DECODER_GRID = ("mn", "lp", "omp", "amp", "comp", "dd")


def _figdecoders_cell_task(payload, cache):
    """Module-level worker task (picklable): one (θ, decoder) cell.

    Cells — not rows — are the fan-out unit because decoder costs differ
    by orders of magnitude (LP's per-signal LP vs MN's one GEMM); pairing
    is preserved anyway since the design/signal streams are keyed by
    (seed, point) only.
    """
    n, m_theta, theta, trials, seed_theta, decoder = payload
    from repro.engine.grid import run_batched_point

    return run_batched_point(
        n,
        m_theta,
        theta=theta,
        trials=trials,
        root_seed=seed_theta,
        point_id=0,
        decoder=decoder,
    )


@dataclass(frozen=True)
class FigdecodersPoint:
    """One cell of the phase diagram (one θ, one decoder)."""

    decoder: str
    theta: float
    n: int
    m: int
    k: int
    success: SummaryStats
    overlap: SummaryStats

    def as_row(self) -> "tuple[str, float, int, int, int, float, float, float, float, float, float, int]":
        """CSV row: decoder, theta, n, m, k, success (mean, lo, hi), overlap (mean, lo, hi), trials."""
        return (
            self.decoder,
            self.theta,
            self.n,
            self.m,
            self.k,
            self.success.mean,
            self.success.lo,
            self.success.hi,
            self.overlap.mean,
            self.overlap.lo,
            self.overlap.hi,
            self.success.n,
        )


@dataclass(frozen=True)
class FigdecodersSeries:
    """One decoder-column of the phase diagram: recovery rate vs θ."""

    n: int
    decoder: str
    points: "tuple[FigdecodersPoint, ...]"

    def critical_theta(self, floor: float = 0.5) -> "float | None":
        """First grid θ whose success rate drops below ``floor`` (None if never)."""
        for p in self.points:
            if p.success.mean < floor:
                return float(p.theta)
        return None


def run_figdecoders(
    n: int = 1000,
    decoders: Sequence[str] = DEFAULT_DECODER_GRID,
    thetas: Sequence[float] = (0.1, 0.2, 0.3, 0.4),
    m: Optional[int] = None,
    trials: int = 20,
    root_seed: int = 0,
    workers: int = 1,
    csv_name: "str | None" = None,
    plot: bool = False,
) -> "list[FigdecodersSeries]":
    """Generate the decoder-comparison phase diagram.

    Parameters
    ----------
    n:
        Signal length.
    decoders:
        Registry decoder names (diagram columns; validated up front).
    thetas:
        Sparsity exponents (diagram rows).
    m:
        Shared query budget; default per-θ
        ``ceil(1.25 · m_mn_threshold(n, θ))`` — MN's operating point, so
        the diagram reads as "who else survives where MN does".
    trials, root_seed, workers:
        Trials per cell, root entropy, and cell fan-out.  Results never
        depend on the worker count.
    csv_name:
        When given, write the full grid to ``<results>/<csv_name>.csv``.
    plot:
        Render an ASCII recovery-vs-θ plot per decoder.
    """
    from repro.designs import available_decoders

    trials = check_positive_int(trials, "trials")
    decoders = tuple(str(d) for d in decoders)
    if not decoders:
        raise ValueError("decoders must name at least one registry decoder")
    unknown = [d for d in decoders if d not in available_decoders()]
    if unknown:
        raise ValueError(f"unknown decoder(s) {unknown}; available: {', '.join(available_decoders())}")

    rows_spec = []
    for ti, theta in enumerate(thetas):
        seed_theta = root_seed + THETA_SEED_STRIDE * ti
        m_theta = int(m) if m is not None else int(np.ceil(DEFAULT_M_FACTOR * m_mn_threshold(n, float(theta))))
        rows_spec.append((float(theta), seed_theta, m_theta, theta_to_k(n, float(theta))))

    payloads = [
        (n, m_theta, theta, trials, seed_theta, decoder)
        for theta, seed_theta, m_theta, _ in rows_spec
        for decoder in decoders
    ]
    with backend_for_workers(workers) as backend:
        results = backend.map(_figdecoders_cell_task, payloads)

    cells: "dict[tuple[str, float], FigdecodersPoint]" = {}
    flat = iter(results)
    for theta, _, m_theta, k in rows_spec:
        for decoder in decoders:
            r = next(flat)
            cells[(decoder, theta)] = FigdecodersPoint(
                decoder=decoder,
                theta=theta,
                n=n,
                m=m_theta,
                k=k,
                success=summarize_bool([bool(s) for s in r.success]),
                overlap=summarize_float([float(o) for o in r.overlap]),
            )

    series = [
        FigdecodersSeries(
            n=n,
            decoder=decoder,
            points=tuple(cells[(decoder, theta)] for theta, _, _, _ in rows_spec),
        )
        for decoder in decoders
    ]

    if csv_name:
        write_csv(
            csv_name,
            [
                "decoder",
                "theta",
                "n",
                "m",
                "k",
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
        chart = {s.decoder: [(p.theta, p.success.mean) for p in s.points] for s in series}
        print(
            ascii_series_plot(
                chart,
                title=f"Decoder phase diagram: exact recovery vs theta (n={n}, m=1.25x MN threshold)",
                xlabel="theta",
                ylabel="recovery",
            )
        )
    return series
