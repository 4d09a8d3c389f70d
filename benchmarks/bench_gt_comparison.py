"""§I-D comparator — binary group testing (DD) vs MN at small θ.

Paper: dropping the count information and using the optimal OR-query
pipeline *outperforms* MN (and Karimi et al.) for θ ≤ ln2/(1+ln2) ≈ 0.409.
We sweep the query budget in units of k·ln(n/k) and find each decoder's
success point.
"""

import math

import pytest

from conftest import emit
from repro.baselines.bin_gt import run_gt_trial
from repro.core.signal import theta_to_k
from repro.engine.backend import backend_for_workers
from repro.experiments.runner import run_trials
from repro.util.asciiplot import format_table

N = 1000
THETA = 0.2
RATES = (1.0, 1.5, 2.0, 3.0, 4.5, 6.5)
TRIALS = 12


def _unit(n, theta):
    k = theta_to_k(n, theta)
    return k * math.log(n / k)


@pytest.fixture(scope="module")
def sweep(workers, repro_seed):
    unit = _unit(N, THETA)
    rows = []
    with backend_for_workers(workers) as backend:
        for i, rate in enumerate(RATES):
            m = max(1, int(round(rate * unit)))
            mn = run_trials(N, m, theta=THETA, trials=TRIALS, root_seed=repro_seed, point_id=i, backend=backend)
            mn_rate = sum(r.success for r in mn) / TRIALS
            dd_rate = (
                sum(run_gt_trial(N, m, theta=THETA, seed=repro_seed + 37 * i * TRIALS + t).dd_success for t in range(TRIALS))
                / TRIALS
            )
            rows.append({"rate": rate, "m": m, "mn": mn_rate, "dd": dd_rate})
    return rows


def test_gt_regenerate(benchmark, repro_seed):
    result = benchmark.pedantic(
        lambda: run_gt_trial(N, 300, theta=THETA, seed=repro_seed),
        rounds=3,
        iterations=1,
    )
    assert result.n == N


def _success_rate_point(rows, key, level=0.75):
    for row in rows:
        if row[key] >= level:
            return row["rate"]
    return None


def test_gt_beats_mn_at_small_theta(sweep, check):
    @check
    def _():
        """DD reaches reliable recovery at a smaller budget than MN (θ=0.2)."""
        emit(
            "Binary GT (DD) vs MN, n=1000, theta=0.2 (m in units of k·ln(n/k))",
            format_table(
                ["rate", "m", "MN success", "DD success"],
                [(r["rate"], r["m"], f"{r['mn']:.2f}", f"{r['dd']:.2f}") for r in sweep],
            ),
        )
        dd_point = _success_rate_point(sweep, "dd")
        mn_point = _success_rate_point(sweep, "mn")
        assert dd_point is not None, "DD never succeeded in the sweep"
        assert mn_point is not None, "MN never succeeded in the sweep"
        assert dd_point <= mn_point


def test_both_succeed_with_generous_budget(sweep, check):
    @check
    def _():
        """Both decoders are reliable at the top of the sweep."""
        assert sweep[-1]["mn"] >= 0.8
        assert sweep[-1]["dd"] >= 0.8


def test_dd_rate_near_theory(sweep, check):
    @check
    def _():
        """DD's success point sits within a factor ~2.5 of the ln⁻¹(2) theory rate."""
        dd_point = _success_rate_point(sweep, "dd")
        theory_rate = 1.0 / math.log(2.0)  # ≈ 1.44 in k·ln(n/k) units
        assert dd_point <= 2.5 * theory_rate

