"""Sequential vs parallel — the factor-two of Eq. (1)/(2), measured.

The paper's information-theoretic centrepiece: parallel designs pay
exactly twice the sequential counting bound.  We measure three regimes on
the same instances:

* adaptive binary splitting (sequential baseline, ~k·log₂(n/k) queries,
  Θ(log n) rounds),
* the MN one-shot design (Theorem 1 queries, one round),
* the exhaustive one-shot decoder at the Theorem-2 budget (one round,
  unlimited compute; small n only).

Expected shape: sequential needs the fewest queries but the most rounds;
the parallel IT budget is ~2x the sequential counting bound; MN pays a
further polylog factor for efficiency.
"""

import numpy as np
import pytest

from conftest import emit
from repro.baselines.sequential import adaptive_binary_splitting, oracle_from_signal
from repro.core.signal import random_signal
from repro.core.thresholds import m_counting_sequential, m_information_parallel, m_mn_threshold
from repro.engine.backend import backend_for_workers
from repro.experiments.runner import run_trials
from repro.util.asciiplot import format_table

N, THETA = 1024, 0.3
TRIALS = 10


@pytest.fixture(scope="module")
def seq_stats(repro_seed):
    from repro.core.signal import theta_to_k

    k = theta_to_k(N, THETA)
    queries, rounds = [], []
    for t in range(TRIALS):
        rng = np.random.default_rng(repro_seed + t)
        sigma = random_signal(N, k, rng)
        result = adaptive_binary_splitting(N, oracle_from_signal(sigma))
        assert np.array_equal(result.sigma_hat, sigma)
        queries.append(result.queries_used)
        rounds.append(result.rounds)
    return {"k": k, "queries": float(np.mean(queries)), "rounds": float(np.mean(rounds))}


def test_seq_regenerate(benchmark, repro_seed):
    from repro.core.signal import theta_to_k

    k = theta_to_k(N, THETA)
    sigma = random_signal(N, k, np.random.default_rng(repro_seed))
    result = benchmark(lambda: adaptive_binary_splitting(N, oracle_from_signal(sigma)))
    assert result.queries_used > 0


def test_seq_vs_parallel_table(seq_stats, repro_seed, workers, check):
    @check
    def _():
        k = seq_stats["k"]
        m_mn = int(round(1.3 * m_mn_threshold(N, THETA)))
        with backend_for_workers(workers) as backend:
            mn = run_trials(N, m_mn, theta=THETA, trials=TRIALS, root_seed=repro_seed, backend=backend)
        mn_success = sum(r.success for r in mn) / TRIALS
        rows = [
            ("sequential splitting", f"{seq_stats['queries']:.0f}", f"{seq_stats['rounds']:.1f}", "1.00"),
            ("MN one-shot (1.3·m_MN)", str(m_mn), "1.0", f"{mn_success:.2f}"),
            ("IT parallel budget (Thm 2)", f"{m_information_parallel(N, k):.0f}", "1.0", "(needs exhaustive decoding)"),
            ("seq counting bound (Eq. 1)", f"{m_counting_sequential(N, k):.0f}", "-", "(lower bound)"),
        ]
        emit(f"Sequential vs parallel (n={N}, θ={THETA}, k={k})", format_table(["scheme", "queries", "rounds", "success"], rows))
        # Rounds trade-off: sequential pays Θ(log n) rounds.
        assert seq_stats["rounds"] > 5
        # MN's one-shot budget is within a modest factor of the adaptive cost.
        assert m_mn <= 8 * seq_stats["queries"]
        assert mn_success >= 0.8


def test_parallel_penalty_is_factor_two(seq_stats, check):
    @check
    def _():
        k = seq_stats["k"]
        assert m_information_parallel(N, k) == pytest.approx(2 * m_counting_sequential(N, k))


def test_sequential_beats_parallel_on_queries(seq_stats, check):
    @check
    def _():
        """Adaptive splitting uses fewer queries than the one-shot MN budget."""
        assert seq_stats["queries"] < 1.3 * m_mn_threshold(N, THETA)
