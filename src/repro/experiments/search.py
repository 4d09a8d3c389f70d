"""Minimal-query search: the measurement behind Fig. 2.

Fig. 2 plots "the required number of queries until σ can be exactly
reconstructed".  Operationally (and this is how we define it): for one
trial, find the smallest ``m`` such that a fresh design with ``m`` queries
is decoded exactly.  Success is not strictly monotone in ``m`` (each probe
draws a fresh design), so we use exponential doubling to bracket the
transition followed by bisection inside the bracket — the standard
noisy-threshold search; its output concentrates tightly because the success
probability jumps from ~0 to ~1 within a narrow window (Fig. 3).
"""

from __future__ import annotations

from typing import Optional

from repro.core.mn import run_mn_trial
from repro.util.validation import check_nonneg_int, check_positive_int

__all__ = ["minimal_queries_for_recovery"]


def _probe(n: int, m: int, theta, k, root_seed: int, trial: int, probe_id: int) -> bool:
    """One fresh-design success probe; seeds disambiguated per probe."""
    result = run_mn_trial(n, m, theta=theta, k=k, root_seed=root_seed, trial=trial * 131_071 + probe_id)
    return result.success


def minimal_queries_for_recovery(
    n: int,
    *,
    theta: Optional[float] = None,
    k: Optional[int] = None,
    root_seed: int = 0,
    trial: int = 0,
    m_start: int = 4,
    m_cap: int = 1 << 22,
) -> int:
    """Smallest ``m`` (up to bracketing noise) achieving exact recovery.

    Parameters
    ----------
    n:
        Signal length.
    theta, k:
        Sparsity (exactly one of the two).
    root_seed, trial:
        Seed discipline: every probe of every trial uses a distinct stream.
    m_start:
        First probe size.
    m_cap:
        Hard cap; exceeded only if recovery keeps failing (raises).

    Returns
    -------
    int
        The bracketed minimal query count for this trial.
    """
    check_positive_int(n, "n")
    check_positive_int(m_start, "m_start")
    check_nonneg_int(trial, "trial")

    probe_id = 0
    m = m_start
    # Exponential bracketing: grow until the first success.
    while True:
        probe_id += 1
        if _probe(n, m, theta, k, root_seed, trial, probe_id):
            break
        m *= 2
        if m > m_cap:
            raise RuntimeError(f"no recovery up to m={m_cap} (n={n}, theta={theta}, k={k})")
    hi = m
    lo = m // 2 if m > m_start else 1
    # Bisection: shrink the bracket to a point.
    while hi - lo > 1:
        mid = (lo + hi) // 2
        probe_id += 1
        if _probe(n, mid, theta, k, root_seed, trial, probe_id):
            hi = mid
        else:
            lo = mid
    return hi
