"""Teacher–student posterior analysis on small instances.

Section I-A frames reconstruction as a teacher–student problem: the
student observes ``(G, y)`` and the model, and the information-theoretic
quantities of interest are functionals of the *posterior* over signals
consistent with the observation.  On small instances the posterior is
computable exactly by enumeration (uniform over ``S_k(G, y)``, since the
prior is uniform over weight-``k`` vectors), which gives us:

* per-entry marginals ``P[σ_i = 1 | G, y]``,
* the posterior entropy ``ln Z_k`` (0 ⇔ Theorem-2-style uniqueness),
* the Bayes-optimal *marginal* decoder (top-k marginals) and its overlap —
  an upper bound on what any efficient decoder (MN included) can achieve.

These tools power the IT benchmarks and make the teacher–student story
concrete rather than rhetorical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.design import PoolingDesign
from repro.core.exhaustive import consistent_supports
from repro.parallel.sort import parallel_top_k
from repro.util.validation import check_positive_int

__all__ = ["PosteriorSummary", "exact_posterior", "bayes_marginal_decode"]


@dataclass(frozen=True)
class PosteriorSummary:
    """The exact posterior over consistent weight-k signals.

    Attributes
    ----------
    marginals:
        ``P[σ_i = 1 | G, y]`` for every entry.
    num_consistent:
        ``Z_k(G, y)`` — posterior support size.
    entropy_nats:
        ``ln Z_k`` (uniform posterior).
    unique:
        Theorem-2 success condition ``Z_k = 1``.
    """

    marginals: np.ndarray
    num_consistent: int
    entropy_nats: float
    unique: bool


def exact_posterior(design: PoolingDesign, y: np.ndarray, k: int) -> PosteriorSummary:
    """Enumerate the posterior (small instances; guarded like exhaustive search).

    Raises
    ------
    RuntimeError
        If no consistent support exists — the observation was not produced
        by this design (data corruption, wrong model).
    """
    k = check_positive_int(k, "k")
    supports = consistent_supports(design, y, k)
    if not supports:
        raise RuntimeError("no weight-k signal is consistent with y under this design")
    counts = np.zeros(design.n, dtype=np.float64)
    for supp in supports:
        counts[supp] += 1.0
    z = len(supports)
    return PosteriorSummary(
        marginals=counts / z,
        num_consistent=z,
        entropy_nats=math.log(z),
        unique=(z == 1),
    )


def bayes_marginal_decode(design: PoolingDesign, y: np.ndarray, k: int) -> "tuple[np.ndarray, PosteriorSummary]":
    """The Bayes-optimal marginal decoder: top-``k`` posterior marginals.

    For the overlap metric (Fig. 4) this decoder is optimal among all
    estimators that output weight-``k`` vectors, so its overlap upper-bounds
    every efficient algorithm — a useful yardstick in the benchmarks.
    """
    posterior = exact_posterior(design, y, k)
    top = parallel_top_k(posterior.marginals, k)
    sigma_hat = np.zeros(design.n, dtype=np.int8)
    sigma_hat[top] = 1
    return sigma_hat, posterior
