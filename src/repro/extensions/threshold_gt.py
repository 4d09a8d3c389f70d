"""Threshold group testing with an MN-style decoder (§VI future work).

The paper closes by naming *threshold group testing* — a query returns 1
iff its pool contains at least ``T`` one-entries — as the natural next
target for its techniques ("the tailor-made application remains a highly
non-trivial challenge").  This module is a first, honest cut at that
transfer, *not* a claim of optimality:

* the design stays the paper's random regular multigraph;
* the threshold defaults to the per-query median count ``T = ⌈k/2⌉``
  (maximising outcome entropy, the same principle that sets ``p = ln2/k``
  in binary group testing);
* the decoder ports the MN idea verbatim: score each entry by the number
  of *positive* distinct queries containing it, centred by its expected
  value, and keep the top ``k``.

One bit per query carries far less information than a count, so the
required ``m`` is substantially larger than MN's — the extension bench
measures the factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.design import PoolingDesign
from repro.core.signal import exact_recovery, overlap_fraction, random_signal, theta_to_k
from repro.parallel.sort import parallel_top_k
from repro.util.validation import check_binary_signal, check_positive_int

__all__ = ["ThresholdDesign", "threshold_mn_decode", "run_threshold_trial", "ThresholdTrialResult"]


@dataclass(frozen=True)
class ThresholdDesign:
    """A pooling design queried through the threshold channel."""

    design: PoolingDesign
    threshold: int

    def __post_init__(self) -> None:
        check_positive_int(self.threshold, "threshold")

    @classmethod
    def sample(cls, n: int, m: int, k: int, rng: np.random.Generator, threshold: "int | None" = None) -> "ThresholdDesign":
        """Random regular design with the entropy-maximising default ``T``."""
        k = check_positive_int(k, "k")
        t = threshold if threshold is not None else max(1, (k + 1) // 2)
        return cls(PoolingDesign.sample(n, m, rng), t)

    def query_results(self, sigma: np.ndarray) -> np.ndarray:
        """Binary outcomes ``1{count ≥ T}``."""
        sigma = check_binary_signal(sigma, length=self.design.n)
        return (self.design.query_results(sigma) >= self.threshold).astype(np.int8)


def threshold_mn_decode(tdesign: ThresholdDesign, b: np.ndarray, k: int) -> np.ndarray:
    """MN-style decoding from one-bit outcomes.

    Score: (# positive distinct queries containing i) − Δ*_i · (positive
    rate); exactly the Ψ-centring of Algorithm 1 with ``y`` replaced by the
    indicator outcomes and the global positive rate as the per-query mean.
    """
    k = check_positive_int(k, "k")
    design = tdesign.design
    b = np.asarray(b, dtype=np.int64)
    if b.shape != (design.m,):
        raise ValueError(f"b must have length m={design.m}")
    if design.m == 0:
        raise ValueError("empty design")
    psi_pos = design.psi(b)  # reuses distinct-membership accumulation
    dstar = design.dstar()
    rate = float(b.mean())
    scores = psi_pos.astype(np.float64) - dstar.astype(np.float64) * rate
    top = parallel_top_k(scores, k)
    sigma_hat = np.zeros(design.n, dtype=np.int8)
    sigma_hat[top] = 1
    return sigma_hat


@dataclass(frozen=True)
class ThresholdTrialResult:
    """Outcome of one threshold-GT trial."""

    n: int
    k: int
    m: int
    threshold: int
    success: bool
    overlap: float


def run_threshold_trial(
    n: int,
    m: int,
    *,
    theta: float,
    seed: int,
    threshold: "int | None" = None,
) -> ThresholdTrialResult:
    """One teacher–student round through the threshold channel."""
    n = check_positive_int(n, "n")
    check_positive_int(m, "m")
    k = theta_to_k(n, theta)
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(787,))
    sig_rng, design_rng = (np.random.Generator(np.random.PCG64(s)) for s in seq.spawn(2))
    sigma = random_signal(n, k, sig_rng)
    tdesign = ThresholdDesign.sample(n, m, k, design_rng, threshold=threshold)
    b = tdesign.query_results(sigma)
    sigma_hat = threshold_mn_decode(tdesign, b, k)
    return ThresholdTrialResult(
        n=n,
        k=k,
        m=m,
        threshold=tdesign.threshold,
        success=exact_recovery(sigma, sigma_hat),
        overlap=overlap_fraction(sigma, sigma_hat),
    )
