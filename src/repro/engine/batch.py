"""Batched multi-signal reconstruction — many signals, one pooled design.

The paper's constraint is that all ``m`` queries of *one* reconstruction
run simultaneously.  A production deployment additionally reconstructs
*many* signals per call (screening many plates, classifying many feature
sets).  This module exploits the two-stage structure of the problem: the
pooling design is a **first-stage** object independent of any signal, so
one sampled design serves a whole batch of **second-stage** signals —
design sampling, incidence deduplication and score ranking are paid once
and amortised over the batch.

:func:`reconstruct_batch` is the batched sibling of
:func:`~repro.core.reconstruction.reconstruct`: with matched seeds it
returns, per signal, bit-identical results to ``B`` independent
single-signal calls sharing the design — at a fraction of the cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.core.design import DesignStats, PoolingDesign
from repro.core.estimate import robust_calibrate_k
from repro.core.mn import MNDecoder
from repro.core.reconstruction import ReconstructionReport
from repro.engine.backend import Backend
from repro.util.validation import check_positive_int, check_weight_vector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.designs.compiled import CompiledDesign
    from repro.designs.store import DesignStore
    from repro.noise.models import NoiseModel

__all__ = ["reconstruct_batch", "BatchReconstructionReport", "signals_oracle"]

#: A batched query oracle: receives the batch of pools (each a multiset of
#: entry indices, multiplicity significant) and returns a ``(B, len(pools))``
#: array-like of additive results — row ``b`` answers for signal ``b``.
BatchQueryOracle = Callable[[Sequence[np.ndarray]], "np.ndarray"]


@dataclass(frozen=True)
class BatchReconstructionReport:
    """Everything :func:`reconstruct_batch` learned.

    Attributes
    ----------
    sigma_hat:
        The ``(B, n)`` matrix of reconstructed signals.
    k:
        Per-signal weights used for decoding (given or calibrated), ``(B,)``.
    design:
        The shared pooling design (for audit/re-decoding).
    y:
        Observed query results, ``(B, m)``.
    calibrated:
        Whether the weights came from the extra all-entries query.
    """

    sigma_hat: np.ndarray
    k: np.ndarray
    design: PoolingDesign
    y: np.ndarray
    calibrated: bool

    @property
    def batch(self) -> int:
        """Number of signals ``B`` in the batch."""
        return int(self.sigma_hat.shape[0])

    def signal_report(self, b: int) -> ReconstructionReport:
        """The single-signal :class:`ReconstructionReport` view of member ``b``."""
        if not (0 <= b < self.batch):
            raise IndexError(f"batch index {b} out of range for B={self.batch}")
        return ReconstructionReport(
            sigma_hat=self.sigma_hat[b],
            k=int(self.k[b]),
            design=self.design,
            y=self.y[b],
            calibrated=self.calibrated,
        )


def signals_oracle(sigmas: np.ndarray) -> BatchQueryOracle:
    """A simulated batched oracle answering for a stack of known signals.

    Row ``b`` of the returned oracle's output is exactly what the
    single-signal oracle ``lambda pools: [int(sigmas[b][p].sum()) ...]``
    would answer — handy for tests, benchmarks and examples.

    Internally the pool batch is rebuilt as a (ragged) design and
    evaluated through the batched query kernel
    (:meth:`~repro.core.design.PoolingDesign.query_results`), so the
    simulated lab answers at kernel speed instead of one Python-level
    pool at a time — the values are bit-identical either way.
    """
    sigmas = np.asarray(sigmas)
    if sigmas.ndim != 2:
        raise ValueError("sigmas must have shape (B, n)")

    def oracle(pools: Sequence[np.ndarray]) -> np.ndarray:
        if not len(pools):
            return np.empty((sigmas.shape[0], 0), dtype=np.int64)
        return PoolingDesign.from_pools(sigmas.shape[1], pools).query_results(sigmas)

    return oracle


def reconstruct_batch(
    n: int,
    m: int,
    oracle: BatchQueryOracle,
    B: int,
    *,
    k: "int | np.ndarray | None" = None,
    rng: Optional[np.random.Generator] = None,
    gamma: Optional[int] = None,
    backend: "Backend | None" = None,
    noise: "NoiseModel | None" = None,
    noise_seed: int = 0,
    repeats: int = 1,
    design: "CompiledDesign | PoolingDesign | None" = None,
    store: "DesignStore | None" = None,
) -> BatchReconstructionReport:
    """Recover ``B`` k-sparse binary signals through one shared design.

    Samples the paper's pooling design exactly as
    :func:`~repro.core.reconstruction.reconstruct` would (same ``rng``
    state ⇒ same design), submits the full batch of pools to the oracle
    once, and decodes all ``B`` signals in a single vectorised pass.  With
    matched seeds, every row of the result is bit-identical to an
    independent single-signal ``reconstruct`` call.

    Parameters
    ----------
    n:
        Signal length (shared by the batch).
    m:
        Number of parallel pooled queries (excluding the optional
        calibration query).
    oracle:
        Batched oracle: receives the pools once and returns a
        ``(B, len(pools))`` array of non-negative counts.
    B:
        Batch size (number of signals the oracle answers for).
    k:
        Signal weight(s) if known: a scalar (shared) or a ``(B,)`` array.
        When ``None``, one extra all-entries query calibrates every
        signal's weight individually (paper §I-C).
    rng:
        Randomness for the design (default: fresh ``default_rng()``).
    gamma:
        Pool size override (default ``n // 2``).
    backend:
        Optional :class:`~repro.engine.backend.Backend`; selects the
        statistics kernel through its ``kernel`` field
        (:mod:`repro.kernels`).
    noise:
        Optional :class:`~repro.noise.models.NoiseModel` simulating a noisy
        channel between the oracle and the decoder.  Signal ``b``'s results
        (calibration included) are corrupted through its own keyed stream
        ``(noise_seed, NOISE_STREAM_TAG, b, replica)``, so every row stays
        bit-identical to the single-signal
        :func:`~repro.core.reconstruction.reconstruct` call with
        ``noise_index=b`` — and ``B=1`` to the plain single-signal path.
    noise_seed:
        Root seed of the corruption streams (independent of ``rng``).
    repeats:
        Repeat-query averaging: the oracle answers the whole pool batch
        ``repeats`` times; per-pool results are averaged and per-signal
        weights calibrated by the replica median
        (:func:`~repro.core.estimate.robust_calibrate_k`).
    design:
        Deploy-time design reuse: a
        :class:`~repro.designs.compiled.CompiledDesign` (or materialised
        :class:`PoolingDesign`, compiled on the spot) shared by the batch
        instead of sampling via ``rng`` — the decode then consumes the
        precompiled ``Δ*`` and ``Ψ`` artifacts.
    store:
        A :class:`~repro.designs.store.DesignStore` for the compiled form
        of ``design`` (content-addressed), amortising compilation of the
        deployed design across calls, processes and CLI invocations.

    Raises
    ------
    ValueError
        If the oracle returns the wrong shape, negative counts, or a
        calibration result of zero / above ``n`` for any signal.
    """
    n = check_positive_int(n, "n")
    m = check_positive_int(m, "m")
    B = check_positive_int(B, "B")
    repeats = check_positive_int(repeats, "repeats")
    rng = rng if rng is not None else np.random.default_rng()

    from repro.core.reconstruction import _resolve_reconstruct_design

    compiled = _resolve_reconstruct_design(design, n, m, store=store)
    design = compiled.design if compiled is not None else PoolingDesign.sample(n, m, rng, gamma=gamma)
    pools = [design.pool(j) for j in range(design.m)]
    calibrated = k is None
    if calibrated:
        pools.append(np.arange(n, dtype=np.int64))
    per_replica = len(pools)
    if repeats > 1:
        pools = pools * repeats

    results = np.asarray(oracle(pools))
    if results.shape != (B, len(pools)):
        raise ValueError(f"oracle returned shape {results.shape} for {B} signals x {len(pools)} pools")
    # Replica-major view: replicas[r] is the (B, per_replica) answer to the
    # r-th copy of the pool batch.
    replicas = results.astype(np.int64).reshape(B, repeats, per_replica).transpose(1, 0, 2)
    if np.any(replicas < 0):
        raise ValueError("oracle returned a negative count")

    if noise is not None:
        from repro.noise.channel import corrupt_batch

        replicas = np.stack(
            [corrupt_batch(replicas[r], noise, noise_seed, replica=r) for r in range(repeats)]
        )

    if calibrated:
        k_arr = np.asarray(robust_calibrate_k(replicas[:, :, -1], n=n))
        y_reps = replicas[:, :, :-1]
    else:
        if np.ndim(k) == 0:
            k_arr = np.full(B, check_positive_int(k, "k"), dtype=np.int64)
        else:
            k_arr = check_weight_vector(k, B)
        y_reps = replicas

    if repeats > 1:
        from repro.noise.channel import average_replicas

        y = average_replicas(y_reps)
    else:
        y = y_reps[0]

    if compiled is not None:
        stats = compiled.stats_for(y)
    else:
        kernel = getattr(backend, "kernel", None)
        stats = DesignStats(
            y=y,
            psi=design.psi(y, kernel=kernel),
            dstar=design.dstar(kernel=kernel),
            delta=None,  # MN reads only Ψ and Δ*
            n=n,
            m=m,
            gamma=design.mean_pool_size,
        )
    decoder = MNDecoder()
    # Uniform weights take the vectorised top-k path; ragged weights rank.
    if int(k_arr.min()) == int(k_arr.max()):
        sigma_hat = decoder.decode(stats, int(k_arr[0]))
    else:
        sigma_hat = decoder.decode(stats, k_arr)
    return BatchReconstructionReport(sigma_hat=sigma_hat, k=k_arr, design=design, y=y, calibrated=calibrated)
