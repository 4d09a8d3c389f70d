"""Batched multi-signal reconstruction — many signals, one pooled design.

The paper's constraint is that all ``m`` queries of *one* reconstruction
run simultaneously.  A production deployment additionally reconstructs
*many* signals per call (screening many plates, classifying many feature
sets).  This module exploits the two-stage structure of the problem: the
pooling design is a **first-stage** object independent of any signal, so
one sampled design serves a whole batch of **second-stage** signals —
design sampling, incidence deduplication and score ranking are paid once
and amortised over the batch.

:func:`reconstruct_batch` and :func:`~repro.core.reconstruction.reconstruct`
run one pipeline (``reconstruct`` is its ``B = 1`` case): with matched
seeds every row here is bit-identical to an independent single-signal
call sharing the design — at a fraction of the cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.core.design import PoolingDesign
from repro.core.reconstruction import ReconstructionReport, _reconstruct_pipeline
from repro.engine.backend import Backend

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
        :class:`PoolingDesign`) shared by the batch instead of sampling via
        ``rng`` — the decode then consumes the precompiled ``Δ*`` and ``Ψ``
        artifacts.  A materialised design with no store decodes straight
        from its own ``Ψ``/``Δ*``, without compiling.
    store:
        A :class:`~repro.designs.store.DesignStore` for the compiled form
        of ``design`` (content-addressed), amortising compilation of the
        deployed design across calls, processes and CLI invocations.

    Raises
    ------
    ValueError
        If the oracle returns the wrong shape, a count that is not a
        non-negative integer, or a calibration result of zero / above
        ``n`` for any signal.
    """
    design_obj, y, k_arr, sigma_hat, calibrated = _reconstruct_pipeline(
        n, m, oracle, B, k, rng, gamma, backend, noise, noise_seed, 0, repeats, design, store
    )
    return BatchReconstructionReport(sigma_hat=sigma_hat, k=k_arr, design=design_obj, y=y, calibrated=calibrated)
