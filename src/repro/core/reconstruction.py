"""One-call user-facing reconstruction facade.

Most downstream users do not care about the decomposition into design,
stats and decoder — they have a *query oracle* (a lab, a screening
pipeline, a neural-network batch evaluator) and want the signal back.
:func:`reconstruct` owns the whole loop: it samples the paper's pooling
design, submits every pool to the oracle **in one parallel batch** (the
defining constraint of the paper), optionally spends one extra calibration
query to learn ``k``, and runs the MN decoder.

One pipeline serves both facades: :func:`reconstruct` is the ``B = 1``
case of :func:`~repro.engine.batch.reconstruct_batch`.  Pools, the
calibration query, repeats, noise and averaging run in
``_reconstruct_pipeline``, and the decode reads ``Ψ``/``Δ*`` from the
design's ``stats_for(y)`` — materialised or compiled alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.core.design import PoolingDesign
from repro.core.mn import MNDecoder
from repro.util.validation import check_counts, check_positive_int, check_weight_vector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine builds on core)
    from repro.designs.compiled import CompiledDesign
    from repro.designs.store import DesignStore
    from repro.engine.backend import Backend
    from repro.noise.models import NoiseModel

__all__ = ["reconstruct", "ReconstructionReport"]

#: A query oracle: receives the *batch* of pools (each a multiset of entry
#: indices, multiplicity significant) and returns the additive results.
QueryOracle = Callable[[Sequence[np.ndarray]], Sequence[int]]


@dataclass(frozen=True)
class ReconstructionReport:
    """Everything :func:`reconstruct` learned.

    Attributes
    ----------
    sigma_hat:
        The reconstructed signal.
    k:
        Weight used for decoding (given or calibrated).
    design:
        The pooling design that was executed (for audit/re-decoding).
    y:
        Observed query results.
    calibrated:
        Whether ``k`` came from the extra all-entries query.
    """

    sigma_hat: np.ndarray
    k: int
    design: PoolingDesign
    y: np.ndarray
    calibrated: bool


def reconstruct(
    n: int,
    m: int,
    oracle: QueryOracle,
    *,
    k: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    gamma: Optional[int] = None,
    backend: "Backend | None" = None,
    noise: "NoiseModel | None" = None,
    noise_seed: int = 0,
    noise_index: int = 0,
    repeats: int = 1,
    design: "CompiledDesign | PoolingDesign | None" = None,
    store: "DesignStore | None" = None,
) -> ReconstructionReport:
    """Recover a k-sparse binary signal through an additive query oracle.

    Parameters
    ----------
    n:
        Signal length.
    m:
        Number of parallel pooled queries to spend (excluding the optional
        calibration query).
    oracle:
        Callable receiving the full batch of pools at once — mirroring the
        paper's "all queries executed simultaneously" constraint — and
        returning one non-negative integer per pool.
    k:
        Signal weight if known.  When ``None``, one extra query containing
        every entry exactly once is appended to the batch; its result *is*
        ``k`` (paper §I-C).
    rng:
        Randomness for the design (default: fresh ``default_rng()``).
    gamma:
        Pool size override (default ``n // 2``).
    backend:
        Optional :class:`~repro.engine.backend.Backend`; selects the Ψ/Δ*
        kernel through its ``kernel`` field.  For reconstructing many
        signals against one shared design in a single call, see
        :func:`~repro.engine.batch.reconstruct_batch`.
    noise:
        Optional :class:`~repro.noise.models.NoiseModel` simulating a noisy
        channel between the oracle and the decoder: every returned result
        (calibration queries included) is corrupted through the keyed
        per-signal stream ``(noise_seed, NOISE_STREAM_TAG, noise_index,
        replica)`` before decoding.  ``None`` (default) is the exact
        channel, bit-identical to the historical behaviour.
    noise_seed, noise_index:
        Stream key of this signal's corruption (see
        :mod:`repro.noise.channel`).  ``noise_index`` is what
        :func:`~repro.engine.batch.reconstruct_batch` sets to the batch
        position, making row ``b`` of a noisy batch bit-identical to this
        function at ``noise_index=b``.
    repeats:
        Repeat-query averaging: submit the whole pool batch ``repeats``
        times (the oracle sees ``repeats · len(pools)`` pools), average the
        per-pool results and take the median of the replicated calibration
        queries (:func:`~repro.core.estimate.robust_calibrate_k`).
        Independent per-query noise shrinks by ``√repeats``; on the exact
        channel averaging is a no-op.
    design:
        Deploy-time design reuse: a
        :class:`~repro.designs.compiled.CompiledDesign` (or a materialised
        :class:`PoolingDesign`) to query instead of sampling a fresh one —
        ``rng``/``gamma`` are then unused and the decode consumes the
        precompiled ``Δ*``/``Ψ`` artifacts.  A materialised design with no
        store decodes from its own ``Ψ``/``Δ*``, without compiling.
        Results are bit-identical to a one-shot call that sampled this
        same design.
    store:
        A :class:`~repro.designs.store.DesignStore` — the file-backed,
        cross-process store: the compiled form of ``design``
        (content-addressed) is mmap-attached from (or published to) the
        store, so repeated calls and processes serving one deployed design
        compile it once per machine.  Within one process, pass the
        :class:`~repro.designs.compiled.CompiledDesign` itself to skip the
        lookup.

    Returns
    -------
    ReconstructionReport

    Raises
    ------
    ValueError
        If the oracle returns the wrong number of results, a count that is
        not a non-negative integer, or a calibration result of zero (no
        signal to find).
    """
    def batch_oracle(pools: Sequence[np.ndarray]) -> "list[list[int]]":
        results = list(oracle(pools))
        if len(results) != len(pools):
            raise ValueError(f"oracle returned {len(results)} results for {len(pools)} pools")
        return [results]

    pooling, y, k_arr, sigma_hat, calibrated = _reconstruct_pipeline(
        n, m, batch_oracle, 1, k, rng, gamma, backend, noise, noise_seed, noise_index, repeats, design, store
    )
    return ReconstructionReport(sigma_hat=sigma_hat[0], k=int(k_arr[0]), design=pooling, y=y[0], calibrated=calibrated)


def _reconstruct_pipeline(
    n: int,
    m: int,
    oracle: "Callable[[Sequence[np.ndarray]], object]",
    B: int,
    k: "int | np.ndarray | None",
    rng: "np.random.Generator | None",
    gamma: "int | None",
    backend: "Backend | None",
    noise: "NoiseModel | None",
    noise_seed: int,
    noise_index: int,
    repeats: int,
    design: "CompiledDesign | PoolingDesign | None",
    store: "DesignStore | None",
) -> "tuple[PoolingDesign, np.ndarray, np.ndarray, np.ndarray, bool]":
    """The one MN pipeline behind both facades: pools → oracle → noise → decode.

    Arguments are the facades' own, in ``reconstruct_batch`` order, plus
    ``noise_index``: signal ``b``'s corruption stream is ``noise_index + b``.
    ``oracle`` answers the pool batch as a ``(B, len(pools))`` array-like.
    Returns the materialised design, ``y`` ``(B, m)``, the weights
    ``(B,)``, ``σ̂`` ``(B, n)`` and whether the weights were calibrated.
    """
    n = check_positive_int(n, "n")
    m = check_positive_int(m, "m")
    B = check_positive_int(B, "B")
    repeats = check_positive_int(repeats, "repeats")
    calibrated = k is None
    if not calibrated:
        k_arr = np.full(B, check_positive_int(k, "k"), dtype=np.int64) if np.ndim(k) == 0 else check_weight_vector(k, B)

    source: "CompiledDesign | PoolingDesign"
    if design is None:
        source = pooling = PoolingDesign.sample(n, m, rng if rng is not None else np.random.default_rng(), gamma=gamma)
    else:
        from repro.designs.compiled import resolve_compiled
        from repro.designs.store import resolve_design_store

        if isinstance(design, PoolingDesign) and resolve_design_store(store) is None:
            # Nothing to publish to: the design's own Ψ/Δ* are the
            # compiled ones, so compiling it would buy this call nothing.
            source = pooling = design
        else:
            source = resolve_compiled(design, store=store)
            pooling = source.design
        if source.n != n or source.m != m:
            raise ValueError(f"design= has (n={source.n}, m={source.m}); this call asked for (n={n}, m={m})")
    pools = [pooling.pool(j) for j in range(m)]
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
    replicas = _oracle_counts(results).reshape(B, repeats, per_replica).transpose(1, 0, 2)

    if noise is not None:
        from repro.noise.channel import corrupt_batch

        replicas = np.stack([corrupt_batch(replicas[r], noise, noise_seed, base_index=noise_index, replica=r) for r in range(repeats)])

    if calibrated:
        from repro.core.estimate import robust_calibrate_k

        k_arr = np.asarray(robust_calibrate_k(replicas[:, :, -1], n=n))
        replicas = replicas[:, :, :-1]

    if repeats > 1:
        from repro.noise.channel import average_replicas

        y = average_replicas(replicas)
    else:
        y = replicas[0]

    stats = source.stats_for(y, kernel=getattr(backend, "kernel", None))
    # Uniform weights take the vectorised top-k path; ragged weights rank.
    uniform = int(k_arr.min()) == int(k_arr.max())
    sigma_hat = MNDecoder().decode(stats, int(k_arr[0]) if uniform else k_arr)
    return pooling, y, k_arr, sigma_hat, calibrated


def _oracle_counts(results: np.ndarray) -> np.ndarray:
    """The oracle's answers as non-negative ``int64`` counts (see :func:`check_counts`)."""
    counts = check_counts(results, "oracle answer")
    if (counts < 0).any():
        raise ValueError("oracle answer holds a negative count")
    return counts
