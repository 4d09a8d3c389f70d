"""One-call user-facing reconstruction facade.

Most downstream users do not care about the decomposition into design,
stats and decoder — they have a *query oracle* (a lab, a screening
pipeline, a neural-network batch evaluator) and want the signal back.
:func:`reconstruct` owns the whole loop: it samples the paper's pooling
design, submits every pool to the oracle **in one parallel batch** (the
defining constraint of the paper), optionally spends one extra calibration
query to learn ``k``, and runs the MN decoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.core.design import PoolingDesign
from repro.core.mn import mn_reconstruct
from repro.util.validation import check_positive_int

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
        :class:`PoolingDesign`, compiled on the spot) to query instead of
        sampling a fresh one — ``rng``/``gamma`` are then unused and the
        decode consumes the precompiled ``Δ*``/``Ψ`` artifacts.  Results
        are bit-identical to a one-shot call that sampled this same design.
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
        If the oracle returns the wrong number of results, negative counts,
        or a calibration result of zero (no signal to find).
    """
    n = check_positive_int(n, "n")
    m = check_positive_int(m, "m")
    repeats = check_positive_int(repeats, "repeats")
    rng = rng if rng is not None else np.random.default_rng()

    compiled = _resolve_reconstruct_design(design, n, m, store=store)
    design = compiled.design if compiled is not None else PoolingDesign.sample(n, m, rng, gamma=gamma)
    pools = [design.pool(j) for j in range(design.m)]
    calibrated = k is None
    if calibrated:
        pools.append(np.arange(n, dtype=np.int64))
    per_replica = len(pools)
    if repeats > 1:
        pools = pools * repeats

    results = list(oracle(pools))
    if len(results) != len(pools):
        raise ValueError(f"oracle returned {len(results)} results for {len(pools)} pools")
    y_all = np.asarray(results, dtype=np.int64).reshape(repeats, per_replica)
    if np.any(y_all < 0):
        raise ValueError("oracle returned a negative count")

    if noise is not None:
        from repro.noise.channel import corrupt_single

        y_all = np.stack(
            [corrupt_single(y_all[r], noise, noise_seed, index=noise_index, replica=r) for r in range(repeats)]
        )

    if calibrated:
        from repro.core.estimate import robust_calibrate_k

        k = int(robust_calibrate_k(y_all[:, -1], n=n))
        y_reps = y_all[:, :-1]
    else:
        k = check_positive_int(k, "k")
        y_reps = y_all

    if repeats > 1:
        from repro.noise.channel import average_replicas

        y = average_replicas(y_reps)
    else:
        y = y_reps[0]

    if compiled is not None:
        # Decode-only: Δ* and the Ψ block come from the compiled artifact —
        # bit-identical to mn_reconstruct (integer-exact throughout).
        from repro.core.mn import MNDecoder

        sigma_hat = MNDecoder().decode(compiled.stats_for(y), k)
    else:
        sigma_hat = mn_reconstruct(design, y, k, backend=backend)
    return ReconstructionReport(sigma_hat=sigma_hat, k=k, design=design, y=y, calibrated=calibrated)


def _resolve_reconstruct_design(
    design: "CompiledDesign | PoolingDesign | None",
    n: int,
    m: int,
    store: "DesignStore | None" = None,
) -> "CompiledDesign | None":
    """Validate and compile an explicit ``design=`` argument (``None`` passes through)."""
    if design is None:
        return None
    from repro.designs.compiled import resolve_compiled

    compiled = resolve_compiled(design, store=store)
    if compiled.n != n or compiled.m != m:
        raise ValueError(f"design= has (n={compiled.n}, m={compiled.m}); this call asked for (n={n}, m={m})")
    return compiled
