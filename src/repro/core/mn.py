"""Algorithm 1 — the Maximum Neighborhood (MN) greedy decoder.

Pipeline (matching the paper's pseudocode line-by-line):

1. *(Lines 1–3)* execute ``m`` parallel queries — here either a
   materialised :class:`~repro.core.design.PoolingDesign` or the streaming
   simulator :func:`~repro.core.design.stream_design_stats`;
2. *(Lines 4–6)* accumulate ``Ψ_i`` and ``Δ*_i`` — two sparse mat-vec
   products in disguise (§I-C), parallelised over query batches;
3. *(Lines 7–9)* rank by the centred score ``Ψ_i − Δ*_i·k/2`` and declare
   the top ``k`` coordinates one — parallel top-k selection.

``k`` handling: Theorem 1's remark notes that ``k`` need not be known; one
additional all-entries query returns it exactly.  ``mn_reconstruct`` takes
``k`` explicitly, while :func:`run_mn_trial` can emulate the calibration
query (``calibrate_k=True``) without charging it against ``m``
asymptotically (the paper's accounting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.design import DEFAULT_BATCH_QUERIES, DesignStats, PoolingDesign, stream_design_stats
from repro.core.scores import mn_scores
from repro.core.signal import exact_recovery, overlap_fraction, random_signal, theta_to_k
from repro.parallel.sort import parallel_top_k
from repro.rng.streams import batch_generator
from repro.util.validation import check_positive_int, check_weight_vector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine builds on core)
    from repro.designs.cache import DesignCache
    from repro.designs.compiled import CompiledDesign, DesignKey
    from repro.designs.store import DesignStore
    from repro.designs.serving import CompiledMNDecoder
    from repro.engine.backend import Backend
    from repro.noise.models import NoiseModel

__all__ = [
    "MNDecoder",
    "mn_reconstruct",
    "run_mn_trial",
    "MNTrialResult",
    "SIGNAL_STREAM_TAG",
    "POINT_TRIAL_STRIDE",
]

#: Spawn-key tag for per-trial ground-truth signal streams.  Every engine
#: (the classic per-trial runner and the batched grid) keys signal draws by
#: ``(root_seed, SIGNAL_STREAM_TAG, trial)`` so they see identical σ's.
SIGNAL_STREAM_TAG = 997

#: Stride separating per-point trial ids in sweep grids: trial id =
#: ``point_id * POINT_TRIAL_STRIDE + t``, so two points of one sweep never
#: share signal streams.
POINT_TRIAL_STRIDE = 1_000_003


@dataclass(frozen=True)
class MNDecoder:
    """Configured MN decoder.

    The reference implementation of the unified
    :class:`~repro.designs.protocol.Decoder` protocol: :meth:`compile`
    binds it to a design and returns the decode-only
    :class:`~repro.designs.serving.CompiledMNDecoder`.  It has no
    configuration: the algorithm is fixed by the paper, and where the
    ``Ψ`` product runs is the compiled design's business.

    Examples
    --------
    Decode the paper's worked Fig. 1 example exactly:

    >>> import numpy as np
    >>> from repro.core.design import PoolingDesign
    >>> from repro.core.mn import mn_reconstruct
    >>> design, sigma = PoolingDesign.fig1_example()
    >>> y = design.query_results(sigma)          # what the lab reports back
    >>> bool(np.array_equal(mn_reconstruct(design, y, k=3), sigma))
    True
    """

    def decode(self, stats: DesignStats, k: "int | np.ndarray") -> np.ndarray:
        """Estimate ``σ̂`` from accumulated query statistics.

        Ties in the score are broken towards smaller indices —
        deterministic, so repeated decodes agree bit-for-bit.

        Batch-aware: batched stats decode every signal of the batch in one
        vectorised pass and return a ``(B, n)`` estimate matrix; ``k`` may
        then be a length-``B`` array of per-signal weights.  Row ``b``
        always equals the single-signal decode of ``stats.signal(b)``.
        """
        if stats.batch is not None and np.ndim(k) != 0:
            return self._decode_ragged_k(stats, k)
        # One shared scalar-k path: mn_scores and parallel_top_k are both
        # batch-aware, so single-signal and batched decodes only differ in
        # the final scatter.
        k = check_positive_int(k[()] if isinstance(k, np.ndarray) else k, "k")
        if k > stats.n:
            raise ValueError(f"k={k} exceeds n={stats.n}")
        scores = mn_scores(stats, k)
        top = parallel_top_k(scores, k)
        if stats.batch is None:
            sigma_hat = np.zeros(stats.n, dtype=np.int8)
            sigma_hat[top] = 1
        else:
            sigma_hat = np.zeros((stats.batch, stats.n), dtype=np.int8)
            np.put_along_axis(sigma_hat, top, 1, axis=1)
        return sigma_hat

    def _decode_ragged_k(self, stats: DesignStats, k: np.ndarray) -> np.ndarray:
        """Vectorised decode of ``B`` signals with per-signal weights."""
        batch = stats.batch
        k_arr = check_weight_vector(k, batch, n=stats.n)
        scores = mn_scores(stats, k_arr)
        # Full stable ranking (ties to smaller indices), then a per-row
        # prefix mask — selection would not vectorise over ragged k.
        order = np.argsort(-scores, axis=1, kind="stable")
        kmax = int(k_arr.max())
        take = np.arange(kmax)[None, :] < k_arr[:, None]
        rows = np.nonzero(take)[0]
        sigma_hat = np.zeros((batch, stats.n), dtype=np.int8)
        sigma_hat[rows, order[:, :kmax][take]] = 1
        return sigma_hat

    def compile(
        self,
        design: "CompiledDesign | PoolingDesign | DesignKey",
        *,
        cache: "DesignCache | None" = None,
        store: "DesignStore | None" = None,
    ) -> "CompiledMNDecoder":
        """Bind this decoder to a compiled design for decode-only serving.

        Accepts a ready :class:`~repro.designs.compiled.CompiledDesign`, a
        materialised :class:`PoolingDesign` (compiled content-addressed), or
        a :class:`~repro.designs.compiled.DesignKey` (design regenerated
        from the key).  With ``cache=`` (or the ambient
        ``REPRO_DESIGN_CACHE``), compilation is looked up / admitted there;
        with ``store=`` (or the ambient ``REPRO_DESIGN_STORE``), the
        file-backed cross-process L2 is consulted beneath the cache, so a
        key any process on the machine already compiled mmap-attaches
        instead of recompiling.

        The returned :class:`~repro.designs.serving.CompiledMNDecoder`
        exposes ``decode(y, k)`` / ``decode_batch(Y, k)`` — the hot path
        that skips design sampling and streaming entirely, bit-identical
        to the one-shot routes.
        """
        from repro.designs.compiled import resolve_compiled
        from repro.designs.serving import CompiledMNDecoder

        return CompiledMNDecoder(resolve_compiled(design, cache=cache, store=store), self)

    def rank_entries(self, stats: DesignStats, k: int) -> np.ndarray:
        """Full score ranking — the literal Lines 7–9 of Algorithm 1.

        Returns all ``n`` entry indices sorted by decreasing score (ties
        towards smaller indices).  The decoder itself only needs the top ``k``
        (:meth:`decode` uses selection, which is cheaper), but the full
        ranking is what triage-style applications consume: entries near
        the top are the likeliest ones even when ``m`` is far below the
        exact-recovery threshold (the Fig. 4 regime).

        The first ``k`` ranked entries always coincide with
        :meth:`decode`'s support (asserted by the test suite).
        """
        if stats.batch is not None:
            raise ValueError("rank_entries needs single-signal stats; rank per signal via stats.signal(b)")
        k = check_positive_int(k, "k")
        if k > stats.n:
            raise ValueError(f"k={k} exceeds n={stats.n}")
        scores = mn_scores(stats, k)
        return np.argsort(-scores, kind="stable")


def mn_reconstruct(
    design: PoolingDesign,
    y: np.ndarray,
    k: "int | np.ndarray",
    backend: "Backend | None" = None,
) -> np.ndarray:
    """One-call MN decoding against a materialised design.

    Parameters
    ----------
    design:
        The pooling design that produced ``y``.
    y:
        Observed additive query results — ``(m,)`` for one signal, or
        ``(B, m)`` for a batch of signals queried through the same design
        (decoded in one vectorised pass, returning ``(B, n)``).
    k:
        Signal weight (exact or calibrated); with batched ``y`` optionally
        a length-``B`` array of per-signal weights.
    backend:
        Optional unified execution configuration; selects the Ψ/Δ* kernel
        through its ``kernel`` field (:mod:`repro.kernels`).
    """
    kernel = getattr(backend, "kernel", None)
    y = np.asarray(y, dtype=np.int64)
    if y.ndim == 2:
        if y.shape[1] != design.m or y.shape[0] < 1:
            raise ValueError(f"batched y must have shape (B, m={design.m})")
    elif y.shape != (design.m,):
        raise ValueError(f"y must have length m={design.m}")
    stats = DesignStats(
        y=y,
        psi=design.psi(y, kernel=kernel),
        dstar=design.dstar(kernel=kernel),
        delta=design.delta(),
        n=design.n,
        m=design.m,
        # Mean pool size: correct for ragged hand-built designs too (the
        # first pool's size is arbitrary there).
        gamma=design.mean_pool_size,
    )
    return MNDecoder().decode(stats, k)


@dataclass(frozen=True)
class MNTrialResult:
    """Outcome of a single simulated MN run (one point of Figs. 2–4)."""

    n: int
    k: int
    m: int
    success: bool
    overlap: float
    k_used: int

    def as_row(self) -> "tuple[int, int, int, int, float]":
        """CSV-friendly tuple."""
        return (self.n, self.k, self.m, int(self.success), self.overlap)


def run_mn_trial(
    n: int,
    m: int,
    *,
    theta: Optional[float] = None,
    k: Optional[int] = None,
    root_seed: int = 0,
    trial: int = 0,
    calibrate_k: bool = False,
    batch_queries: int = DEFAULT_BATCH_QUERIES,
    backend: "Backend | None" = None,
    noise: "NoiseModel | None" = None,
    design: "CompiledDesign | None" = None,
    cache: "DesignCache | None" = None,
    store: "DesignStore | None" = None,
) -> MNTrialResult:
    """Simulate one full teacher–student round and decode with MN.

    Draws ``σ`` uniformly at weight ``k = round(n^θ)`` (or an explicit
    ``k``), executes ``m`` parallel queries through the streaming design,
    and decodes.  With ``calibrate_k=True`` the decoder is handed the exact
    weight obtained from the paper's one extra all-entries query (which, by
    construction, always returns ``k``) instead of the model parameter —
    operationally identical, but it documents the k-free mode.

    Execution runs on ``backend`` (:class:`~repro.engine.backend.Backend`;
    default: inline); the result is bit-identical for every backend at a
    fixed ``batch_queries``.  With ``noise`` given, the streaming results
    pass through the noisy channel before Ψ accumulation (see
    :func:`~repro.core.design.stream_design_stats`); ``calibrate_k`` still
    hands the decoder the exact weight, matching the paper's accounting
    where the calibration query is separate.

    ``design``/``cache``/``store`` forward to
    :func:`~repro.core.design.stream_design_stats`: a compiled design with
    this trial's stream key (or a cache/store hit on it) skips the
    streaming simulation while producing bit-identical statistics — the
    store making that amortisation hold across processes, not just calls.

    Returns
    -------
    MNTrialResult
        Success flag (exact recovery) and overlap (Fig. 4 metric).
    """
    n = check_positive_int(n, "n")
    if (theta is None) == (k is None):
        raise ValueError("provide exactly one of theta or k")
    if k is None:
        k = theta_to_k(n, float(theta))
    k = check_positive_int(k, "k")

    sigma = random_signal(n, k, batch_generator(root_seed, SIGNAL_STREAM_TAG, trial))

    stats = stream_design_stats(
        sigma,
        m,
        root_seed=root_seed,
        trial_key=(trial,),
        batch_queries=batch_queries,
        backend=backend,
        noise=noise,
        design=design,
        cache=cache,
        store=store,
    )
    k_used = int(sigma.sum()) if calibrate_k else k
    sigma_hat = MNDecoder().decode(stats, k_used)
    return MNTrialResult(
        n=n,
        k=k,
        m=m,
        success=exact_recovery(sigma, sigma_hat),
        overlap=overlap_fraction(sigma, sigma_hat),
        k_used=k_used,
    )
