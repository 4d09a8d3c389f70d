"""Batched trial-grid execution for the Fig. 2–4 style sweeps.

The classic harness (:mod:`repro.experiments.runner`) runs one Python-level
trial per (design, signal) pair.  The batched engine exploits the problem's
two-stage structure instead: at each grid point one **first-stage** design
is sampled and materialised once, and all ``trials`` **second-stage**
signals are queried and decoded against it in a single vectorised pass —
design sampling, incidence deduplication, ``Ψ``/``Δ*`` accumulation and
top-k selection are paid once per point instead of once per trial.

Statistical contract: per-trial *signals* are drawn from the same seed
streams as :func:`~repro.experiments.runner.run_trials` (spawn key
``(SIGNAL_STREAM_TAG, point_id * POINT_TRIAL_STRIDE + t)``, shared
constants from :mod:`repro.core.mn`), so a batched sweep sees the same
ground truths as the classic one.  The trials of one point share a design,
so within-point outcomes are exchangeable but not independent — success
rates stay unbiased, while point-level confidence intervals no longer
average over design randomness.  Use the classic per-trial runner when the
CI must account for both sources; use the batched runner for production
throughput and wide grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.core.design import DesignStats, PoolingDesign
from repro.core.mn import POINT_TRIAL_STRIDE, SIGNAL_STREAM_TAG, MNDecoder
from repro.core.signal import exact_recovery, overlap_fraction, random_signal, theta_to_k
from repro.engine.backend import Backend, resolved_backend
from repro.kernels import dispatch as dispatch_kernel
from repro.kernels import resolve_kernel
from repro.rng.streams import batch_generator
from repro.util.validation import check_nonneg_int, check_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.designs.store import DesignStore
    from repro.noise.models import NoiseModel

__all__ = ["run_batched_point", "run_batched_point_sweep", "run_trial_grid", "BatchedPointResult"]

#: Spawn-key tag for the per-point shared design stream (distinct from every
#: tag used by the classic runner).
_DESIGN_TAG = 64007


@dataclass(frozen=True)
class BatchedPointResult:
    """Outcome of one batched grid point (``trials`` signals, one design)."""

    n: int
    m: int
    k: int
    success: np.ndarray
    overlap: np.ndarray

    def __post_init__(self) -> None:
        if self.success.shape != self.overlap.shape:
            raise ValueError("success and overlap must align per trial")


def run_batched_point(
    n: int,
    m: int,
    *,
    theta: Optional[float] = None,
    k: Optional[int] = None,
    trials: int = 20,
    root_seed: int = 0,
    point_id: int = 0,
    gamma: Optional[int] = None,
    noise: "NoiseModel | None" = None,
    repeats: int = 1,
    kernel: "str | None" = None,
    decoder: str = "mn",
    store: "DesignStore | None" = None,
) -> BatchedPointResult:
    """Run one grid point: ``trials`` signals decoded against one design.

    The design is keyed by ``(root_seed, point_id)``; signal ``t`` is keyed
    exactly as the classic runner's trial ``point_id * 1_000_003 + t``.
    Deterministic in all arguments — worker counts never enter the keys.
    With ``store=`` (or the ambient ``REPRO_DESIGN_STORE``), the point's
    design is compiled under its sampled-scheme key and reused across
    repeated sweeps — sampling, dedup and ``Δ*`` paid once per machine.

    With ``noise`` given, each trial's results are corrupted through its
    own stream keyed ``(root_seed, NOISE_STREAM_TAG, point_id * 1_000_003
    + t, replica)`` — per-trial streams exactly like the signal draws, so
    the noisy point is deterministic and trials stay exchangeable.
    ``repeats`` averages that many corrupted replicas per trial
    (repeat-query averaging); the zero-level channel is an exact no-op and
    reproduces the noiseless point bit for bit.

    ``decoder`` selects the registry decoder the point runs under
    (default ``"mn"``); baselines decode the same signals and corrupted
    results through their compiled batch ports.  A noiseless MN point
    without a compiled artifact takes ``y``, ``Ψ`` and ``Δ*`` from the
    kernel's fused ``materialised_stats`` pass; every other point runs
    query → corrupt → ``Ψ``.
    """
    repeats = check_positive_int(repeats, "repeats")
    design, compiled, sigmas, k = _point_first_stage(n, m, theta, k, trials, root_seed, point_id, gamma, store)
    if noise is None and decoder == "mn" and compiled is None:
        # Nothing sits between the results and Ψ: the kernel's fused pass
        # gives y, Ψ and Δ* in one walk over the draws (the sampled
        # signals are 0/1 int8 by construction).
        y, psi, dstar = dispatch_kernel(kernel).materialised_stats(design, sigmas)
        stats = DesignStats(y=y, psi=psi, dstar=dstar, delta=None, n=design.n, m=design.m, gamma=design.mean_pool_size)
        return _point_result(design, sigmas, MNDecoder().decode(stats, k), k)
    y_clean = design.query_results(sigmas, kernel=kernel)
    decode = _point_decoder(design, compiled, decoder, kernel)
    return _decode_noisy_point(design, sigmas, y_clean, k, root_seed, point_id, noise, repeats, decode)


def _point_first_stage(
    n: int,
    m: int,
    theta: Optional[float],
    k: Optional[int],
    trials: int,
    root_seed: int,
    point_id: int,
    gamma: Optional[int],
    store: "DesignStore | None" = None,
) -> "tuple[PoolingDesign, object, np.ndarray, int]":
    """Validate a grid point and draw its signal-independent first stage.

    Returns the keyed design, its compiled artifact (``None`` without a
    store), the ``(trials, n)`` signal stack and the resolved weight ``k``
    — everything downstream of this is per-channel.
    """
    from repro.designs.store import resolve_design_store

    n = check_positive_int(n, "n")
    m = check_positive_int(m, "m")
    trials = check_positive_int(trials, "trials")
    check_nonneg_int(point_id, "point_id")
    if (theta is None) == (k is None):
        raise ValueError("provide exactly one of theta or k")
    if k is None:
        k = theta_to_k(n, float(theta))
    k = check_positive_int(k, "k")

    compiled = None
    store_obj = resolve_design_store(store)
    if store_obj is not None:
        from repro.designs.compiled import DesignKey, resolve_compiled

        key = DesignKey.for_sampled(n, m, root_seed=root_seed, tag=_DESIGN_TAG, index=point_id, gamma=gamma)
        # Store -> sample+compile: on warm keys a forked worker (or a
        # repeated CLI sweep) attaches, never compiles.
        compiled = resolve_compiled(key, store=store_obj)
        design = compiled.design
    else:
        design = PoolingDesign.sample(n, m, batch_generator(root_seed, _DESIGN_TAG, point_id), gamma=gamma)

    sigmas = np.empty((trials, n), dtype=np.int8)
    for t in range(trials):
        # Same stream key as run_mn_trial's signal draw for this trial id.
        trial = point_id * POINT_TRIAL_STRIDE + t
        sigmas[t] = random_signal(n, k, batch_generator(root_seed, SIGNAL_STREAM_TAG, trial))
    return design, compiled, sigmas, k


def _point_decoder(design: PoolingDesign, compiled, decoder: str, kernel: "str | None") -> "Callable[[np.ndarray, int], np.ndarray]":
    """The batch decode ``(y, k) -> σ̂`` a point runs for every channel.

    MN reads ``Ψ``/``Δ*`` through ``stats_for`` on the compiled artifact
    when resolved, else on the design.  A registry baseline binds the
    resolved artifact (compiling the design here, once, without a store) and
    decodes through its compiled batch port ((B,m)@(m,n) GEMMs).
    """
    if decoder == "mn":
        source = compiled or design
        return lambda y, k: MNDecoder().decode(source.stats_for(y, kernel=kernel), k)
    from repro.designs import make_decoder
    from repro.designs.compiled import compile_design

    compiled_dec = make_decoder(decoder).compile(compiled or compile_design(design))
    return lambda y, k: compiled_dec.decode_batch(np.asarray(y, dtype=np.float64), k)


def _decode_noisy_point(
    design: PoolingDesign,
    sigmas: np.ndarray,
    y_clean: np.ndarray,
    k: int,
    root_seed: int,
    point_id: int,
    noise: "NoiseModel | None",
    repeats: int,
    decode: "Callable[[np.ndarray, int], np.ndarray]",
) -> BatchedPointResult:
    """Corrupt + decode one batched point against precomputed first-stage data.

    The shared tail of :func:`run_batched_point` and
    :func:`run_batched_point_sweep`: everything signal- and
    channel-dependent happens here, everything design-dependent
    (``design``, ``sigmas``, ``y_clean``, the ``decode`` from
    :func:`_point_decoder`) is paid by the caller — once per point, or
    once per whole level sweep.
    """
    if noise is None:
        y = y_clean
    else:
        from repro.noise.channel import average_replicas, corrupt_batch

        replicas = np.stack(
            [
                corrupt_batch(y_clean, noise, root_seed, base_index=point_id * POINT_TRIAL_STRIDE, replica=r)
                for r in range(repeats)
            ]
        )
        y = average_replicas(replicas) if repeats > 1 else replicas[0]
    return _point_result(design, sigmas, decode(y, k), k)


def _point_result(design: PoolingDesign, sigmas: np.ndarray, sigma_hat: np.ndarray, k: int) -> BatchedPointResult:
    """Score a point's decoded batch against its ground-truth signals."""
    return BatchedPointResult(
        n=design.n,
        m=design.m,
        k=k,
        success=np.asarray(exact_recovery(sigmas, sigma_hat)),
        overlap=np.asarray(overlap_fraction(sigmas, sigma_hat)),
    )


def run_batched_point_sweep(
    n: int,
    m: int,
    models: "Sequence[NoiseModel | None]",
    *,
    theta: Optional[float] = None,
    k: Optional[int] = None,
    trials: int = 20,
    root_seed: int = 0,
    point_id: int = 0,
    gamma: Optional[int] = None,
    repeats: int = 1,
    kernel: "str | None" = None,
    decoder: str = "mn",
    store: "DesignStore | None" = None,
) -> "list[BatchedPointResult]":
    """One grid point swept over several noise channels, first stage shared.

    All ``models`` see the *same* design, signals and clean query results
    (sampled once — the two-stage amortisation that makes noisy scenario
    sweeps cheap), and a baseline ``decoder`` compiles once; only
    corruption + decode run per model.  Element ``i``
    is bit-identical to ``run_batched_point(..., noise=models[i])``, and
    since corruption streams are keyed by trial id, not by model, a level
    sweep of one channel family is a paired (common-random-numbers)
    comparison.
    """
    repeats = check_positive_int(repeats, "repeats")
    design, compiled, sigmas, k = _point_first_stage(n, m, theta, k, trials, root_seed, point_id, gamma, store)
    y_clean = design.query_results(sigmas, kernel=kernel)
    decode = _point_decoder(design, compiled, decoder, kernel)
    return [_decode_noisy_point(design, sigmas, y_clean, k, root_seed, point_id, model, repeats, decode) for model in models]


#: Worker-cache slot holding each worker's :class:`DesignStore` handle.
#: The store is shared across the process boundary — every worker opens
#: the same directory, so on warm keys workers attach (mmap) instead of
#: compiling, and a cold key is compiled by exactly one worker
#: machine-wide (the store's advisory compile lock).
_WORKER_STORE_SLOT = "grid-design-store"


def _grid_point_task(payload, cache) -> BatchedPointResult:
    """Module-level worker task (picklable) running one batched grid point.

    ``store_spec`` is the caller's store as a picklable ``(root,
    max_bytes)`` pair — the worker (re)opens the same directory, so all
    workers share one on-disk compilation.  The serial path pre-seeds the
    slot with the caller's store directly.
    """
    n, m, theta, k, trials, root_seed, point_id, gamma, noise, repeats, kernel, decoder, store_spec = payload
    if store_spec is None:
        cache.pop(_WORKER_STORE_SLOT, None)
        design_store = None
    else:
        design_store = cache.get(_WORKER_STORE_SLOT)
        if design_store is None or (str(design_store.root), design_store.max_bytes) != store_spec:
            from repro.designs.store import DesignStore

            design_store = cache[_WORKER_STORE_SLOT] = DesignStore(*store_spec)
    return run_batched_point(
        n,
        m,
        theta=theta,
        k=k,
        trials=trials,
        root_seed=root_seed,
        point_id=point_id,
        gamma=gamma,
        noise=noise,
        repeats=repeats,
        kernel=kernel,
        decoder=decoder,
        store=design_store,
    )


def run_trial_grid(
    n: int,
    ms: Sequence[int],
    *,
    theta: Optional[float] = None,
    k: Optional[int] = None,
    trials: int = 20,
    root_seed: int = 0,
    gamma: Optional[int] = None,
    backend: "Backend | None" = None,
    noise: "NoiseModel | None" = None,
    repeats: int = 1,
    decoder: str = "mn",
    store: "DesignStore | None" = None,
) -> "list[BatchedPointResult]":
    """Sweep ``m`` over a grid with batched per-point execution.

    Grid points fan out over the backend (one task per point — points are
    the natural unit here since each already amortises its trials); results
    come back in grid order regardless of worker count, so the sweep is
    bit-reproducible for every backend.  ``noise``/``repeats`` thread the
    noisy channel into every point (models are plain frozen dataclasses,
    so they cross the process boundary with the payload).

    ``store=`` (or the ambient ``REPRO_DESIGN_STORE``) compiles every
    point's design under its sampled-scheme key and opens the file-backed
    :class:`~repro.designs.store.DesignStore` in every worker: the store
    crosses the process boundary (it is a shared directory), so on a warm
    grid forked workers attach each point's compiled design zero-copy and
    never compile, and a cold point is compiled exactly once machine-wide.
    Results are identical either way (store hits never change output).
    """
    from repro.designs.store import resolve_design_store

    with resolved_backend(backend) as exec_backend:
        # Resolve to a concrete kernel name in the parent so workers never
        # consult their own environment.
        kernel = resolve_kernel(getattr(exec_backend, "kernel", None))
        store_obj = resolve_design_store(store)
        store_spec = (str(store_obj.root), store_obj.max_bytes) if store_obj is not None else None
        payloads = [
            (n, int(m), theta, k, trials, root_seed, idx, gamma, noise, repeats, kernel, decoder, store_spec)
            for idx, m in enumerate(ms)
        ]
        if exec_backend.workers == 1:
            # Inline execution shares one persistent task cache pre-seeded
            # with the caller's store, so it is used directly (same code
            # path as the workers otherwise).
            task_cache: dict = {}
            if store_obj is not None:
                task_cache[_WORKER_STORE_SLOT] = store_obj
            return [_grid_point_task(p, task_cache) for p in payloads]
        return exec_backend.map(_grid_point_task, payloads)
