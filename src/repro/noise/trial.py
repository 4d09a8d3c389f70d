"""Single noisy trials — the simulation harness behind the robustness bench.

:func:`run_noisy_mn_trial` is the noisy-channel sibling of
:func:`~repro.core.mn.run_mn_trial`: one signal, one materialised design,
results corrupted *before* decoding — the decoder sees only the corrupted
world, exactly as a lab would.  ``decoder`` names any registry decoder
(:func:`~repro.designs.make_decoder`): every baseline consumes the same
corrupted results through the same design, so the comparison isolates how
each estimator copes with the channel rather than how it samples.  MN
decodes through the design's ``stats_for(y)``, compiled or materialised.

Streams: ``SeedSequence`` spawn key ``(941, trial)`` with three child
streams for signal / design / noise; ``repeats`` draws further
corruptions from the same noise stream, so ``repeats=1`` is the plain
single-corruption trial rather than a special case.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.design import PoolingDesign
from repro.core.mn import MNDecoder, MNTrialResult
from repro.core.signal import exact_recovery, overlap_fraction, random_signal, theta_to_k
from repro.noise.channel import average_replicas
from repro.noise.models import NoiseModel
from repro.util.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.designs.compiled import CompiledDesign
    from repro.designs.store import DesignStore

__all__ = ["run_noisy_mn_trial", "NOISY_TRIAL_SPAWN_TAG"]

#: Historical spawn-key tag of the single-trial noisy harness (kept stable
#: so archived robustness sweeps stay reproducible).
NOISY_TRIAL_SPAWN_TAG = 941


def run_noisy_mn_trial(
    n: int,
    m: int,
    noise: NoiseModel,
    *,
    theta: "float | None" = None,
    k: "int | None" = None,
    root_seed: int = 0,
    trial: int = 0,
    decoder: str = "mn",
    repeats: int = 1,
    design: "CompiledDesign | None" = None,
    store: "DesignStore | None" = None,
) -> MNTrialResult:
    """One trial through a noisy additive channel.

    The corruption is applied to the query results *before* Ψ accumulation
    — the decoder sees only the corrupted world, exactly as a lab would.
    The design is materialised (robustness sweeps use moderate sizes), so
    Ψ is recomputed against the noisy results directly.

    Parameters
    ----------
    noise:
        The channel model.
    decoder:
        ``"mn"`` (default), or any other registry name
        (:func:`~repro.designs.make_decoder`, which rejects unknown ones
        before the trial runs): ``"lp"`` (box-constrained basis pursuit),
        ``"omp"`` (centred OMP), ``"amp"`` (Bernoulli-prior AMP), or the
        binary group-testing decoders ``"comp"``/``"dd"`` (which binarise
        the counts to OR observations) — identical signal, design and
        corrupted results, different estimator.
    repeats:
        Repeat-query averaging: corrupt ``repeats`` independent replicas
        of the results and decode their rounded mean.  ``repeats=1`` is the
        single-corruption trial.
    design:
        A precompiled design to reuse instead of sampling one from this
        trial's design stream (must match ``n``/``m``).  The signal and
        noise streams are independent children of the trial's seed
        sequence, so they are unaffected by skipping the design draw.
    store:
        A :class:`~repro.designs.store.DesignStore`: this trial's sampled
        design is compiled under a trial-tagged key and persisted, so
        repeated level sweeps — in this process or another — share one
        compilation (mmap-attached; bit-identical to re-sampling because
        the key regenerates the same draw).
    """
    n = check_positive_int(n, "n")
    check_positive_int(m, "m")
    repeats = check_positive_int(repeats, "repeats")
    from repro.designs import make_decoder
    from repro.designs.compiled import compile_design

    baseline = None if decoder == "mn" else make_decoder(decoder)
    if (theta is None) == (k is None):
        raise ValueError("provide exactly one of theta or k")
    if k is None:
        k = theta_to_k(n, float(theta))
    k = check_positive_int(k, "k")

    seq = np.random.SeedSequence(entropy=root_seed, spawn_key=(NOISY_TRIAL_SPAWN_TAG, trial))
    sig_rng, design_rng, noise_rng = (np.random.Generator(np.random.PCG64(s)) for s in seq.spawn(3))
    sigma = random_signal(n, k, sig_rng)

    from repro.designs.store import resolve_design_store

    compiled = design
    if compiled is not None:
        if compiled.n != n or compiled.m != m:
            raise ValueError(f"design= has (n={compiled.n}, m={compiled.m}); this trial asked for (n={n}, m={m})")
    else:
        store_obj = resolve_design_store(store)
        if store_obj is not None:
            from repro.core.design import default_gamma
            from repro.designs.compiled import CompiledDesign, DesignKey

            key = DesignKey(
                n=n,
                m=m,
                gamma=default_gamma(n),
                root_seed=root_seed,
                trial_key=("noisy", NOISY_TRIAL_SPAWN_TAG, trial),
                batch_queries=0,
            )
            compiled = store_obj.get_or_compile(key, lambda: CompiledDesign(PoolingDesign.sample(n, m, design_rng), key=key))
    design_obj = compiled.design if compiled is not None else PoolingDesign.sample(n, m, design_rng)
    y_clean = design_obj.query_results(sigma)
    replicas = np.stack([noise.corrupt(y_clean, noise_rng) for _ in range(repeats)])
    y_noisy = average_replicas(replicas)
    # Decoders read the already-resolved artifact, so a store hit is reused.
    if baseline is None:
        sigma_hat = MNDecoder().decode((compiled or design_obj).stats_for(y_noisy), k)
    else:
        sigma_hat = baseline.compile(compiled or compile_design(design_obj)).decode(y_noisy, k)
    return MNTrialResult(
        n=n,
        k=k,
        m=m,
        success=exact_recovery(sigma, sigma_hat),
        overlap=overlap_fraction(sigma, sigma_hat),
        k_used=k,
    )
