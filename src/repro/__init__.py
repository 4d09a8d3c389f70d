"""pooled-repro — parallel reconstruction from pooled data.

A production-quality reproduction of Gebhard, Hahn-Klimroth, Kaaser &
Loick, *On the Parallel Reconstruction from Pooled Data* (IPDPS 2022,
arXiv:1905.01458): the Maximum Neighborhood greedy decoder, the
information-theoretic threshold machinery, the parallel substrates the
algorithm runs on, the related-work baselines, and the complete evaluation
harness regenerating every figure and in-text claim.

Quickstart
----------
>>> import numpy as np
>>> from repro import reconstruct
>>> sigma = np.zeros(1000, dtype=np.int8); sigma[[3, 141, 592]] = 1
>>> oracle = lambda pools: [int(sigma[p].sum()) for p in pools]
>>> report = reconstruct(1000, 200, oracle,   # k learned by calibration
...                      rng=np.random.default_rng(0))
>>> bool(np.array_equal(report.sigma_hat, sigma))
True

Batched reconstruction (the engine layer)
-----------------------------------------
One pooling design is signal-independent, so a whole batch of signals can
share it — :func:`reconstruct_batch` decodes ``B`` signals in one
vectorised pass, per-signal bit-identical to ``B`` independent
``reconstruct`` calls with matched seeds:

>>> from repro import reconstruct_batch, signals_oracle
>>> sigmas = np.zeros((4, 1000), dtype=np.int8)
>>> for b in range(4): sigmas[b, [b, 100 + b, 500 + b]] = 1
>>> batch = reconstruct_batch(1000, 200, signals_oracle(sigmas), 4,
...                           rng=np.random.default_rng(0))
>>> bool(np.array_equal(batch.sigma_hat, sigmas))
True

Batch-axis conventions: per-signal arrays (``sigma``, ``y``, ``psi``)
optionally grow a leading ``B`` axis; design-level arrays (``dstar``,
``delta``) never do.  Execution (process count and kernel) is
configured once via a ``Backend``
(:class:`SerialBackend` or the fork+shared-memory
:class:`SharedMemBackend`) and threaded through every entry point as
``backend=``.

Noisy channels (the noise subsystem)
------------------------------------
Real assays return noisy counts.  Every oracle-facing entry point takes an
optional ``noise=`` :class:`NoiseModel` (plus ``repeats=`` for
repeat-query averaging); corruption streams are keyed per signal, so the
batched/single bit-identity guarantees survive the noisy channel:

>>> from repro import GaussianNoise
>>> noisy = reconstruct_batch(1000, 400, signals_oracle(sigmas), 4, k=3,
...                           rng=np.random.default_rng(0),
...                           noise=GaussianNoise(2.0), repeats=3)
>>> bool(np.array_equal(noisy.sigma_hat, sigmas))
True

Package map
-----------
``repro.core``        model, MN decoder, thresholds, exhaustive decoder
``repro.designs``     compiled-design lifecycle: compile, cache, serve
``repro.engine``      execution backends + batched multi-signal engine
``repro.kernels``     dispatchable hot kernels: dense blocks + BLAS vs legacy
``repro.noise``       noisy channels: models, keyed streams, robust decoding
``repro.rng``         MT19937-64 (paper parity) + deterministic substreams
``repro.parallel``    shared-memory worker pool, top-k selection
``repro.machine``     simulated lab: latency models, L-unit scheduling
``repro.baselines``   basis pursuit, OMP, AMP, binary group testing
``repro.experiments`` figure/claim regeneration drivers
``repro.extensions``  threshold queries, adaptive rounds (§VI); noise shim
"""

from repro.core import (
    GAMMA,
    HeapsLawProcess,
    KEstimate,
    MNDecoder,
    MNTrialResult,
    PoolingDesign,
    PrevalencePopulation,
    DesignStats,
    decode_with_estimated_k,
    estimate_k,
    load_compiled_design,
    load_design,
    save_design,
    exact_recovery,
    exhaustive_decode,
    finite_size_factor,
    hamming_distance,
    k_to_theta,
    m_counting_exact,
    m_counting_sequential,
    m_information_parallel,
    m_mn_threshold,
    mn_constant,
    mn_reconstruct,
    mn_scores,
    overlap_fraction,
    random_signal,
    random_signals,
    reconstruct,
    run_mn_trial,
    stream_design_stats,
    theta_to_k,
)
from repro.engine import (
    Backend,
    BatchReconstructionReport,
    SerialBackend,
    SharedMemBackend,
    reconstruct_batch,
    run_trial_grid,
    signals_oracle,
)
from repro.designs import (
    CompiledDesign,
    CompiledMNDecoder,
    DesignCache,
    DesignKey,
    DesignStore,
    compile_design,
    compile_from_key,
    resolve_design_store,
)
from repro.kernels import available_kernels
from repro.machine import SimulatedLab
from repro.noise import (
    DropoutNoise,
    GaussianNoise,
    NoiseModel,
    parse_noise_spec,
    robust_calibrate_k,
    threshold_decode,
)
from repro.parallel import WorkerPool

__version__ = "1.5.0"

__all__ = [
    "GAMMA",
    "HeapsLawProcess",
    "KEstimate",
    "MNDecoder",
    "MNTrialResult",
    "PoolingDesign",
    "PrevalencePopulation",
    "DesignStats",
    "decode_with_estimated_k",
    "estimate_k",
    "load_design",
    "load_compiled_design",
    "save_design",
    "CompiledDesign",
    "CompiledMNDecoder",
    "DesignCache",
    "DesignKey",
    "DesignStore",
    "compile_design",
    "compile_from_key",
    "resolve_design_store",
    "SimulatedLab",
    "WorkerPool",
    "available_kernels",
    "Backend",
    "SerialBackend",
    "SharedMemBackend",
    "BatchReconstructionReport",
    "reconstruct_batch",
    "run_trial_grid",
    "signals_oracle",
    "NoiseModel",
    "GaussianNoise",
    "DropoutNoise",
    "parse_noise_spec",
    "robust_calibrate_k",
    "threshold_decode",
    "random_signals",
    "exact_recovery",
    "exhaustive_decode",
    "finite_size_factor",
    "hamming_distance",
    "k_to_theta",
    "m_counting_exact",
    "m_counting_sequential",
    "m_information_parallel",
    "m_mn_threshold",
    "mn_constant",
    "mn_reconstruct",
    "mn_scores",
    "overlap_fraction",
    "random_signal",
    "reconstruct",
    "run_mn_trial",
    "stream_design_stats",
    "theta_to_k",
    "__version__",
]
