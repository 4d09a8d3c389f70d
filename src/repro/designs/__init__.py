"""The compiled-design lifecycle: **sample → compile → decode**.

This package turns the pooling design into a first-class deployable
artifact.  The paper's structure — one signal-independent design, one
round of parallel queries, then reconstruction — means everything the MN
decoder needs besides the observed results can be *compiled* ahead of
time and reused across calls, batches and processes.  Within a process the
caller holds the artifact (or passes it as ``design=``); across processes
the machine-local store shares one compilation; BLAS runs the ``Ψ`` GEMM
on every core:

* :mod:`repro.designs.compiled` — :class:`DesignKey` (the content address:
  ``(n, m, gamma, root_seed, trial_key, batch_queries)``) and
  :class:`CompiledDesign` (entries/indptr + precomputed ``Δ*``/``Δ`` + the
  resident dense ``Ψ`` block);
* :mod:`repro.designs.store` — :class:`DesignStore`, the file-backed,
  mmap-read, cross-process store (content-addressed directory, atomic
  publication, single-flight compilation across processes, byte-budgeted
  GC; ambient opt-in via ``REPRO_DESIGN_STORE``);
* :mod:`repro.designs.serving` — :class:`CompiledMNDecoder`, the
  decode-only hot path behind ``MNDecoder.compile(...)``;
* :mod:`repro.designs.protocol` — the unified :class:`Decoder` /
  :class:`CompiledDecoder` protocol pair (``compile`` →
  ``decode``/``decode_batch``) that serving layers and baseline ports
  type against; ``MNDecoder``/``CompiledMNDecoder`` are the reference
  implementations;
* :mod:`repro.designs.registry` — the decoder registry mapping wire/CLI
  names (``mn``, ``lp``, ``omp``, ``amp``, ``comp``, ``dd``) to
  :class:`Decoder` factories, so the serve layer and experiment drivers
  select decoders by name.

Layering: ``core`` → ``designs`` → ``engine``/``experiments``/``cli``.
Core entry points accept ``design=``/``store=`` and import this package
lazily, so the one-shot paths never pay for it.
"""

from repro.designs.compiled import (
    CompiledDesign,
    DesignKey,
    compile_design,
    compile_from_key,
    resolve_compiled,
)
from repro.designs.protocol import CompiledDecoder, Decoder
from repro.designs.registry import (
    DEFAULT_DECODER,
    available_decoders,
    make_decoder,
    register_decoder,
)
from repro.designs.serving import CompiledMNDecoder
from repro.designs.store import (
    DESIGN_STORE_BYTES_ENV,
    DESIGN_STORE_ENV,
    DesignStore,
    FsckReport,
    StoreEntry,
    StoreStats,
    default_design_store,
    reset_default_design_store,
    resolve_design_store,
)

__all__ = [
    "DesignKey",
    "CompiledDesign",
    "compile_design",
    "compile_from_key",
    "resolve_compiled",
    "DEFAULT_DECODER",
    "available_decoders",
    "make_decoder",
    "register_decoder",
    "DesignStore",
    "StoreStats",
    "StoreEntry",
    "FsckReport",
    "resolve_design_store",
    "default_design_store",
    "reset_default_design_store",
    "DESIGN_STORE_ENV",
    "DESIGN_STORE_BYTES_ENV",
    "Decoder",
    "CompiledDecoder",
    "CompiledMNDecoder",
]
