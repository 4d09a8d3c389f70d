"""The unified decoder protocol: ``compile`` once, ``decode`` forever.

Every reconstruction algorithm in this library ultimately has the same
deployable shape — a signal-independent *compilation* stage (bind to a
design, precompute whatever the estimator reuses across calls) and a hot
*decode* stage (observed results in, support estimate out).  This module
names that shape as a :class:`Decoder`/:class:`CompiledDecoder` protocol
pair so that layers above the decoders — the serve front-end
(:mod:`repro.serve`), benchmarks, future baseline ports — type against
the seam instead of against :class:`~repro.core.mn.MNDecoder` concretely:

* :class:`Decoder` — a configured algorithm; ``compile(compiled)`` binds
  a :class:`~repro.designs.compiled.CompiledDesign` and returns a
  :class:`CompiledDecoder`.  A key or a materialised design is resolved
  first, through the store when there is one, by
  :func:`~repro.designs.compiled.resolve_compiled` — the one store-aware
  resolver, so ``compile(resolve_compiled(key, store=store))``;
* :class:`CompiledDecoder` — the artifact bound to one design;
  ``decode(y, k)`` serves a single ``(m,)`` result vector and
  ``decode_batch(Y, k)`` a ``(B, m)`` micro-batch (``k`` scalar or
  per-row array), both returning 0/1 support estimates.

:class:`~repro.core.mn.MNDecoder` /
:class:`~repro.designs.serving.CompiledMNDecoder` are the reference
implementations (asserted by the test suite).  The protocols are
``runtime_checkable``, so structural conformance of a ported baseline can
be checked with a plain ``isinstance``:

>>> from repro.core.mn import MNDecoder
>>> from repro.designs import CompiledDecoder, Decoder
>>> isinstance(MNDecoder(), Decoder)
True
>>> from repro.designs import DesignKey, resolve_compiled
>>> key, store = DesignKey.for_stream(64, 12, root_seed=0), None
>>> compiled = MNDecoder().compile(resolve_compiled(key, store=store))
>>> isinstance(compiled, CompiledDecoder)
True
>>> MNDecoder().compile(key)
Traceback (most recent call last):
...
TypeError: cannot compile a DesignKey: Decoder.compile binds a CompiledDesign; resolve it first with resolve_compiled(design, store=...)

The decode contract the serve layer relies on: for one
:class:`CompiledDecoder`, ``decode_batch(Y, k)[b]`` is bit-identical to
``decode(Y[b], k_b)`` — coalescing requests into micro-batches may only
ever change *when* work runs, never what any caller gets back.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.designs.compiled import CompiledDesign

__all__ = ["Decoder", "CompiledDecoder", "require_compiled"]


@runtime_checkable
class CompiledDecoder(Protocol):
    """A decoder bound to one compiled design — the decode-only hot path."""

    def decode(self, y: np.ndarray, k: int) -> np.ndarray:
        """Estimate the support from one ``(m,)`` observed result vector."""
        ...  # pragma: no cover - protocol stub

    def decode_batch(self, Y: np.ndarray, k: "int | np.ndarray") -> np.ndarray:
        """Estimate ``(B, n)`` supports from a ``(B, m)`` result batch.

        Row ``b`` must be bit-identical to ``decode(Y[b], k_b)`` — the
        invariant that makes request coalescing transparent to callers.
        """
        ...  # pragma: no cover - protocol stub


@runtime_checkable
class Decoder(Protocol):
    """A configured reconstruction algorithm, pre-compilation."""

    def compile(self, compiled: CompiledDesign) -> CompiledDecoder:
        """Bind to a compiled design for decode-only serving."""
        ...  # pragma: no cover - protocol stub


def require_compiled(design: object) -> CompiledDesign:
    """``design`` if it is a :class:`~repro.designs.compiled.CompiledDesign`.

    The one argument check behind every ``Decoder.compile``: the compiled
    artifacts of all families call it when they bind.  Any other form
    raises :class:`TypeError` naming the resolver that turns it into one.
    """
    if not isinstance(design, CompiledDesign):
        raise TypeError(
            f"cannot compile a {type(design).__name__}: Decoder.compile binds a CompiledDesign; "
            "resolve it first with resolve_compiled(design, store=...)"
        )
    return design
