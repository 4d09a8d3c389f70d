"""The unified decoder protocol: ``compile`` once, ``decode`` forever.

Every reconstruction algorithm in this library ultimately has the same
deployable shape — a signal-independent *compilation* stage (bind to a
design, precompute whatever the estimator reuses across calls) and a hot
*decode* stage (observed results in, support estimate out).  This module
names that shape as a :class:`Decoder`/:class:`CompiledDecoder` protocol
pair so that layers above the decoders — the serve front-end
(:mod:`repro.serve`), benchmarks, future baseline ports — type against
the seam instead of against :class:`~repro.core.mn.MNDecoder` concretely:

* :class:`Decoder` — a configured algorithm; ``compile(design, *,
  store=)`` accepts a :class:`~repro.designs.compiled.CompiledDesign`,
  a :class:`~repro.core.design.PoolingDesign` or a
  :class:`~repro.designs.compiled.DesignKey` and returns a
  :class:`CompiledDecoder`, consulting the
  :class:`~repro.designs.store.DesignStore` when given;
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
>>> from repro.designs import DesignKey
>>> compiled = MNDecoder().compile(DesignKey.for_stream(64, 12, root_seed=0))
>>> isinstance(compiled, CompiledDecoder)
True

The decode contract the serve layer relies on: for one
:class:`CompiledDecoder`, ``decode_batch(Y, k)[b]`` is bit-identical to
``decode(Y[b], k_b)`` — coalescing requests into micro-batches may only
ever change *when* work runs, never what any caller gets back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.design import PoolingDesign
    from repro.designs.compiled import CompiledDesign, DesignKey
    from repro.designs.store import DesignStore

__all__ = ["Decoder", "CompiledDecoder"]


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

    def compile(
        self,
        design: "CompiledDesign | PoolingDesign | DesignKey",
        *,
        store: "DesignStore | None" = None,
    ) -> CompiledDecoder:
        """Bind to a design (store read-through) for decode-only serving."""
        ...  # pragma: no cover - protocol stub
