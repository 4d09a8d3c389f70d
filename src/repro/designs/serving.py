"""The decode-only serving path: compile once, decode forever.

``MNDecoder.compile(compiled)`` binds a configured decoder to a
:class:`~repro.designs.compiled.CompiledDesign` and returns a
:class:`CompiledMNDecoder` whose :meth:`~CompiledMNDecoder.decode` /
:meth:`~CompiledMNDecoder.decode_batch` skip design streaming entirely:
every call is one ``Ψ`` GEMM against the resident incidence block plus the
top-k selection.  This is the hot path a deployment serves — observed
result vectors arriving against a small set of deployed designs.

The GEMM runs in-process (BLAS already uses every core) and is
bit-identical to the one-shot :func:`~repro.core.mn.mn_reconstruct`
because every intermediate is integer-exact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.designs.compiled import CompiledDesign
from repro.designs.protocol import require_compiled

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.mn import MNDecoder

__all__ = ["CompiledMNDecoder"]


class CompiledMNDecoder:
    """An MN decoder bound to one compiled design.

    The reference implementation of the
    :class:`~repro.designs.protocol.CompiledDecoder` protocol — layers
    above (the serve front-end, cross-decoder benchmarks) type against
    that protocol, not this class.

    Create via :meth:`repro.core.mn.MNDecoder.compile`.  Instances hold
    nothing beyond the compiled design, so there is nothing to release:
    dropping the last reference frees them.
    """

    def __init__(self, compiled: CompiledDesign, decoder: "MNDecoder"):
        self.compiled = require_compiled(compiled)
        self.decoder = decoder
        # Build (or unpack) the Ψ block here, where the serve pool compiles
        # on its admission thread, not in the first decode.
        compiled.incidence_block()

    # -- the hot path -----------------------------------------------------------

    def decode(self, y: np.ndarray, k: int) -> np.ndarray:
        """Decode one observed result vector — no sampling, no streaming.

        Bit-identical to ``mn_reconstruct(design, y, k)`` and (for matched
        stream keys) to the streaming one-shot path on the same ``y``.
        """
        y = np.asarray(y, dtype=np.int64)
        if y.ndim != 1:
            raise ValueError("decode expects one (m,) result vector; use decode_batch for (B, m)")
        return self.decoder.decode(self.compiled.stats_for(y), k)

    def decode_batch(self, Y: np.ndarray, k: "int | np.ndarray") -> np.ndarray:
        """Decode a ``(B, m)`` batch of observed results in one pass.

        One ``Ψ`` GEMM against the compiled block, then a batched top-k.
        Row ``b`` is bit-identical to ``decode(Y[b], k)`` (``Ψ`` is
        integer-exact).
        """
        Y = np.asarray(Y, dtype=np.int64)
        if Y.ndim != 2 or Y.shape[1] != self.compiled.m or Y.shape[0] < 1:
            raise ValueError(f"Y must have shape (B, m={self.compiled.m})")
        return self.decoder.decode(self.compiled.stats_for(Y), k)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompiledMNDecoder(compiled={self.compiled!r}, decoder={self.decoder!r})"
