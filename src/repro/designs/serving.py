"""The decode-only serving path: compile once, decode forever.

``MNDecoder.compile(compiled)`` binds a configured decoder to a
:class:`~repro.designs.compiled.CompiledDesign` and returns a
:class:`CompiledMNDecoder` whose
:meth:`~CompiledMNDecoder.decode_batch` skips design streaming entirely:
every call is one ``Ψ`` GEMM against the resident incidence block plus the
top-k selection.  ``decode`` is its one-row case
(:class:`~repro.designs.protocol.CompiledDecoderBase`).  This is the hot
path a deployment serves — observed result vectors arriving against a
small set of deployed designs.

The GEMM runs in-process (BLAS already uses every core) and is
bit-identical to the one-shot :func:`~repro.core.mn.mn_reconstruct`
because every intermediate is integer-exact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.designs.compiled import CompiledDesign
from repro.designs.protocol import CompiledDecoderBase, check_observations

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.mn import MNDecoder

__all__ = ["CompiledMNDecoder"]


class CompiledMNDecoder(CompiledDecoderBase):
    """An MN decoder bound to one compiled design.

    The reference implementation of the
    :class:`~repro.designs.protocol.CompiledDecoder` protocol — layers
    above (the serve front-end, cross-decoder benchmarks) type against
    that protocol, not this class.

    Create via :meth:`repro.core.mn.MNDecoder.compile`.  ``decode(y, k)``
    is bit-identical to ``mn_reconstruct(design, y, k)`` and (for matched
    stream keys) to the streaming one-shot path on the same ``y``.
    """

    def __init__(self, compiled: CompiledDesign, decoder: "MNDecoder"):
        super().__init__(compiled, decoder)
        # Build (or unpack) the Ψ block here, where the serve pool compiles
        # on its admission thread, not in the first decode.
        compiled.incidence_block()

    def decode_batch(self, Y: np.ndarray, k: "int | np.ndarray") -> np.ndarray:
        """Decode a ``(B, m)`` batch of observed results in one pass.

        One ``Ψ`` GEMM against the compiled block, then a batched top-k.
        Row ``b`` is bit-identical to ``decode(Y[b], k)`` (``Ψ`` is
        integer-exact).
        """
        Y = check_observations(Y, self.compiled.m)
        return self.decoder.decode(self.compiled.stats_for(Y), k)
