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

Every registry family's artifact derives from :class:`CompiledDecoderBase`,
which holds the bound design and decoder and writes ``decode`` once: check
one ``(m,)`` vector, then ``decode_batch(y[None], k)[0]``.  A family
therefore has one decode path, its ``decode_batch``, and every
``decode_batch`` starts with the one observation check,
:func:`check_observations`.

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
:class:`CompiledDecoder`, ``decode_batch(Y, k)[b]`` decodes ``Y[b]`` as
``decode(Y[b], k_b)`` does — bit for bit for the integer-exact MN and
COMP/DD families, the same support for the float LP/OMP/AMP families
(their GEMMs may round in the last bits with the batch shape).  Coalescing
requests into micro-batches may only ever change *when* work runs, never
what any caller gets back.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.designs.compiled import CompiledDesign

__all__ = ["Decoder", "CompiledDecoder", "CompiledDecoderBase", "check_observations", "require_compiled"]


@runtime_checkable
class CompiledDecoder(Protocol):
    """A decoder bound to one compiled design — the decode-only hot path."""

    def decode(self, y: np.ndarray, k: int) -> np.ndarray:
        """Estimate the support from one ``(m,)`` observed result vector."""
        ...  # pragma: no cover - protocol stub

    def decode_batch(self, Y: np.ndarray, k: "int | np.ndarray") -> np.ndarray:
        """Estimate ``(B, n)`` supports from a ``(B, m)`` result batch.

        Row ``b`` must decode ``Y[b]`` as ``decode(Y[b], k_b)`` does — the
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


def check_observations(Y: object, m: int) -> np.ndarray:
    """Validate a ``(B, m)`` observation batch: ``B >= 1`` rows of length ``m``, finite.

    The one input check: every compiled family's ``decode_batch`` runs it
    first.  Integer (and boolean) input is finite by type and is returned
    as given, so served int64 rows pay no scan; any other input is returned
    as float64 once a scan finds no NaN or infinity.
    """
    Y = np.asarray(Y)
    if Y.ndim != 2 or Y.shape[0] < 1 or Y.shape[1] != m:
        raise ValueError(f"Y must have shape (B, m={m}) with B >= 1, got {Y.shape}")
    if Y.dtype.kind not in "biu":
        Y = np.asarray(Y, dtype=np.float64)
        if not np.isfinite(Y).all():
            raise ValueError("Y must be finite; got NaN or infinity")
    return Y


class CompiledDecoderBase:
    """The shell every compiled artifact shares: its design, its decoder, ``decode``.

    A subclass defines ``decode_batch`` in its own body, and ``decode`` is
    that batch's one-row case, so each family has a single decode path.
    Instances hold nothing to release beyond what they reference — their
    ``(m, n)`` operands are blocks of the compiled design — so dropping the
    last reference frees them.
    """

    def __init__(self, compiled: CompiledDesign, decoder: object):
        self.compiled = require_compiled(compiled)
        self.decoder = decoder

    def decode(self, y: np.ndarray, k: int) -> np.ndarray:
        """Estimate the support from one ``(m,)`` result vector: ``decode_batch`` of one row."""
        return self.decode_batch(self._one_row(y), k)[0]

    def _one_row(self, y: np.ndarray) -> np.ndarray:
        """``y`` as a ``(1, m)`` batch, or ``ValueError`` unless it is one ``(m,)`` vector."""
        y = np.asarray(y)
        if y.shape != (self.compiled.m,):
            raise ValueError(f"y must be one (m={self.compiled.m},) result vector, got shape {y.shape}; use decode_batch for (B, m)")
        return y[None]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(compiled={self.compiled!r}, decoder={self.decoder!r})"
