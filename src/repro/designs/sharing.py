"""Shared-memory residency for compiled designs.

A :class:`~repro.parallel.pool.WorkerPool` historically shipped *recipes*
to its workers (stream keys, per-batch payloads) and every task re-derived
its slice of the design from scratch.  For the decode-heavy serving path
the design is already compiled in the parent — so publish it **once** into
POSIX shared memory and let every worker attach zero-copy:

* the parent calls :meth:`SharedCompiledDesign.publish` and ships the small
  picklable :class:`CompiledDesignDescriptor` with each task payload;
* workers call :func:`attach_compiled` with their persistent per-worker
  ``cache`` dict — the attach (and the structural re-validation it implies)
  is paid once per worker, after which every task sees the same read-only
  arrays the parent holds.

The compiled arrays (entries, indptr, ``Δ*``, ``Δ``) cross the process
boundary by name, never by value; only result rows travel with tasks.

The dense ``Ψ`` block itself is shared the same way: when the compiled
design's block is residency-eligible, :meth:`SharedCompiledDesign.publish`
materialises it once in the parent and places it in its own segment, and
attachers adopt it zero-copy
(:meth:`~repro.designs.compiled.CompiledDesign.adopt_block`) — so a pool
of ``W`` workers holds **one** physical copy of the up-to-256MB block
instead of ``W`` private rematerialisations.  Every block is float32,
so publisher and attacher never negotiate a precision.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.design import PoolingDesign
from repro.designs.compiled import CompiledDesign, DesignKey
from repro.parallel.sharedmem import SharedArray, SharedArrayDescriptor

__all__ = ["SharedCompiledDesign", "CompiledDesignDescriptor", "attach_compiled", "MAX_WORKER_ATTACHMENTS"]

#: Per-worker bound on memoised attachments.  Tokens are unique per
#: *publication*, so a long-lived worker serving rotated designs would
#: otherwise accumulate attachment sets (and their lazily materialised
#: dense blocks) without bound; beyond this many, the least recently used
#: attachment is closed and dropped.
MAX_WORKER_ATTACHMENTS = 4

#: Single worker-cache slot holding the (ordered) attachment table.
_ATTACH_SLOT = "compiled-design-attachments"


@dataclass(frozen=True)
class CompiledDesignDescriptor:
    """Picklable handle to a published compiled design (names, not data).

    ``block`` is the optional segment holding the dense ``(m, n)`` ``Ψ``
    incidence block — present when the publisher shared it (the default
    for residency-eligible designs), absent for oversized designs and for
    descriptors pickled by older publishers.
    """

    n: int
    key: DesignKey
    entries: SharedArrayDescriptor
    indptr: SharedArrayDescriptor
    dstar: SharedArrayDescriptor
    delta: SharedArrayDescriptor
    block: "SharedArrayDescriptor | None" = None

    @property
    def token(self) -> str:
        """Worker-cache key: the segment names identify this publication."""
        return f"compiled-design:{self.entries.name}"


class SharedCompiledDesign:
    """Parent-side owner of a compiled design's shared-memory residency.

    The publishing process owns the segments and must call :meth:`destroy`
    (or use the context manager) once no worker needs them; attachers only
    ever hold read views.
    """

    def __init__(self, compiled: CompiledDesign, arrays: "dict[str, SharedArray]"):
        self.compiled = compiled
        self._arrays = arrays

    @classmethod
    def publish(cls, compiled: CompiledDesign, *, include_block: bool = True) -> "SharedCompiledDesign":
        """Copy the compiled arrays into named shared-memory segments.

        With ``include_block`` (the default), a residency-eligible dense
        ``Ψ`` block is materialised once here in the parent and published
        alongside the structural arrays, so attachers adopt it instead of
        each rebuilding their own copy.  Oversized designs (over
        :data:`~repro.designs.compiled.BLOCK_RESIDENCY_LIMIT`) never ship
        a block — workers fall back to the chunked kernel path exactly as
        the parent does.
        """
        design = compiled.design
        arrays = {
            "entries": SharedArray.from_array(design.entries),
            "indptr": SharedArray.from_array(design.indptr),
            "dstar": SharedArray.from_array(compiled.dstar),
            "delta": SharedArray.from_array(compiled.delta),
        }
        if include_block and compiled.block_resident:
            arrays["block"] = SharedArray.from_array(compiled.incidence_block())
        return cls(compiled, arrays)

    @property
    def descriptor(self) -> CompiledDesignDescriptor:
        block = self._arrays.get("block")
        return CompiledDesignDescriptor(
            n=self.compiled.n,
            key=self.compiled.key,
            entries=self._arrays["entries"].descriptor,
            indptr=self._arrays["indptr"].descriptor,
            dstar=self._arrays["dstar"].descriptor,
            delta=self._arrays["delta"].descriptor,
            block=block.descriptor if block is not None else None,
        )

    def destroy(self) -> None:
        """Unlink every segment.  Idempotent."""
        arrays, self._arrays = self._arrays, {}
        for arr in arrays.values():
            arr.destroy()

    def __enter__(self) -> "SharedCompiledDesign":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.destroy()


def attach_compiled(descriptor: CompiledDesignDescriptor, cache: dict) -> CompiledDesign:
    """Worker-side zero-copy attach, memoised in the per-worker ``cache``.

    The first task per worker pays the segment attach and the
    :class:`PoolingDesign` structural validation; later tasks (and later
    decodes against the same publication) reuse the cached object —
    including its lazily materialised dense ``Ψ`` block.  The memo is an
    LRU bounded at :data:`MAX_WORKER_ATTACHMENTS`: rotating deployed
    designs closes the stalest attachment instead of pinning every
    publication a worker ever saw.
    """
    table: "OrderedDict[str, tuple[CompiledDesign, dict]]" = cache.setdefault(_ATTACH_SLOT, OrderedDict())
    token = descriptor.token
    if token not in table:
        attachments = {
            name: SharedArray.attach(getattr(descriptor, name)) for name in ("entries", "indptr", "dstar", "delta")
        }
        design = PoolingDesign(descriptor.n, attachments["entries"].array, attachments["indptr"].array)
        compiled = CompiledDesign(
            design,
            dstar=attachments["dstar"].array,
            delta=attachments["delta"].array,
            key=descriptor.key,
            copy=False,  # wrap the shared segments themselves — that is the point
        )
        if descriptor.block is not None:
            # The parent shipped its dense Ψ block: adopt it zero-copy so
            # this worker's decodes start GEMM-ready with no private copy.
            attachments["block"] = SharedArray.attach(descriptor.block)
            compiled.adopt_block(attachments["block"].array)
        # Keep the attachments alive alongside the compiled view; the table
        # owns both until eviction (tasks only ever return fresh arrays, so
        # closing an evicted publication's mappings is safe).
        table[token] = (compiled, attachments)
        while len(table) > MAX_WORKER_ATTACHMENTS:
            _, (_, stale) = table.popitem(last=False)
            for arr in stale.values():
                arr.close()
    else:
        table.move_to_end(token)
    return table[token][0]
