"""The compiled-design artifact: sample → **compile** → decode.

The paper's setting is one fixed round of parallel pooled queries against a
design, then reconstruction.  Historically the codebase was trial-shaped:
every ``reconstruct``/``reconstruct_batch`` call re-sampled its design,
re-streamed the ``Δ*``/``Ψ`` denominators, and re-derived dense incidence
blocks.  This module splits that lifecycle into three explicit stages with
a reusable artifact between them:

1. **sample** — draw (or stream-key, or hand-build) a
   :class:`~repro.core.design.PoolingDesign`;
2. **compile** — precompute everything signal-independent once:
   ``Δ*`` (distinct-query degrees), ``Δ`` (slot degrees), and the dense
   incidence block the ``Ψ`` GEMM runs against — producing an immutable
   :class:`CompiledDesign` addressed by a :class:`DesignKey`;
3. **decode** — serve any number of result vectors against the artifact
   (:mod:`repro.designs.serving`), paying only the ``Ψ`` GEMM + top-k.

Every compiled quantity is integer-exact, so decoding through a compiled
design is **bit-identical** to the historical one-shot paths — asserted by
the test suite for every kernel tier, store layer and backend, with and
without noise.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from repro.core.design import DEFAULT_BATCH_QUERIES, DesignStats, PoolingDesign, default_gamma
from repro.kernels.dense import _EXACT_LIMIT32
from repro.parallel.partition import chunk_count
from repro.rng.streams import StreamFamily, batch_generator
from repro.util.validation import check_counts, check_nonneg_int, check_positive_int

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.designs.store import DesignStore

__all__ = [
    "DesignKey",
    "CompiledDesign",
    "compile_design",
    "compile_from_key",
    "resolve_compiled",
    "BLOCK_RESIDENCY_LIMIT",
]

#: Largest dense float32 incidence block (``(m, n)``) a compiled design will
#: keep resident, in bytes.  Beyond this, ``psi`` falls back to the chunked
#: kernel path (same values, recomputed scatter) instead of pinning gigabytes.
BLOCK_RESIDENCY_LIMIT = 256 * 1024 * 1024

#: Cells per row chunk when a block is bit-packed, unpacked or counted: the
#: temporaries stay a few MiB whatever the block size.
_ROW_CHUNK_CELLS = 1 << 20

#: ``trial_key`` scheme tags for keys whose designs are *sampled* from a
#: keyed generator (grid points) or *content-addressed* (hand-built designs)
#: rather than streamed batch-by-batch.  String tags can never collide with
#: the pure-int trial keys of the streaming scheme.
SAMPLED_SCHEME = "sampled"
CONTENT_SCHEME = "sha256"


@dataclass(frozen=True)
class DesignKey:
    """Content address of a compiled design: ``(n, m, gamma, root_seed, trial_key, batch_queries)``.

    Two designs with equal keys hold bit-identical edge sets, which is what
    makes the key safe to store under:

    * **streamed** designs (:meth:`for_stream`) are regenerated batch-by-batch
      from ``(root_seed, *trial_key, batch)`` streams, so the key *is* the
      content — ``batch_queries`` is part of it because streams are keyed per
      batch (the library's design-key invariant);
    * **sampled** designs (:meth:`for_sampled`) come from one keyed generator
      (grid points; ``batch_queries`` is recorded as ``0``);
    * **hand-built** designs (:meth:`for_content`) are addressed by a SHA-256
      digest of their edge structure.
    """

    n: int
    m: int
    gamma: "int | float"
    root_seed: int
    trial_key: "tuple[int | str, ...]"
    batch_queries: int

    @classmethod
    def for_stream(
        cls,
        n: int,
        m: int,
        *,
        root_seed: int,
        trial_key: "tuple[int, ...]" = (),
        gamma: Optional[int] = None,
        batch_queries: int = DEFAULT_BATCH_QUERIES,
    ) -> "DesignKey":
        """The key of :func:`~repro.core.design.stream_design_stats`'s design."""
        n = check_positive_int(n, "n")
        m = check_positive_int(m, "m")
        gamma = default_gamma(n) if gamma is None else check_positive_int(gamma, "gamma")
        check_nonneg_int(root_seed, "root_seed")
        batch_queries = check_positive_int(batch_queries, "batch_queries")
        return cls(n=n, m=m, gamma=gamma, root_seed=root_seed, trial_key=tuple(int(t) for t in trial_key), batch_queries=batch_queries)

    @classmethod
    def for_sampled(cls, n: int, m: int, *, root_seed: int, tag: int, index: int, gamma: Optional[int] = None) -> "DesignKey":
        """The key of a design drawn whole from ``batch_generator(root_seed, tag, index)``."""
        n = check_positive_int(n, "n")
        m = check_positive_int(m, "m")
        gamma = default_gamma(n) if gamma is None else check_positive_int(gamma, "gamma")
        return cls(n=n, m=m, gamma=gamma, root_seed=root_seed, trial_key=(SAMPLED_SCHEME, int(tag), int(index)), batch_queries=0)

    @classmethod
    def for_content(cls, design: PoolingDesign) -> "DesignKey":
        """Content address of an arbitrary (possibly ragged) materialised design."""
        digest = hashlib.sha256()
        digest.update(np.int64(design.n).tobytes())
        digest.update(np.ascontiguousarray(design.indptr).tobytes())
        digest.update(np.ascontiguousarray(design.entries).tobytes())
        return cls(
            n=design.n,
            m=design.m,
            gamma=design.mean_pool_size,
            root_seed=0,
            trial_key=(CONTENT_SCHEME, digest.hexdigest()),
            batch_queries=0,
        )

    @property
    def scheme(self) -> str:
        """How the keyed edges regenerate.

        ``"stream"`` (batch-keyed streams, pure-int ``trial_key``),
        ``"sampled"`` (one keyed generator), ``"content"`` (SHA-256 of a
        materialised design) or ``"custom"`` (caller-tagged keys that only
        regenerate through an explicit factory, e.g. noisy-trial designs).

        Examples
        --------
        >>> from repro.designs import DesignKey
        >>> DesignKey.for_stream(100, 20, root_seed=0).scheme
        'stream'
        >>> DesignKey.for_sampled(100, 20, root_seed=0, tag=7, index=3).scheme
        'sampled'
        """
        if self.trial_key and isinstance(self.trial_key[0], str):
            if self.trial_key[0] == SAMPLED_SCHEME:
                return "sampled"
            if self.trial_key[0] == CONTENT_SCHEME:
                return "content"
            return "custom"
        return "stream"

    def to_json(self) -> str:
        """Canonical JSON form — the persistence format of the key.

        Used both by :mod:`repro.core.serialization` (``.npz`` artifacts)
        and :mod:`repro.designs.store` (entry metadata and the content
        digest a store entry is addressed by).  Round-trips exactly through
        :meth:`from_json`:

        >>> from repro.designs import DesignKey
        >>> key = DesignKey.for_stream(100, 20, root_seed=5)
        >>> DesignKey.from_json(key.to_json()) == key
        True
        """
        return json.dumps(
            {
                "n": self.n,
                "m": self.m,
                "gamma": self.gamma,
                "root_seed": self.root_seed,
                "trial_key": list(self.trial_key),
                "batch_queries": self.batch_queries,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, payload: str) -> "DesignKey":
        """Parse a key serialised by :meth:`to_json`.

        Raises
        ------
        ValueError
            On malformed JSON or missing/ill-typed fields, an infinite
            number among them included (a corrupted artifact must fail
            loudly, not decode under the wrong key).
        """
        try:
            raw = json.loads(payload)
            trial_key = tuple(t if isinstance(t, str) else int(t) for t in raw["trial_key"])
            return cls(
                n=int(raw["n"]),
                m=int(raw["m"]),
                gamma=raw["gamma"],
                root_seed=int(raw["root_seed"]),
                trial_key=trial_key,
                batch_queries=int(raw["batch_queries"]),
            )
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"corrupted compiled-design key: {exc}") from exc


class CompiledDesign:
    """An immutable, decode-ready pooling design.

    Wraps the materialised design together with every signal-independent
    statistic the MN decoder needs — so repeated decodes pay only the
    ``Ψ`` product and the top-k selection.  Instances are safe to share
    across calls and threads: the compiled arrays are marked read-only.

    Parameters
    ----------
    design:
        The materialised design (entries/indptr CSR layout).
    dstar, delta:
        Precomputed ``Δ*``/``Δ`` degree vectors (``(n,)`` int64).  Computed
        from the design when omitted; copied (then frozen) so the caller's
        arrays are never mutated behind their back.
    key:
        The design's :class:`DesignKey` (content-addressed when omitted).
    copy:
        Pass ``False`` to adopt ``dstar``/``delta`` zero-copy — the arrays
        are then frozen *in place*.  Reserved for owners of the buffers,
        such as the store's attach wrapping its own read-only mmaps.

    Examples
    --------
    >>> from repro.designs import DesignKey, compile_from_key
    >>> compiled = compile_from_key(DesignKey.for_stream(100, 20, root_seed=3))
    >>> (compiled.n, compiled.m, compiled.gamma)
    (100, 20, 50)
    >>> compiled.dstar.flags.writeable        # compiled artifacts are frozen
    False
    """

    def __init__(
        self,
        design: PoolingDesign,
        *,
        dstar: "np.ndarray | None" = None,
        delta: "np.ndarray | None" = None,
        key: "DesignKey | None" = None,
        copy: bool = True,
    ):
        self.design = design
        self.key = key if key is not None else DesignKey.for_content(design)
        if self.key.n != design.n or self.key.m != design.m:
            raise ValueError(f"key ({self.key.n}, {self.key.m}) does not match the design ({design.n}, {design.m})")
        as_degree = np.array if copy else np.asarray
        self.dstar = as_degree(design.dstar() if dstar is None else dstar, dtype=np.int64)
        self.delta = as_degree(design.delta() if delta is None else delta, dtype=np.int64)
        if self.dstar.shape != (design.n,) or self.delta.shape != (design.n,):
            raise ValueError("dstar and delta must have length n")
        self.dstar.setflags(write=False)
        self.delta.setflags(write=False)
        self._block: "np.ndarray | None" = None
        self._packed: "np.ndarray | None" = None
        self._counts: "np.ndarray | None" = None
        self._block_lock = threading.Lock()

    # -- identity -------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.design.n

    @property
    def m(self) -> int:
        return self.design.m

    @property
    def gamma(self) -> "int | float":
        """Exact mean pool size (``Γ`` for regular designs)."""
        return self.design.mean_pool_size

    #: Precision of every resident dense ``Ψ`` block.  0/1 incidence is exact
    #: in float32; exactness of each product is guarded per call by :meth:`psi`.
    block_dtype = np.dtype(np.float32)

    @property
    def block_bytes(self) -> int:
        """Size of the dense incidence block, resident or not."""
        return self.block_dtype.itemsize * self.m * self.n

    @property
    def block_resident(self) -> bool:
        """Whether the dense ``Ψ`` block fits the residency budget."""
        return self.block_bytes <= BLOCK_RESIDENCY_LIMIT

    @property
    def nbytes(self) -> int:
        """Resident footprint once the ``Ψ`` block is built.

        Includes the dense block whenever it is *eligible* for residency —
        even before first use — so the figure does not depend on whether a
        decode has run yet (an adopted packed block, 1/32 of it, is not
        counted beside it).  The entries count at the width held: narrow
        for a store attach until a first read of ``design.entries`` widens
        them (no decoder's compile or decode does).  A size read: it runs
        no pending entries check.
        """
        entries = self.design._entries  # the held array's size; never checked or widened here
        base = entries.nbytes + self.design.indptr.nbytes + self.dstar.nbytes + self.delta.nbytes
        return base + (self.block_bytes if self.block_resident else 0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompiledDesign(n={self.n}, m={self.m}, gamma={self.gamma}, scheme={self.key.scheme!r}, nbytes={self.nbytes})"

    # -- decode-side primitives -----------------------------------------------

    def incidence_block(self) -> "np.ndarray | None":
        """The ``(m, n)`` distinct-incidence block, materialised once.

        Always float32 (:attr:`block_dtype`).  Unpacked from the adopted
        bits when the store supplied them (:meth:`adopt_packed_block`),
        else scattered from the entries.  ``None`` when the block exceeds
        :data:`BLOCK_RESIDENCY_LIMIT` — the ``psi`` path then recomputes
        chunked scatters per call instead.
        """
        if not self.block_resident:
            return None
        if self._block is None:
            # Locked: concurrent first decodes against a shared artifact must
            # not each build (and briefly double-hold) the up-to-256MB block.
            with self._block_lock:
                if self._block is None:
                    if self._packed is not None:
                        block = _unpack_block(self._packed, self.m, self.n)
                        self._packed = None
                    else:
                        block = np.zeros((self.m, self.n), dtype=self.block_dtype)
                        block.reshape(-1)[self.design.incidence_cells(0, self.m)] = 1.0
                    block.setflags(write=False)
                    self._block = block
        return self._block

    def counts_block(self) -> "np.ndarray | None":
        """The ``(m, n)`` dense **count** matrix, materialised once.

        Pools sample *with replacement*, so an item can appear several
        times in one pool; this block keeps those multiplicities, unlike
        :meth:`incidence_block` which collapses duplicates to 0/1.  The
        compressed-sensing baselines (LP/OMP/AMP) decode against counts —
        value-identical to :meth:`PoolingDesign.dense_counts
        <repro.core.design.PoolingDesign.dense_counts>` (counts are small
        integers, exact in float64).  Always float64: centred
        arithmetic downstream is float, and the counts block is a
        baseline-decoder artifact, not a ``Ψ`` operand.

        ``None`` when an ``(m, n)`` float64 block would exceed
        :data:`BLOCK_RESIDENCY_LIMIT` — callers must fall back to (or
        refuse) the materialised path explicitly.  Built row chunk by row
        chunk, so no whole-block index or int64 copy is held beside it.
        """
        if np.dtype(np.float64).itemsize * self.m * self.n > BLOCK_RESIDENCY_LIMIT:
            return None
        if self._counts is None:
            with self._block_lock:
                if self._counts is None:
                    counts = np.empty((self.m, self.n), dtype=np.float64)
                    for rows in _row_chunks(self.m, self.n):
                        cells = self.design.incidence_cells(rows.start, rows.stop)
                        counts[rows] = np.bincount(cells, minlength=counts[rows].size).reshape(-1, self.n)
                    counts.setflags(write=False)
                    self._counts = counts
        return self._counts

    def adopt_packed_block(self, packed: np.ndarray) -> None:
        """Adopt the ``Ψ`` block in its bit-packed form (:func:`_pack_block`).

        The store (:mod:`repro.designs.store`) persists the ``(m, n)``
        incidence block bit-packed with each entry; an attach hands the
        verified bits over here, and the first :meth:`incidence_block`
        unpacks them instead of scattering the entries.  A design whose
        decoders never read the ``Ψ`` block (LP/OMP/AMP) never holds it.
        The block's content is defined entirely by the design, so adopting
        a persisted block can never change a decode — only skip its
        materialisation.
        """
        _check_packed_block(packed, self.m, self.n)
        if not self.block_resident:
            raise ValueError("design exceeds the block residency budget; nothing should adopt a block for it")
        with self._block_lock:
            if self._block is None:
                self._packed = packed

    def psi(self, y: np.ndarray, *, kernel: "str | None" = None) -> np.ndarray:
        """``Ψ`` for ``(m,)`` or ``(B, m)`` results — one GEMM against the block.

        Bit-identical to :meth:`PoolingDesign.psi` under every kernel: the
        float32 GEMM runs only while every row's ``Σ|y_b|`` is under the
        2²³ budget, so all its partial sums are exact integers and
        accumulation order cannot matter; any other batch takes the exact
        ``design.psi`` path through ``kernel``.
        """
        y = np.asarray(y, dtype=np.int64)
        y2 = y[None, :] if y.ndim == 1 else y
        if y2.ndim != 2 or y2.shape[1] != self.m or y2.shape[0] < 1:
            raise ValueError(f"y must have shape (m={self.m},) or (B, m={self.m})")
        block = self.incidence_block()
        if block is None or (self.m and float(np.abs(y2).sum(axis=1, dtype=np.float64).max()) >= _EXACT_LIMIT32):
            psi = self.design.psi(y2, kernel=kernel)
        else:
            psi = (y2.astype(block.dtype) @ block).astype(np.int64)
        return psi if y.ndim == 2 else psi[0]

    def query_results(self, sigma: np.ndarray) -> np.ndarray:
        """Additive results for one signal or a batch (simulation side)."""
        return self.design.query_results(sigma)

    def pools(self) -> "list[np.ndarray]":
        """The pool batch to submit to an oracle (one array per query)."""
        return [self.design.pool(j) for j in range(self.m)]

    def stats_for(self, y: np.ndarray, *, kernel: "str | None" = None) -> DesignStats:
        """:class:`DesignStats` for observed results — no streaming, no scatter.

        The decode-only hot path: ``Ψ`` from the resident block, ``Δ*``/``Δ``
        precompiled.  ``y`` may be ``(m,)`` or ``(B, m)`` counts; a float
        that is not one raises (:func:`~repro.util.validation.check_counts`).
        ``kernel`` runs :meth:`psi`'s exact fallback.  ``Ψ``/``Δ*`` equal
        :meth:`PoolingDesign.stats_for` on the same design.
        """
        y = check_counts(y, "y")
        return DesignStats(
            y=y,
            psi=self.psi(y, kernel=kernel),
            dstar=self.dstar,
            delta=self.delta,
            n=self.n,
            m=self.m,
            gamma=self.gamma,
        )


def _row_chunks(m: int, n: int) -> "Iterator[slice]":
    """Row slices of an ``(m, n)`` block, ~``_ROW_CHUNK_CELLS`` cells each."""
    rows = max(1, _ROW_CHUNK_CELLS // max(n, 1))
    for lo in range(0, m, rows):
        yield slice(lo, min(m, lo + rows))


def _pack_block(block: np.ndarray) -> np.ndarray:
    """The 0/1 ``(m, n)`` block bit-packed along rows: uint8 ``(m, ceil(n/8))``."""
    m, n = block.shape
    packed = np.empty((m, (n + 7) // 8), dtype=np.uint8)
    for rows in _row_chunks(m, n):
        packed[rows] = np.packbits(block[rows] != 0, axis=1)
    return packed


def _check_packed_block(packed: np.ndarray, m: int, n: int) -> None:
    """Raise ``ValueError`` unless ``packed`` has the shape ``_pack_block`` gives ``(m, n)``."""
    if packed.dtype != np.uint8 or packed.shape != (m, (n + 7) // 8):
        raise ValueError(f"packed block must be ({m}, {(n + 7) // 8}) uint8, got {packed.dtype} {packed.shape}")


def _unpack_block(packed: np.ndarray, m: int, n: int) -> np.ndarray:
    """The float32 ``(m, n)`` block a :func:`_pack_block` array holds.

    Unpacks row chunk by row chunk into one preallocated block, so no
    whole-block uint8 temporary is ever held beside it.
    """
    block = np.empty((m, n), dtype=CompiledDesign.block_dtype)
    for rows in _row_chunks(m, n):
        block[rows] = np.unpackbits(packed[rows], axis=1, count=n)
    return block


def _stream_entries(key: DesignKey) -> np.ndarray:
    """Regenerate a streamed key's flat edge list, batch-keyed like the stream path."""
    family = StreamFamily(key.root_seed)
    gamma = int(key.gamma)
    parts = []
    for b in range(chunk_count(key.m, key.batch_queries)):
        lo = b * key.batch_queries
        hi = min(key.m, lo + key.batch_queries)
        # Row-major fill: identical draw sequence to the stream path's
        # (hi - lo, gamma)-shaped batches, flattened.
        parts.append(family.generator(*key.trial_key, b).integers(0, key.n, size=(hi - lo) * gamma, dtype=np.int64))
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def compile_design(design: PoolingDesign, *, key: "DesignKey | None" = None) -> CompiledDesign:
    """Compile a materialised design (content-addressed unless ``key`` is given)."""
    return CompiledDesign(design, key=key if key is not None else DesignKey.for_content(design))


def resolve_compiled(
    design: "CompiledDesign | PoolingDesign | DesignKey",
    *,
    store: "DesignStore | None" = None,
) -> CompiledDesign:
    """Resolve a key or a design into the artifact a ``Decoder.compile`` binds.

    The one layered front door (**store → compile**): the serve pool
    resolves each key it admits here, and so does every core entry point
    taking ``design=``/``store=``.  A ready :class:`CompiledDesign` passes
    through, a :class:`DesignKey` regenerates via :func:`compile_from_key`,
    and a materialised :class:`~repro.core.design.PoolingDesign` compiles
    content-addressed via :func:`compile_design`.  ``store`` resolves
    through the ambient ``REPRO_DESIGN_STORE``; with a store, a hit
    mmap-attaches and a miss compiles once machine-wide and publishes.
    """
    if isinstance(design, CompiledDesign):
        return design
    from repro.designs.store import resolve_design_store

    if isinstance(design, DesignKey):
        key = design
    elif isinstance(design, PoolingDesign):
        key = DesignKey.for_content(design)
    else:
        raise TypeError(f"cannot compile a {type(design).__name__}; expected CompiledDesign, PoolingDesign or DesignKey")

    def factory() -> CompiledDesign:
        # A bare call through the module global keeps the regeneration one
        # patchable, traceable seam whichever layer asked for it.
        return compile_from_key(key) if isinstance(design, DesignKey) else compile_design(design, key=key)

    store_obj = resolve_design_store(store)
    return factory() if store_obj is None else store_obj.get_or_compile(key, factory)


def compile_from_key(key: DesignKey) -> CompiledDesign:
    """Regenerate and compile the design a :class:`DesignKey` addresses.

    Supports the ``stream`` scheme (batch-keyed regeneration, exactly the
    edges :func:`~repro.core.design.stream_design_stats` would draw) and the
    ``sampled`` scheme (grid-point designs drawn whole from a keyed
    generator).  ``content`` keys address data that only ever existed
    materialised — compile those via :func:`compile_design`.  A pure
    compile: :func:`resolve_compiled` layers the store lookup over it.
    """
    return CompiledDesign(_design_from_key(key), key=key)


#: Key schemes whose design :func:`_design_from_key` draws from the key
#: alone; the store defers and heals the entries check of these only.
_REGENERABLE_SCHEMES = ("stream", "sampled")


def _design_from_key(key: DesignKey) -> PoolingDesign:
    """Draw the design a ``stream`` or ``sampled`` key addresses; ``ValueError`` for any other.

    The one regeneration step: :func:`compile_from_key` compiles it, and
    a store attach whose deferred entries check fails heals its entries
    from it (:mod:`repro.designs.store`).
    """
    if key.scheme == "stream":
        indptr = np.arange(key.m + 1, dtype=np.int64) * int(key.gamma)
        # Every draw is integers(0, n): the bound is known, no scan needed.
        return PoolingDesign._with_range(key.n, _stream_entries(key), indptr, (0, key.n - 1))
    if key.scheme == "sampled":
        _, tag, index = key.trial_key
        rng = batch_generator(key.root_seed, int(tag), int(index))
        return PoolingDesign.sample(key.n, key.m, rng, gamma=int(key.gamma))
    raise ValueError(f"cannot regenerate a {key.scheme!r}-scheme design from its key; compile the materialised design instead")
