"""The random regular pooling design ``G(n, m, Γ)`` and its statistics.

Model (paper §II): a bipartite multigraph with ``m`` query-nodes and ``n``
entry-nodes.  Every query contains exactly ``Γ = n/2`` entries drawn
uniformly **with replacement**; an entry drawn twice contributes its value
twice to that query's result.  The additive query result is
``y_j = Σ_{draws i of query j} σ(i)``.

Two execution paths are provided:

* :class:`PoolingDesign` — the design *materialised* as a flat edge list
  (CSR layout over queries).  Needed by decoders that require the actual
  biadjacency matrix (exhaustive/LP/OMP/AMP) and by the Fig. 1 example.
* :func:`stream_design_stats` — computes everything the MN decoder needs
  (``y, Ψ, Δ, Δ*``) in fixed-size query batches without ever holding the
  graph, optionally fanned out over any
  :class:`~repro.engine.backend.Backend`.  Batches are keyed by
  logical batch index, so for a fixed batch size the result is
  bit-identical for any worker count — the library's central
  reproducibility invariant.

Batch-axis conventions (the :mod:`repro.engine` layer)
------------------------------------------------------

One sampled design is a *first-stage* structure reusable across many
*second-stage* signals.  Everything per-signal therefore optionally grows a
leading batch axis ``B`` while everything design-only stays 1-D:

========  ==============  ====================
quantity  single-signal    batched (``B`` signals)
========  ==============  ====================
``σ``     ``(n,)``        ``(B, n)``
``y``     ``(m,)``        ``(B, m)``
``Ψ``     ``(n,)``        ``(B, n)``
``Δ, Δ*`` ``(n,)``        ``(n,)`` (shared)
========  ==============  ====================

:meth:`PoolingDesign.query_results`, :meth:`PoolingDesign.psi`,
:meth:`PoolingDesign.stats` and :class:`DesignStats` all accept either
form; the single-signal form is exactly the ``B=1`` slice of the batched
one, bit for bit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.kernels import dispatch as dispatch_kernel
from repro.kernels import resolve_kernel
from repro.kernels.dense import row_cells
from repro.parallel.partition import chunk_count
from repro.parallel.sharedmem import SharedArray, SharedArrayDescriptor
from repro.rng.streams import StreamFamily
from repro.util.validation import check_binary_batch, check_binary_signal, check_counts, check_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine builds on core)
    from repro.designs.compiled import CompiledDesign
    from repro.designs.store import DesignStore
    from repro.engine.backend import Backend
    from repro.noise.models import NoiseModel

__all__ = ["PoolingDesign", "DesignStats", "stream_design_stats", "default_gamma", "DEFAULT_BATCH_QUERIES"]

#: Default streaming batch size.  Part of the design key: changing it draws a
#: different (identically distributed) design, whatever the backend.
DEFAULT_BATCH_QUERIES = 256


def default_gamma(n: int) -> int:
    """The paper's pool size ``Γ = n/2`` (floor for odd ``n``)."""
    n = check_positive_int(n, "n")
    if n < 2:
        raise ValueError("n must be >= 2 for a non-empty pool")
    return n // 2


@dataclass(frozen=True)
class DesignStats:
    """Everything Algorithm 1 consumes, plus bookkeeping.

    Attributes
    ----------
    y:
        Query results, multiplicities counted: ``(m,)`` for one signal or
        ``(B, m)`` for a batch of ``B`` signals sharing the design.
    psi:
        ``Ψ_i`` — sum of results over *distinct* queries containing ``i``;
        ``(n,)`` or ``(B, n)`` matching ``y``.
    dstar:
        ``Δ*_i`` — number of distinct queries containing ``i``.  Always
        ``(n,)``: a property of the design, shared across the batch.
    delta:
        ``Δ_i`` — number of query slots occupied by ``i`` (with
        multiplicity), ``(n,)``; ``None`` when not computed (the MN
        decode reads only ``psi`` and ``dstar``).  Readers of ``Δ`` go
        through :meth:`require_delta`.
    n, m, gamma:
        Model parameters.  ``gamma`` is the integer ``Γ`` for regular
        designs and the exact mean pool size ``entries.size / m`` (a
        float) for ragged hand-built ones.
    """

    y: np.ndarray
    psi: np.ndarray
    dstar: np.ndarray
    delta: "np.ndarray | None"
    n: int
    m: int
    gamma: "int | float"

    def __post_init__(self) -> None:
        if self.y.ndim == 2:
            b = self.y.shape[0]
            if b < 1:
                raise ValueError("batched y must hold at least one signal")
            if self.y.shape != (b, self.m):
                raise ValueError("batched y must have shape (B, m)")
            if self.psi.shape != (b, self.n):
                raise ValueError("batched psi must have shape (B, n)")
        else:
            if self.y.shape != (self.m,):
                raise ValueError("y must have length m")
            if self.psi.shape != (self.n,):
                raise ValueError("psi must have length n")
        if self.dstar.shape != (self.n,):
            raise ValueError("dstar must have length n")
        if self.delta is not None and self.delta.shape != (self.n,):
            raise ValueError("delta must have length n")

    def require_delta(self, caller: str) -> np.ndarray:
        """``Δ``, or a ``ValueError`` naming ``caller`` when it was not computed."""
        if self.delta is None:
            raise ValueError(f"{caller} needs Δ (stats.delta), which these stats did not compute")
        return self.delta

    @property
    def batch(self) -> "int | None":
        """Batch size ``B``, or ``None`` for single-signal stats."""
        return int(self.y.shape[0]) if self.y.ndim == 2 else None

    def signal(self, b: int) -> "DesignStats":
        """The single-signal view of batch member ``b``."""
        if self.batch is None:
            raise ValueError("stats are not batched")
        if not (0 <= b < self.batch):
            raise IndexError(f"batch index {b} out of range for B={self.batch}")
        return DesignStats(
            y=self.y[b],
            psi=self.psi[b],
            dstar=self.dstar,
            delta=self.delta,
            n=self.n,
            m=self.m,
            gamma=self.gamma,
        )


#: Serialises the one-time widening of narrow entries (:attr:`PoolingDesign.entries`).
_WIDEN_LOCK = threading.Lock()


class PoolingDesign:
    """A materialised pooling design (CSR layout over queries).

    Supports both the regular model (every query has ``Γ`` draws) and
    ragged hand-built designs such as the paper's Fig. 1 example.

    Parameters
    ----------
    n:
        Signal length.
    entries:
        Flat entry indices, query ``j`` owning ``entries[indptr[j]:indptr[j+1]]``.
        A narrower integer array (such as the int16 entries a store attach
        maps) is held as given and widened to int64 on the first read of
        :attr:`entries`.
    indptr:
        Query pointer array of length ``m+1``.
    """

    def __init__(self, n: int, entries: np.ndarray, indptr: np.ndarray):
        self._setup(n, entries, indptr, None)

    @classmethod
    def _with_range(cls, n: int, entries: np.ndarray, indptr: np.ndarray, entry_range: "tuple[int, int]") -> "PoolingDesign":
        """Build from ``entries`` whose values are known to lie in ``[lo, hi]``.

        The range check runs on ``entry_range`` instead of a scan of
        ``entries``: an out-of-range bound raises exactly as the public
        constructor does.  For callers that already hold the bound — the
        store's verify pass, which observed it while hashing the file, and
        :meth:`sample`, whose draws are ``integers(0, n)``.
        """
        design = cls.__new__(cls)
        design._setup(n, entries, indptr, entry_range)
        return design

    def _setup(self, n: int, entries: np.ndarray, indptr: np.ndarray, entry_range: "tuple[int, int] | None") -> None:
        self.n = check_positive_int(n, "n")
        narrow = isinstance(entries, np.ndarray) and entries.dtype.kind in "iu" and entries.dtype.itemsize < 8
        # The checks below read sizes and bounds only, never the widened copy.
        self._entries = entries if narrow else np.asarray(entries, dtype=np.int64)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        if self.indptr.ndim != 1 or self.indptr.size < 1 or self.indptr[0] != 0:
            raise ValueError("indptr must be 1-D starting at 0")
        if np.any(np.diff(self.indptr) < 0) or self.indptr[-1] != self._entries.size:
            raise ValueError("indptr inconsistent with entries")
        if self._entries.size:
            lo, hi = (self._entries.min(), self._entries.max()) if entry_range is None else entry_range
            if lo < 0 or hi >= n:
                raise ValueError("entry index out of range")
        self._distinct_cache: "tuple[np.ndarray, np.ndarray] | None" = None
        self._entry_groups_cache: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None
        self._dstar_cache: "np.ndarray | None" = None

    @property
    def entries(self) -> np.ndarray:
        """The flat entry indices as int64.

        A narrow array given to the constructor is widened here once, on
        the first read, and the int64 copy replaces it; concurrent first
        reads build one copy.  :attr:`mean_pool_size`, the constructor's
        checks and :meth:`incidence_cells` (so the dense blocks built from
        it) read the held array and never widen.
        """
        entries = self._entries
        if entries.dtype != np.int64:
            with _WIDEN_LOCK:
                entries = self._entries
                if entries.dtype != np.int64:
                    entries = self._entries = entries.astype(np.int64)
        return entries

    # -- constructors ---------------------------------------------------------

    @classmethod
    def sample(cls, n: int, m: int, rng: np.random.Generator, gamma: Optional[int] = None) -> "PoolingDesign":
        """Draw the paper's random regular design: ``m`` pools of ``Γ`` draws."""
        n = check_positive_int(n, "n")
        m = check_positive_int(m, "m")
        gamma = default_gamma(n) if gamma is None else check_positive_int(gamma, "gamma")
        entries = rng.integers(0, n, size=m * gamma, dtype=np.int64)
        indptr = np.arange(m + 1, dtype=np.int64) * gamma
        return cls._with_range(n, entries, indptr, (0, n - 1))

    @classmethod
    def from_pools(cls, n: int, pools: Sequence[Sequence[int]]) -> "PoolingDesign":
        """Build from explicit (possibly ragged, possibly multiset) pools."""
        arrays = [np.asarray(p, dtype=np.int64) for p in pools]
        for a in arrays:
            if a.ndim != 1:
                raise ValueError("each pool must be a flat index sequence")
        entries = np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
        indptr = np.concatenate(([0], np.cumsum([a.size for a in arrays]))).astype(np.int64)
        return cls(n, entries, indptr)

    @classmethod
    def fig1_example(cls) -> "tuple[PoolingDesign, np.ndarray]":
        """The worked example of the paper's Fig. 1.

        Returns ``(design, sigma)`` with ``σ = (1,1,0,0,1,0,0)`` and query
        results ``(2, 2, 3, 1, 1)``.  The paper's figure does not list the
        edge set explicitly; this is one instance consistent with the shown
        results, including a multi-edge (query 5 contains entry 7 twice).
        """
        sigma = np.array([1, 1, 0, 0, 1, 0, 0], dtype=np.int8)
        pools = [
            [0, 1, 2],        # a1: x1,x2,x3        -> 2
            [1, 4, 5],        # a2: x2,x5,x6        -> 2
            [0, 1, 4, 6],     # a3: x1,x2,x5,x7     -> 3
            [3, 4, 5],        # a4: x4,x5,x6        -> 1
            [6, 6, 0],        # a5: x7 (twice), x1  -> 1 (multi-edge)
        ]
        return cls.from_pools(7, pools), sigma

    # -- basic properties ------------------------------------------------------

    @property
    def m(self) -> int:
        """Number of queries."""
        return self.indptr.size - 1

    @property
    def gamma(self) -> int:
        """Pool size for regular designs; raises for ragged ones."""
        sizes = np.diff(self.indptr)
        if sizes.size == 0:
            raise ValueError("empty design has no pool size")
        g = int(sizes[0])
        if not np.all(sizes == g):
            raise ValueError("design is ragged; per-query sizes differ")
        return g

    @property
    def mean_pool_size(self) -> "int | float":
        """Exact mean pool size ``entries.size / m`` — defined for ragged designs too.

        Equals :attr:`gamma` exactly for regular designs (an ``int``); the
        canonical per-design scale for statistics (``DesignStats.gamma``)
        that must not depend on an arbitrary single pool.  Kept exact (not
        floored) because consumers like ``estimate_k`` scale by ``n / Γ``,
        where flooring would bias the estimate upward on ragged designs.
        """
        if not self.m:
            return 0
        mean = self._entries.size / self.m
        return int(mean) if mean.is_integer() else mean

    def pool(self, j: int) -> np.ndarray:
        """The multiset of entries in query ``j`` (with multiplicity)."""
        if not (0 <= j < self.m):
            raise IndexError(f"query index {j} out of range")
        return self.entries[self.indptr[j] : self.indptr[j + 1]].copy()

    # -- queries ------------------------------------------------------------------

    def query_results(self, sigma: np.ndarray, *, kernel: "str | None" = None) -> np.ndarray:
        """Additive results ``y``; multiplicities counted (paper §II).

        ``sigma`` may be one signal ``(n,)`` (returns ``(m,)``) or a batch
        ``(B, n)`` sharing this design (returns ``(B, m)``); row ``b`` of
        the batched result is bit-identical to the single-signal call on
        ``sigma[b]``.  The batch validates once and evaluates through the
        selected kernel (see :mod:`repro.kernels`): the dense kernel runs
        chunked whole-batch gathers, the legacy one a per-row loop — both
        bit-identical.
        """
        sigma = np.asarray(sigma)
        if sigma.ndim == 2:
            batch = check_binary_batch(sigma, length=self.n)
            return dispatch_kernel(kernel).query_results_batch(self, batch)
        return self._query_results_kernel(check_binary_signal(sigma, length=self.n))

    def _query_results_kernel(self, sigma: np.ndarray) -> np.ndarray:
        """Segment-sum of one validated ``int8`` signal over the pools."""
        hits = sigma[self.entries].astype(np.int64)
        out = np.zeros(self.m, dtype=np.int64)
        lens = np.diff(self.indptr)
        nonempty = lens > 0
        if hits.size:
            out[nonempty] = np.add.reduceat(hits, self.indptr[:-1][nonempty])
        return out

    # -- matrices -------------------------------------------------------------------

    def dense_counts(self) -> np.ndarray:
        """Dense biadjacency *count* matrix ``A`` (queries × entries), ``A_ij = #draws``.

        A fresh ``(m, n)`` int64 array; the unweighted biadjacency is
        ``A > 0``.  Holds ``m·n`` cells, so callers guard its size.
        """
        flat = np.bincount(self.incidence_cells(0, self.m), minlength=self.m * self.n)
        return flat.astype(np.int64, copy=False).reshape(self.m, self.n)

    def incidence_cells(self, lo: int, hi: int) -> np.ndarray:
        """Flat cell ``(j − lo)·n + i`` of every draw ``i`` of queries ``lo ≤ j < hi``.

        Indexes the row-major ``(hi − lo, n)`` block of those queries, so
        ``block.reshape(-1)[cells] = 1`` marks the distinct incidence in one
        flat scatter and a ``bincount`` gives the counts.  The dtype is
        intp, which fancy indexing consumes natively; a narrower index
        would be cast to intp first, costing more than it saves.  Reads
        the held entries, so narrow ones are not widened.
        """
        draws = self._entries[int(self.indptr[lo]) : int(self.indptr[hi])]
        return row_cells(self.indptr, lo, hi, self.n, draws, np.intp)

    # -- neighbourhood statistics ------------------------------------------------------

    def _distinct_pairs(self) -> "tuple[np.ndarray, np.ndarray]":
        """Deduplicated ``(query, entry)`` incidence pairs, cached.

        Pairs come out in ``(query, entry)``-ascending order.  The backing
        structure of the *legacy* kernel's :meth:`dstar` and :meth:`psi`
        paths — reused across every signal of a batch, which is where the
        batched engine's first-stage amortisation comes from.  The dense
        kernel never materialises pairs; it scatters into incidence
        blocks instead (:mod:`repro.kernels.dense`).

        Regular designs dedup with a per-pool sort (``m`` small sorts of
        ``Γ``), which is several times faster than the ragged fallback's
        global sort over all ``m·Γ`` linearised pairs; both yield the same
        pair sequence.
        """
        if self._distinct_cache is None:
            sizes = np.diff(self.indptr)
            if sizes.size and np.all(sizes == sizes[0]) and sizes[0] > 0:
                pools_sorted = np.sort(self.entries.reshape(self.m, int(sizes[0])), axis=1)
                first = np.empty(pools_sorted.shape, dtype=bool)
                first[:, 0] = True
                first[:, 1:] = pools_sorted[:, 1:] != pools_sorted[:, :-1]
                self._distinct_cache = (np.nonzero(first)[0].astype(np.int64), pools_sorted[first])
            else:
                rows = np.repeat(np.arange(self.m, dtype=np.int64), sizes)
                distinct = np.unique(rows * self.n + self.entries)
                self._distinct_cache = (distinct // self.n, distinct % self.n)
        return self._distinct_cache

    def delta(self) -> np.ndarray:
        """``Δ_i``: number of occupied query slots per entry (multiplicity)."""
        return np.bincount(self.entries, minlength=self.n).astype(np.int64)

    def dstar(self, *, kernel: "str | None" = None) -> np.ndarray:
        """``Δ*_i``: number of *distinct* queries containing each entry.

        A property of the design, computed once through the selected
        kernel and cached; callers must treat the returned array as
        read-only.  Both kernels produce bit-identical counts, so the
        cache is kernel-agnostic.
        """
        if self._dstar_cache is None:
            self._dstar_cache = dispatch_kernel(kernel).materialised_dstar(self)
        return self._dstar_cache

    def psi(self, y: np.ndarray, *, kernel: "str | None" = None) -> np.ndarray:
        """``Ψ_i = Σ_{j ∈ ∂*x_i} y_j`` — distinct queries counted once.

        ``y`` may be ``(m,)`` (returns ``(n,)``) or a batch ``(B, m)``
        (returns ``(B, n)``).  The dense kernel computes all rows in one
        chunked GEMM against the scattered incidence block (and fills the
        ``Δ*`` cache from the same pass); the legacy kernel reuses the
        sort-deduplicated pair list per row.  Accumulation is
        integer-exact under both kernels.
        """
        y = np.asarray(y, dtype=np.int64)
        if y.ndim == 2:
            if y.shape[1] != self.m or y.shape[0] < 1:
                raise ValueError(f"batched y must have shape (B, m={self.m})")
            y2 = y
        else:
            if y.shape != (self.m,):
                raise ValueError(f"y must have length m={self.m}")
            y2 = y[None, :]
        psi, dstar = dispatch_kernel(kernel).materialised_psi(self, y2, with_dstar=self._dstar_cache is None)
        if dstar is not None:
            self._dstar_cache = dstar
        return psi if y.ndim == 2 else psi[0]

    def stats(self, sigma: np.ndarray, *, kernel: "str | None" = None) -> DesignStats:
        """All MN inputs computed from the materialised design.

        ``sigma`` may be one signal ``(n,)`` or a batch ``(B, n)``; the
        batched form evaluates all ``B`` signals against this one design
        (``y``/``psi`` gain a leading batch axis, ``dstar``/``delta`` stay
        shared).  ``kernel`` selects the execution kernel
        (:mod:`repro.kernels`); the result is bit-identical either way.
        ``y``, ``Ψ`` and ``Δ*`` come from the kernel's ``materialised_stats``
        (one walk over the draws under the dense kernels).
        """
        sigma = np.asarray(sigma)
        if sigma.ndim == 2:
            batch = check_binary_batch(sigma, length=self.n)
        else:
            batch = check_binary_signal(sigma, length=self.n)[None, :]
        y, psi, dstar = dispatch_kernel(kernel).materialised_stats(self, batch)
        if self._dstar_cache is None:
            self._dstar_cache = dstar
        if sigma.ndim != 2:
            y, psi = y[0], psi[0]
        return DesignStats(
            y=y,
            psi=psi,
            dstar=self._dstar_cache,
            delta=self.delta(),
            n=self.n,
            m=self.m,
            gamma=self.mean_pool_size,
        )

    def stats_for(self, y: np.ndarray, *, kernel: "str | None" = None) -> DesignStats:
        """MN inputs for observed results ``y`` (``(m,)`` or ``(B, m)``).

        The materialised twin of
        :meth:`~repro.designs.compiled.CompiledDesign.stats_for`: ``Ψ``
        and ``Δ*`` through the selected kernel, and no ``Δ`` (the MN decode
        reads only ``Ψ`` and ``Δ*``).  Both forms give equal statistics,
        and both refuse a float ``y`` that is not a count
        (:func:`~repro.util.validation.check_counts`).
        """
        y = check_counts(y, "y")
        return DesignStats(
            y=y,
            psi=self.psi(y, kernel=kernel),
            dstar=self.dstar(kernel=kernel),
            delta=None,
            n=self.n,
            m=self.m,
            gamma=self.mean_pool_size,
        )


# -- streaming path ------------------------------------------------------------------


def _stream_task(payload, cache):
    """Worker task: generate and evaluate one batch of queries.

    The ground truth crosses the process boundary once via shared memory;
    the batch RNG (and the optional corruption RNG) are derived from
    logical indices only.  The kernel name travels with the payload so
    workers execute the same kernel the parent resolved; each worker
    caches one reusable kernel workspace.
    """
    (batch_idx, lo, hi, n, gamma, root_seed, trial_key, sigma_desc, noise, kernel_name) = payload
    if sigma_desc.name not in cache:
        cache[sigma_desc.name] = SharedArray.attach(sigma_desc)
    sigma = cache[sigma_desc.name].array
    kern = dispatch_kernel(kernel_name)
    ws_key = ("stream-workspace", kernel_name)
    if ws_key not in cache:
        cache[ws_key] = kern.make_stream_workspace()
    rng = StreamFamily(root_seed).generator(*trial_key, batch_idx)
    edges = rng.integers(0, n, size=(hi - lo, gamma), dtype=np.int64)
    noise_rng = _stream_noise_rng(root_seed, trial_key, batch_idx) if noise is not None else None
    psi = np.zeros(n, dtype=np.int64)
    dstar = np.zeros(n, dtype=np.int64)
    delta = np.zeros(n, dtype=np.int64)
    y = kern.stream_batch(edges, sigma, n, noise, noise_rng, psi, dstar, delta, cache[ws_key])
    return (lo, y, psi, dstar, delta)


def _stream_noise_rng(root_seed: int, trial_key: "tuple[int, ...]", batch_idx: int) -> np.random.Generator:
    """Corruption stream of one logical query batch of the streaming path."""
    from repro.noise.channel import NOISE_STREAM_TAG
    from repro.rng.streams import batch_generator

    return batch_generator(root_seed, NOISE_STREAM_TAG, *trial_key, batch_idx)


def stream_design_stats(
    sigma: np.ndarray,
    m: int,
    *,
    root_seed: int,
    trial_key: "tuple[int, ...]" = (),
    gamma: Optional[int] = None,
    batch_queries: int = DEFAULT_BATCH_QUERIES,
    backend: "Backend | None" = None,
    noise: "NoiseModel | None" = None,
    design: "CompiledDesign | None" = None,
    store: "DesignStore | None" = None,
) -> DesignStats:
    """Simulate ``m`` parallel queries and accumulate MN statistics.

    The design is *not* materialised: each fixed-size batch of queries is
    generated from a generator keyed by ``(root_seed, *trial_key, batch)``,
    evaluated, folded into ``Ψ/Δ*/Δ`` and discarded.  Passing a backend
    with ``workers > 1`` distributes batches; output is bit-identical to
    the serial path because accumulation happens in batch order in the
    parent.

    With ``design=`` (a :class:`~repro.designs.compiled.CompiledDesign`
    whose key matches this call) or a ``store=`` hit, streaming is skipped
    entirely: results come from the compiled artifact, ``Δ*``/``Δ`` are
    precompiled and ``Ψ`` is one GEMM — bit-identical to the streamed
    statistics, noise included.  On a store miss the streamed design is
    compiled and published, so the *next* call with this key is free.

    Parameters
    ----------
    sigma:
        Ground-truth signal.
    m:
        Number of parallel queries.
    root_seed, trial_key:
        Logical stream key; the same key always regenerates the same design.
    gamma:
        Pool size (default ``n // 2``).
    batch_queries:
        Queries per batch (default :data:`DEFAULT_BATCH_QUERIES`).  Part of
        the *design key*: different batch sizes draw different (identically
        distributed) designs, because streams are keyed per batch.  For a
        fixed batch size, results never depend on the worker count.
    backend:
        Where the work runs (see :class:`~repro.engine.backend.Backend`;
        default: inline).  Its ``kernel`` field picks the execution kernel
        for the per-batch statistics (:mod:`repro.kernels`), then
        ``REPRO_KERNEL``, then ``"dense"`` — a pure performance choice,
        since kernels are bit-identical on the same sampled edges.
    noise:
        Optional :class:`~repro.noise.models.NoiseModel`: each batch of
        results is corrupted before its Ψ contribution is folded in, using
        a stream keyed ``(root_seed, NOISE_STREAM_TAG, *trial_key, batch)``
        — so like the design itself, the noisy statistics depend on
        ``batch_queries`` but never on the worker count.  ``None`` is the
        exact channel, bit-identical to the historical behaviour.
    design:
        An explicit compiled design to decode against.  Its key must match
        this call's ``(n, m, gamma, root_seed, trial_key, batch_queries)``
        — a mismatch raises rather than silently computing statistics for
        a different design.
    store:
        A :class:`~repro.designs.store.DesignStore` (or ``None`` to use
        the ambient ``REPRO_DESIGN_STORE`` configuration).  A store hit
        mmap-attaches the persisted artifact; a miss streams once and
        publishes, so later calls — in this process or any other — with
        this key decode warm.  Bit-identical either way — the store only
        ever skips work.
    """
    from repro.designs.store import resolve_design_store
    from repro.engine.backend import resolved_backend

    sigma = check_binary_signal(sigma)
    n = sigma.shape[0]
    m = check_positive_int(m, "m")
    gamma = default_gamma(n) if gamma is None else check_positive_int(gamma, "gamma")
    batch_queries = check_positive_int(batch_queries, "batch_queries")

    with resolved_backend(backend) as exec_backend:
        key = None
        store_obj = resolve_design_store(store)
        compiled = design
        if design is not None or store_obj is not None:
            from repro.designs.compiled import DesignKey

            key = DesignKey.for_stream(
                n, m, root_seed=root_seed, trial_key=tuple(trial_key), gamma=gamma, batch_queries=batch_queries
            )
            if design is not None:
                if design.key != key:
                    raise ValueError(f"design= key {design.key} does not match this call's key {key}")
            else:
                compiled = store_obj.get(key)
        if compiled is not None:
            return _stats_from_compiled(compiled, sigma, noise, root_seed, tuple(trial_key), batch_queries, gamma)

        batches = []
        for b in range(chunk_count(m, batch_queries)):
            lo = b * batch_queries
            hi = min(m, lo + batch_queries)
            batches.append((b, lo, hi))

        # The backend's kernel resolves through REPRO_KERNEL / the library
        # default.  Resolve to a concrete name here so worker processes never
        # consult their own environment.
        kernel_name = resolve_kernel(getattr(exec_backend, "kernel", None))
        kern = dispatch_kernel(kernel_name)

        y = np.zeros(m, dtype=np.int64)
        psi = np.zeros(n, dtype=np.int64)
        dstar = np.zeros(n, dtype=np.int64)
        delta = np.zeros(n, dtype=np.int64)

        collected: "list[np.ndarray] | None" = [] if store_obj is not None and exec_backend.workers == 1 else None
        if exec_backend.workers == 1:
            family = StreamFamily(root_seed)
            workspace = kern.make_stream_workspace()
            for b, lo, hi in batches:
                rng = family.generator(*trial_key, b)
                edges = rng.integers(0, n, size=(hi - lo, gamma), dtype=np.int64)
                noise_rng = _stream_noise_rng(root_seed, tuple(trial_key), b) if noise is not None else None
                y[lo:hi] = kern.stream_batch(edges, sigma, n, noise, noise_rng, psi, dstar, delta, workspace)
                if collected is not None:
                    collected.append(edges.reshape(-1))
        else:
            shared_sigma = SharedArray.from_array(sigma)
            try:
                desc: SharedArrayDescriptor = shared_sigma.descriptor
                payloads = [
                    (b, lo, hi, n, gamma, root_seed, tuple(trial_key), desc, noise, kernel_name) for b, lo, hi in batches
                ]
                results = exec_backend.map(_stream_task, payloads)
                for lo, yb, psib, dstarb, deltab in results:
                    y[lo : lo + yb.size] = yb
                    psi += psib
                    dstar += dstarb
                    delta += deltab
            finally:
                shared_sigma.destroy()

    if store_obj is not None:
        # Compile-on-miss: the streamed structure (Δ*/Δ already accumulated)
        # becomes a published artifact, so the next call with this key skips
        # streaming entirely.  The worker path never shipped edges back to
        # the parent, so it regenerates them — RNG draws only, no evaluation.
        from repro.designs.compiled import CompiledDesign, _stream_entries

        entries = np.concatenate(collected) if collected is not None and collected else _stream_entries(key)
        indptr = np.arange(m + 1, dtype=np.int64) * gamma
        # The constructor copies the degree vectors, so the writable arrays
        # returned in this call's DesignStats stay independent of the artifact.
        artifact = CompiledDesign(PoolingDesign(n, entries, indptr), dstar=dstar, delta=delta, key=key)
        store_obj.publish(artifact)

    return DesignStats(y=y, psi=psi, dstar=dstar, delta=delta, n=n, m=m, gamma=gamma)


def _stats_from_compiled(
    compiled,
    sigma: np.ndarray,
    noise: "NoiseModel | None",
    root_seed: int,
    trial_key: "tuple[int, ...]",
    batch_queries: int,
    gamma: "int | float",
) -> DesignStats:
    """Streaming-path statistics computed from a compiled design artifact.

    Bit-identical to the streamed accumulation: ``y`` is the same exact
    integer vector, per-batch corruption consumes the same keyed streams in
    the same order, and ``Ψ``/``Δ*``/``Δ`` are integer-exact under every
    execution layout.  The degree vectors are copied so compiled calls return
    writable arrays exactly like the cold path (callers never alias the
    artifact through this function).
    """
    y = compiled.query_results(sigma)
    m = compiled.m
    if noise is not None:
        y = y.copy()
        for b in range(chunk_count(m, batch_queries)):
            lo = b * batch_queries
            hi = min(m, lo + batch_queries)
            y[lo:hi] = noise.corrupt(y[lo:hi], _stream_noise_rng(root_seed, trial_key, b))
    return DesignStats(
        y=y, psi=compiled.psi(y), dstar=compiled.dstar.copy(), delta=compiled.delta.copy(), n=compiled.n, m=m, gamma=gamma
    )
