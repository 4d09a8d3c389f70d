"""Dense incidence-block kernels: scatter-dedup + BLAS GEMM hot paths.

The paper's design draws ``Γ = n/2`` entries per query *with replacement*,
so each query touches ``1 − (1−1/n)^Γ ≈ 39%`` of all entries distinctly —
the incidence structure is dense, not sparse.  These kernels exploit that:

* **Dedup by scatter** — marking ``block[row, edges] = 1`` on a dense
  ``(b, n)`` block resolves distinctness for free (duplicate draws land on
  the same cell), replacing the legacy ``O(b·Γ·log Γ)`` row sorts with an
  ``O(b·Γ)`` scatter.  Both passes write it as one flat scatter,
  ``block.reshape(-1)[row·n + edge] = 1`` (the materialised pass through
  :meth:`~repro.core.design.PoolingDesign.incidence_cells`): cheaper
  than the 2-D fancy index, which resolves two index arrays per cell.
* **Ψ as GEMM** — with the block in hand, the per-entry result sums for a
  whole batch of signals collapse into one BLAS call:
  ``Ψ += y @ block``, with ``Δ*`` riding along as an all-ones row
  appended to ``y`` — one ``(B + 1, rc) @ (rc, n)`` product per chunk.
* **Queries as GEMM** — batched query evaluation builds the per-chunk
  *count* block with one ``bincount`` over linearised ``(row, column)``
  indices (multiplicities preserved) and evaluates all ``B`` signals as
  ``σ @ countsᵀ``, replacing the per-signal gather loop.  Only columns
  some signal touches can contribute, and in the paper's sparse regime
  (``k = n^θ``) the batch's union support ``u`` is a small fraction of
  ``n``; so the count block spans just those ``u`` columns plus one
  spare column that absorbs every untouched entry (its signal
  coefficient is zero), and the GEMM is ``[σ[:, support], 0] @ countsᵀ``.
  A support covering all ``n`` columns maps every column to itself and
  costs what the full ``(rc, n)`` count block does.
* **One counting scatter for y, Ψ and Δ*** — a noiseless batch needs its
  results only to weight its own Ψ, so :func:`materialised_stats` walks
  the draws once: per chunk, ``np.add.at`` counts the draws into the
  block, ``σ[:, cols] @ blk[:, cols]ᵀ`` reads the chunk's results off
  the counts, ``np.minimum(blk, 1)`` clips them to the distinct
  incidence and the Ψ/Δ* GEMM runs as in :func:`psi_pass`.  The scatter
  takes NumPy's indexed ``ufunc.at`` loop (NumPy ≥ 1.25) only when its
  value is a scalar of the block's own dtype: on a 2-vCPU host, 1M cells
  of a float32 block took 240 ms with a Python ``1.0`` against 5.8 ms
  with ``np.float32(1)``.  The index is intp: an int32 one took 12 ms.

Blocks are stored in a floating dtype so the products run through BLAS,
and chunked over queries so peak scratch stays cache-sized: streaming
blocks target :data:`STREAM_BLOCK_BYTES` (the scatter is the bottleneck
there and wants L2-resident blocks), materialised ones :data:`BLOCK_BYTES`
(larger, to amortise the per-chunk ``(B, n)`` accumulate).  Full-width
cell indices are intp, the dtype fancy indexing consumes without a cast;
the support-restricted query index is int32 where its cell space provably
fits, halving the index traffic of the bincount.

Exactness: every output is integer-valued, and float accumulation of
integers is exact while all running sums stay below the mantissa limit.
The materialised Ψ/Δ* pass (:func:`materialised_psi`) picks the cheapest
exact tier per call: float32 while every ``Σ|y[b]|`` — and, with ``Δ*``
in the ones row, ``m`` — is below 2²³ (:data:`_EXACT_LIMIT32`, a 2× margin
under float32's 2²⁴); else float64 below 2⁵² (:data:`_EXACT_LIMIT`, the
same margin under 2⁵³); else exact integer matmul.  The fused pass
(:func:`materialised_stats`) takes the same two float tiers on
``max(entries.size, m)`` and beyond them runs the two separate passes.
The streaming and query passes run float64 under the 2⁵² guard.  Dense
and legacy kernels are therefore bit-identical on identical sampled
edges *always*, not just typically.  Scratch blocks are reset by re-zeroing only the touched
rows and reused across batches via :class:`DenseStreamWorkspace`, so the
steady-state streaming loop performs no ``O(b·n)`` allocations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from collections.abc import Callable, Iterator

    from repro.core.design import PoolingDesign
    from repro.noise.models import NoiseModel

NAME = "dense"

#: Cap on one materialised dense block, in bytes.  Large enough to
#: amortise per-chunk GEMM and accumulate overhead for big signal batches.
BLOCK_BYTES = 8 * 1024 * 1024

#: Cap on one streaming block.  The streaming kernel's cost is dominated
#: by the random scatter, which wants the block cache-resident; the
#: per-chunk accumulate is only two rows, so small chunks are free.
STREAM_BLOCK_BYTES = 1024 * 1024

#: Conservative bound under which float64 integer accumulation is exact
#: (2⁵² leaves a 2× margin over the true 2⁵³ mantissa limit, absorbing the
#: rounding of the guard computation itself).
_EXACT_LIMIT = float(2**52)

#: Bound under which float32 integer accumulation is exact: 2²³ leaves the
#: same 2× margin over float32's 2²⁴ mantissa limit.
_EXACT_LIMIT32 = float(2**23)


def _rows_per_block(n: int, block_bytes: int = BLOCK_BYTES, itemsize: int = 8) -> int:
    """Query rows fitting one ``itemsize``-byte-cell block of width ``n``."""
    return max(1, block_bytes // (itemsize * max(1, n)))


def _index_dtype(cells: int) -> np.dtype:
    """Narrowest index dtype covering ``cells`` linearised block cells."""
    return np.dtype(np.int32) if cells < 2**31 else np.dtype(np.int64)


def row_cells(indptr: np.ndarray, lo: int, hi: int, width: int, values: np.ndarray, dtype: "np.dtype | type") -> np.ndarray:
    """Flat cell ``(j − lo)·width + values[d]`` of every draw ``d`` of queries ``lo ≤ j < hi``.

    ``values`` holds one column per draw of those queries, in CSR order.
    When every pool in the range has the same size, the row offsets
    broadcast over a ``(hi − lo, Γ)`` view of ``values``; ragged ranges
    repeat each offset by its pool size.  Both give the same index.
    """
    sizes = indptr[lo + 1 : hi + 1] - indptr[lo:hi]
    offsets = np.arange(0, (hi - lo) * width, width, dtype=dtype)
    if sizes.size and (sizes == sizes[0]).all():
        return (offsets[:, None] + values.reshape(hi - lo, int(sizes[0]))).reshape(-1)
    cells = np.repeat(offsets, sizes)
    cells += values
    return cells


class DenseStreamWorkspace:
    """Reusable scratch buffers for :func:`stream_batch`.

    One workspace serves one sequential stream loop; buffers grow to the
    first batch's shape and are reused verbatim afterwards, so the
    steady-state loop allocates none of the ``O(b·n)`` / ``O(b·Γ)``
    intermediates.  The incidence block is kept all-zero between calls
    (re-zeroed after every chunk), which is what makes reuse sound.
    Every float buffer (block, coefficients, accumulators) is float64.
    """

    def __init__(self) -> None:
        self._block: "np.ndarray | None" = None
        self._hits: "np.ndarray | None" = None
        self._coef: "np.ndarray | None" = None
        self._acc: "np.ndarray | None" = None
        self._tmp: "np.ndarray | None" = None
        self._offsets: "np.ndarray | None" = None
        self._n = 0

    def block(self, rows: int, n: int) -> np.ndarray:
        """An all-zero ``(rows, n)`` block (callers must re-zero it)."""
        if self._block is None or self._block.shape[1] != n or self._block.shape[0] < rows:
            self._block = np.zeros((rows, n), dtype=np.float64)
        return self._block[:rows]

    def hits(self, shape: "tuple[int, int]", dtype: np.dtype) -> np.ndarray:
        """Gather target for the ``sigma[edges]`` lookup."""
        if self._hits is None or self._hits.dtype != dtype or self._hits.shape[1] != shape[1] or self._hits.shape[0] < shape[0]:
            self._hits = np.empty(shape, dtype=dtype)
        return self._hits[: shape[0]]

    def coef(self, rows: int) -> np.ndarray:
        """``(2, rows)`` GEMM coefficients: all-ones row (Δ*) over ``y`` row (Ψ)."""
        if self._coef is None or self._coef.shape[1] < rows:
            self._coef = np.empty((2, rows), dtype=np.float64)
        return self._coef[:, :rows]

    def acc(self, n: int) -> np.ndarray:
        """``(2, n)`` accumulator for the (Δ*, Ψ) GEMM rows."""
        if self._acc is None or self._acc.shape[1] != n:
            self._acc = np.empty((2, n), dtype=np.float64)
        return self._acc

    def tmp(self, n: int) -> np.ndarray:
        """``(2, n)`` GEMM output buffer for non-first chunks."""
        if self._tmp is None or self._tmp.shape[1] != n:
            self._tmp = np.empty((2, n), dtype=np.float64)
        return self._tmp

    def row_offsets(self, rows: int, n: int) -> np.ndarray:
        """``(rows, 1)`` intp flat offsets ``row·n`` for the block scatter."""
        if self._offsets is None or self._offsets.shape[0] < rows or self._n != n:
            self._offsets = np.arange(0, rows * n, n, dtype=np.intp)[:, None]
            self._n = n
        return self._offsets[:rows]


def make_stream_workspace() -> DenseStreamWorkspace:
    """Fresh reusable scratch for a sequential stream loop."""
    return DenseStreamWorkspace()


def fold_stream(
    edges: np.ndarray,
    y: np.ndarray,
    n: int,
    psi: np.ndarray,
    dstar: np.ndarray,
    delta: np.ndarray,
    workspace: DenseStreamWorkspace,
    exact: bool,
) -> None:
    """Fold a batch's scattered incidence into ``Ψ/Δ*/Δ`` (in place).

    With ``exact`` the (Δ*, Ψ) contributions are the two rows of one
    ``(2, rc) @ (rc, n)`` float64 GEMM per chunk — the caller guarantees
    every running sum is exactly representable there.
    Otherwise the same chunks accumulate through exact integer matmul.
    """
    b = edges.shape[0]
    rows_per = _rows_per_block(n, STREAM_BLOCK_BYTES)
    acc_int: "np.ndarray | None" = None if exact else np.zeros((2, n), dtype=np.int64)
    acc = workspace.acc(n)
    first = True
    for lo in range(0, b, rows_per):
        hi = min(b, lo + rows_per)
        rc = hi - lo
        sub = edges[lo:hi]
        blk = workspace.block(min(b, rows_per), n)[:rc]
        blk.reshape(-1)[workspace.row_offsets(rc, n) + sub] = 1.0
        if exact:
            out = acc if first else workspace.tmp(n)
            coef = workspace.coef(rc)
            coef[0] = 1.0
            coef[1] = y[lo:hi]
            np.matmul(coef, blk, out=out)
            if not first:
                acc += out
        else:
            coef_int = np.empty((2, rc), dtype=np.int64)
            coef_int[0] = 1
            coef_int[1] = y[lo:hi]
            acc_int += coef_int @ (blk != 0)
        blk.fill(0.0)
        first = False

    if exact:
        np.add(dstar, acc[0], out=dstar, casting="unsafe")
        np.add(psi, acc[1], out=psi, casting="unsafe")
    else:
        dstar += acc_int[0]
        psi += acc_int[1]
    delta += np.bincount(edges.ravel(), minlength=n)


def stream_batch(
    edges: np.ndarray,
    sigma: np.ndarray,
    n: int,
    noise: "NoiseModel | None",
    noise_rng: "np.random.Generator | None",
    psi: np.ndarray,
    dstar: np.ndarray,
    delta: np.ndarray,
    workspace: "DenseStreamWorkspace | None" = None,
) -> np.ndarray:
    """Fold one ``(b, Γ)`` edge batch into the running accumulators.

    ``y`` comes from a single gather + row sum; distinct hits are marked by
    scattering into the dense block; ``Δ*`` and ``Ψ`` contributions are the
    two rows of one ``(2, b) @ (b, n)`` BLAS product per chunk.  With
    ``noise`` given, ``y`` is corrupted *before* the Ψ product — exactly
    the legacy kernel's ordering, so noisy statistics stay bit-identical
    too.
    """
    ws = workspace if workspace is not None else DenseStreamWorkspace()
    hits = ws.hits(edges.shape, sigma.dtype)
    np.take(sigma, edges, out=hits)
    y = hits.sum(axis=1, dtype=np.int64)
    if noise is not None:
        y = noise.corrupt(y, noise_rng)
    # Joint exactness bound for both GEMM rows: every running Ψ sum is
    # ≤ Σ|y| and every Δ* count is ≤ b.
    exact = float(np.abs(y).sum(dtype=np.float64)) + edges.shape[0] < _EXACT_LIMIT
    fold_stream(edges, y, n, psi, dstar, delta, ws, exact)
    return y


def _chunk_block(design: "PoolingDesign", dtype: np.dtype) -> np.ndarray:
    """The all-zero ``dtype`` block one chunk of ``_rows_per_block(n, BLOCK_BYTES, itemsize)`` queries fills.

    The pass allocates it first and holds it until it returns, past its
    int64 casts: a loop that freed the block before them raised
    perfbench serve-churn's peak RSS from 604.9 to 616.6 MB.
    """
    rows_per = _rows_per_block(design.n, BLOCK_BYTES, dtype.itemsize)
    return np.zeros((min(max(design.m, 1), rows_per), design.n), dtype=dtype)


def _incidence_chunks(design: "PoolingDesign", block: np.ndarray) -> "Iterator[tuple[int, int, np.ndarray]]":
    """Yield ``(qlo, qhi, blk)`` per query chunk of :func:`_chunk_block`'s ``block``.

    ``blk`` is the chunk's all-zero ``(qhi − qlo, n)`` slice of ``block``,
    which the caller marks and reads before asking for the next chunk.  The
    block is re-zeroed between chunks.
    """
    rows_per = block.shape[0]
    for qlo in range(0, design.m, rows_per):
        qhi = min(design.m, qlo + rows_per)
        blk = block[: qhi - qlo]
        yield qlo, qhi, blk
        blk.fill(0)


def _gemm_pass(design: "PoolingDesign", coef: np.ndarray, block: np.ndarray, mark: "Callable[[int, int, np.ndarray], None]") -> np.ndarray:
    """``coef @ incidence`` accumulated over :func:`_incidence_chunks`, in ``coef``'s dtype.

    ``mark(qlo, qhi, blk)`` leaves the chunk's 0/1 distinct incidence in
    ``blk`` (and may fill ``coef[:, qlo:qhi]`` on the way); one
    ``(rows, rc) @ (rc, n)`` GEMM per chunk then adds ``coef[:, qlo:qhi] @
    blk``.  The first chunk writes straight into the accumulator.
    """
    acc = np.zeros((coef.shape[0], design.n), dtype=coef.dtype)
    tmp = np.empty_like(acc)
    for qlo, qhi, blk in _incidence_chunks(design, block):
        mark(qlo, qhi, blk)
        out = acc if qlo == 0 else tmp
        np.matmul(coef[:, qlo:qhi], blk, out=out)
        if out is tmp:
            acc += tmp
    return acc


def psi_pass(
    design: "PoolingDesign", y: np.ndarray, with_dstar: bool, dtype: "np.dtype | type | None"
) -> "tuple[np.ndarray, np.ndarray | None]":
    """One chunked scatter pass computing ``Ψ`` (and optionally ``Δ*``).

    ``dtype`` selects the GEMM precision; the caller guarantees every
    running sum (``Σ|y[b]|`` per signal; ``m`` for ``Δ*``) is exactly
    representable in it.  In a float tier ``Δ*`` is the all-ones row
    appended to the coefficients, so one ``(B + 1, rc) @ (rc, n)`` GEMM
    per chunk yields both.  ``None`` runs the exact integer-matmul tier
    (``Δ*`` then accumulates as float64 column sums — bounded by ``m``,
    far below its mantissa limit).  ``y`` may hold zero rows, which
    leaves ``Δ*`` alone in the GEMM.
    """
    B = y.shape[0]
    block = _chunk_block(design, np.dtype(np.float64 if dtype is None else dtype))

    def mark(qlo: int, qhi: int, blk: np.ndarray) -> None:
        blk.reshape(-1)[design.incidence_cells(qlo, qhi)] = 1  # duplicates land on one cell: the dedup

    if dtype is not None:
        coef = np.empty((B + int(with_dstar), design.m), dtype=dtype)
        coef[:B] = y
        coef[B:] = 1
        acc = _gemm_pass(design, coef, block, mark)
        return acc[:B].astype(np.int64), acc[B].astype(np.int64) if with_dstar else None
    psi_i = np.zeros((B, design.n), dtype=np.int64)
    dstar_f = np.zeros(design.n, dtype=np.float64)
    for qlo, qhi, blk in _incidence_chunks(design, block):
        mark(qlo, qhi, blk)
        if with_dstar:
            dstar_f += blk.sum(axis=0)
        psi_i += y[:, qlo:qhi] @ (blk != 0)
    return psi_i, dstar_f.astype(np.int64) if with_dstar else None


def materialised_psi(
    design: "PoolingDesign", y: np.ndarray, with_dstar: bool = False
) -> "tuple[np.ndarray, np.ndarray | None]":
    """``(B, n)`` ``Ψ`` for a ``(B, m)`` int64 result batch — one GEMM per chunk.

    The per-``B`` Python loop of the legacy path collapses into
    ``y[:, chunk] @ block``; ``Δ*`` optionally rides along as the ones
    row of the same GEMM, so :meth:`PoolingDesign.stats` pays a single
    pass over the incidence structure.  Each call runs the cheapest
    exact tier: float32 while every ``Σ|y[b]|`` (and, with ``Δ*``, ``m``)
    is below :data:`_EXACT_LIMIT32`, float64 below :data:`_EXACT_LIMIT`,
    exact integer matmul beyond.
    """
    m = design.m
    bound = float(np.abs(y).sum(axis=1, dtype=np.float64).max()) if m else 0.0
    if bound < _EXACT_LIMIT32 and (not with_dstar or m < _EXACT_LIMIT32):
        dtype: "type | None" = np.float32
    elif bound < _EXACT_LIMIT:
        dtype = np.float64
    else:
        dtype = None
    return psi_pass(design, y, with_dstar, dtype)


def materialised_dstar(design: "PoolingDesign") -> np.ndarray:
    """``Δ*`` from scattered incidence blocks (no sort, no pair list).

    Runs :func:`psi_pass` with a zero-row result batch, so the ones row
    is the whole GEMM — float32 while ``m`` is below the float32 budget
    (``Δ*`` counts are bounded by the query count), float64 beyond.
    """
    dtype = np.float32 if design.m < _EXACT_LIMIT32 else np.float64
    _, dstar = psi_pass(design, np.zeros((0, design.m), dtype=np.int64), True, dtype)
    return dstar


def stats_pass(design: "PoolingDesign", batch: np.ndarray, dtype: "np.dtype | type") -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """``(y, Ψ, Δ*)`` of a ``(B, n)`` signal batch from one counting scatter per chunk.

    Each chunk of :func:`_incidence_chunks` is walked once:

    1. ``np.add.at`` counts the chunk's draws into the zeroed block, so a
       cell holds its multiplicity;
    2. the chunk's results are ``σ[:, cols] @ blk[:, cols]ᵀ`` over the
       batch's union support ``cols`` (no other column can contribute),
       written straight into the chunk's coefficient rows;
    3. ``np.minimum(blk, 1)`` clips the counts to the distinct incidence;
    4. the ``(B + 1, rc) @ (rc, n)`` GEMM of :func:`psi_pass` adds the
       chunk's ``Ψ`` rows and, in the all-ones row, its ``Δ*``.

    The caller guarantees every count, result, ``Ψ`` sum and ``Δ*`` is
    exactly representable in ``dtype``: all are bounded by
    ``max(entries.size, m)``.
    """
    B = batch.shape[0]
    work = np.dtype(dtype)
    block = _chunk_block(design, work)
    # ``ufunc.at`` takes its fast indexed loop only for a value of the
    # block's own dtype (see the module docstring).
    one = work.type(1)
    cols = np.flatnonzero(batch.any(axis=0))
    support = batch[:, cols].astype(work)
    coef = np.empty((B + 1, design.m), dtype=work)
    coef[B] = one

    def mark(qlo: int, qhi: int, blk: np.ndarray) -> None:
        np.add.at(blk.reshape(-1), design.incidence_cells(qlo, qhi), one)
        np.matmul(support, blk[:, cols].T, out=coef[:B, qlo:qhi])
        np.minimum(blk, one, out=blk)

    acc = _gemm_pass(design, coef, block, mark)
    return coef[:B].astype(np.int64), acc[:B].astype(np.int64), acc[B].astype(np.int64)


def materialised_stats(design: "PoolingDesign", batch: np.ndarray) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """``(y, Ψ, Δ*)`` for a validated ``(B, n)`` int8 signal batch in one pass.

    The results and the ``Ψ``/``Δ*`` GEMM share one walk over the draws
    (:func:`stats_pass`).  Every count, result ``y[b, a] ≤ |a|``, ``Ψ``
    sum ``≤ Σ_a y[b, a] ≤ entries.size`` and ``Δ* ≤ m`` is bounded by
    ``max(entries.size, m)``, so that bound picks the tier: float32 below
    :data:`_EXACT_LIMIT32`, float64 below :data:`_EXACT_LIMIT`, and
    beyond that the two separate passes (:func:`query_results_batch`,
    then :func:`materialised_psi` with ``Δ*``).
    """
    bound = float(max(design.entries.size, design.m))
    if bound < _EXACT_LIMIT32:
        return stats_pass(design, batch, np.float32)
    if bound < _EXACT_LIMIT:
        return stats_pass(design, batch, np.float64)
    y = query_results_batch(design, batch)
    psi, dstar = materialised_psi(design, y, with_dstar=True)
    return y, psi, dstar  # type: ignore[return-value]


def query_results_batch(design: "PoolingDesign", batch: np.ndarray) -> np.ndarray:
    """``(B, m)`` additive results as ``σ @ countsᵀ`` — one GEMM per chunk.

    The per-chunk *count* block (multiplicities preserved, unlike the
    deduplicating scatter) is built with a single ``bincount`` over
    linearised ``(row, column)`` indices; all ``B`` signals then evaluate
    against it in one BLAS call.  The bincount is paid once per chunk and
    amortised over the whole batch, which is why this beats the
    cache-friendly per-signal gather loop for every ``B > 1``.

    Only the columns some signal of the batch touches can contribute, so
    the count block spans the batch's union support ``cols`` (``u``
    columns) plus one spare column: an int32 ``remap`` table sends each
    entry to its position in ``cols``, and every untouched entry to the
    spare column ``u``, whose coefficient in ``[σ[:, cols], 0]`` is zero.
    No edge is filtered out and no case is special: at ``u = n`` the remap
    is the identity and the pass costs what a full ``(rc, n)`` count block
    does.  Chunks keep the full-width row count, so a chunk's count block
    is at most one column wider than the unrestricted ``(rc, n)`` block.
    The linearised ``(row, column)`` bincount index is int32 whenever the
    chunk's cell space fits, halving its index traffic.

    Exactness: results are bounded by the pool sizes, so the float64
    products are exact far below the 2⁵³ mantissa limit; the guard falls
    back to the legacy per-row kernel in the (unreachable in practice)
    case of ≥2⁵² total draws.
    """
    B, n = batch.shape
    m = design.m
    out = np.zeros((B, m), dtype=np.int64)
    if design.entries.size == 0 or m == 0:
        return out
    if not float(design.entries.size) < _EXACT_LIMIT:  # pragma: no cover - unreachable scale
        from repro.kernels import legacy

        return legacy.query_results_batch(design, batch)
    cols = np.flatnonzero(batch.any(axis=0))
    u = cols.size
    if u == 0:
        return out
    width = u + 1  # the support, then the spare column for untouched entries
    remap = np.full(n, u, dtype=np.int32)
    remap[cols] = np.arange(u, dtype=np.int32)
    bf = np.zeros((B, width), dtype=np.float64)
    bf[:, :u] = batch[:, cols]
    rows_per = _rows_per_block(n, BLOCK_BYTES)
    idx = _index_dtype(rows_per * width)
    entries, indptr = design.entries, design.indptr
    tmp = np.empty((B, min(m, rows_per)), dtype=np.float64)
    for qlo in range(0, m, rows_per):
        qhi = min(m, qlo + rows_per)
        rc = qhi - qlo
        lin = row_cells(indptr, qlo, qhi, width, np.take(remap, entries[int(indptr[qlo]) : int(indptr[qhi])]), idx)
        counts = np.bincount(lin, minlength=rc * width).reshape(rc, width)
        np.matmul(bf, counts.astype(np.float64).T, out=tmp[:, :rc])
        out[:, qlo:qhi] = tmp[:, :rc]
    return out
