"""Sort-based reference kernels (the library's historical hot paths).

Distinctness is resolved by sorting edge rows (streaming) or pools
(materialised) and masking repeats; per-signal accumulation runs row by
row.  Kept verbatim as the bit-exact reference the dense kernels are
tested against, and selectable via ``REPRO_KERNEL=legacy`` or
``Backend(kernel="legacy")``.

One deliberate change from the historical code: ``Ψ`` no longer
round-trips through ``np.bincount``'s float64 weights.  The materialised
path groups pairs entry-major once (cached on the design) and sums them
with an integer ``np.add.reduceat``; the stream path adds each batch's
distinct pairs with an int64 ``np.add.at``.  So ``Ψ`` stays exact for
results beyond 2⁵³ on both paths, and no silent float casts remain.
For every input whose sums stay below 2⁵³ the outputs are bit-identical
to the historical float path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.design import PoolingDesign
    from repro.noise.models import NoiseModel

NAME = "legacy"


def stream_batch(
    design: "PoolingDesign",
    sigma: np.ndarray,
    noise: "NoiseModel | None",
    noise_rng: "np.random.Generator | None",
    psi: np.ndarray,
    dstar: np.ndarray,
    delta: np.ndarray,
) -> np.ndarray:
    """Fold one stream batch, a regular ``design``, into the running accumulators.

    The batch's draws are read as ``(b, Γ)`` edge rows.  Distinctness is
    resolved by sorting each row and masking repeats — the standard
    vectorised dedup that keeps everything inside NumPy, at
    ``O(b·Γ·log Γ)`` per batch.

    With ``noise`` given, results are corrupted *before* the Ψ
    accumulation, so every downstream statistic sees only the corrupted
    world — mirroring the materialised path
    (:func:`repro.noise.trial.run_noisy_mn_trial`).
    """
    edges = design.entries.reshape(design.m, -1)
    n = design.n
    y = sigma[edges].astype(np.int64).sum(axis=1)
    if noise is not None:
        y = noise.corrupt(y, noise_rng)
    sorted_edges = np.sort(edges, axis=1)
    first = np.empty(sorted_edges.shape, dtype=bool)
    first[:, 0] = True
    first[:, 1:] = sorted_edges[:, 1:] != sorted_edges[:, :-1]
    row_of = np.nonzero(first)[0]
    distinct_entries = sorted_edges[first]
    np.add.at(psi, distinct_entries, y[row_of])  # int64 throughout: exact past 2⁵³
    dstar += np.bincount(distinct_entries, minlength=n)
    delta += np.bincount(edges.ravel(), minlength=n)
    return y


def _entry_groups(design: "PoolingDesign") -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Entry-major grouping of the deduplicated incidence pairs, cached.

    Returns ``(uniq, starts, rows_by_entry)``: the distinct pairs of
    :meth:`~repro.core.design.PoolingDesign._distinct_pairs` re-sorted by
    entry, with ``rows_by_entry[starts[i]:starts[i+1]]`` listing the
    queries containing ``uniq[i]``.  This is the CSC view of the
    deduplicated incidence structure — what integer ``Ψ`` accumulation via
    ``np.add.reduceat`` needs, paid once per design.
    """
    if design._entry_groups_cache is None:
        drow, dent = design._distinct_pairs()
        order = np.argsort(dent, kind="stable")
        ent_sorted = dent[order]
        if ent_sorted.size:
            first = np.empty(ent_sorted.shape, dtype=bool)
            first[0] = True
            first[1:] = ent_sorted[1:] != ent_sorted[:-1]
            starts = np.flatnonzero(first)
            uniq = ent_sorted[starts]
        else:
            starts = np.empty(0, dtype=np.int64)
            uniq = np.empty(0, dtype=np.int64)
        design._entry_groups_cache = (uniq, starts, drow[order])
    return design._entry_groups_cache


def materialised_psi(
    design: "PoolingDesign", y: np.ndarray, with_dstar: bool = False
) -> "tuple[np.ndarray, np.ndarray | None]":
    """``(B, n)`` ``Ψ`` for a ``(B, m)`` int64 result batch, all-integer.

    Row ``b`` sums ``y[b]`` over the entry-major pair groups with
    ``np.add.reduceat`` — no float weights anywhere, so the accumulation
    is exact for arbitrarily large int64 results.
    """
    uniq, starts, rows_by_entry = _entry_groups(design)
    out = np.zeros((y.shape[0], design.n), dtype=np.int64)
    if rows_by_entry.size:
        for b in range(y.shape[0]):
            out[b, uniq] = np.add.reduceat(y[b, rows_by_entry], starts)
    return out, (materialised_dstar(design) if with_dstar else None)


def materialised_dstar(design: "PoolingDesign") -> np.ndarray:
    """``Δ*`` from the sort-deduplicated incidence pairs."""
    _, dent = design._distinct_pairs()
    return np.bincount(dent, minlength=design.n).astype(np.int64)


def materialised_stats(design: "PoolingDesign", batch: np.ndarray) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """``(y, Ψ, Δ*)``: the per-row query results, then the integer Ψ pass with Δ*."""
    y = query_results_batch(design, batch)
    psi, dstar = materialised_psi(design, y, with_dstar=True)
    return y, psi, dstar  # type: ignore[return-value]


def query_results_batch(design: "PoolingDesign", batch: np.ndarray) -> np.ndarray:
    """Per-row segment sums — one gather kernel invocation per signal.

    Keeps peak memory at ``O(nnz)`` instead of ``O(nnz·B)``; the dense
    kernel trades that for chunked whole-batch gathers.
    """
    return np.stack([design._query_results_kernel(batch[b]) for b in range(batch.shape[0])])
