"""Generation-2 dense kernels: the float32 stream and query passes.

Same scatter-dedup + BLAS GEMM structure as :mod:`repro.kernels.dense`
(whose dtype-parametrised passes this module runs), with float32 blocks,
coefficients and accumulators: half the memory traffic through the
scatter/bincount-bound chunks and twice the SIMD lanes through the GEMMs.

What this tier still owns is the streaming kernel and the batched query
pass.  The materialised Ψ/Δ* pass and the fused query + Ψ/Δ* pass are
the dense kernel's own: they pick float32 per call whenever the budget
allows, so ``materialised_psi``, ``materialised_dstar`` and
``materialised_stats`` here are the dense functions under their contract
names.

Exactness tiers — decided **per call**, mirroring the float64 guard:

* float32 integer accumulation is exact while every running sum stays
  below 2²⁴; the guard :data:`repro.kernels.dense._EXACT_LIMIT32` (2²³)
  keeps the same 2× safety margin as :data:`repro.kernels.dense._EXACT_LIMIT`;
* over budget, the call falls back to the float64 ``dense`` tier
  verbatim (guarded at 2⁵² as ever);
* beyond *that*, the exact integer-matmul tier.

The streamed result vector ``y`` is computed and noise-corrupted through
:func:`repro.kernels.dense.stream_y` in int64 before any tier choice, so
every output of every tier is bit-identical to ``dense`` and ``legacy``
on the same sampled edges — asserted by the parity suite.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.kernels import dense
from repro.kernels.dense import _EXACT_LIMIT, _EXACT_LIMIT32, DenseStreamWorkspace

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.design import PoolingDesign
    from repro.noise.models import NoiseModel

NAME = "dense32"


class Dense32StreamWorkspace:
    """Float32 scratch with a lazily created float64 fallback sibling.

    The fallback workspace only materialises on the first over-budget
    batch, so a stream that stays inside the float32 budget (the common
    case by orders of magnitude) never allocates float64 blocks.
    """

    def __init__(self) -> None:
        self.f32 = DenseStreamWorkspace(np.float32)
        self._f64: "DenseStreamWorkspace | None" = None

    @property
    def f64(self) -> DenseStreamWorkspace:
        if self._f64 is None:
            self._f64 = DenseStreamWorkspace(np.float64)
        return self._f64


def make_stream_workspace() -> Dense32StreamWorkspace:
    """Fresh reusable scratch for a sequential stream loop."""
    return Dense32StreamWorkspace()


def stream_batch(
    edges: np.ndarray,
    sigma: np.ndarray,
    n: int,
    noise: "NoiseModel | None",
    noise_rng: "np.random.Generator | None",
    psi: np.ndarray,
    dstar: np.ndarray,
    delta: np.ndarray,
    workspace: "Dense32StreamWorkspace | None" = None,
) -> np.ndarray:
    """Fold one ``(b, Γ)`` edge batch through the cheapest exact tier.

    The joint bound covers both GEMM rows (every running Ψ sum is ≤ Σ|y|,
    every Δ* count is ≤ b) *and* the int64→float32 cast of the ``y``
    coefficients themselves.
    """
    ws = workspace if workspace is not None else Dense32StreamWorkspace()
    y = dense.stream_y(edges, sigma, noise, noise_rng, ws.f32)
    bound = float(np.abs(y).sum(dtype=np.float64)) + edges.shape[0]
    if bound < _EXACT_LIMIT32:
        dense.fold_stream(edges, y, n, psi, dstar, delta, ws.f32, exact=True)
    else:
        dense.fold_stream(edges, y, n, psi, dstar, delta, ws.f64, exact=bound < _EXACT_LIMIT)
    return y


#: The materialised Ψ/Δ* and fused stats passes already pick their tier
#: per call in :mod:`repro.kernels.dense`; the names stay for the dispatch
#: contract.
materialised_psi = dense.materialised_psi
materialised_dstar = dense.materialised_dstar
materialised_stats = dense.materialised_stats


def query_results_batch(design: "PoolingDesign", batch: np.ndarray) -> np.ndarray:
    """``(B, m)`` additive results through float32 count blocks.

    Every count — and every ``σ @ countsᵀ`` partial sum — is bounded by
    the design's total draw count, so ``entries.size`` below the float32
    budget proves the whole pass exact.  Bigger designs take the float64
    path (itself guarded at 2⁵²).
    """
    B, n = batch.shape
    m = design.m
    if design.entries.size == 0 or m == 0:
        return np.zeros((B, m), dtype=np.int64)
    if float(design.entries.size) < _EXACT_LIMIT32:
        return dense.query_pass(design, batch, np.float32)
    return dense.query_results_batch(design, batch)
