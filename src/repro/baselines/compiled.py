"""Compiled baseline decoders: LP/OMP/AMP/COMP/DD on the compiled-design substrate.

This module is the one implementation of the LP/OMP/AMP baselines.  Each is
split into the library's unified compile/decode lifecycle
(:mod:`repro.designs.protocol`):

* a frozen-dataclass **Decoder** (:class:`LPDecoder`, :class:`OMPDecoder`,
  :class:`AMPDecoder`, :class:`COMPDecoder`, :class:`DDDecoder`) whose
  ``compile(design)`` hoists all signal-independent ``O(m·n)`` work — dense
  counts materialisation (:meth:`~repro.designs.compiled.CompiledDesign.counts_block`),
  centring constants, OMP's column norms — into
* a **Compiled** artifact (:class:`CompiledLPDecoder`, …) whose
  ``decode(y, k)`` runs the per-signal algorithm against the hoisted arrays,
  and whose ``decode_batch(Y, k)`` runs the per-round correlation / residual /
  message-passing updates as real ``(B, m) @ (m, n)`` BLAS GEMMs instead of
  per-signal Python loops.

LP, OMP and AMP hold one ``(m, n)`` operand, the counts block ``C``; OMP and
AMP centre algebraically, ``v @ (C − μ) = v @ C − μ·Σv``.

The one-shot functions (:func:`~repro.baselines.lp.basis_pursuit_decode`,
:func:`~repro.baselines.omp.omp_decode`, :func:`~repro.baselines.amp.amp_decode`)
are thin ``compile(compile_design(design)).decode(y, k)`` calls into this
module, compiled with no cache or store.  The binary group-testing decoders
go the other way: :class:`CompiledGTDecoder` delegates its single-signal
``decode`` to :func:`~repro.baselines.bin_gt.comp_decode`/
:func:`~repro.baselines.bin_gt.dd_decode`.

Residency bound: LP/OMP/AMP need the dense float64 counts matrix resident,
so a design whose ``(m, n)`` float64 block exceeds
:data:`~repro.designs.compiled.BLOCK_RESIDENCY_LIMIT` (256 MB, ``m·n`` up to
~33.5M) raises :class:`ValueError` at compile time — one-shots included.

Parity contract (asserted by ``tests/test_decoders.py``): single-signal
``decode`` is the oracle for ``decode_batch``.

* ``decode_batch`` rows are bit-identical for the integer-exact COMP/DD
  decoders (their products route through the kernel-dispatched
  :meth:`~repro.designs.compiled.CompiledDesign.psi` seam) and match the
  reference :func:`~repro.baselines.bin_gt.comp_decode`/``dd_decode``.
* For the float decoders (LP/OMP/AMP) a batched GEMM may round differently
  from the single-vector matvec in the last bits, so batch rows are
  guaranteed *thresholded-identical* (same recovered support) rather than
  bit-identical — the documented tolerance of the iterative baselines.  The
  float GEMMs are precision-pinned to float64 so results do not depend on
  ``REPRO_KERNEL``.

Compiled artifacts derive entirely from a :class:`CompiledDesign`, obtained
through cache/store lookup exactly like the MN path.  Only the compiled
design is cached and persisted; the counts block is rebuilt once per process
and is not in ``CompiledDesign.nbytes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.baselines.amp import AMPResult, _denoise
from repro.baselines.bin_gt import BernoulliORDesign, comp_decode, dd_decode
from repro.baselines.centring import (
    centre_observations,
    check_observations,
    column_mean,
    pool_gamma,
    pool_variance,
)
from repro.util.validation import check_positive_int, check_weight_vector

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.designs.cache import DesignCache
    from repro.designs.compiled import CompiledDesign, DesignKey
    from repro.designs.store import DesignStore
    from repro.core.design import PoolingDesign

__all__ = [
    "LPDecoder",
    "OMPDecoder",
    "AMPDecoder",
    "COMPDecoder",
    "DDDecoder",
    "CompiledLPDecoder",
    "CompiledOMPDecoder",
    "CompiledAMPDecoder",
    "CompiledGTDecoder",
]


def _resolve(design, cache, store) -> "CompiledDesign":
    from repro.designs.compiled import resolve_compiled

    return resolve_compiled(design, cache=cache, store=store)


def _counts_or_raise(compiled: "CompiledDesign") -> np.ndarray:
    counts = compiled.counts_block()
    if counts is None:
        raise ValueError(
            f"design ({compiled.m} x {compiled.n}) exceeds the dense-block residency budget; "
            "the compressed-sensing baselines need the dense counts matrix resident"
        )
    return counts


def _centred_product(v: np.ndarray, a: np.ndarray, mean: float) -> np.ndarray:
    """``v @ (A − μ)`` without forming ``A − μ``: ``v @ A − μ·Σv`` per row of ``v``."""
    out = v @ a
    out -= mean * v.sum(axis=-1, keepdims=True)
    return out


def _check_batch(Y: np.ndarray, m: int) -> np.ndarray:
    """Validate a ``(B, m)`` float observation batch (finite, right width)."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[1] != m or Y.shape[0] < 1:
        raise ValueError(f"Y must have shape (B, m={m})")
    if not np.isfinite(Y).all():
        raise ValueError("Y must be finite; got NaN or infinity")
    return Y


def _batch_weights(k: "int | np.ndarray", batch: int, n: int, *, strict_upper: bool = False) -> np.ndarray:
    """Per-row weights for a batch: scalar ``k`` broadcasts, arrays validate."""
    if np.ndim(k) == 0:
        k = check_positive_int(k[()] if isinstance(k, np.ndarray) else k, "k")
        if k > n or (strict_upper and k >= n):
            bound = "<" if strict_upper else "<="
            raise ValueError(f"require k {bound} n, got k={k}, n={n}")
        return np.full(batch, k, dtype=np.int64)
    k_arr = check_weight_vector(k, batch, n=n)
    if strict_upper and int(k_arr.max()) >= n:
        raise ValueError(f"require k < n, got k={int(k_arr.max())}, n={n}")
    return k_arr


def _scatter_support(n: int, support: np.ndarray) -> np.ndarray:
    sigma_hat = np.zeros(n, dtype=np.int8)
    sigma_hat[support] = 1
    return sigma_hat


class _CompiledBaseline:
    """Common base of the compiled baseline artifacts: the design and its decoder.

    Like :class:`~repro.designs.serving.CompiledMNDecoder`, instances hold
    nothing to release — their ``(m, n)`` operand is one of the compiled
    design's blocks — so dropping the last reference frees them.
    """

    def __init__(self, compiled: "CompiledDesign", decoder):
        self.compiled = compiled
        self.decoder = decoder

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(compiled={self.compiled!r}, decoder={self.decoder!r})"


# ---------------------------------------------------------------------------
# LP — box-constrained basis pursuit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LPDecoder:
    """Basis-pursuit decoder in compile/decode form (see :mod:`repro.baselines.lp`)."""

    def compile(
        self,
        design: "CompiledDesign | PoolingDesign | DesignKey",
        *,
        cache: "DesignCache | None" = None,
        store: "DesignStore | None" = None,
    ) -> "CompiledLPDecoder":
        """Hoist the dense counts matrix; every decode is then LP-only."""
        return CompiledLPDecoder(_resolve(design, cache=cache, store=store), self)


class CompiledLPDecoder(_CompiledBaseline):
    """Basis pursuit against a pre-materialised counts matrix.

    The LP itself is inherently per-signal (HiGHS solves one instance at a
    time), so ``decode_batch`` amortises only the matrix materialisation —
    the per-call ``O(m·n)`` cost a one-shot pays.
    """

    def __init__(self, compiled: "CompiledDesign", decoder: LPDecoder):
        super().__init__(compiled, decoder)
        self.counts = _counts_or_raise(compiled)

    def _solve(self, y: np.ndarray, k: int) -> np.ndarray:
        from scipy.optimize import linprog

        n = self.compiled.n
        result = linprog(
            c=np.ones(n),
            A_eq=self.counts,
            b_eq=y,
            bounds=[(0.0, 1.0)] * n,
            method="highs",
        )
        if not result.success:
            raise RuntimeError(f"basis pursuit LP failed: {result.message}")
        x = np.clip(result.x, 0.0, 1.0)
        from repro.parallel.sort import parallel_top_k

        return _scatter_support(n, parallel_top_k(x, k))

    def decode(self, y: np.ndarray, k: int) -> np.ndarray:
        """Solve the box-constrained LP and round to weight ``k``."""
        k = check_positive_int(k, "k")
        if k > self.compiled.n:
            raise ValueError(f"k={k} exceeds n={self.compiled.n}")
        y = check_observations(y, self.compiled.m)
        return self._solve(y, k)

    def decode_batch(self, Y: np.ndarray, k: "int | np.ndarray") -> np.ndarray:
        Y = _check_batch(Y, self.compiled.m)
        k_arr = _batch_weights(k, Y.shape[0], self.compiled.n)
        return np.stack([self._solve(Y[b], int(k_arr[b])) for b in range(Y.shape[0])])


# ---------------------------------------------------------------------------
# OMP — centred orthogonal matching pursuit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OMPDecoder:
    """Centred-OMP decoder in compile/decode form (see :mod:`repro.baselines.omp`)."""

    def compile(
        self,
        design: "CompiledDesign | PoolingDesign | DesignKey",
        *,
        cache: "DesignCache | None" = None,
        store: "DesignStore | None" = None,
    ) -> "CompiledOMPDecoder":
        """Hoist the counts block and centred column norms; decodes pay greedy rounds only."""
        return CompiledOMPDecoder(_resolve(design, cache=cache, store=store), self)


class CompiledOMPDecoder(_CompiledBaseline):
    """OMP against the counts block, centred algebraically, with pre-computed column norms.

    ``decode`` runs ``k`` greedy rounds for one signal;
    ``decode_batch`` turns each round's correlation into one
    ``(B, m) @ (m, n)`` GEMM across all still-active rows, with per-row
    least-squares refits (supports differ per row, so the refit cannot
    batch — but it is ``O(m·k)``, not the ``O(m·n)`` that dominated).
    """

    def __init__(self, compiled: "CompiledDesign", decoder: OMPDecoder):
        super().__init__(compiled, decoder)
        self.counts = _counts_or_raise(compiled)
        self.mean = column_mean(pool_gamma(compiled.design.indptr), compiled.n)
        # ‖c_j − μ‖² = Σ_i C_ij² − 2μ·Δ_j + m·μ² (Δ_j = Σ_i C_ij); a column
        # equal to μ throughout has norm 0, mapped to 1 to keep corr finite.
        sq_norms = np.einsum("ij,ij->j", self.counts, self.counts) - 2.0 * self.mean * compiled.delta + compiled.m * self.mean**2
        self.col_norms = np.sqrt(sq_norms)
        self.col_norms[self.col_norms == 0] = 1.0
        self.col_norms.setflags(write=False)

    def decode(self, y: np.ndarray, k: int) -> np.ndarray:
        """``k`` rounds of select / least-squares refit / residual update."""
        n, m = self.compiled.n, self.compiled.m
        k = check_positive_int(k, "k")
        if k > n:
            raise ValueError(f"k={k} exceeds n={n}")
        y = check_observations(y, m)
        y_c = centre_observations(y, k, self.mean)

        support: "list[int]" = []
        residual = y_c.copy()
        available = np.ones(n, dtype=bool)
        for _ in range(k):
            corr = np.abs(_centred_product(residual, self.counts, self.mean)) / self.col_norms
            corr[~available] = -np.inf
            pick = int(np.argmax(corr))
            support.append(pick)
            available[pick] = False
            sub = self.counts[:, support] - self.mean
            coef, *_ = np.linalg.lstsq(sub, y_c, rcond=None)
            residual = y_c - sub @ coef
        return _scatter_support(n, np.asarray(support, dtype=np.int64))

    def decode_batch(self, Y: np.ndarray, k: "int | np.ndarray") -> np.ndarray:
        n, m = self.compiled.n, self.compiled.m
        Y = _check_batch(Y, m)
        batch = Y.shape[0]
        k_arr = _batch_weights(k, batch, n)
        Y_c = centre_observations(Y, k_arr, self.mean)

        residuals = Y_c.copy()
        available = np.ones((batch, n), dtype=bool)
        supports: "list[list[int]]" = [[] for _ in range(batch)]
        sigma_hat = np.zeros((batch, n), dtype=np.int8)
        for round_i in range(int(k_arr.max())):
            active = np.flatnonzero(k_arr > round_i)
            # One GEMM for every active row's correlation with all n columns.
            corr = np.abs(_centred_product(residuals[active], self.counts, self.mean)) / self.col_norms
            corr[~available[active]] = -np.inf
            picks = np.argmax(corr, axis=1)
            for row, pick in zip(active, picks):
                support = supports[row]
                support.append(int(pick))
                available[row, pick] = False
                sub = self.counts[:, support] - self.mean
                coef, *_ = np.linalg.lstsq(sub, Y_c[row], rcond=None)
                residuals[row] = Y_c[row] - sub @ coef
        for row, support in enumerate(supports):
            sigma_hat[row, np.asarray(support, dtype=np.int64)] = 1
        return sigma_hat


# ---------------------------------------------------------------------------
# AMP — approximate message passing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AMPDecoder:
    """AMP decoder in compile/decode form (see :mod:`repro.baselines.amp`)."""

    max_iter: int = 50
    tol: float = 1e-7

    def __post_init__(self) -> None:
        check_positive_int(self.max_iter, "max_iter")
        if not (np.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")

    def compile(
        self,
        design: "CompiledDesign | PoolingDesign | DesignKey",
        *,
        cache: "DesignCache | None" = None,
        store: "DesignStore | None" = None,
    ) -> "CompiledAMPDecoder":
        """Hoist the counts block and the standardising constants; decodes pay iterations only."""
        return CompiledAMPDecoder(_resolve(design, cache=cache, store=store), self)


class CompiledAMPDecoder(_CompiledBaseline):
    """AMP against the counts block; ``F = (C − μ)/s`` is applied, never formed.

    :meth:`run` holds the scalar iteration for one signal and returns its
    trajectory (:class:`~repro.baselines.amp.AMPResult`); ``decode`` is its
    ``sigma_hat``.  ``decode_batch`` vectorises the iteration across rows —
    the two matrix products per round become ``(B, m) @ (m, n)`` GEMMs —
    with per-row effective-noise tracking and per-row convergence freezing,
    so each row follows the same trajectory the scalar path would (up to
    GEMM-vs-matvec rounding).
    """

    def __init__(self, compiled: "CompiledDesign", decoder: AMPDecoder):
        super().__init__(compiled, decoder)
        self.counts = _counts_or_raise(compiled)
        gamma = pool_gamma(compiled.design.indptr)
        self.mu = column_mean(gamma, compiled.n)
        self.scale = np.sqrt(pool_variance(gamma, compiled.n) * compiled.m)

    def run(self, y: np.ndarray, k: int) -> AMPResult:
        """Iterate AMP on one signal to convergence (or ``max_iter``) and round to weight ``k``."""
        from repro.parallel.sort import parallel_top_k

        n, m = self.compiled.n, self.compiled.m
        k = check_positive_int(k, "k")
        if k >= n:
            raise ValueError(f"require k < n, got k={k}, n={n}")
        y = check_observations(y, m)
        c, mu, scale = self.counts, self.mu, self.scale
        y_t = centre_observations(y, k, mu) / scale

        eps = k / n
        x = np.full(n, eps, dtype=np.float64)
        z = y_t - _centred_product(x, c.T, mu) / scale
        onsager_gain = 0.0
        tau_hist: "list[float]" = []
        converged = False
        it = 0
        for it in range(1, self.decoder.max_iter + 1):
            z = y_t - _centred_product(x, c.T, mu) / scale + z * onsager_gain
            tau2 = max(float(z @ z) / m, 1e-12)
            tau_hist.append(tau2)
            r = x + _centred_product(z / scale, c, mu)
            x_new, dx = _denoise(r, tau2, eps)
            onsager_gain = float(dx.mean()) * (n / m)
            delta = float(np.abs(x_new - x).mean())
            x = x_new
            if delta < self.decoder.tol:
                converged = True
                break
        return AMPResult(
            sigma_hat=_scatter_support(n, parallel_top_k(x, k)),
            posterior=x,
            iterations=it,
            converged=converged,
            tau_history=tuple(tau_hist),
        )

    def decode(self, y: np.ndarray, k: int) -> np.ndarray:
        return self.run(y, k).sigma_hat

    def decode_batch(self, Y: np.ndarray, k: "int | np.ndarray") -> np.ndarray:
        from repro.parallel.sort import parallel_top_k

        n, m = self.compiled.n, self.compiled.m
        Y = _check_batch(Y, m)
        batch = Y.shape[0]
        k_arr = _batch_weights(k, batch, n, strict_upper=True)
        c, mu, scale = self.counts, self.mu, self.scale
        Y_t = centre_observations(Y, k_arr, mu) / scale

        eps = k_arr.astype(np.float64) / n  # per-row prior
        X = np.tile(eps[:, None], (1, n))
        Z = Y_t - _centred_product(X, c.T, mu) / scale
        onsager = np.zeros(batch, dtype=np.float64)
        active = np.ones(batch, dtype=bool)
        for _ in range(1, self.decoder.max_iter + 1):
            if not active.any():
                break
            rows = np.flatnonzero(active)
            Za = Y_t[rows] - _centred_product(X[rows], c.T, mu) / scale + Z[rows] * onsager[rows, None]
            tau2 = np.maximum(np.einsum("bm,bm->b", Za, Za) / m, 1e-12)
            R = X[rows] + _centred_product(Za / scale, c, mu)  # (B, m) @ (m, n): the pseudo-data GEMM
            eta, deta = _denoise(R, tau2[:, None], eps[rows, None])
            onsager[rows] = deta.mean(axis=1) * (n / m)
            delta = np.abs(eta - X[rows]).mean(axis=1)
            X[rows] = eta
            Z[rows] = Za
            active[rows] = delta >= self.decoder.tol
        sigma_hat = np.zeros((batch, n), dtype=np.int8)
        for row in range(batch):
            top = parallel_top_k(X[row], int(k_arr[row]))
            sigma_hat[row, top] = 1
        return sigma_hat


# ---------------------------------------------------------------------------
# Binary group testing — COMP and DD over the binarised channel
# ---------------------------------------------------------------------------


class CompiledGTDecoder(_CompiledBaseline):
    """COMP/DD against the design's distinct-incidence membership.

    The binary decoders observe only the OR channel, so additive results
    are binarised (``y > 0``) against the design's *distinct* membership
    (duplicate draws collapse — an item is in a pool or it is not).  On
    noise-free additive data this is sound: ``y_j = 0`` iff pool ``j``
    contains no one-entry.

    ``decode`` delegates to the reference :func:`comp_decode`/:func:`dd_decode`
    on the equivalent :class:`BernoulliORDesign` view (bit-identical by
    construction); ``decode_batch`` expresses both phases as integer-exact
    products through the kernel-dispatched
    :meth:`~repro.designs.compiled.CompiledDesign.psi` seam, so batch rows
    are bit-identical too.  ``k`` is accepted for protocol compatibility
    but unused — COMP/DD do not need the weight.
    """

    def __init__(self, compiled: "CompiledDesign", decoder, *, definite_defectives: bool):
        super().__init__(compiled, decoder)
        block = compiled.incidence_block()
        if block is None:
            raise ValueError(
                f"design ({compiled.m} x {compiled.n}) exceeds the dense-block residency budget; "
                "the binary-GT decoders need the dense membership resident"
            )
        self.block = block
        self.membership = block > 0  # bool (m, n) view of the same incidence
        self.gt_design = BernoulliORDesign(self.membership)
        self.definite_defectives = definite_defectives

    def _binarise(self, y: np.ndarray) -> np.ndarray:
        return (np.asarray(y) > 0).astype(np.int8)

    def decode(self, y: np.ndarray, k: int = 1) -> np.ndarray:
        y = np.asarray(y)
        if y.shape != (self.compiled.m,):
            raise ValueError(f"y must have length m={self.compiled.m}")
        results = self._binarise(y)
        if self.definite_defectives:
            return dd_decode(self.gt_design, results)
        return comp_decode(self.gt_design, results)

    def decode_batch(self, Y: np.ndarray, k: "int | np.ndarray" = 1) -> np.ndarray:
        Y = np.asarray(Y)
        if Y.ndim != 2 or Y.shape[1] != self.compiled.m or Y.shape[0] < 1:
            raise ValueError(f"Y must have shape (B, m={self.compiled.m})")
        positive = Y > 0
        # COMP phase: an entry survives iff no negative test contains it.
        # psi of the negative-test indicator counts, per entry, the negative
        # tests it appears in — integer-exact under every kernel.
        neg_counts = self.compiled.psi((~positive).astype(np.int64))
        candidates = neg_counts == 0
        if not self.definite_defectives:
            return candidates.astype(np.int8)
        # DD phase: per (row, test), how many candidates does the test hold?
        # (B, n) @ (n, m) GEMM against the resident block — candidate counts
        # are bounded by the pool size, exact in the block's dtype budget.
        cand_counts = candidates.astype(self.block.dtype) @ self.block.T
        singleton = positive & (cand_counts == 1)
        pinned_counts = self.compiled.psi(singleton.astype(np.int64))
        return ((pinned_counts > 0) & candidates).astype(np.int8)


@dataclass(frozen=True)
class COMPDecoder:
    """COMP decoder in compile/decode form (see :mod:`repro.baselines.bin_gt`)."""

    def compile(
        self,
        design: "CompiledDesign | PoolingDesign | DesignKey",
        *,
        cache: "DesignCache | None" = None,
        store: "DesignStore | None" = None,
    ) -> CompiledGTDecoder:
        """Hoist the dense membership; decodes are two integer products."""
        return CompiledGTDecoder(_resolve(design, cache=cache, store=store), self, definite_defectives=False)


@dataclass(frozen=True)
class DDDecoder:
    """DD decoder in compile/decode form (see :mod:`repro.baselines.bin_gt`)."""

    def compile(
        self,
        design: "CompiledDesign | PoolingDesign | DesignKey",
        *,
        cache: "DesignCache | None" = None,
        store: "DesignStore | None" = None,
    ) -> CompiledGTDecoder:
        """Hoist the dense membership; decodes are three integer products."""
        return CompiledGTDecoder(_resolve(design, cache=cache, store=store), self, definite_defectives=True)
