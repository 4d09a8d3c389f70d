"""Compiled baseline decoders: LP/OMP/AMP/COMP/DD on the compiled-design substrate.

This module is the one implementation of the LP/OMP/AMP baselines.  Each is
split into the library's unified compile/decode lifecycle
(:mod:`repro.designs.protocol`):

* a frozen-dataclass **Decoder** (:class:`LPDecoder`, :class:`OMPDecoder`,
  :class:`AMPDecoder`, :class:`COMPDecoder`, :class:`DDDecoder`) whose
  ``compile(compiled)`` hoists all signal-independent ``O(m·n)`` work — dense
  counts materialisation (:meth:`~repro.designs.compiled.CompiledDesign.counts_block`),
  centring constants, OMP's column norms — into
* a **Compiled** artifact (:class:`CompiledLPDecoder`, …) whose
  ``decode_batch(Y, k)`` runs the algorithm against the hoisted arrays, the
  per-round correlation / residual / message-passing updates as real
  ``(B, m) @ (m, n)`` BLAS GEMMs instead of per-signal Python loops.  Its
  ``decode(y, k)`` is the one-row batch, written once in
  :class:`~repro.designs.protocol.CompiledDecoderBase`, so each family has
  one decode path.

LP, OMP and AMP hold one ``(m, n)`` operand, the counts block ``C``; OMP and
AMP centre algebraically, ``v @ (C − μ) = v @ C − μ·Σv``.

The one-shot functions (:func:`~repro.baselines.lp.basis_pursuit_decode`,
:func:`~repro.baselines.omp.omp_decode`, :func:`~repro.baselines.amp.amp_decode`)
are thin ``compile(compile_design(design)).decode(y, k)`` calls into this
module, compiled with no store (``amp_decode`` returns
:meth:`CompiledAMPDecoder.run`).  The reference
:func:`~repro.baselines.bin_gt.comp_decode`/
:func:`~repro.baselines.bin_gt.dd_decode` stay as the binary decoders' test
oracle.

Residency bound: LP/OMP/AMP need the dense float64 counts matrix resident,
so a design whose ``(m, n)`` float64 block exceeds
:data:`~repro.designs.compiled.BLOCK_RESIDENCY_LIMIT` (256 MB, ``m·n`` up to
~33.5M) raises :class:`ValueError` at compile time — one-shots included.

Parity contract (asserted by ``tests/test_decoders.py``): ``decode`` is the
one-row ``decode_batch``, bit for bit in every family.  Row ``b`` of a
``B > 1`` batch against ``decode`` of that row alone:

* COMP/DD rows are bit-identical: their products are integer-exact (they
  route through the kernel-dispatched
  :meth:`~repro.designs.compiled.CompiledDesign.psi` seam) and match the
  reference :func:`~repro.baselines.bin_gt.comp_decode`/``dd_decode``
  bit for bit.
* For the float decoders (LP/OMP/AMP) a GEMM may round differently with
  the batch shape in the last bits, so batch rows are guaranteed
  *thresholded-identical* (same recovered support) rather than
  bit-identical — the documented tolerance of the iterative baselines.  The
  float GEMMs are precision-pinned to float64 so results do not depend on
  ``REPRO_KERNEL``.  Their reference is the literal single-row supports
  pinned in the test suite, not a second implementation.

Compiled artifacts derive entirely from the :class:`CompiledDesign` they
bind; a key or a materialised design is resolved to one (through the store,
when there is one) by :func:`~repro.designs.compiled.resolve_compiled`
first, exactly like the MN path.  Only the compiled design is persisted;
the counts block is rebuilt once per process and is not in
``CompiledDesign.nbytes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.baselines.amp import AMPResult, _denoise
from repro.baselines.centring import (
    centre_observations,
    column_mean,
    pool_gamma,
    pool_variance,
)
from repro.designs.protocol import CompiledDecoderBase, check_observations
from repro.util.validation import check_counts, check_positive_int, check_weight_vector

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.designs.compiled import CompiledDesign

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


# ---------------------------------------------------------------------------
# LP — box-constrained basis pursuit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LPDecoder:
    """Basis-pursuit decoder in compile/decode form (see :mod:`repro.baselines.lp`)."""

    def compile(self, compiled: "CompiledDesign") -> "CompiledLPDecoder":
        """Hoist the dense counts matrix; every decode is then LP-only."""
        return CompiledLPDecoder(compiled, self)


class CompiledLPDecoder(CompiledDecoderBase):
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

    def decode_batch(self, Y: np.ndarray, k: "int | np.ndarray") -> np.ndarray:
        """Solve the box-constrained LP per row and round each to its weight."""
        Y = np.asarray(check_observations(Y, self.compiled.m), dtype=np.float64)
        k_arr = _batch_weights(k, Y.shape[0], self.compiled.n)
        return np.stack([self._solve(Y[b], int(k_arr[b])) for b in range(Y.shape[0])])


# ---------------------------------------------------------------------------
# OMP — centred orthogonal matching pursuit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OMPDecoder:
    """Centred-OMP decoder in compile/decode form (see :mod:`repro.baselines.omp`)."""

    def compile(self, compiled: "CompiledDesign") -> "CompiledOMPDecoder":
        """Hoist the counts block and centred column norms; decodes pay greedy rounds only."""
        return CompiledOMPDecoder(compiled, self)


class CompiledOMPDecoder(CompiledDecoderBase):
    """OMP against the counts block, centred algebraically, with pre-computed column norms.

    ``decode_batch`` runs ``max(k)`` greedy rounds and turns each round's
    correlation into one ``(B, m) @ (m, n)`` GEMM across all still-active
    rows, with per-row least-squares refits (supports differ per row, so
    the refit cannot batch — but it is ``O(m·k)``, not the ``O(m·n)`` that
    dominated).  ``decode`` is its one-row case.
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

    def decode_batch(self, Y: np.ndarray, k: "int | np.ndarray") -> np.ndarray:
        """``k`` rounds of select / least-squares refit / residual update per row."""
        n, m = self.compiled.n, self.compiled.m
        Y = check_observations(Y, m)
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

    def compile(self, compiled: "CompiledDesign") -> "CompiledAMPDecoder":
        """Hoist the counts block and the standardising constants; decodes pay iterations only."""
        return CompiledAMPDecoder(compiled, self)


class CompiledAMPDecoder(CompiledDecoderBase):
    """AMP against the counts block; ``F = (C − μ)/s`` is applied, never formed.

    One round loop runs the iteration across the rows of a batch — the two
    matrix products per round are ``(B, m) @ (m, n)`` GEMMs — with per-row
    effective-noise tracking and per-row convergence freezing, so each row
    follows its own trajectory.  ``decode_batch`` rounds the posteriors to
    weight ``k``; :meth:`run` is the one-row batch with its trajectory
    (:class:`~repro.baselines.amp.AMPResult`), and ``decode`` is its
    ``sigma_hat``.
    """

    def __init__(self, compiled: "CompiledDesign", decoder: AMPDecoder):
        super().__init__(compiled, decoder)
        self.counts = _counts_or_raise(compiled)
        gamma = pool_gamma(compiled.design.indptr)
        self.mu = column_mean(gamma, compiled.n)
        self.scale = np.sqrt(pool_variance(gamma, compiled.n) * compiled.m)

    def run(self, y: np.ndarray, k: int) -> AMPResult:
        """Iterate AMP on one signal to convergence (or ``max_iter``) and round to weight ``k``."""
        X, k_arr, iterations, converged, tau2 = self._iterate(self._one_row(y), k)
        rounds = int(iterations[0])
        return AMPResult(
            sigma_hat=self._round(X, k_arr)[0],
            posterior=X[0],
            iterations=rounds,
            converged=bool(converged[0]),
            tau_history=tuple(tau2[:rounds, 0].tolist()),
        )

    def decode_batch(self, Y: np.ndarray, k: "int | np.ndarray") -> np.ndarray:
        """Iterate AMP on every row and round each posterior to its weight."""
        X, k_arr, *_ = self._iterate(Y, k)
        return self._round(X, k_arr)

    def _iterate(self, Y: np.ndarray, k: "int | np.ndarray") -> "tuple[np.ndarray, ...]":
        """The AMP rounds over a ``(B, m)`` batch.

        Returns the ``(B, n)`` posteriors, the per-row weights, the rounds
        each row ran, whether each row converged, and the ``(rounds, B)``
        effective-noise history (NaN once a row has stopped).
        """
        n, m = self.compiled.n, self.compiled.m
        Y = check_observations(Y, m)
        batch = Y.shape[0]
        k_arr = _batch_weights(k, batch, n, strict_upper=True)
        c, mu, scale = self.counts, self.mu, self.scale
        Y_t = centre_observations(Y, k_arr, mu) / scale

        eps = k_arr.astype(np.float64) / n  # per-row prior
        X = np.tile(eps[:, None], (1, n))
        # Round 1 scales the previous residual by onsager = 0, so it starts
        # at zero instead of costing a product over the counts block.
        Z = np.zeros_like(Y_t)
        onsager = np.zeros(batch, dtype=np.float64)
        active = np.ones(batch, dtype=bool)
        iterations = np.zeros(batch, dtype=np.int64)
        tau_rounds: "list[np.ndarray]" = []
        for _ in range(self.decoder.max_iter):
            if not active.any():
                break
            rows = np.flatnonzero(active)
            Za = Y_t[rows] - _centred_product(X[rows], c.T, mu) / scale + Z[rows] * onsager[rows, None]
            tau2 = np.maximum(np.einsum("bm,bm->b", Za, Za) / m, 1e-12)
            tau_rounds.append(np.full(batch, np.nan))
            tau_rounds[-1][rows] = tau2
            iterations[rows] += 1
            R = X[rows] + _centred_product(Za / scale, c, mu)  # (B, m) @ (m, n): the pseudo-data GEMM
            eta, deta = _denoise(R, tau2[:, None], eps[rows, None])
            onsager[rows] = deta.mean(axis=1) * (n / m)
            delta = np.abs(eta - X[rows]).mean(axis=1)
            X[rows] = eta
            Z[rows] = Za
            active[rows] = delta >= self.decoder.tol
        return X, k_arr, iterations, ~active, np.stack(tau_rounds)

    @staticmethod
    def _round(X: np.ndarray, k_arr: np.ndarray) -> np.ndarray:
        """Each posterior row rounded to its top-``k`` support."""
        from repro.parallel.sort import parallel_top_k

        return np.stack([_scatter_support(X.shape[1], parallel_top_k(x, int(kb))) for x, kb in zip(X, k_arr)])


# ---------------------------------------------------------------------------
# Binary group testing — COMP and DD over the binarised channel
# ---------------------------------------------------------------------------


class CompiledGTDecoder(CompiledDecoderBase):
    """COMP/DD against the design's distinct-incidence membership.

    The binary decoders observe only the OR channel, so additive results
    are binarised (``y > 0``) against the design's *distinct* membership
    (duplicate draws collapse — an item is in a pool or it is not).  On
    noise-free additive data this is sound: ``y_j = 0`` iff pool ``j``
    contains no one-entry.

    ``decode_batch`` expresses both phases as integer-exact products
    through the kernel-dispatched
    :meth:`~repro.designs.compiled.CompiledDesign.psi` seam and the
    resident block; ``decode`` is its one-row case.  Rows are bit-identical
    to the reference :func:`~repro.baselines.bin_gt.comp_decode`/
    :func:`~repro.baselines.bin_gt.dd_decode`.  ``k`` is validated as
    every family validates it, then unused — COMP/DD do not need the weight.
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
        self.definite_defectives = definite_defectives

    def decode_batch(self, Y: np.ndarray, k: "int | np.ndarray") -> np.ndarray:
        """COMP (and, for DD, the definite-defectives pass) on every row."""
        Y = check_counts(check_observations(Y, self.compiled.m), "Y")
        _batch_weights(k, Y.shape[0], self.compiled.n)
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

    def compile(self, compiled: "CompiledDesign") -> CompiledGTDecoder:
        """Bind to the design's resident incidence block; decodes are two integer products."""
        return CompiledGTDecoder(compiled, self, definite_defectives=False)


@dataclass(frozen=True)
class DDDecoder:
    """DD decoder in compile/decode form (see :mod:`repro.baselines.bin_gt`)."""

    def compile(self, compiled: "CompiledDesign") -> CompiledGTDecoder:
        """Bind to the design's resident incidence block; decodes are three integer products."""
        return CompiledGTDecoder(compiled, self, definite_defectives=True)
