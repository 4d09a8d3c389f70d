"""Approximate Message Passing (AMP) for pooled data.

The message-passing baseline of §I-B (Alaoui, Ramdas, Krzakala, Zdeborová &
Jordan 2019, who analysed exactly this decoder for the dense regime
``k = Θ(n)``).  We port it to the paper's random regular design:

* The count matrix has i.i.d.-like entries with mean ``μ = Γ/n`` and
  variance ``v ≈ Γ/n·(1−1/n) ≈ 1/2``.  Centre and scale to get the
  standardised sensing matrix ``F = (A − μ)/√(v·m)`` whose entries have
  variance ``1/m`` — the normalisation AMP theory assumes.  ``F`` is never
  formed: ``F x = (A x − μ·Σx)/√(v·m)``, and likewise for ``Fᵀz``.
* Scalar denoiser = posterior mean of a Bernoulli(``k/n``) prior under
  Gaussian noise: a sigmoid in the pseudo-data, with closed-form derivative
  for the Onsager term.
* The effective noise variance is tracked by the standard empirical
  estimator ``τ² = ‖z‖²/m``.

The decoder stops on convergence of the estimate or after ``max_iter``
rounds, and the final binary estimate takes the top-``k`` posterior means
(same rounding as every other decoder in the suite, for comparability).

The iteration itself lives in
:class:`~repro.baselines.compiled.CompiledAMPDecoder` as one round loop
over a batch: ``run`` for one signal (the one-row batch, with its
trajectory), ``decode_batch`` for many; :func:`amp_decode` is the one-shot
form of ``run``.  This module holds the Bernoulli denoiser and the
:class:`AMPResult` trajectory record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.design import PoolingDesign

__all__ = ["amp_decode", "AMPResult"]


@dataclass(frozen=True)
class AMPResult:
    """Decoded signal plus convergence diagnostics."""

    sigma_hat: np.ndarray
    posterior: np.ndarray
    iterations: int
    converged: bool
    tau_history: "tuple[float, ...]"


def _denoise(r: np.ndarray, tau2: "float | np.ndarray", eps: "float | np.ndarray") -> "tuple[np.ndarray, np.ndarray]":
    """Posterior mean and derivative for the Bernoulli(eps) prior.

    ``x̂ = sigmoid(logit(eps) + (2r − 1)/(2τ²))``;
    ``dx̂/dr = x̂(1 − x̂)/τ²``.  ``tau2``/``eps`` broadcast against ``r``
    (scalars for one signal, ``(B, 1)`` columns for a batch).
    """
    a = np.log(eps / (1.0 - eps)) + (2.0 * r - 1.0) / (2.0 * tau2)
    # Clip the exponent for numerical safety deep in the tails.
    a = np.clip(a, -60.0, 60.0)
    eta = 1.0 / (1.0 + np.exp(-a))
    return eta, eta * (1.0 - eta) / tau2


def amp_decode(
    design: PoolingDesign,
    y: np.ndarray,
    k: int,
    max_iter: int = 50,
    tol: float = 1e-7,
) -> AMPResult:
    """Run AMP to convergence and round to a weight-``k`` estimate.

    One-shot form of ``AMPDecoder(max_iter, tol).compile(...).run(y, k)``:
    the design is compiled with no store, so nothing is published to an
    ambient ``REPRO_DESIGN_STORE``.

    Parameters
    ----------
    design:
        Materialised pooling design.
    y:
        Additive query results.
    k:
        Signal weight (sets the prior ``eps = k/n`` and the rounding).
    max_iter:
        Iteration cap.
    tol:
        Convergence threshold on the mean absolute estimate change.

    Raises
    ------
    ValueError
        If ``k`` is not a positive integer < n, ``y`` has the wrong length
        or non-finite entries, or the dense counts matrix exceeds the
        block residency budget.
    """
    from repro.baselines.compiled import AMPDecoder
    from repro.designs.compiled import compile_design

    return AMPDecoder(max_iter=max_iter, tol=tol).compile(compile_design(design)).run(y, k)
