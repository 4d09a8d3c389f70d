"""Shared centring algebra for the compressed-sensing baselines.

OMP and AMP work on the *centred* count matrix: the pooled-count columns
have mean ``Γ/n`` (``Γ`` = pool size, ``1/2·n`` by default), so the matrix
and the observation must be shifted before any correlation or
message-passing step makes sense:

    Ã = A − Γ/n,    ỹ = y − k·Γ/n.

Only ``ỹ`` is materialised; ``Ã`` is applied inside each product instead,
``v @ Ã = v @ A − Γ/n·Σv``.

For ragged designs (pools of unequal size) ``Γ`` is the *mean* pool size,
``float(np.diff(indptr).mean())``.  AMP additionally needs the per-entry
variance ``v = Γ/n·(1 − 1/n)`` of the count distribution, also centralised
here.

Every helper takes plain arrays (or a :class:`~repro.core.design.PoolingDesign`
``indptr``); the compiled decoders in :mod:`repro.baselines.compiled` take
the constants once per artifact and centre observations per decode.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pool_gamma",
    "column_mean",
    "pool_variance",
    "centre_observations",
]


def pool_gamma(indptr: np.ndarray) -> float:
    """Mean pool size ``Γ`` from a CSR ``indptr`` (ragged-design safe).

    The sum of pool sizes is an exact integer, so the mean is a single
    rounding.
    """
    return float(np.diff(np.asarray(indptr)).mean())


def column_mean(gamma: float, n: int) -> float:
    """Per-entry column mean ``μ = Γ/n`` of the count matrix."""
    return gamma / n


def pool_variance(gamma: float, n: int) -> float:
    """Per-entry variance ``v = Γ/n·(1 − 1/n)`` of the count distribution.

    The sampling-with-replacement count of one item in one pool is
    Binomial(Γ, 1/n); this is its variance, the scaling AMP's standardised
    sensing matrix ``F = (A − μ)/√(v·m)`` assumes.
    """
    return gamma * (1.0 / n) * (1.0 - 1.0 / n)


def centre_observations(y: np.ndarray, k: "int | np.ndarray", mean: float) -> np.ndarray:
    """Centred observations ``ỹ = y − k·μ`` for scalar or per-row ``k``.

    With a batch ``Y`` of shape ``(B, m)`` and a per-row ``k`` array of
    shape ``(B,)``, the subtraction broadcasts row-wise.
    """
    y = np.asarray(y, dtype=np.float64)
    if np.ndim(k) > 0 and y.ndim == 2:
        return y - np.asarray(k, dtype=np.float64)[:, None] * mean
    return y - np.asarray(k, dtype=np.float64) * mean
