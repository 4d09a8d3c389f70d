"""Basis-pursuit (ℓ1-minimisation) decoding of pooled data.

The compressed-sensing baseline of §I-B (Donoho & Tanner 2006, Foucart &
Rauhut 2013).  Pooled-data reconstruction is a special case of compressed
sensing with a non-negative integer measurement matrix, so the natural LP is

    minimise    Σ_i x_i
    subject to  A x = y,   0 ≤ x ≤ 1,

with ``A`` the *count* biadjacency matrix.  The box constraint encodes the
binary prior (standard practice for discrete signals); the relaxation is
rounded back to a weight-``k`` binary vector by taking the ``k`` largest
coordinates, mirroring the MN decoder's Line 8–9 so that the comparison
isolates the *estimation* step.

The paper's asymptotic count for this family is ``(2 + o(1))·k·ln(n/k)``,
about ``2·ln k / (2)``× the IT threshold — the benchmarks confirm basis
pursuit needs several times more queries than exhaustive decoding and
roughly the same order as MN.

The LP is solved by :class:`~repro.baselines.compiled.CompiledLPDecoder`;
:func:`basis_pursuit_decode` is its one-shot form.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.compiled import LPDecoder
from repro.core.design import PoolingDesign
from repro.designs.compiled import compile_design

__all__ = ["basis_pursuit_decode"]


def basis_pursuit_decode(design: PoolingDesign, y: np.ndarray, k: int) -> np.ndarray:
    """Decode via the box-constrained ℓ1 LP and round to weight ``k``.

    One-shot form of ``LPDecoder().compile(...).decode(y, k)``: the design
    is compiled with no store, so nothing is published to an ambient
    ``REPRO_DESIGN_STORE``.

    Parameters
    ----------
    design:
        The pooling design (materialised; LP needs the dense matrix).
    y:
        Observed additive query results.
    k:
        Signal weight used for the final rounding step.

    Returns
    -------
    numpy.ndarray
        A weight-``k`` 0/1 estimate.

    Raises
    ------
    ValueError
        If ``k`` exceeds n, ``y`` is malformed, or the dense counts matrix
        exceeds the block residency budget.
    RuntimeError
        If the LP solver fails (infeasibility cannot happen for genuine
        ``(design, y)`` pairs since the ground truth is feasible).
    """
    return LPDecoder().compile(compile_design(design)).decode(y, k)
