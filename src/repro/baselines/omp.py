"""Orthogonal Matching Pursuit (OMP), discrete-aware variant.

The greedy-pursuit baseline of §I-B (Pati et al. 1993; the discrete
refinement is due to Sparrer & Fischer 2015).  Standard OMP assumes
zero-mean measurement columns; the pooled-count matrix has column mean
``Γ/n = 1/2``, so both the matrix and the observation are *centred* first
(the observation via the known/calibrated weight ``k``):

    Ã = A − Γ/n · 1,    ỹ = y − k·Γ/n.

Iterations then follow the textbook recipe — select the column most
correlated with the residual, re-fit by least squares on the support,
update the residual — for exactly ``k`` rounds, after which the support is
declared one (the discrete projection step).

The rounds run once, in
:meth:`~repro.baselines.compiled.CompiledOMPDecoder.decode_batch`, across
the rows of a batch; a single signal is the one-row batch, and
:func:`omp_decode` is its one-shot form.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.compiled import OMPDecoder
from repro.core.design import PoolingDesign
from repro.designs.compiled import compile_design

__all__ = ["omp_decode"]


def omp_decode(design: PoolingDesign, y: np.ndarray, k: int) -> np.ndarray:
    """Decode pooled data with centred OMP.

    One-shot form of ``OMPDecoder().compile(...).decode(y, k)``: the design
    is compiled with no store, so nothing is published to an ambient
    ``REPRO_DESIGN_STORE``.

    Parameters
    ----------
    design:
        Materialised pooling design.
    y:
        Additive query results.
    k:
        Signal weight (number of greedy rounds).

    Returns
    -------
    numpy.ndarray
        Weight-``k`` 0/1 estimate.

    Raises
    ------
    ValueError
        If ``k`` is not a positive integer ≤ n, ``y`` has the wrong length
        or non-finite entries, or the dense counts matrix exceeds the block
        residency budget.
    """
    return OMPDecoder().compile(compile_design(design)).decode(y, k)
