"""Baseline decoders from the paper's related-work section (§I-B, §I-D).

The paper positions the MN algorithm against four families:

* **Compressed sensing**: ℓ1 *basis pursuit* (Donoho & Tanner; Foucart &
  Rauhut) — :mod:`repro.baselines.lp`, an LP over the pooled-count matrix.
* **Greedy pursuit**: *orthogonal matching pursuit* (Pati et al.) —
  :mod:`repro.baselines.omp`, discrete-aware variant.
* **Message passing**: *AMP* (Alaoui et al.) — :mod:`repro.baselines.amp`,
  Bayes-optimal scalar denoiser for the Bernoulli prior.
* **Binary group testing** (OR queries; Coja-Oghlan et al.) —
  :mod:`repro.baselines.bin_gt`, COMP and DD decoders on a Bernoulli
  design; the §I-D comparator that beats additive-query algorithms for
  small θ despite discarding information.

Karimi et al.'s sparse-graph-code decoders are represented by their rate
constants (see :func:`repro.core.thresholds.karimi_rate`): the paper itself
compares against those *rates*, and the decoders target bespoke ensembles
incompatible with the random regular design reproduced here.
"""

from repro.baselines.lp import basis_pursuit_decode
from repro.baselines.omp import omp_decode
from repro.baselines.amp import amp_decode, AMPResult
from repro.baselines.bin_gt import (
    BernoulliORDesign,
    comp_decode,
    dd_decode,
    run_gt_trial,
)
from repro.baselines.centring import (
    centre_observations,
    column_mean,
    pool_gamma,
    pool_variance,
)
from repro.baselines.compiled import (
    AMPDecoder,
    COMPDecoder,
    CompiledAMPDecoder,
    CompiledGTDecoder,
    CompiledLPDecoder,
    CompiledOMPDecoder,
    DDDecoder,
    LPDecoder,
    OMPDecoder,
)
from repro.baselines.sequential import (
    SequentialResult,
    adaptive_binary_splitting,
    oracle_from_signal,
)
from repro.designs.protocol import check_observations

__all__ = [
    "basis_pursuit_decode",
    "omp_decode",
    "amp_decode",
    "AMPResult",
    "LPDecoder",
    "OMPDecoder",
    "AMPDecoder",
    "COMPDecoder",
    "DDDecoder",
    "CompiledLPDecoder",
    "CompiledOMPDecoder",
    "CompiledAMPDecoder",
    "CompiledGTDecoder",
    "pool_gamma",
    "column_mean",
    "pool_variance",
    "centre_observations",
    "check_observations",
    "BernoulliORDesign",
    "comp_decode",
    "dd_decode",
    "run_gt_trial",
    "SequentialResult",
    "adaptive_binary_splitting",
    "oracle_from_signal",
]
