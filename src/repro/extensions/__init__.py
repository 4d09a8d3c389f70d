"""Extensions beyond the paper's core results (§VI "open problems").

* noisy additive queries grew into the first-class :mod:`repro.noise`
  subsystem, whose main names are re-exported here.
* :mod:`repro.extensions.threshold_gt` — the threshold-group-testing
  variant the paper names as future work: a query reports only whether its
  count exceeds a threshold ``T``; we port the MN scoring idea to it.
* :mod:`repro.extensions.adaptive` — a round-based scheme for the
  partially-parallel setting (``L`` units): keep issuing rounds of ``L``
  queries until the decoded signal explains every observation, trading
  rounds for queries.

These are clearly-labelled *extensions*: useful, tested, but not claims of
the paper.
"""

from repro.noise.models import NoiseModel, GaussianNoise, DropoutNoise
from repro.noise.trial import run_noisy_mn_trial
from repro.extensions.threshold_gt import ThresholdDesign, threshold_mn_decode, run_threshold_trial
from repro.extensions.adaptive import adaptive_reconstruct, AdaptiveResult

__all__ = [
    "NoiseModel",
    "GaussianNoise",
    "DropoutNoise",
    "run_noisy_mn_trial",
    "ThresholdDesign",
    "threshold_mn_decode",
    "run_threshold_trial",
    "adaptive_reconstruct",
    "AdaptiveResult",
]
