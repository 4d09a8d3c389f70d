"""The batched execution engine: backends, multi-signal facades, grids.

This layer turns the single-signal reproduction into a throughput-oriented
system without touching its semantics:

* :mod:`repro.engine.backend` — the :class:`Backend` protocol, the one
  execution argument (``backend=``) of every entry point, with
  :class:`SerialBackend` and :class:`SharedMemBackend` implementations
  and :func:`backend_for_workers` to build one from a worker count.
* :mod:`repro.engine.batch` — :func:`reconstruct_batch`, the batched
  sibling of :func:`repro.reconstruct`: one shared pooling design decodes
  ``B`` signals in a single vectorised pass, bit-identical per signal to
  ``B`` independent calls with matched seeds.
* :mod:`repro.engine.grid` — the batched trial-grid runner behind the
  ``engine="batched"`` mode of the Fig. 3/4 sweeps.

Layering: ``parallel`` → ``engine.backend`` → ``core`` →
``engine.batch``/``engine.grid`` → ``experiments``.  Core never imports
the engine at module scope; the engine is the composition layer on top.
"""

from repro.core.design import DEFAULT_BATCH_QUERIES
from repro.engine.backend import Backend, SerialBackend, SharedMemBackend, backend_for_workers
from repro.engine.batch import BatchReconstructionReport, reconstruct_batch, signals_oracle
from repro.engine.grid import BatchedPointResult, run_batched_point, run_batched_point_sweep, run_trial_grid

__all__ = [
    "DEFAULT_BATCH_QUERIES",
    "Backend",
    "SerialBackend",
    "SharedMemBackend",
    "backend_for_workers",
    "BatchReconstructionReport",
    "reconstruct_batch",
    "signals_oracle",
    "BatchedPointResult",
    "run_batched_point",
    "run_batched_point_sweep",
    "run_trial_grid",
]
