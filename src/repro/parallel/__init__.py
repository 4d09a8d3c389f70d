"""Parallel compute substrate.

The paper's simulator is multi-threaded C++ on a 20-core Xeon.  CPython's
GIL rules out shared-memory threading for the hot kernels, so this package
provides the canonical Python workaround (see the HPC guides): a fork-based
**process pool** communicating through POSIX shared memory, with NumPy doing
the vectorised inner loops inside each worker.

Modules:

* :mod:`repro.parallel.partition` — chunk counts for the batched query
  streams.
* :mod:`repro.parallel.sharedmem` — named shared NumPy arrays.
* :mod:`repro.parallel.pool` — a persistent worker pool with task
  submission, error propagation and clean shutdown.
* :mod:`repro.parallel.sort` — top-k selection (Lines 7–9 of
  Algorithm 1).
* :mod:`repro.parallel.matvec` — the CSR matrix behind ``Ψ = Mᵀy`` and
  ``Δ* = Mᵀ1``.

Everything degrades gracefully to serial execution when ``workers=1`` —
results are bit-identical by construction.
"""

from repro.parallel.sharedmem import SharedArray
from repro.parallel.pool import WorkerPool, PoolError, WorkerCrashError, RetryableTaskError
from repro.parallel.sort import parallel_top_k
from repro.parallel.matvec import CSRMatrix

__all__ = [
    "SharedArray",
    "WorkerPool",
    "PoolError",
    "WorkerCrashError",
    "RetryableTaskError",
    "parallel_top_k",
    "CSRMatrix",
]
