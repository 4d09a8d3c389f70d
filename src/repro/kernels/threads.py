"""BLAS threadpool governor: dependency-light thread-count control.

The GEMM kernels run on whatever BLAS NumPy linked — which manages its own
thread pool, invisibly to the library.  That is fine for one serial
process, but a :class:`~repro.parallel.pool.WorkerPool` forking ``W``
workers would oversubscribe the machine ``W × T``-fold (every worker
inherits the full-machine default ``T``).  This module provides the
minimal control surface to stop that, with **no** new dependencies:

* **detection** — scan ``/proc/self/maps`` for the loaded BLAS shared
  object (OpenBLAS — including SciPy's ``scipy_openblas`` wheels, whose
  symbols carry a vendor prefix and ``64_`` suffix — MKL, BLIS) and bind
  its get/set thread functions through :mod:`ctypes`;
* **get/set** — :func:`get_blas_threads` / :func:`set_blas_threads`;
* **policy** — the one rule: a forked worker of a ``W``-worker pool sets
  its BLAS pool to :func:`worker_thread_budget` ``= max(1, cores // W)``.
  Inline execution leaves BLAS alone; the vendor's own
  ``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS`` / ``MKL_NUM_THREADS``
  size the calling process's pool;
* **provenance** — :func:`machine_provenance`, stamped into every
  ``BENCH_*.json`` payload so perf trajectories are comparable across
  machines.

Everything degrades gracefully: with no recognised BLAS (or no
``/proc``), detection returns ``None`` and every setter is a no-op — the
library never *requires* thread control, it only exploits it.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "BlasControl",
    "detect_blas",
    "get_blas_threads",
    "set_blas_threads",
    "worker_thread_budget",
    "cpu_count",
    "machine_provenance",
]

#: Shared-object basename fragments identifying each vendor.  SciPy/NumPy
#: wheels ship OpenBLAS as ``libscipy_openblas…``; conda/MKL environments
#: load ``libmkl_rt``.
_VENDOR_PATTERNS: "tuple[tuple[str, tuple[str, ...]], ...]" = (
    ("openblas", ("libopenblas", "libscipy_openblas")),
    ("mkl", ("libmkl_rt", "libmkl_core")),
    ("blis", ("libblis",)),
)

#: (getter, setter) symbol candidates per vendor, probed in order.  The
#: plain OpenBLAS names come first; the ``64_``-suffixed and
#: ``scipy_``-prefixed variants cover ILP64 builds and SciPy's renamed
#: wheel exports (which ship *only* the prefixed symbols).
_SYMBOLS: "dict[str, tuple[tuple[str, str], ...]]" = {
    "openblas": (
        ("openblas_get_num_threads", "openblas_set_num_threads"),
        ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
        ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
        ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ),
    "mkl": (("MKL_Get_Max_Threads", "MKL_Set_Num_Threads"),),
    "blis": (("bli_thread_get_num_threads", "bli_thread_set_num_threads"),),
}


@dataclass
class BlasControl:
    """A bound BLAS threadpool: vendor, library path, get/set functions."""

    vendor: str
    path: str
    _get: Callable[[], int]
    _set: Callable[[int], None]

    def get_threads(self) -> int:
        """The pool's current thread count (≥ 1)."""
        return max(1, int(self._get()))

    def set_threads(self, threads: int) -> int:
        """Set the pool size, returning the previous count (for restore)."""
        previous = self.get_threads()
        self._set(max(1, int(threads)))
        return previous


def _mapped_library_paths() -> "list[str]":
    """Shared-object paths mapped into this process (empty off-Linux)."""
    try:
        with open("/proc/self/maps") as maps:
            lines = maps.read().splitlines()
    except OSError:  # pragma: no cover - non-Linux
        return []
    paths = {line.rsplit(" ", 1)[-1] for line in lines if ".so" in line}
    return sorted(p for p in paths if p.startswith("/"))


def _probe() -> "Optional[BlasControl]":
    """Find and bind the first controllable BLAS among the mapped libraries."""
    for path in _mapped_library_paths():
        base = os.path.basename(path).lower()
        for vendor, fragments in _VENDOR_PATTERNS:
            if not any(base.startswith(f) for f in fragments):
                continue
            try:
                lib = ctypes.CDLL(path)
            except OSError:  # pragma: no cover - unloadable mapping
                continue
            for get_name, set_name in _SYMBOLS[vendor]:
                get_fn = getattr(lib, get_name, None)
                set_fn = getattr(lib, set_name, None)
                if get_fn is None or set_fn is None:
                    continue
                get_fn.restype = ctypes.c_int
                get_fn.argtypes = []
                set_fn.restype = None
                set_fn.argtypes = [ctypes.c_int]
                return BlasControl(vendor=vendor, path=path, _get=get_fn, _set=set_fn)
    return None


#: Probe result memo: ``False`` = not probed yet; ``None`` = probed, none found.
_CONTROL: "BlasControl | None | bool" = False


def detect_blas() -> "Optional[BlasControl]":
    """The process's controllable BLAS pool, or ``None``.  Memoised.

    NumPy is imported by this module, so its BLAS is guaranteed to be
    mapped before the first probe runs.
    """
    global _CONTROL
    if _CONTROL is False:
        _CONTROL = _probe()
    return _CONTROL  # type: ignore[return-value]


def get_blas_threads() -> int:
    """Current BLAS thread count (``1`` when no pool is controllable)."""
    control = detect_blas()
    return control.get_threads() if control is not None else 1


def set_blas_threads(threads: int) -> int:
    """Set the BLAS thread count, returning the previous value.

    A no-op (returning ``1``) when no controllable pool was detected —
    callers never need to branch on detection themselves.
    """
    control = detect_blas()
    if control is None:
        return 1
    return control.set_threads(threads)


def cpu_count() -> int:
    """Usable core count, respecting CPU affinity where the platform has it."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def worker_thread_budget(workers: int, cores: "int | None" = None) -> int:
    """Per-worker BLAS thread budget: ``max(1, cores // workers)``.

    The cap that stops ``W`` forked workers from oversubscribing the
    machine ``W × T``-fold while still using every core when ``W`` is
    small.
    """
    total = cpu_count() if cores is None else max(1, int(cores))
    return max(1, total // max(1, int(workers)))


def machine_provenance() -> "dict[str, object]":
    """Machine facts every benchmark payload records for comparability."""
    control = detect_blas()
    return {
        "cpu_count": cpu_count(),
        "blas_vendor": control.vendor if control is not None else "unknown",
        "blas_threads": control.get_threads() if control is not None else 1,
        "numpy": np.__version__,
    }
