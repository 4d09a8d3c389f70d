"""Execution backends — one object answering "where does the work run?".

A :class:`Backend` is the library's single execution argument: the
process count and the :mod:`repro.kernels` implementation the hot paths
run on.  Callers configure execution once and thread the one object
through :func:`~repro.core.reconstruction.reconstruct`,
:func:`~repro.core.mn.run_mn_trial`, :class:`~repro.core.mn.MNDecoder`,
:func:`~repro.core.design.stream_design_stats`, the experiment runners
and the batched engine — ``backend=`` is the only way to say where work
runs.

Two implementations ship:

* :class:`SerialBackend` — everything inline in the calling process.  The
  reference for bit-reproducibility and the default.
* :class:`SharedMemBackend` — owns a lazily created
  :class:`~repro.parallel.pool.WorkerPool`, fanning tasks out over
  fork+shared-memory workers.

:func:`backend_for_workers` turns a plain worker count (the CLI's
``--workers``) into one of the two.

Invariant: every backend produces bit-identical results.  The streaming
batch size is part of the *design key*, not of execution, so it is a
per-call argument of :func:`~repro.core.design.stream_design_stats`
rather than a backend field.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, Protocol, Sequence, runtime_checkable

from repro.kernels import check_kernel
from repro.kernels.threads import (
    blas_thread_limit,
    pin_workers_default,
    resolve_blas_threads,
    worker_core_slices,
    worker_thread_budget,
)
from repro.parallel.pool import RetryableTaskError, WorkerPool, resolve_workers

__all__ = [
    "Backend",
    "SerialBackend",
    "SharedMemBackend",
    "backend_for_workers",
    "resolved_backend",
]


@runtime_checkable
class Backend(Protocol):
    """What the execution layer needs to know, and nothing else.

    Attributes
    ----------
    workers:
        Concrete process count (``1`` means "run inline in the caller").
    kernel:
        Execution-kernel choice for the engine's hot paths
        (:mod:`repro.kernels`): ``"dense"``, ``"legacy"``, or ``None`` to
        defer to ``REPRO_KERNEL`` / the library default.  It never
        changes output — kernels are bit-identical — so it is a pure
        performance knob.
    """

    @property
    def workers(self) -> int: ...

    @property
    def kernel(self) -> "str | None": ...

    def map(self, fn: Callable[[Any, dict], Any], payloads: Sequence[Any]) -> "list[Any]":
        """Run ``fn(payload, cache)`` over payloads; results in submission order."""
        ...

    def shutdown(self) -> None:
        """Release owned resources.  Idempotent."""
        ...


class SerialBackend:
    """Inline execution in the calling process.

    The reference backend: no subprocesses, no shared memory, trivially
    debuggable.  ``map`` preserves the per-worker ``cache`` contract of
    :class:`~repro.parallel.pool.WorkerPool` with a single persistent dict.

    ``blas_threads`` caps the BLAS threadpool for the duration of each
    :meth:`map` call (scoped — the process-wide setting is restored on
    exit); ``None`` defers to ``REPRO_BLAS_THREADS`` and, absent that,
    leaves the BLAS library's own default untouched.

    Examples
    --------
    >>> from repro.engine.backend import SerialBackend
    >>> with SerialBackend(kernel="legacy") as backend:
    ...     (backend.workers, backend.kernel)
    (1, 'legacy')
    """

    def __init__(self, kernel: "str | None" = None, blas_threads: "int | None" = None):
        self._kernel = check_kernel(kernel)
        self._blas_threads = resolve_blas_threads(blas_threads)
        self._cache: dict = {}
        self._closed = False

    @property
    def workers(self) -> int:
        return 1

    @property
    def kernel(self) -> "str | None":
        return self._kernel

    @property
    def blas_threads(self) -> "int | None":
        return self._blas_threads

    def map(self, fn: Callable[[Any, dict], Any], payloads: Sequence[Any]) -> "list[Any]":
        if self._closed:
            raise RuntimeError("backend already shut down")
        try:
            with blas_thread_limit(self._blas_threads):
                return [fn(p, self._cache) for p in payloads]
        except (MemoryError, BrokenPipeError) as exc:
            # Same structured, retryable shape the worker path reports —
            # transient resource pressure is not a caller logic error.
            raise RetryableTaskError(f"inline task failed with transient {type(exc).__name__}: {exc}") from exc

    def shutdown(self) -> None:
        self._closed = True
        self._cache.clear()

    def __enter__(self) -> "SerialBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SerialBackend(kernel={self._kernel!r}, blas_threads={self._blas_threads})"


class SharedMemBackend:
    """Fork + POSIX-shared-memory execution over a :class:`WorkerPool`.

    Parameters
    ----------
    workers:
        Process count; ``None``/``0`` means all available cores.
    kernel:
        Execution kernel for the hot paths (see :class:`Backend`).
    blas_threads:
        Per-worker BLAS threadpool cap.  ``None`` defers to
        ``REPRO_BLAS_THREADS`` and, absent that, to the oversubscription
        guard :func:`~repro.kernels.threads.worker_thread_budget` —
        ``max(1, cores // workers)`` — whenever more than one worker runs.
        Without the cap, ``W`` workers each spin up a ``cores``-wide BLAS
        pool and the dense GEMM kernels fight themselves for the machine.
    pin_workers:
        Pin worker ``i`` to a contiguous core slice
        (:func:`~repro.kernels.threads.worker_core_slices`).  ``None``
        defers to the ``REPRO_PIN_WORKERS`` env switch (default off).

    The pool is created lazily on first :meth:`map`, so constructing a
    backend is free and a backend that never maps never forks.

    Failure semantics (see ``docs/robustness.md``): a worker that dies
    mid-task is healed by the pool itself — respawned and its task
    re-dispatched within a bounded retry budget — so :meth:`map` only
    raises once recovery is exhausted, and then with the structured
    :class:`~repro.parallel.pool.WorkerCrashError` /
    :class:`~repro.parallel.pool.RetryableTaskError` types rather than a
    raw multiprocessing traceback.
    """

    def __init__(
        self,
        workers: "int | None" = None,
        *,
        kernel: "str | None" = None,
        blas_threads: "int | None" = None,
        pin_workers: "bool | None" = None,
    ):
        self._workers = resolve_workers(workers)
        self._pool: "WorkerPool | None" = None
        self._kernel = check_kernel(kernel)
        explicit = resolve_blas_threads(blas_threads)
        if explicit is None and self._workers > 1:
            explicit = worker_thread_budget(self._workers)
        self._blas_threads = explicit
        self._pin_workers = pin_workers_default() if pin_workers is None else bool(pin_workers)
        self._closed = False

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def kernel(self) -> "str | None":
        return self._kernel

    @property
    def blas_threads(self) -> "int | None":
        """Effective per-worker BLAS cap this backend applies to its pool."""
        return self._blas_threads

    @property
    def pin_workers(self) -> bool:
        return self._pin_workers

    @property
    def pool(self) -> WorkerPool:
        """The underlying pool, created on first use."""
        if self._pool is None:
            if self._closed:
                raise RuntimeError("backend already shut down")
            pin_cores = worker_core_slices(self._workers) if self._pin_workers else None
            self._pool = WorkerPool(self._workers, blas_threads=self._blas_threads, pin_cores=pin_cores)
        return self._pool

    def map(self, fn: Callable[[Any, dict], Any], payloads: Sequence[Any]) -> "list[Any]":
        # Uniform post-shutdown contract with SerialBackend.
        if self._closed:
            raise RuntimeError("backend already shut down")
        return self.pool.map(fn, payloads)

    def shutdown(self) -> None:
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "SharedMemBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SharedMemBackend(workers={self._workers}, kernel={self._kernel!r}, blas_threads={self._blas_threads})"


def backend_for_workers(workers: "int | None") -> "SerialBackend | SharedMemBackend":
    """The backend a plain worker count asks for.

    ``None``/``0`` means all available cores
    (:func:`~repro.parallel.pool.resolve_workers`); a count that resolves
    to ``1`` runs inline on a :class:`SerialBackend`, any other count on a
    :class:`SharedMemBackend`.  The caller owns the result.

    Examples
    --------
    >>> from repro.engine.backend import backend_for_workers
    >>> type(backend_for_workers(1)).__name__
    'SerialBackend'
    """
    resolved = resolve_workers(workers)
    return SerialBackend() if resolved == 1 else SharedMemBackend(resolved)


@contextmanager
def resolved_backend(backend: "Backend | None" = None) -> Iterator[Backend]:
    """Yield ``backend``, or a :class:`SerialBackend` this call owns when ``None``.

    The single shape every entry point uses: an explicit ``backend=`` is
    left running for the caller to reuse; the default one is shut down on
    exit.

    For inline (``workers == 1``) backends the backend's ``blas_threads``
    cap is held for the whole ``with`` body, not just inside ``map`` —
    entry points run most of their GEMM work directly in the caller, so a
    map-scoped cap alone would miss it.  Multi-worker backends apply the
    cap inside each worker instead.
    """
    exec_backend: Backend = SerialBackend() if backend is None else backend
    # getattr, not attribute access: Backend is a runtime_checkable Protocol
    # and third-party backends predating the thread governor remain valid.
    scoped_cap = getattr(exec_backend, "blas_threads", None) if exec_backend.workers == 1 else None
    try:
        with blas_thread_limit(scoped_cap):
            yield exec_backend
    finally:
        if backend is None:
            exec_backend.shutdown()
