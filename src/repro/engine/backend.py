"""Execution backends — one object answering "where does the work run?".

Historically every parallel entry point in the library grew its own knobs:
``pool=`` (an externally managed :class:`~repro.parallel.pool.WorkerPool`),
``workers=`` (spawn-my-own process count), ``batch_queries=``
(streaming batch size) and — since the dense-kernel layer — ``kernel=``
(the :mod:`repro.kernels` implementation the hot paths run on).  A
:class:`Backend` bundles all four behind one
protocol so that callers configure execution once and thread a single
object through :func:`~repro.core.reconstruction.reconstruct`,
:func:`~repro.core.mn.run_mn_trial`, :class:`~repro.core.mn.MNDecoder`,
:func:`~repro.core.design.stream_design_stats` and the batched engine.

Two implementations ship:

* :class:`SerialBackend` — everything inline in the calling process.  The
  reference for bit-reproducibility and the default.
* :class:`SharedMemBackend` — wraps a :class:`~repro.parallel.pool.WorkerPool`
  (owned and lazily created, or borrowed via ``pool=``), fanning tasks out
  over fork+shared-memory workers.

Invariant: for a fixed ``batch_queries`` every backend produces
bit-identical results — ``batch_queries`` is part of the *design key* (see
:func:`~repro.core.design.stream_design_stats`), the worker count is not.

Legacy call sites keep working: :func:`resolve_backend` translates the old
``pool=``/``workers=`` arguments into a backend, so ``backend=`` and the
historical knobs coexist (passing both is rejected loudly).
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
from repro.util.validation import check_positive_int

__all__ = [
    "Backend",
    "SerialBackend",
    "SharedMemBackend",
    "resolve_backend",
    "resolved_backend",
    "DEFAULT_BATCH_QUERIES",
]

#: Default streaming batch size.  Part of the design key: changing it draws a
#: different (identically distributed) design, so all backends share it.
DEFAULT_BATCH_QUERIES = 256


@runtime_checkable
class Backend(Protocol):
    """What the execution layer needs to know, and nothing else.

    Attributes
    ----------
    workers:
        Concrete process count (``1`` means "run inline in the caller").
    batch_queries:
        Streaming batch size for :func:`~repro.core.design.stream_design_stats`.
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
    def batch_queries(self) -> int: ...

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
    >>> with SerialBackend(batch_queries=128) as backend:
    ...     (backend.workers, backend.batch_queries)
    (1, 128)
    """

    def __init__(
        self,
        batch_queries: int = DEFAULT_BATCH_QUERIES,
        kernel: "str | None" = None,
        blas_threads: "int | None" = None,
    ):
        self._batch_queries = check_positive_int(batch_queries, "batch_queries")
        self._kernel = check_kernel(kernel)
        self._blas_threads = resolve_blas_threads(blas_threads)
        self._cache: dict = {}
        self._closed = False

    @property
    def workers(self) -> int:
        return 1

    @property
    def batch_queries(self) -> int:
        return self._batch_queries

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
        return (
            f"SerialBackend(batch_queries={self._batch_queries}, "
            f"kernel={self._kernel!r}, blas_threads={self._blas_threads})"
        )


class SharedMemBackend:
    """Fork + POSIX-shared-memory execution over a :class:`WorkerPool`.

    Parameters
    ----------
    workers:
        Process count; ``None``/``0`` means all available cores.  Ignored
        when ``pool`` is given.
    batch_queries:
        Streaming batch size (default :data:`DEFAULT_BATCH_QUERIES`).
    pool:
        Borrow an externally managed pool instead of owning one.  Borrowed
        pools are never shut down by the backend — and they keep their own
        thread policy (``blas_threads``/``pin_workers`` here only shape the
        pool this backend creates itself).
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

    The owned pool is created lazily on first :meth:`map`, so constructing
    a backend is free and a backend that never maps never forks.

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
        batch_queries: int = DEFAULT_BATCH_QUERIES,
        pool: "WorkerPool | None" = None,
        kernel: "str | None" = None,
        blas_threads: "int | None" = None,
        pin_workers: "bool | None" = None,
    ):
        if pool is not None:
            self._workers = pool.workers
        else:
            self._workers = resolve_workers(workers)
        self._pool: "WorkerPool | None" = pool
        self._owns_pool = pool is None
        self._batch_queries = check_positive_int(batch_queries, "batch_queries")
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
    def batch_queries(self) -> int:
        return self._batch_queries

    @property
    def kernel(self) -> "str | None":
        return self._kernel

    @property
    def blas_threads(self) -> "int | None":
        """Effective per-worker BLAS cap this backend applies to owned pools."""
        return self._blas_threads

    @property
    def pin_workers(self) -> bool:
        return self._pin_workers

    @property
    def pool(self) -> WorkerPool:
        """The underlying pool, created on first use when owned."""
        if self._pool is None:
            if self._closed:
                raise RuntimeError("backend already shut down")
            pin_cores = worker_core_slices(self._workers) if self._pin_workers else None
            self._pool = WorkerPool(self._workers, blas_threads=self._blas_threads, pin_cores=pin_cores)
        return self._pool

    def map(self, fn: Callable[[Any, dict], Any], payloads: Sequence[Any]) -> "list[Any]":
        # Uniform post-shutdown contract with SerialBackend — also covers the
        # borrowed-pool case, where the pool itself outlives this backend.
        if self._closed:
            raise RuntimeError("backend already shut down")
        return self.pool.map(fn, payloads)

    def shutdown(self) -> None:
        self._closed = True
        if self._owns_pool and self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "SharedMemBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SharedMemBackend(workers={self._workers}, batch_queries={self._batch_queries}, kernel={self._kernel!r}, "
            f"blas_threads={self._blas_threads}, owns_pool={self._owns_pool})"
        )


def resolve_backend(
    backend: "Backend | None" = None,
    *,
    pool: "WorkerPool | None" = None,
    workers: "int | None" = None,
    batch_queries: "int | None" = None,
    kernel: "str | None" = None,
) -> "tuple[Backend, bool]":
    """Translate a ``backend=`` argument or the legacy knobs into a backend.

    Returns ``(backend, owned)``; callers shut down owned backends after
    use (shutting down a backend that merely borrows a user pool never
    touches that pool).

    Resolution rules, in order:

    1. An explicit ``backend`` wins; combining it with *any* legacy knob —
       ``pool=``, ``workers=``, ``batch_queries=``, ``kernel=`` — is an
       error (two sources of truth for how work runs; silently ignoring
       the knob would mask configuration bugs).
    2. A legacy ``pool=`` is wrapped in a borrowing :class:`SharedMemBackend`.
    3. ``workers=1`` — the historical default of the wrapped entry points —
       gives a :class:`SerialBackend`.  Any other value keeps the library's
       ``None``/``0`` = "all available cores" convention
       (:func:`~repro.parallel.pool.resolve_workers`); if that resolves to
       a single core the result degrades to a :class:`SerialBackend`.
    """
    if backend is not None:
        if pool is not None:
            raise ValueError("pass either backend= or the legacy pool=, not both")
        if workers not in (None, 1):
            raise ValueError("pass either backend= or the legacy workers=, not both")
        for name, value in (("batch_queries", batch_queries), ("kernel", kernel)):
            if value is not None:
                raise ValueError(f"pass either backend= or the legacy {name}=, not both")
        return backend, False
    bq = DEFAULT_BATCH_QUERIES if batch_queries is None else batch_queries
    if pool is not None:
        return SharedMemBackend(pool=pool, batch_queries=bq, kernel=kernel), True
    resolved = 1 if workers == 1 else resolve_workers(workers)
    if resolved == 1:
        return SerialBackend(batch_queries=bq, kernel=kernel), True
    return SharedMemBackend(resolved, batch_queries=bq, kernel=kernel), True


@contextmanager
def resolved_backend(
    backend: "Backend | None" = None,
    *,
    pool: "WorkerPool | None" = None,
    workers: "int | None" = None,
    batch_queries: "int | None" = None,
    kernel: "str | None" = None,
) -> Iterator[Backend]:
    """:func:`resolve_backend` as a context manager.

    The single shape every wrapped entry point uses: yields the resolved
    backend and shuts it down on exit only when this call owns it (an
    explicit ``backend=`` is left untouched for the caller to reuse).

    For inline (``workers == 1``) backends the backend's ``blas_threads``
    cap is held for the whole ``with`` body, not just inside ``map`` —
    entry points run most of their GEMM work directly in the caller, so a
    map-scoped cap alone would miss it.  Multi-worker backends apply the
    cap inside each worker instead.
    """
    exec_backend, owned = resolve_backend(backend, pool=pool, workers=workers, batch_queries=batch_queries, kernel=kernel)
    # getattr, not attribute access: Backend is a runtime_checkable Protocol
    # and third-party backends predating the thread governor remain valid.
    scoped_cap = getattr(exec_backend, "blas_threads", None) if exec_backend.workers == 1 else None
    try:
        with blas_thread_limit(scoped_cap):
            yield exec_backend
    finally:
        if owned:
            exec_backend.shutdown()
