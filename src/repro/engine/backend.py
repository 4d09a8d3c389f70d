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
from typing import Any, Callable, Iterator, Protocol, Sequence, runtime_checkable

from repro.kernels import check_kernel
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
    It leaves the BLAS threadpool as the process configured it.

    Examples
    --------
    >>> from repro.engine.backend import SerialBackend
    >>> with SerialBackend(kernel="legacy") as backend:
    ...     (backend.workers, backend.kernel)
    (1, 'legacy')
    """

    def __init__(self, kernel: "str | None" = None):
        self._kernel = check_kernel(kernel)
        self._cache: dict = {}
        self._closed = False

    @property
    def workers(self) -> int:
        return 1

    @property
    def kernel(self) -> "str | None":
        return self._kernel

    def map(self, fn: Callable[[Any, dict], Any], payloads: Sequence[Any]) -> "list[Any]":
        if self._closed:
            raise RuntimeError("backend already shut down")
        try:
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
        return f"SerialBackend(kernel={self._kernel!r})"


class SharedMemBackend:
    """Fork + POSIX-shared-memory execution over a :class:`WorkerPool`.

    Parameters
    ----------
    workers:
        Process count; ``None``/``0`` means all available cores.
    kernel:
        Execution kernel for the hot paths (see :class:`Backend`).

    Each worker runs its BLAS threadpool at
    :func:`~repro.kernels.threads.worker_thread_budget` —
    ``max(1, cores // workers)`` — which the pool applies itself.  Without
    the cap, ``W`` workers each spin up a ``cores``-wide BLAS pool and the
    dense GEMM kernels fight themselves for the machine.

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

    def __init__(self, workers: "int | None" = None, *, kernel: "str | None" = None):
        self._workers = resolve_workers(workers)
        self._pool: "WorkerPool | None" = None
        self._kernel = check_kernel(kernel)
        self._closed = False

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def kernel(self) -> "str | None":
        return self._kernel

    @property
    def pool(self) -> WorkerPool:
        """The underlying pool, created on first use."""
        if self._pool is None:
            if self._closed:
                raise RuntimeError("backend already shut down")
            self._pool = WorkerPool(self._workers)
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
        return f"SharedMemBackend(workers={self._workers}, kernel={self._kernel!r})"


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
    """
    exec_backend: Backend = SerialBackend() if backend is None else backend
    try:
        yield exec_backend
    finally:
        if backend is None:
            exec_backend.shutdown()
