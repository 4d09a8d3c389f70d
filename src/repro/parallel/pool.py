"""A persistent fork-based worker pool that survives worker crashes.

Why not ``multiprocessing.Pool``?  Four reasons that matter here:

1. **Warm shared state.**  Tasks reference :class:`~repro.parallel.sharedmem.SharedArray`
   descriptors; workers cache their attachments between tasks, so a sweep
   over hundreds of ``m`` values pays the attach cost once.
2. **Deterministic task→result mapping.**  Results are returned in
   submission order regardless of completion order, which keeps reductions
   bit-reproducible.
3. **Observable failure.**  A worker exception is re-raised in the parent as
   :class:`PoolError` carrying the original traceback text; transient
   resource failures (``MemoryError``, ``BrokenPipeError``) surface as the
   structured, retryable :class:`RetryableTaskError` instead of a raw
   multiprocessing traceback.
4. **Crash healing.**  A SIGKILL'd (OOM-killed, segfaulted…) worker is
   *detected* — the parent polls child liveness instead of blocking on the
   result pipes forever — and *healed*: a replacement worker is forked
   into the pool and the dead worker's in-flight task is re-dispatched,
   with a bounded per-task retry budget.  Only when the budget is
   exhausted does :meth:`WorkerPool.map` raise a structured
   :class:`WorkerCrashError`.  Because equal payloads produce equal
   results, a healed run is bit-identical to a fault-free one (the chaos
   suite in ``tests/test_faults.py`` injects real SIGKILLs to prove it).

Healing relies on exact in-flight accounting: each worker talks to the
parent over its own private duplex pipe and holds at most one task at a
time, so the parent always knows which task died with which worker — no
guessing against a shared queue.  The per-worker pipes are not a styling
choice but the crash-safety load-bearing wall: a shared
``multiprocessing.Queue`` serialises all workers through one write lock
held by a background feeder thread, and a worker SIGKILL'd in the window
after its result is consumed but before its feeder releases that lock
poisons the queue for every surviving worker — the parent then waits
forever on results that can no longer arrive.  With one pipe per worker
a dying process can only ever break its own channel, which the parent
observes as EOF and heals.  Tasks in this codebase are coarse (trial
batches, design compiles, Ψ row blocks), so the one-in-flight dispatch
costs nothing measurable.

The pool prefers the ``fork`` start method (cheap, copy-on-write module
state).  On platforms without ``fork`` it falls back to ``spawn``; tasks
must then be module-level callables, which all library kernels are.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection as mp_connection
import os
import time
import traceback
from collections import deque
from typing import Any, Callable, Iterable, Sequence

__all__ = [
    "WorkerPool",
    "PoolError",
    "WorkerCrashError",
    "RetryableTaskError",
    "resolve_workers",
]

_SENTINEL = ("__stop__", None, None, None)

#: How often the parent wakes from the result pipes to check child liveness.
_LIVENESS_POLL_S = 0.2

#: Exceptions a worker reports as retryable: transient resource pressure,
#: not a logic error in the task.
_RETRYABLE_EXCEPTIONS = (MemoryError, BrokenPipeError)


class PoolError(RuntimeError):
    """A task failed inside a worker; carries the remote traceback text."""

    #: Whether retrying the same payload can reasonably succeed.
    retryable = False

    def __init__(self, message: str, remote_traceback: str = ""):
        super().__init__(message)
        self.remote_traceback = remote_traceback


class RetryableTaskError(PoolError):
    """A task failed from transient resource pressure (``MemoryError``,
    ``BrokenPipeError``): structured and safe to retry, instead of a raw
    multiprocessing traceback leaking to the caller."""

    retryable = True


class WorkerCrashError(PoolError):
    """A worker died and the in-flight task exhausted its retry budget.

    Carries the dead worker pids seen during the map and the offending
    task index — enough for a supervisor to log, alert and re-submit.
    """

    retryable = True

    def __init__(self, message: str, *, pids: "tuple[int, ...]" = (), task_id: "int | None" = None):
        super().__init__(message)
        self.pids = tuple(pids)
        self.task_id = task_id


def resolve_workers(workers: "int | None") -> int:
    """Translate a ``workers`` argument into a concrete process count.

    ``None`` or ``0`` means "all available cores" (respecting CPU affinity
    when the platform exposes it); negative values are rejected.
    """
    if workers is None or workers == 0:
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # pragma: no cover - non-Linux
            return max(1, os.cpu_count() or 1)
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise TypeError("workers must be an int or None")
    if workers < 0:
        raise ValueError("workers must be >= 0")
    return workers


def _worker_loop(conn: "mp_connection.Connection", blas_threads: int) -> None:
    """Worker main: recv ``(kind, task_id, fn, payload)``, send results.

    All traffic flows over the worker's private duplex ``conn`` — sends
    happen synchronously in this thread, never via a background feeder, so
    the process dies (or is killed) only at well-defined points and no
    shared lock can be orphaned (see the module docstring).

    ``blas_threads`` (the pool's :func:`~repro.kernels.threads.worker_thread_budget`)
    is applied inside the worker itself (not at fork time), so it holds
    for spawned workers and survives anything the parent does to its own
    pool after forking.
    """
    from repro.faults import trip
    from repro.kernels.threads import set_blas_threads

    set_blas_threads(blas_threads)
    cache: dict = {}
    while True:
        try:
            kind, task_id, fn, payload = conn.recv()
        except (EOFError, OSError):  # parent went away: nothing left to serve
            break
        if kind == "__stop__":
            break
        try:
            trip("worker.task")  # chaos site: SIGKILL / delay at the Nth task
            result = fn(payload, cache)
            conn.send((task_id, "ok", result, "", os.getpid()))
        except _RETRYABLE_EXCEPTIONS as exc:
            conn.send((task_id, "err_retryable", repr(exc), traceback.format_exc(), os.getpid()))
        except BaseException as exc:  # noqa: BLE001 - forwarded to parent
            conn.send((task_id, "err", repr(exc), traceback.format_exc(), os.getpid()))


class _Worker:
    """One pool member: its process, private duplex pipe and in-flight task."""

    __slots__ = ("proc", "conn", "assigned")

    def __init__(self, proc: "mp.process.BaseProcess", conn: "mp_connection.Connection"):
        self.proc = proc
        self.conn = conn
        self.assigned: "int | None" = None


class WorkerPool:
    """Persistent process pool executing ``fn(payload, cache)`` tasks.

    ``cache`` is a per-worker dict that survives across tasks — the
    idiomatic place to stash shared-memory attachments.

    With ``workers == 1`` the pool runs tasks inline in the parent process
    (no subprocess at all), which makes single-worker runs trivially
    debuggable and exactly as reproducible as the parallel path.

    Each forked worker sets its BLAS threadpool to
    :func:`~repro.kernels.threads.worker_thread_budget` of the pool's
    worker count — ``max(1, cores // W)``, the cure for ``W × T``
    oversubscription.  The inline case leaves the parent's pool alone.

    ``max_task_retries`` bounds crash healing: a task whose worker dies is
    re-dispatched to a respawned worker at most this many times before
    :meth:`map` gives up with :class:`WorkerCrashError`.  ``0`` disables
    healing (any worker death fails the map immediately).
    """

    def __init__(
        self,
        workers: "int | None" = None,
        *,
        max_task_retries: int = 2,
    ):
        if max_task_retries < 0:
            raise ValueError("max_task_retries must be >= 0")
        self.workers = resolve_workers(workers)
        self.max_task_retries = int(max_task_retries)
        self._ctx: "mp.context.BaseContext | None" = None
        self._members: "list[_Worker]" = []
        self._inline_cache: dict = {}
        self._closed = False
        self._dead_pids: "list[int]" = []  #: every crashed-worker pid this pool healed
        self._respawns = 0  #: how many replacement workers were forked
        if self.workers > 1:
            from repro.kernels.threads import worker_thread_budget

            self._blas_threads = worker_thread_budget(self.workers)
            self._ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
            for _ in range(self.workers):
                self._members.append(self._spawn_member())

    def _spawn_member(self) -> _Worker:
        assert self._ctx is not None
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(target=_worker_loop, args=(child_conn, self._blas_threads), daemon=True)
        proc.start()
        # Drop the parent's copy of the child end: the worker is then the
        # *only* writer, so its death closes the channel and the parent
        # reads a clean EOF instead of blocking on a half-dead pipe.
        child_conn.close()
        return _Worker(proc, parent_conn)

    # -- telemetry --------------------------------------------------------------

    @property
    def crashed_pids(self) -> "tuple[int, ...]":
        """Pids of every worker death this pool detected (healed or fatal)."""
        return tuple(self._dead_pids)

    @property
    def respawns(self) -> int:
        """How many replacement workers healing forked into the pool."""
        return self._respawns

    # -- execution ---------------------------------------------------------------

    def map(self, fn: Callable[[Any, dict], Any], payloads: Sequence[Any], timeout: float = 600.0) -> "list[Any]":
        """Run ``fn`` over payloads; results in submission order.

        A worker that dies mid-task is replaced and its task re-dispatched
        (at most ``max_task_retries`` times per task).  Raises
        :class:`PoolError` if any task fails, :class:`WorkerCrashError`
        when healing gives up, or a timeout :class:`PoolError` after
        ``timeout`` seconds with no completion or heal event.
        """
        if self._closed:
            raise PoolError("pool already shut down")
        payloads = list(payloads)
        if not payloads:
            return []
        if self.workers == 1:
            return [fn(p, self._inline_cache) for p in payloads]
        n = len(payloads)
        results: "list[Any]" = [None] * n
        done = [False] * n
        retries = [0] * n
        pending: "deque[int]" = deque(range(n))
        received = 0
        last_progress = time.monotonic()
        while received < n:
            self._dispatch(fn, payloads, pending)
            ready = mp_connection.wait([m.conn for m in self._members], timeout=_LIVENESS_POLL_S)
            if not ready:
                healed = self._heal(pending, retries)
                if healed:
                    last_progress = time.monotonic()
                elif time.monotonic() - last_progress > timeout:
                    self.shutdown(force=True)
                    raise PoolError(f"pool timed out after {timeout}s") from None
                continue
            by_conn = {id(m.conn): m for m in self._members}
            progressed = False
            for conn in ready:
                member = by_conn.get(id(conn))
                if member is None:  # pragma: no cover - healed mid-iteration
                    continue
                try:
                    task_id, kind, value, tb, _worker_pid = member.conn.recv()
                except (EOFError, OSError):
                    # The worker died; its private channel reports it as a
                    # clean EOF (nobody else's traffic shares the pipe, so
                    # nothing is poisoned). Liveness healing reaps it.
                    self._heal(pending, retries)
                    progressed = True
                    continue
                progressed = True
                member.assigned = None
                if kind == "ok":
                    if not done[task_id]:  # a healed duplicate is bit-identical; first wins
                        results[task_id] = value
                        done[task_id] = True
                        received += 1
                    continue
                self.shutdown(force=True)
                if kind == "err_retryable":
                    raise RetryableTaskError(
                        f"task {task_id} failed with a transient resource error: {value}", remote_traceback=tb
                    )
                raise PoolError(f"task {task_id} failed: {value}", remote_traceback=tb)
            if progressed:
                last_progress = time.monotonic()
        return results

    def _dispatch(self, fn, payloads, pending: "deque[int]") -> None:
        """Hand each idle worker its next task (one in flight per worker)."""
        for member in self._members:
            if not pending:
                return
            if member.assigned is None:
                task_id = pending.popleft()
                member.assigned = task_id
                try:
                    member.conn.send(("task", task_id, fn, payloads[task_id]))
                except (BrokenPipeError, OSError):
                    # Dead before it could accept the task: put the task
                    # back and let the liveness poll heal the worker.
                    member.assigned = None
                    pending.appendleft(task_id)
                    return

    def _heal(self, pending: "deque[int]", retries: "list[int]") -> bool:
        """Detect dead workers; respawn them and re-dispatch their tasks.

        Returns ``True`` when a heal happened.  Raises
        :class:`WorkerCrashError` when a lost task is out of retries.
        """
        dead = [(i, m) for i, m in enumerate(self._members) if not m.proc.is_alive()]
        if not dead:
            return False
        for index, member in dead:
            pid = member.proc.pid
            self._dead_pids.append(pid if pid is not None else -1)
            member.proc.join(timeout=1.0)
            lost = member.assigned
            if lost is not None:
                retries[lost] += 1
                if retries[lost] > self.max_task_retries:
                    self.shutdown(force=True)
                    raise WorkerCrashError(
                        f"worker process(es) died: pids {self._dead_pids}; "
                        f"task {lost} lost {retries[lost]} times (retry budget {self.max_task_retries})",
                        pids=tuple(self._dead_pids),
                        task_id=lost,
                    )
                pending.appendleft(lost)  # re-dispatch first: the oldest task is the most waited-on
            member.conn.close()
            self._members[index] = self._spawn_member()
            self._respawns += 1
        return True

    def starmap_indices(
        self, fn: Callable[[Any, dict], Any], index_payloads: Iterable[Any], timeout: float = 600.0
    ) -> "list[Any]":
        """Alias of :meth:`map` accepting any iterable (materialised once)."""
        return self.map(fn, list(index_payloads), timeout=timeout)

    # -- lifecycle --------------------------------------------------------------

    def shutdown(self, force: bool = False) -> None:
        """Stop workers. Idempotent. ``force`` kills instead of joining."""
        if self._closed:
            return
        self._closed = True
        if self._members:
            for member in self._members:
                if not force:
                    try:
                        member.conn.send(_SENTINEL)
                    except (ValueError, OSError):  # pragma: no cover - pipe already gone
                        pass
            for member in self._members:
                if force:
                    member.proc.terminate()
                member.proc.join(timeout=10.0)
                if member.proc.is_alive():  # pragma: no cover - last resort
                    member.proc.kill()
                    member.proc.join(timeout=5.0)
                member.conn.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(force=exc_type is not None)

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.shutdown(force=True)
        except Exception:
            pass
