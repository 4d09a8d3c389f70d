"""Tests for the worker pool, including failure injection."""

import os

import numpy as np
import pytest

from repro.parallel.pool import PoolError, WorkerPool, resolve_workers


def _square(payload, cache):
    return payload * payload


def _use_cache(payload, cache):
    cache["hits"] = cache.get("hits", 0) + 1
    return cache["hits"]


def _boom(payload, cache):
    if payload == 13:
        raise ValueError("unlucky payload")
    return payload


def _suicide(payload, cache):
    if payload == 1:
        os._exit(17)  # simulate a crashed worker
    import time

    time.sleep(0.05)
    return payload


class TestResolveWorkers:
    def test_none_means_all_cores(self):
        assert resolve_workers(None) >= 1

    def test_zero_means_all_cores(self):
        assert resolve_workers(0) == resolve_workers(None)

    def test_explicit(self):
        assert resolve_workers(3) == 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            resolve_workers(-2)

    def test_rejects_bool_and_float(self):
        with pytest.raises(TypeError):
            resolve_workers(True)
        with pytest.raises(TypeError):
            resolve_workers(2.0)


class TestInlineMode:
    def test_single_worker_runs_inline(self):
        with WorkerPool(1) as pool:
            assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_inline_cache_persists(self):
        with WorkerPool(1) as pool:
            assert pool.map(_use_cache, [None]) == [1]
            assert pool.map(_use_cache, [None]) == [2]

    def test_empty_payloads(self):
        with WorkerPool(1) as pool:
            assert pool.map(_square, []) == []

    def test_inline_errors_propagate_directly(self):
        with WorkerPool(1) as pool:
            with pytest.raises(ValueError, match="unlucky"):
                pool.map(_boom, [13])


def _blas_threads_inside(expected, cache):
    """Asserted in the process that runs the task: its BLAS pool size."""
    from repro.kernels.threads import detect_blas, get_blas_threads

    if detect_blas() is not None:
        assert get_blas_threads() == expected, (get_blas_threads(), expected)
    return os.getpid()


class TestThreadGovernance:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_workers_run_at_the_thread_budget(self, workers):
        """Each forked worker of a W-worker pool runs ``worker_thread_budget(W)`` BLAS threads."""
        from repro.kernels.threads import worker_thread_budget

        with WorkerPool(workers) as pool:
            pids = pool.map(_blas_threads_inside, [worker_thread_budget(workers)] * (2 * workers))
        assert os.getpid() not in pids

    def test_uncapped_pool_unchanged(self):
        """The inline (one-worker) pool runs in the caller and leaves its BLAS pool alone."""
        from repro.kernels.threads import get_blas_threads

        before = get_blas_threads()
        with WorkerPool(1) as pool:
            assert pool.map(_blas_threads_inside, [before]) == [os.getpid()]
        with WorkerPool(2) as pool:
            assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert get_blas_threads() == before


class TestParallelMode:
    def test_results_in_submission_order(self):
        with WorkerPool(4) as pool:
            out = pool.map(_square, list(range(40)))
        assert out == [i * i for i in range(40)]

    def test_numpy_payloads_roundtrip(self):
        with WorkerPool(2) as pool:
            out = pool.map(_square, [np.arange(5), np.arange(3)])
        assert np.array_equal(out[0], np.arange(5) ** 2)

    def test_task_error_raises_poolerror_with_traceback(self):
        with WorkerPool(2) as pool:
            with pytest.raises(PoolError, match="unlucky") as exc:
                pool.map(_boom, [1, 13, 2])
            assert "ValueError" in exc.value.remote_traceback

    def test_worker_death_detected(self):
        with WorkerPool(2) as pool:
            with pytest.raises(PoolError, match="died|timed out"):
                pool.map(_suicide, [0, 1, 2, 3], timeout=10.0)

    def test_map_after_shutdown_raises(self):
        pool = WorkerPool(2)
        pool.shutdown()
        with pytest.raises(PoolError, match="shut down"):
            pool.map(_square, [1])

    def test_shutdown_idempotent(self):
        pool = WorkerPool(2)
        pool.shutdown()
        pool.shutdown()  # no error

    def test_context_manager_cleans_up(self):
        with WorkerPool(2) as pool:
            pool.map(_square, [1, 2])
        assert pool._closed

    def test_many_small_tasks(self):
        with WorkerPool(3) as pool:
            out = pool.map(_square, list(range(200)))
        assert out == [i * i for i in range(200)]

    def test_starmap_indices_alias(self):
        with WorkerPool(2) as pool:
            assert pool.starmap_indices(_square, iter([2, 3])) == [4, 9]
