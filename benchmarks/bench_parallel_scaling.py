"""§I-C — strong scaling of the parallelised reconstruction pipeline.

The paper notes Algorithm 1's Lines 4–6 are two mat-vec products and
Lines 7–9 a sort, all parallelisable.  This bench measures the streaming
Ψ/Δ* accumulation (the dominant kernel) across worker counts and asserts
(a) bit-identical outputs and (b) real speedup on multi-core hosts.
"""

import time

import numpy as np
import pytest

from conftest import emit
from repro.core.design import stream_design_stats
from repro.core.signal import random_signal
from repro.engine.backend import SerialBackend, SharedMemBackend
from repro.util.asciiplot import format_table

N, K, M = 20_000, 20, 1500
BATCH = 64


@pytest.fixture(scope="module")
def sigma():
    return random_signal(N, K, np.random.default_rng(0))


def _run(sigma, backend):
    return stream_design_stats(sigma, M, root_seed=7, batch_queries=BATCH, backend=backend)


def test_kernel_serial(benchmark, sigma):
    with SerialBackend() as backend:
        stats = benchmark.pedantic(lambda: _run(sigma, backend), rounds=3, iterations=1)
    assert stats.m == M


def test_kernel_parallel(benchmark, sigma, workers):
    if workers < 2:
        pytest.skip("single-core host")
    with SharedMemBackend(workers) as backend:
        stats = benchmark.pedantic(lambda: _run(sigma, backend), rounds=3, iterations=1)
    assert stats.m == M


def test_scaling_table_and_equality(sigma, workers, check):
    @check
    def _():
        """Outputs identical across worker counts; wall time reported per count."""
        baseline = None
        rows = []
        t0 = time.perf_counter()
        serial = _run(sigma, SerialBackend())
        t_serial = time.perf_counter() - t0
        rows.append((1, f"{t_serial:.2f}s", "1.00x"))
        for w in (2, 4, workers):
            if w < 2 or w > workers:
                continue
            with SharedMemBackend(w) as backend:
                t0 = time.perf_counter()
                stats = _run(sigma, backend)
                dt = time.perf_counter() - t0
            rows.append((w, f"{dt:.2f}s", f"{t_serial / dt:.2f}x"))
            for field in ("y", "psi", "dstar", "delta"):
                assert np.array_equal(getattr(serial, field), getattr(stats, field)), field
            if baseline is None:
                baseline = dt
        emit("Strong scaling of Ψ/Δ* accumulation (n=2·10^4, m=1500)", format_table(["workers", "wall", "speedup"], rows))


def test_speedup_on_multicore(sigma, workers, check):
    @check
    def _():
        """≥1.2x speedup at 4 workers (lenient: shared-memory copy overheads)."""
        if workers < 4:
            pytest.skip("need ≥4 cores for the speedup assertion")
        t0 = time.perf_counter()
        _run(sigma, SerialBackend())
        t_serial = time.perf_counter() - t0
        with SharedMemBackend(4) as backend:
            _run(sigma, backend)  # warm the pool
            t0 = time.perf_counter()
            _run(sigma, backend)
            t_par = time.perf_counter() - t0
        assert t_par < t_serial / 1.2, f"serial {t_serial:.2f}s vs 4 workers {t_par:.2f}s"

