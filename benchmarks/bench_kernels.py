"""Microbenchmarks of the hot kernels (regression tracking, not a figure).

Covers: MT19937-64 raw generation, design sampling, the batched Ψ/Δ*
accumulation kernel, parallel top-k — and the
dense-vs-legacy kernel pairs (``TestDenseVsLegacy``), whose
``speedup_x`` extra records track the dense incidence-block layer's win
over the sort-based reference at several problem sizes, plus one
end-to-end ``reconstruct_batch`` pair showing the compounding effect on
the batched engine — and the dense Ψ pass in float32 against float64
(``TestKernelGen2``, ``gen2_speedup_x``) — and the compiled-design float32 Ψ block at
the serve operating point (``TestCompiledBlockPsi``), recording ms per
call and block bytes for B ∈ {1, 8, 64} against a float64 copy — and the
fused query + Ψ/Δ* pass of a noiseless grid point against the two passes
it replaces (``TestFusedStats``).
"""

import time

import numpy as np
import pytest

from repro.core.design import PoolingDesign, stream_design_stats
from repro.core.signal import random_signal, random_signals
from repro.engine.backend import SerialBackend
from repro.engine.batch import reconstruct_batch, signals_oracle
from repro.kernels import dense
from repro.parallel.sort import parallel_top_k
from repro.rng.mt19937 import MT19937_64


def _best_of(fn, repeats=2):
    """Best wall time of a few runs — cheap, warmup-tolerant point estimate."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class TestRNGKernels:
    def test_mt19937_64_bulk(self, benchmark):
        gen = MT19937_64(5489)
        out = benchmark(lambda: gen.random_raw(1 << 16))
        assert out.size == 1 << 16

    def test_numpy_pcg_reference(self, benchmark):
        """Reference point: NumPy's C-level PCG64 on the same workload."""
        gen = np.random.default_rng(5489)
        out = benchmark(lambda: gen.integers(0, 2**63, 1 << 16, dtype=np.int64))
        assert out.size == 1 << 16


class TestDesignKernels:
    def test_design_sampling(self, benchmark):
        rng = np.random.default_rng(0)
        design = benchmark(lambda: PoolingDesign.sample(10_000, 100, rng))
        assert design.m == 100

    def test_stream_stats_kernel(self, benchmark):
        sigma = random_signal(10_000, 16, np.random.default_rng(0))
        stats = benchmark(lambda: stream_design_stats(sigma, 200, root_seed=1))
        assert stats.m == 200

    def test_query_results(self, benchmark):
        rng = np.random.default_rng(1)
        sigma = random_signal(10_000, 16, rng)
        design = PoolingDesign.sample(10_000, 500, rng)
        y = benchmark(lambda: design.query_results(sigma))
        assert y.shape == (500,)


class TestDenseVsLegacy:
    """Dense incidence-block kernels vs the sort-based legacy reference.

    Each test benchmarks the dense path (the recorded median) and times
    the legacy path inline, recording the ratio as
    ``extra.speedup_x`` — the number the README's speedup table and the
    PR acceptance gate read.  Output parity is asserted exactly once per
    pairing (the full parity matrix lives in tests/test_kernels.py).
    """

    @pytest.mark.parametrize("n", [4_000, 10_000, 40_000])
    def test_stream_stats_dense_vs_legacy(self, benchmark, n):
        sigma = random_signal(n, 16, np.random.default_rng(0))
        m = 200

        def run(kernel):
            return stream_design_stats(sigma, m, root_seed=1, backend=SerialBackend(kernel=kernel))

        assert np.array_equal(run("dense").psi, run("legacy").psi)
        legacy_s = _best_of(lambda: run("legacy"))
        dense_s = _best_of(lambda: run("dense"), repeats=3)
        stats = benchmark.pedantic(lambda: run("dense"), rounds=3, iterations=1)
        assert stats.m == m
        benchmark.extra_info["n"] = n
        benchmark.extra_info["m"] = m
        benchmark.extra_info["kernel"] = "dense"
        benchmark.extra_info["legacy_s"] = round(legacy_s, 6)
        benchmark.extra_info["speedup_x"] = round(legacy_s / dense_s, 2)
        if n >= 10_000:
            # Shape assert only (measured margin is 3-4x; shared runners
            # jitter): the dense kernel must never be slower than the row
            # sorts at scale.  The ≥3x acceptance claim lives in the
            # recorded speedup_x, gated by compare_bench history.
            assert legacy_s / dense_s > 1.0

    def test_materialised_psi_dense_vs_legacy(self, benchmark):
        n, m, B = 10_000, 400, 64
        rng = np.random.default_rng(1)
        design = PoolingDesign.sample(n, m, rng)
        sigmas = np.stack([random_signal(n, 16, np.random.default_rng(i)) for i in range(B)])
        y = design.query_results(sigmas, kernel="dense")

        def run(kernel):
            fresh = PoolingDesign(design.n, design.entries, design.indptr)  # cold caches
            return fresh.psi(y, kernel=kernel)

        assert np.array_equal(run("dense"), run("legacy"))
        legacy_s = _best_of(lambda: run("legacy"))
        dense_s = _best_of(lambda: run("dense"), repeats=3)
        out = benchmark.pedantic(lambda: run("dense"), rounds=3, iterations=1)
        assert out.shape == (B, n)
        benchmark.extra_info.update(n=n, m=m, B=B, kernel="dense")
        benchmark.extra_info["legacy_s"] = round(legacy_s, 6)
        benchmark.extra_info["speedup_x"] = round(legacy_s / dense_s, 2)

    def test_query_results_dense_vs_legacy(self, benchmark):
        n, m, B = 10_000, 400, 64
        rng = np.random.default_rng(2)
        design = PoolingDesign.sample(n, m, rng)
        sigmas = np.stack([random_signal(n, 16, np.random.default_rng(i)) for i in range(B)])

        def run(kernel):
            return design.query_results(sigmas, kernel=kernel)

        assert np.array_equal(run("dense"), run("legacy"))
        legacy_s = _best_of(lambda: run("legacy"))
        dense_s = _best_of(lambda: run("dense"), repeats=3)
        out = benchmark.pedantic(lambda: run("dense"), rounds=3, iterations=1)
        assert out.shape == (B, m)
        benchmark.extra_info.update(n=n, m=m, B=B, kernel="dense")
        benchmark.extra_info["legacy_s"] = round(legacy_s, 6)
        benchmark.extra_info["speedup_x"] = round(legacy_s / dense_s, 2)

    def test_reconstruct_batch_dense_vs_legacy(self, benchmark):
        """End-to-end: the dense kernels compounding with the batched engine."""
        n, m, B, k = 10_000, 400, 64, 16
        sigmas = np.stack([random_signal(n, k, np.random.default_rng(i)) for i in range(B)])
        oracle = signals_oracle(sigmas)

        def run(kernel):
            return reconstruct_batch(
                n, m, oracle, B, k=k, rng=np.random.default_rng(7), backend=SerialBackend(kernel=kernel)
            )

        assert np.array_equal(run("dense").sigma_hat, run("legacy").sigma_hat)
        legacy_s = _best_of(lambda: run("legacy"))
        dense_s = _best_of(lambda: run("dense"), repeats=3)
        report = benchmark.pedantic(lambda: run("dense"), rounds=3, iterations=1)
        assert report.sigma_hat.shape == (B, n)
        benchmark.extra_info.update(n=n, m=m, B=B, k=k, kernel="dense")
        benchmark.extra_info["legacy_s"] = round(legacy_s, 6)
        benchmark.extra_info["speedup_x"] = round(legacy_s / dense_s, 2)


class TestKernelGen2:
    """The dense kernel's float32 Ψ tier against its float64 one.

    ``gen2_speedup_x`` records ``psi_pass`` (Ψ with Δ* in the ones row)
    in float64 over the same pass in float32 at n=10⁴ — the tier the
    materialised Ψ picks per call when the budget allows.  Parity is
    asserted once; the full boundary matrix lives in tests/test_kernels.py.
    """

    N, M, B = 10_000, 400, 64

    @pytest.fixture(scope="class")
    def workload(self):
        rng = np.random.default_rng(1)
        design = PoolingDesign.sample(self.N, self.M, rng)
        sigmas = np.stack([random_signal(self.N, 16, np.random.default_rng(i)) for i in range(self.B)])
        y = design.query_results(sigmas, kernel="dense")
        return design, y

    def test_materialised_psi_dense32_vs_dense(self, benchmark, workload):
        design, y = workload

        def run(dtype):
            return dense.psi_pass(design, y, True, dtype)[0]

        assert np.array_equal(run(np.float64), run(np.float32))
        dense_s = _best_of(lambda: run(np.float64), repeats=3)
        gen2_s = _best_of(lambda: run(np.float32), repeats=3)
        out = benchmark.pedantic(lambda: run(np.float32), rounds=3, iterations=1)
        assert out.shape == (self.B, self.N)
        benchmark.extra_info.update(n=self.N, m=self.M, B=self.B, kernel="dense32")
        benchmark.extra_info["dense_s"] = round(dense_s, 6)
        benchmark.extra_info["gen2_speedup_x"] = round(dense_s / gen2_s, 2)
        # The GEMM-bound pass is where the float32 tier must pay off.
        assert benchmark.extra_info["gen2_speedup_x"] > 1.0


class TestCompiledBlockPsi:
    """``CompiledDesign.psi`` through its resident float32 block at n=10⁴, m=2400.

    The serve operating point (k=16): clean results sum to ~k·m/2, far
    under the 2²³ per-call budget, so every call here takes the block GEMM.
    Each B records ``ms_per_call`` and ``block_bytes``, plus the same GEMM
    against a float64 copy of the block — the format designs of 2²³+ draws
    used to keep — as ``float64_ms`` and ``speedup_x``.
    """

    N, M, K = 10_000, 2400, 16

    @pytest.fixture(scope="class")
    def served(self):
        from repro.designs import DesignKey, compile_from_key

        compiled = compile_from_key(DesignKey.for_stream(self.N, self.M, root_seed=7))
        Y = compiled.query_results(random_signals(self.N, self.K, 64, np.random.default_rng(7)))
        assert Y.sum(axis=1).max() < 2**23  # every row takes the block GEMM
        return compiled, compiled.incidence_block().astype(np.float64), Y

    @pytest.mark.parametrize("B", [1, 8, 64])
    def test_compiled_block_psi(self, benchmark, served, B):
        compiled, block64, Y = served
        y = Y[:B]
        assert np.array_equal(compiled.psi(y), compiled.design.psi(y))
        float64_s = _best_of(lambda: (y.astype(np.float64) @ block64).astype(np.int64), repeats=5)
        float32_s = _best_of(lambda: compiled.psi(y), repeats=5)
        benchmark.pedantic(lambda: compiled.psi(y), rounds=10, iterations=1, warmup_rounds=1)
        benchmark.extra_info.update(n=self.N, m=self.M, B=B, k=self.K, block_dtype=str(compiled.block_dtype))
        benchmark.extra_info["block_bytes"] = compiled.block_bytes
        benchmark.extra_info["ms_per_call"] = round(float32_s * 1e3, 3)
        benchmark.extra_info["float64_ms"] = round(float64_s * 1e3, 3)
        benchmark.extra_info["speedup_x"] = round(float64_s / float32_s, 2)


class TestFusedStats:
    """The fused query + Ψ/Δ* pass against the two passes it replaces.

    One paper-sweep grid point: n=10⁴, m=832, B=64, θ=0.3.  The fused
    pass (``materialised_stats``) counts each chunk's draws once and reads
    the results, Ψ and Δ* off that block; the two-pass operand runs
    ``query_results_batch`` and then ``materialised_psi`` with Δ*.
    ``speedup_x`` is two-pass time over fused time.
    """

    N, M, B, THETA = 10_000, 832, 64, 0.3

    def test_fused_vs_two_passes(self, benchmark):
        from repro.core.signal import theta_to_k

        design = PoolingDesign.sample(self.N, self.M, np.random.default_rng(11))
        k = theta_to_k(self.N, self.THETA)
        sigmas = np.stack([random_signal(self.N, k, np.random.default_rng(i)) for i in range(self.B)])

        def two_passes():
            y = dense.query_results_batch(design, sigmas)
            return (y, *dense.materialised_psi(design, y, with_dstar=True))

        for got, want in zip(dense.materialised_stats(design, sigmas), two_passes()):
            assert np.array_equal(got, want)
        two_s = _best_of(two_passes, repeats=3)
        fused_s = _best_of(lambda: dense.materialised_stats(design, sigmas), repeats=3)
        benchmark.pedantic(lambda: dense.materialised_stats(design, sigmas), rounds=3, iterations=1)
        benchmark.extra_info.update(n=self.N, m=self.M, B=self.B, k=k, kernel="dense")
        benchmark.extra_info["two_pass_ms"] = round(two_s * 1e3, 3)
        benchmark.extra_info["fused_ms"] = round(fused_s * 1e3, 3)
        benchmark.extra_info["speedup_x"] = round(two_s / fused_s, 2)
        assert two_s / fused_s > 1.0


class TestSortKernels:
    def test_numpy_sort_reference(self, benchmark):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(200_000)
        out = benchmark(lambda: np.sort(x))
        assert out.size == x.size

    def test_top_k(self, benchmark):
        """The argpartition selection every decoder's Lines 7–9 run through."""
        rng = np.random.default_rng(4)
        x = rng.standard_normal(500_000)
        idx = benchmark(lambda: parallel_top_k(x, 100))
        assert np.array_equal(idx, np.sort(np.lexsort((np.arange(x.size), -x))[:100]))
