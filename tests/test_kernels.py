"""Kernel parity: the dispatch seam and dense == legacy bit-identity.

The kernel layer (:mod:`repro.kernels`) is a pure performance knob; every
test here asserts *exact* equality of the integer outputs — the library's
central reproducibility invariant extended to kernel choice.  Coverage
follows the seam end to end: streaming statistics (with and without noise,
serial and multi-worker), materialised designs (regular and ragged),
batched query evaluation, odd shapes (``B = 1``, last short batch,
``Γ = 1``), the precision-tier boundaries (float32's 2²⁴ and float64's
2⁵³ exact-integer limits, below and above), the BLAS threadpool governor,
and the top-k fast path.
"""

import numpy as np
import pytest

from repro import kernels
from repro.core.design import PoolingDesign, stream_design_stats
from repro.core.signal import random_signal
from repro.engine.backend import SerialBackend, SharedMemBackend
from repro.engine.batch import reconstruct_batch, signals_oracle
from repro.kernels import threads
from repro.noise.models import DropoutNoise, GaussianNoise
from repro.parallel.sort import parallel_top_k

STATS_FIELDS = ("y", "psi", "dstar", "delta")
ALL_KERNELS = ("dense", "legacy")


def assert_stats_equal(a, b, context=""):
    for field in STATS_FIELDS:
        left, right = getattr(a, field), getattr(b, field)
        assert left.dtype == right.dtype, f"{field} dtype mismatch {context}"
        assert np.array_equal(left, right), f"{field} differs {context}"


class TestDispatch:
    def test_names(self):
        assert kernels.available_kernels() == ALL_KERNELS
        for name in kernels.available_kernels():
            assert kernels.dispatch(name).NAME == name

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            kernels.dispatch("blas")
        with pytest.raises(ValueError, match="unknown kernel"):
            kernels.check_kernel("sparse")

    def test_default_is_dense(self, monkeypatch):
        monkeypatch.delenv(kernels.KERNEL_ENV, raising=False)
        assert kernels.resolve_kernel(None) == kernels.DEFAULT_KERNEL == "dense"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV, "legacy")
        assert kernels.resolve_kernel(None) == "legacy"
        # An explicit argument beats the environment.
        assert kernels.resolve_kernel("dense") == "dense"

    @pytest.mark.parametrize("name", ["fast", "dense32"])
    def test_env_invalid_rejected(self, monkeypatch, name):
        monkeypatch.setenv(kernels.KERNEL_ENV, name)
        with pytest.raises(ValueError, match=f"REPRO_KERNEL='{name}' is not a known kernel; available: dense, legacy"):
            kernels.resolve_kernel(None)

    def test_backend_carries_kernel(self):
        assert SerialBackend().kernel is None
        assert SerialBackend(kernel="legacy").kernel == "legacy"
        assert SharedMemBackend(2, kernel="dense").kernel == "dense"
        with pytest.raises(ValueError, match="unknown kernel"):
            SerialBackend(kernel="turbo")


class TestStreamParity:
    """stream_design_stats: dense ↔ legacy bit-identity on the same keys."""

    @pytest.mark.parametrize(
        "n, m, gamma, batch_queries",
        [
            (101, 37, None, 8),  # several batches, last one short
            (64, 1, None, 256),  # single query => b=1 block
            (40, 17, 1, 4),  # Γ=1 degenerate pools
            (30, 9, 45, 9),  # Γ > n: heavy multi-edges
            (200, 300, None, 256),  # m > batch_queries with short tail
        ],
    )
    def test_noiseless(self, n, m, gamma, batch_queries):
        sigma = random_signal(n, max(1, n // 8), np.random.default_rng(0))
        legacy = stream_design_stats(sigma, m, root_seed=7, gamma=gamma, batch_queries=batch_queries, backend=SerialBackend(kernel="legacy"))
        got = stream_design_stats(sigma, m, root_seed=7, gamma=gamma, batch_queries=batch_queries, backend=SerialBackend(kernel="dense"))
        assert_stats_equal(got, legacy, f"(n={n}, m={m}, gamma={gamma}, bq={batch_queries})")

    @pytest.mark.parametrize("noise", [GaussianNoise(1.5), DropoutNoise(0.2)])
    def test_noisy(self, noise):
        sigma = random_signal(90, 11, np.random.default_rng(1))
        legacy = stream_design_stats(sigma, 41, root_seed=3, batch_queries=8, noise=noise, backend=SerialBackend(kernel="legacy"))
        got = stream_design_stats(sigma, 41, root_seed=3, batch_queries=8, noise=noise, backend=SerialBackend(kernel="dense"))
        assert_stats_equal(got, legacy, f"({noise!r})")

    @pytest.mark.parametrize("kernel", list(ALL_KERNELS))
    @pytest.mark.parametrize("noise", [None, GaussianNoise(1.0)])
    def test_worker_count_invariance(self, kernel, noise):
        """workers ∈ {1, 2} never changes output, whatever the kernel."""
        sigma = random_signal(80, 9, np.random.default_rng(2))
        serial = stream_design_stats(sigma, 33, root_seed=5, batch_queries=8, noise=noise, backend=SerialBackend(kernel=kernel))
        with SharedMemBackend(2, kernel=kernel) as backend:
            forked = stream_design_stats(sigma, 33, root_seed=5, batch_queries=8, noise=noise, backend=backend)
        assert_stats_equal(serial, forked, f"(kernel={kernel}, noise={noise!r})")

    def test_backend_kernel_field_is_honoured(self, monkeypatch):
        """The backend's kernel field picks the kernel module that runs —
        in the streaming path, where dense runs each batch through its
        fused ``materialised_stats`` pass, and in the inline grid path,
        whose noiseless MN points run that pass too — and the default
        runs dense.  The other kernel never runs."""
        from repro.engine.grid import run_trial_grid
        from repro.kernels import dense, legacy

        for env in (kernels.KERNEL_ENV, "REPRO_DESIGN_STORE"):
            monkeypatch.delenv(env, raising=False)
        ran = []

        def spy_on(module, fn):
            real = getattr(module, fn)

            def spy(*args, **kwargs):
                ran.append((module.NAME, fn))
                return real(*args, **kwargs)

            monkeypatch.setattr(module, fn, spy)

        for module in (dense, legacy):
            spy_on(module, "stream_batch")
            spy_on(module, "materialised_stats")

        streamed = {"legacy": {("legacy", "stream_batch")}, "dense": {("dense", "stream_batch"), ("dense", "materialised_stats")}}
        sigma = random_signal(60, 7, np.random.default_rng(3))
        for backend, expected in ((SerialBackend(kernel="legacy"), "legacy"), (None, "dense")):
            ran.clear()
            stream_design_stats(sigma, 21, root_seed=1, backend=backend)
            assert set(ran) == streamed[expected]
            ran.clear()
            run_trial_grid(60, [21], k=3, trials=2, root_seed=1, backend=backend)
            assert set(ran) == {(expected, "materialised_stats")}

    def test_one_pool_serves_several_widths(self):
        """One worker pool streams signals of several ``n`` in turn, each
        equal to the serial stream."""
        with SharedMemBackend(2) as backend:
            for n in (50, 60, 40):
                sigma = random_signal(n, 4, np.random.default_rng(n))
                serial = stream_design_stats(sigma, 23, root_seed=n, batch_queries=5)
                forked = stream_design_stats(sigma, 23, root_seed=n, batch_queries=5, backend=backend)
                assert_stats_equal(forked, serial, f"n={n}")


class TestMultiChunkStream:
    """A stream batch spanning several chunks of the dense walk equals legacy.

    ``BLOCK_BYTES`` is patched to three float64 rows (six float32 rows) of
    width ``n``, so each 20-query batch spans at least four chunks in every
    tier.  The pool forks after the patch, so its workers walk the same
    chunks.  An ambient design store is switched off: a store hit would
    skip the stream.
    """

    N, M, BQ = 80, 45, 20

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        from repro.kernels import dense

        monkeypatch.delenv("REPRO_DESIGN_STORE", raising=False)
        monkeypatch.setattr(dense, "BLOCK_BYTES", 8 * self.N * 3)

    def _check(self, sigma, noise, workers):
        legacy = stream_design_stats(sigma, self.M, root_seed=4, batch_queries=self.BQ, noise=noise, backend=SerialBackend(kernel="legacy"))
        if workers == 1:
            got = stream_design_stats(sigma, self.M, root_seed=4, batch_queries=self.BQ, noise=noise, backend=SerialBackend(kernel="dense"))
        else:
            with SharedMemBackend(workers, kernel="dense") as backend:
                got = stream_design_stats(sigma, self.M, root_seed=4, batch_queries=self.BQ, noise=noise, backend=backend)
        assert_stats_equal(got, legacy, f"(noise={noise!r}, workers={workers})")

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("noise", [None, GaussianNoise(1.0)], ids=["noiseless", "gaussian"])
    def test_noise(self, noise, workers):
        self._check(random_signal(self.N, 9, np.random.default_rng(6)), noise, workers)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("shift", [2**21, 2**23, 2**52])
    def test_shift(self, shift, workers):
        self._check(random_signal(self.N, 9, np.random.default_rng(6)), _ShiftNoise(shift), workers)

    def test_batches_span_several_chunks(self, monkeypatch):
        from repro.kernels import dense

        chunks = []
        real = dense._incidence_chunks

        def spy(design, block):
            chunks.append(0)
            for chunk in real(design, block):
                chunks[-1] += 1
                yield chunk

        monkeypatch.setattr(dense, "_incidence_chunks", spy)
        sigma = random_signal(self.N, 9, np.random.default_rng(6))
        for noise in (None, _ShiftNoise(2**21), _ShiftNoise(2**23), _ShiftNoise(2**52)):
            chunks.clear()
            stream_design_stats(sigma, self.M, root_seed=4, batch_queries=self.BQ, noise=noise, backend=SerialBackend(kernel="dense"))
            assert min(chunks[:-1]) >= 3, (noise, chunks)  # the 5-query tail batch may take fewer


class TestMaterialisedParity:
    """PoolingDesign.stats / psi / dstar / query_results across kernels."""

    @pytest.fixture
    def regular(self):
        rng = np.random.default_rng(4)
        return PoolingDesign.sample(101, 37, rng)

    @pytest.fixture
    def ragged(self):
        # Duplicate draws, an empty pool, Γ=1 pools, and a full pool.
        pools = [[0, 1, 2, 2, 5], [3], [], [6, 6, 6], [0, 5, 1], list(range(7))]
        return PoolingDesign.from_pools(7, pools)

    @pytest.mark.parametrize("B", [1, 5])
    def test_regular_stats(self, regular, B):
        sigmas = np.stack([random_signal(101, 9, np.random.default_rng(i)) for i in range(B)])
        fresh = PoolingDesign(regular.n, regular.entries, regular.indptr)  # isolate caches
        got = regular.stats(sigmas, kernel="dense")
        legacy = fresh.stats(sigmas, kernel="legacy")
        assert_stats_equal(got, legacy, f"(B={B})")

    def test_single_signal_stats(self, regular):
        sigma = random_signal(101, 9, np.random.default_rng(0))
        fresh = PoolingDesign(regular.n, regular.entries, regular.indptr)
        assert_stats_equal(regular.stats(sigma, kernel="dense"), fresh.stats(sigma, kernel="legacy"))

    def test_ragged_from_pools(self, ragged):
        fresh = PoolingDesign(ragged.n, ragged.entries, ragged.indptr)
        y = np.array([3, 1, 0, 2, 4, 7], dtype=np.int64)
        assert np.array_equal(ragged.psi(y, kernel="dense"), fresh.psi(y, kernel="legacy"))
        assert np.array_equal(ragged.dstar(kernel="dense"), fresh.dstar(kernel="legacy"))
        yB = np.stack([y, 2 * y, np.zeros(6, dtype=np.int64)])
        assert np.array_equal(ragged.psi(yB, kernel="dense"), fresh.psi(yB, kernel="legacy"))
        sigmas = np.stack([np.array([1, 0, 1, 0, 0, 1, 1], dtype=np.int8)] * 3)
        assert np.array_equal(
            ragged.query_results(sigmas, kernel="dense"), fresh.query_results(sigmas, kernel="legacy")
        )

    def test_batched_query_results_match_single(self, regular):
        sigmas = np.stack([random_signal(101, 9, np.random.default_rng(i)) for i in range(4)])
        batched = regular.query_results(sigmas, kernel="dense")
        for b in range(4):
            assert np.array_equal(batched[b], regular.query_results(sigmas[b]))

    def test_fig1_example_both_kernels(self):
        design, sigma = PoolingDesign.fig1_example()
        expected = np.array([2, 2, 3, 1, 1])
        for kernel in kernels.available_kernels():
            fresh, _ = PoolingDesign.fig1_example()
            y = fresh.query_results(np.stack([sigma]), kernel=kernel)
            assert np.array_equal(y, expected[None, :])
        assert np.array_equal(design.query_results(sigma), expected)

    def test_psi_exact_beyond_float53(self, ragged):
        """Integer accumulation: Ψ must be exact where float64 would round."""
        big = 2**53 + 1  # not representable in float64
        y = np.full(ragged.m, big, dtype=np.int64)
        for kernel in kernels.available_kernels():
            fresh = PoolingDesign(ragged.n, ragged.entries, ragged.indptr)
            psi = fresh.psi(y, kernel=kernel)
            # Entry 4 sits in exactly one query, so Ψ_4 = y of that query.
            assert psi[4] == big, f"kernel={kernel} rounded Ψ through float64"

    def test_dstar_cache_is_shared_and_consistent(self, regular):
        d1 = regular.dstar(kernel="dense")
        assert regular.dstar(kernel="legacy") is d1  # cached, kernel-agnostic
        fresh = PoolingDesign(regular.n, regular.entries, regular.indptr)
        assert np.array_equal(fresh.dstar(kernel="legacy"), d1)


class TestSupportRestrictedQueries:
    """Dense queries count only the batch's union support: dense == legacy.

    Each case also checks the int64 oracle ``σ @ countsᵀ`` over the full
    count matrix, which shares no code with either kernel.
    """

    @staticmethod
    def assert_queries_agree(design, batch):
        expected = batch.astype(np.int64) @ design.dense_counts().T
        for kernel in ALL_KERNELS:
            fresh = PoolingDesign(design.n, design.entries, design.indptr)
            got = fresh.query_results(batch, kernel=kernel)
            assert got.dtype == np.int64 and got.shape == (batch.shape[0], design.m)
            assert np.array_equal(got, expected), f"kernel={kernel}"

    @pytest.fixture
    def sampled(self):
        return PoolingDesign.sample(60, 23, np.random.default_rng(8))

    def test_all_zero_batch(self, sampled):
        self.assert_queries_agree(sampled, np.zeros((3, sampled.n), dtype=np.int8))

    def test_all_zero_rows(self, sampled):
        batch = np.zeros((4, sampled.n), dtype=np.int8)
        batch[1, [3, 17]] = 1
        batch[3, 40] = 1
        self.assert_queries_agree(sampled, batch)

    def test_union_covers_every_column(self, sampled):
        rng = np.random.default_rng(1)
        batch = (rng.random((5, sampled.n)) < 0.3).astype(np.int8)
        batch[0] = 1  # union = all n columns
        self.assert_queries_agree(sampled, batch)

    @pytest.mark.parametrize("col", [0, 31, 59])
    def test_single_shared_column(self, sampled, col):
        batch = np.zeros((3, sampled.n), dtype=np.int8)
        batch[:, col] = 1
        self.assert_queries_agree(sampled, batch)

    def test_ragged_pools_with_empty_pool_and_multi_edges(self):
        pools = [[0, 1, 2, 2, 5], [3], [], [6, 6, 6], [0, 5, 1], list(range(7)), [4, 4]]
        design = PoolingDesign.from_pools(7, pools)
        batch = np.array([[0, 0, 1, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 1, 0, 0]], dtype=np.int8)
        self.assert_queries_agree(design, batch)

    @pytest.mark.parametrize("density", [0.004, 0.6], ids=["sparse-support", "dense-support"])
    def test_m_spans_several_chunks(self, density):
        # n=2000 gives 524 float64 rows per chunk: m=1200 is three chunks,
        # the last one short.
        design = PoolingDesign.sample(2000, 1200, np.random.default_rng(5))
        batch = (np.random.default_rng(6).random((6, design.n)) < density).astype(np.int8)
        self.assert_queries_agree(design, batch)

    @pytest.mark.parametrize("density", [0.05, 0.6], ids=["sparse-support", "dense-support"])
    def test_tiny_chunks(self, monkeypatch, density):
        from repro.kernels import dense

        design = PoolingDesign.sample(50, 17, np.random.default_rng(2))
        batch = (np.random.default_rng(3).random((4, design.n)) < density).astype(np.int8)
        monkeypatch.setattr(dense, "BLOCK_BYTES", 8 * design.n * 3)  # 3 rows per float64 chunk
        self.assert_queries_agree(design, batch)


class TestRowCells:
    """Broadcast row offsets for equal-size pools, ``np.repeat`` for ragged ones: one index."""

    @staticmethod
    def reference(design, lo, hi, width, values):
        sizes = np.diff(design.indptr)[lo:hi]
        return np.repeat(np.arange(hi - lo) * width, sizes) + values

    @pytest.mark.parametrize(
        "pools",
        [
            [[0, 3, 3], [1, 2, 4], [4, 4, 0], [2, 0, 1]],
            [[0, 1, 2, 2, 5], [3], [], [6, 6, 6], [0, 5, 1], [4, 4]],
            [[], [], []],
            [[1, 2], [3, 4], [5, 6, 0], [0]],
        ],
        ids=["regular", "ragged", "all-empty", "regular-prefix"],
    )
    def test_every_range_matches_the_repeat_index(self, pools):
        design = PoolingDesign.from_pools(7, pools)
        for lo in range(design.m + 1):
            for hi in range(lo, design.m + 1):
                draws = design.entries[design.indptr[lo] : design.indptr[hi]]
                got = design.incidence_cells(lo, hi)
                assert np.array_equal(got, self.reference(design, lo, hi, design.n, draws)), (lo, hi)
                assert got.dtype == np.intp
                narrow = kernels.dense.row_cells(design.indptr, lo, hi, 11, draws.astype(np.int32), np.int32)
                assert narrow.dtype == np.int32
                assert np.array_equal(narrow, self.reference(design, lo, hi, 11, draws)), (lo, hi)

    def test_ragged_design_with_regular_chunks_counts_exactly(self, monkeypatch):
        from repro.kernels import dense

        # Chunks of two rows: [0, 1] and [4, 5] are regular, [2, 3] is ragged.
        pools = [[0, 1, 1], [2, 3, 4], [5], [6, 6, 0, 1], [3, 2], [4, 4]]
        design = PoolingDesign.from_pools(7, pools)
        batch = np.array([[1, 1, 0, 1, 0, 0, 1], [0, 0, 1, 0, 1, 1, 0]], dtype=np.int8)
        monkeypatch.setattr(dense, "BLOCK_BYTES", 8 * design.n * 2)
        y = design.query_results(batch, kernel="legacy")  # a per-row gather: no cell index
        psi = design.psi(y, kernel="legacy")
        for kernel in ALL_KERNELS:
            fresh = PoolingDesign(design.n, design.entries, design.indptr)
            assert np.array_equal(fresh.query_results(batch, kernel=kernel), y), kernel
            assert np.array_equal(fresh.psi(y, kernel=kernel), psi), kernel


class TestEndToEndParity:
    def test_reconstruct_batch_kernels_identical(self):
        n, m, B = 120, 70, 6
        sigmas = np.stack([random_signal(n, 5, np.random.default_rng(i)) for i in range(B)])
        reports = {}
        for kernel in kernels.available_kernels():
            reports[kernel] = reconstruct_batch(
                n,
                m,
                signals_oracle(sigmas),
                B,
                rng=np.random.default_rng(9),
                backend=SerialBackend(kernel=kernel),
            )
        for field in ("sigma_hat", "y", "k"):
            assert np.array_equal(getattr(reports["dense"], field), getattr(reports["legacy"], field)), field

    def test_batched_grid_point_kernels_identical(self):
        from repro.engine.grid import run_batched_point

        a = run_batched_point(90, 60, theta=0.35, trials=5, root_seed=11, kernel="dense")
        b = run_batched_point(90, 60, theta=0.35, trials=5, root_seed=11, kernel="legacy")
        assert np.array_equal(a.success, b.success)
        assert np.array_equal(a.overlap, b.overlap)


class _ShiftNoise:
    """Deterministic test-only channel: shift every count by a constant.

    Lets a test place ``y`` exactly on a precision-tier boundary, which no
    stochastic library channel can do.
    """

    def __init__(self, shift: int):
        self.shift = int(shift)

    def corrupt(self, y, rng):
        return y + np.int64(self.shift)


class TestExactnessBoundaries:
    """The float32 (2²³) and float64 (2⁵²) guards at their boundaries.

    Each case drives ``y`` just below / just above a budget and asserts
    (a) the expected tier actually ran and (b) the outputs stay
    bit-identical across both kernels either way.
    """

    N = 6
    EDGES = np.array([[0, 1], [2, 3], [4, 5]], dtype=np.int64)  # each entry in exactly one query

    def _stream_all_kernels(self, shift):
        sigma = np.ones(self.N, dtype=np.int8)
        design = PoolingDesign.from_pools(self.N, self.EDGES)
        out = {}
        for name in ALL_KERNELS:
            mod = kernels.dispatch(name)
            psi = np.zeros(self.N, dtype=np.int64)
            dstar = np.zeros(self.N, dtype=np.int64)
            delta = np.zeros(self.N, dtype=np.int64)
            y = mod.stream_batch(design, sigma, _ShiftNoise(shift), None, psi, dstar, delta)
            out[name] = (y, psi, dstar, delta)
        return out

    @pytest.mark.parametrize(
        "shift",
        [
            2**21,  # Σ|y| below 2²³: float32 tier
            2**23,  # Σ|y| above 2²³, below 2⁵²: float64 tier
            2**52,  # Σ|y| above 2⁵²: exact integer tier
        ],
    )
    def test_stream_bit_identity_across_tiers(self, shift):
        results = self._stream_all_kernels(shift)
        y_ref, psi_ref, dstar_ref, delta_ref = results["legacy"]
        assert np.array_equal(psi_ref, y_ref[[0, 0, 1, 1, 2, 2]])  # one query per entry
        y, psi, dstar, delta = results["dense"]
        assert np.array_equal(y, y_ref), f"y differs (shift=2^{shift.bit_length() - 1})"
        assert np.array_equal(psi, psi_ref), f"psi differs (shift=2^{shift.bit_length() - 1})"
        assert np.array_equal(dstar, dstar_ref) and np.array_equal(delta, delta_ref)

    def test_stream_tier_selection(self, monkeypatch):
        """A noisy dense stream batch takes ``psi_pass``'s tiers: float32
        while Σ|y| is below 2²³, float64 below 2⁵², integer matmul above."""
        from repro.kernels import dense

        tiers = []
        real = dense.psi_pass

        def spy(design, y, with_dstar, dtype):
            tiers.append(dtype)
            return real(design, y, with_dstar, dtype)

        monkeypatch.setattr(dense, "psi_pass", spy)
        self._stream_all_kernels(2**21)
        self._stream_all_kernels(2**23)
        self._stream_all_kernels(2**52)
        assert tiers == [np.float32, np.float64, None]

    @pytest.mark.parametrize(
        "value, tier",
        [
            (2**23 - 10, "float32"),  # inside the float32 budget
            (2**23 + 10, "float64"),  # over it, inside float64's
            (2**52 + 10, "exact-int"),  # over both: integer matmul
        ],
    )
    def test_psi_tier_and_value(self, value, tier, monkeypatch):
        from repro.kernels import dense

        dtypes = []
        real = dense.psi_pass

        def spy(design, y, with_dstar, dtype):
            dtypes.append("exact-int" if dtype is None else str(np.dtype(dtype)))
            return real(design, y, with_dstar, dtype)

        monkeypatch.setattr(dense, "psi_pass", spy)
        design = PoolingDesign.from_pools(5, [[4], [0, 1], [2, 3]])  # entry 4 in exactly one query
        y = np.array([value, 0, 0], dtype=np.int64)
        got = design.psi(y, kernel="dense")
        assert got[4] == value  # Ψ_4 = y of entry 4's only query, bit-exact
        assert dtypes == [tier]
        fresh = PoolingDesign(design.n, design.entries, design.indptr)
        assert np.array_equal(got, fresh.psi(y, kernel="legacy"))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_over_budget_stream_sharedmem(self, workers):
        """Counts past float32's exact range: still bit-identical, serial
        and across a worker pool."""
        sigma = random_signal(16, 3, np.random.default_rng(5))
        noise = GaussianNoise(5e6)  # |y| ~ 5·10⁶ ≫ 2²³/m
        legacy = stream_design_stats(sigma, 33, root_seed=2, batch_queries=8, noise=noise, backend=SerialBackend(kernel="legacy"))
        assert float(np.abs(legacy.y).sum()) > 2**23  # Σ|y| is past float32's budget
        with SharedMemBackend(workers, kernel="dense") as backend:
            got = stream_design_stats(sigma, 33, root_seed=2, batch_queries=8, noise=noise, backend=backend)
        assert_stats_equal(got, legacy, f"(workers={workers})")


class TestDstarOnesRow:
    """Δ* as the all-ones row of the Ψ GEMM equals legacy's distinct counts."""

    @staticmethod
    def assert_matches_legacy(design, y, kernel):
        mod = kernels.dispatch(kernel)
        reference = PoolingDesign(design.n, design.entries, design.indptr)
        want_psi, want_dstar = reference.psi(y, kernel="legacy"), reference.dstar(kernel="legacy")
        psi, dstar = mod.materialised_psi(design, y, with_dstar=True)
        assert psi.dtype == dstar.dtype == np.int64
        assert np.array_equal(psi, want_psi), kernel
        assert np.array_equal(dstar, want_dstar), kernel
        assert np.array_equal(mod.materialised_dstar(design), want_dstar), kernel

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_fig1_multi_edge_design(self, kernel):
        design, sigma = PoolingDesign.fig1_example()
        self.assert_matches_legacy(design, design.query_results(np.stack([sigma, 1 - sigma])), kernel)

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_ragged_with_empty_pool(self, kernel):
        design = PoolingDesign.from_pools(7, [[0, 1, 2, 2, 5], [3], [], [6, 6, 6], [0, 5, 1], list(range(7))])
        y = np.array([[3, 1, 0, 2, 4, 7], [0, 0, 0, 0, 0, 0]], dtype=np.int64)
        self.assert_matches_legacy(design, y, kernel)

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_m_spans_several_chunks(self, kernel, monkeypatch):
        from repro.kernels import dense

        design = PoolingDesign.sample(50, 17, np.random.default_rng(2))
        monkeypatch.setattr(dense, "BLOCK_BYTES", 4 * design.n * 3)  # 3 float32 rows; B=3 Ψ rows + Δ* make it 4
        sigmas = np.stack([random_signal(50, 4, np.random.default_rng(i)) for i in range(3)])
        self.assert_matches_legacy(design, design.query_results(sigmas), kernel)

    def test_dstar_over_float32_budget_takes_float64(self, monkeypatch):
        from repro.kernels import dense

        design = PoolingDesign.sample(30, 17, np.random.default_rng(3))
        y = np.zeros((2, design.m), dtype=np.int64)
        y[0, 4], y[1, 9] = 3, 5  # Σ|y[b]| ≤ 5 < 8 ≤ m = 17
        monkeypatch.setattr(dense, "_EXACT_LIMIT32", 8.0)
        dtypes = []
        real = dense.psi_pass

        def spy(design, y, with_dstar, dtype):
            dtypes.append((with_dstar, str(np.dtype(dtype))))
            return real(design, y, with_dstar, dtype)

        monkeypatch.setattr(dense, "psi_pass", spy)
        self.assert_matches_legacy(design, y, "dense")
        dense.materialised_psi(design, y)
        # Ψ + Δ* and Δ* alone go float64 (m over budget); Ψ alone stays float32.
        assert dtypes == [(True, "float64"), (True, "float64"), (False, "float32")]


class TestMaterialisedStats:
    """``materialised_stats`` — one counting scatter per chunk — equals legacy's passes.

    The reference is legacy's query results, Ψ of those results and Δ*,
    each computed on its own design, so no kernel's fused pass checks
    itself.
    """

    @staticmethod
    def assert_matches_legacy(design, batch, kernel):
        reference = PoolingDesign(design.n, design.entries, design.indptr)
        want_y = reference.query_results(batch, kernel="legacy")
        want = (want_y, reference.psi(want_y, kernel="legacy"), reference.dstar(kernel="legacy"))
        got = kernels.dispatch(kernel).materialised_stats(PoolingDesign(design.n, design.entries, design.indptr), batch)
        for name, left, right in zip(("y", "psi", "dstar"), got, want):
            assert left.dtype == np.int64 and left.shape == right.shape, (kernel, name)
            assert np.array_equal(left, right), (kernel, name)

    @pytest.fixture
    def tiers(self, monkeypatch):
        """The dtype of every fused pass that runs."""
        from repro.kernels import dense

        taken = []
        real = dense.stats_pass

        def spy(design, batch, dtype):
            taken.append(str(np.dtype(dtype)))
            return real(design, batch, dtype)

        monkeypatch.setattr(dense, "stats_pass", spy)
        return taken

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_fig1_multi_edge_design(self, kernel):
        design, sigma = PoolingDesign.fig1_example()
        self.assert_matches_legacy(design, np.stack([sigma, 1 - sigma, np.zeros_like(sigma)]), kernel)

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_ragged_with_empty_pool(self, kernel):
        design = PoolingDesign.from_pools(7, [[0, 1, 2, 2, 5], [3], [], [6, 6, 6], [0, 5, 1], list(range(7)), [4, 4]])
        batch = np.array([[0, 0, 1, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 1, 0, 0]], dtype=np.int8)
        self.assert_matches_legacy(design, batch, kernel)

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_all_zero_batch(self, kernel):
        design = PoolingDesign.sample(60, 23, np.random.default_rng(8))
        self.assert_matches_legacy(design, np.zeros((3, design.n), dtype=np.int8), kernel)

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_full_width_bernoulli_half(self, kernel):
        design = PoolingDesign.sample(80, 31, np.random.default_rng(9))
        batch = (np.random.default_rng(10).random((6, design.n)) < 0.5).astype(np.int8)
        batch[0] = 1  # the union support is every column
        self.assert_matches_legacy(design, batch, kernel)

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_m_spans_several_chunks(self, kernel, monkeypatch):
        from repro.kernels import dense

        design = PoolingDesign.sample(50, 17, np.random.default_rng(2))
        monkeypatch.setattr(dense, "BLOCK_BYTES", 4 * design.n * 3)  # 3 float32 rows; B + 1 = 4 rows per chunk, the last short
        batch = np.stack([random_signal(50, 4, np.random.default_rng(i)) for i in range(3)])
        self.assert_matches_legacy(design, batch, kernel)

    def test_chunk_holds_the_coefficient_rows(self, monkeypatch):
        """Under a one-row budget a chunk still holds one query per GEMM
        coefficient row: ``B + 1`` for the fused pass and for Ψ with Δ*,
        ``B`` for Ψ alone, and one for Δ* alone."""
        from repro.kernels import dense

        heights = []
        real = dense._incidence_chunks

        def spy(design, block):
            heights.append(block.shape[0])
            return real(design, block)

        monkeypatch.setattr(dense, "_incidence_chunks", spy)
        design = PoolingDesign.sample(30, 23, np.random.default_rng(7))
        monkeypatch.setattr(dense, "BLOCK_BYTES", 4 * design.n)  # one float32 row
        batch = np.stack([random_signal(30, 3, np.random.default_rng(i)) for i in range(4)])
        self.assert_matches_legacy(design, batch, "dense")
        y = design.query_results(batch)
        dense.materialised_psi(design, y)
        dense.materialised_dstar(design)
        assert heights == [5, 4, 1]

    def test_over_float32_budget_takes_float64(self, monkeypatch, tiers):
        from repro.kernels import dense

        design = PoolingDesign.sample(40, 13, np.random.default_rng(4))
        batch = np.stack([random_signal(40, 5, np.random.default_rng(i)) for i in range(4)])
        self.assert_matches_legacy(design, batch, "dense")
        monkeypatch.setattr(dense, "_EXACT_LIMIT32", float(design.entries.size))  # entries.size is not below it
        self.assert_matches_legacy(design, batch, "dense")
        assert tiers == ["float32", "float64"]

    def test_over_float64_budget_runs_the_two_passes(self, monkeypatch, tiers):
        from repro.kernels import dense

        design = PoolingDesign.sample(40, 13, np.random.default_rng(5))
        batch = np.stack([random_signal(40, 5, np.random.default_rng(i)) for i in range(4)])
        ran = []
        for name in ("query_results_batch", "materialised_psi"):
            real = getattr(dense, name)
            monkeypatch.setattr(dense, name, lambda *a, _real=real, _name=name, **kw: ran.append(_name) or _real(*a, **kw))
        monkeypatch.setattr(dense, "_EXACT_LIMIT32", 1.0)
        monkeypatch.setattr(dense, "_EXACT_LIMIT", float(design.m))  # m is not below it
        self.assert_matches_legacy(design, batch, "dense")
        assert tiers == [] and ran == ["query_results_batch", "materialised_psi"]

    def test_block_is_left_zeroed_and_reused(self, monkeypatch):
        """One block serves every chunk: each chunk starts from zero counts."""
        from repro.kernels import dense

        design = PoolingDesign.from_pools(5, [[0, 0, 0], [0], [1, 1, 4], [0, 2], [3, 3, 3, 3]])
        monkeypatch.setattr(dense, "BLOCK_BYTES", 4 * design.n * 2)  # 2 rows per chunk
        batch = np.array([[1, 1, 0, 1, 0]], dtype=np.int8)
        y, psi, dstar = dense.materialised_stats(design, batch)
        assert y.tolist() == [[3, 1, 2, 1, 4]]
        assert dstar.tolist() == [3, 1, 1, 1, 1]
        assert psi.tolist() == [[3 + 1 + 1, 2, 1, 4, 2]]


class TestMNSkipsDelta:
    """MN-only decodes read Ψ and Δ*; nothing builds Δ for them."""

    @pytest.fixture
    def no_delta(self, monkeypatch):
        calls = []
        real = PoolingDesign.delta

        def spy(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(PoolingDesign, "delta", spy)
        return calls

    def test_batched_grid_point(self, no_delta):
        from repro.engine.grid import run_batched_point

        got = {kernel: run_batched_point(90, 60, theta=0.35, trials=5, root_seed=11, kernel=kernel) for kernel in ALL_KERNELS}
        assert no_delta == []
        assert np.array_equal(got["dense"].success, got["legacy"].success)
        assert np.array_equal(got["dense"].overlap, got["legacy"].overlap)

    def test_mn_reconstruct_and_reconstruct_batch(self, no_delta):
        from repro.core.mn import mn_reconstruct

        design, sigma = PoolingDesign.fig1_example()
        assert np.array_equal(mn_reconstruct(design, design.query_results(sigma), 3), sigma)
        sigmas = np.stack([random_signal(120, 5, np.random.default_rng(i)) for i in range(4)])
        report = reconstruct_batch(120, 70, signals_oracle(sigmas), 4, rng=np.random.default_rng(9))
        assert report.sigma_hat.shape == sigmas.shape
        assert no_delta == []


class TestThreadGovernor:
    """repro.kernels.threads: detection-tolerant governor behaviour."""

    def test_worker_thread_budget(self):
        assert threads.worker_thread_budget(2, cores=8) == 4
        assert threads.worker_thread_budget(3, cores=8) == 2
        assert threads.worker_thread_budget(16, cores=8) == 1  # never zero
        assert threads.worker_thread_budget(1, cores=8) == 8

    def test_machine_provenance(self):
        prov = threads.machine_provenance()
        assert set(prov) == {"cpu_count", "blas_vendor", "blas_threads", "numpy"}
        assert prov["cpu_count"] >= 1
        assert isinstance(prov["blas_vendor"], str)
        assert prov["numpy"] == np.__version__

    @pytest.mark.parametrize("workers", [1, 2])
    def test_capped_pool_end_to_end(self, workers):
        """A worker pool under its per-worker BLAS budget still bit-matches serial."""
        sigma = random_signal(60, 7, np.random.default_rng(6))
        serial = stream_design_stats(sigma, 21, root_seed=9, batch_queries=8, backend=SerialBackend(kernel="dense"))
        with SharedMemBackend(workers, kernel="dense") as backend:
            got = stream_design_stats(sigma, 21, root_seed=9, batch_queries=8, backend=backend)
        assert_stats_equal(got, serial, f"(workers={workers}, capped)")


class TestTopKFastPath:
    """The argpartition selection picks exactly the lexsort oracle's set."""

    @staticmethod
    def _oracle(scores, k):
        return np.sort(np.lexsort((np.arange(scores.size), -scores))[:k])

    @pytest.mark.parametrize("seed", range(5))
    def test_1d_matches_lexsort_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n = int(rng.integers(2, 150))
            k = int(rng.integers(1, n + 1))
            ties_heavy = rng.random() < 0.5
            scores = rng.integers(0, 4, size=n) if ties_heavy else rng.standard_normal(n)
            assert np.array_equal(parallel_top_k(scores, k), self._oracle(scores, k))

    @pytest.mark.parametrize("seed", range(3))
    def test_batch_matches_lexsort_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(25):
            B = int(rng.integers(1, 6))
            n = int(rng.integers(2, 90))
            k = int(rng.integers(1, n + 1))
            scores = rng.integers(0, 3, size=(B, n))
            expected = np.stack([self._oracle(row, k) for row in scores])
            assert np.array_equal(parallel_top_k(scores, k), expected)

    def test_batch_mixes_surplus_tie_rows_and_plain_rows(self, monkeypatch):
        # k=3: row 0 has four ties at the threshold (surplus), row 1 exactly
        # the ties it needs, row 2 none, row 3 a surplus after a strict top.
        # Finite scores must be answered by the selection itself, not by
        # the NaN fallback's argsort (which would mask a wrong tie mask).
        scores = np.array(
            [
                [1, 2, 2, 0, 2, 2, 0, 1],
                [5, 1, 3, 3, 0, 0, 1, 1],
                [7, 6, 5, 4, 3, 2, 1, 0],
                [9, 4, 4, 0, 4, 9, 4, 0],
            ],
            dtype=np.float64,
        )
        rows = np.stack([parallel_top_k(row, 3) for row in scores])

        def no_fallback(*args, **kwargs):
            raise AssertionError("finite scores fell back to the argsort ranking")

        monkeypatch.setattr(np, "argsort", no_fallback)
        got = parallel_top_k(scores, 3)
        monkeypatch.undo()
        assert np.array_equal(got, rows)
        assert np.array_equal(got, np.stack([self._oracle(row, 3) for row in scores]))

    def test_spilled_ties_keep_the_lowest_indices(self):
        # Row 0: eight ties for two free slots behind a strict top, so ties
        # lie outside the partition and the tie mask must run; row 1 has
        # no tie at its threshold and keeps the sorted partition.
        scores = np.array([[1, 1, 1, 1, 1, 1, 1, 1, 2, 0], [0, 9, 1, 8, 2, 7, 3, 6, 4, 5]], dtype=np.float64)
        got = parallel_top_k(scores, 3)
        assert got.tolist() == [[0, 1, 8], [1, 3, 5]]
        assert np.array_equal(got, np.stack([self._oracle(row, 3) for row in scores]))

    @pytest.mark.parametrize("k", [1, 3, 7, 39])
    def test_spilled_and_settled_rows_share_a_batch(self, monkeypatch, k):
        # Three score levels over 40 columns: most rows hold ties outside
        # the partition, some do not; every finite row is answered by the
        # selection itself, never by the NaN fallback's argsort.
        scores = np.random.default_rng(k).integers(0, 3, size=(32, 40)).astype(np.float64)
        scores[0] = np.arange(40)  # no ties at all
        expected = np.stack([self._oracle(row, k) for row in scores])

        def no_fallback(*args, **kwargs):
            raise AssertionError("finite scores fell back to the argsort ranking")

        monkeypatch.setattr(np, "argsort", no_fallback)
        got = parallel_top_k(scores, k)
        monkeypatch.undo()
        assert np.array_equal(got, expected)

    def test_all_tie_rows(self):
        scores = np.array([[4, 4, 4, 4, 4, 4], [0, 1, 2, 3, 4, 5], [7, 7, 7, 7, 7, 7]], dtype=np.float64)
        got = parallel_top_k(scores, 2)
        assert got.tolist() == [[0, 1], [4, 5], [0, 1]]

    def test_nan_rows_rank_nan_last(self):
        scores = np.array([[np.nan, 1, 3, np.nan, 2, 0], [1, 2, 3, 4, 5, 6], [np.nan] * 6])
        got = parallel_top_k(scores, 3)
        assert np.array_equal(got, np.stack([self._oracle(row, 3) for row in scores]))
        assert got.tolist() == [[1, 2, 4], [3, 4, 5], [0, 1, 2]]

    def test_k_equals_n(self):
        scores = np.array([[3.0, np.nan, 1.0], [0.0, 0.0, 0.0]])
        assert parallel_top_k(scores, 3).tolist() == [[0, 1, 2], [0, 1, 2]]

    def test_all_tied(self):
        scores = np.zeros(10)
        assert np.array_equal(parallel_top_k(scores, 4), np.arange(4))
        assert np.array_equal(parallel_top_k(np.zeros((2, 10)), 4), np.tile(np.arange(4), (2, 1)))
