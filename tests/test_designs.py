"""Tests for the compiled-design lifecycle: keys, store reuse, serving.

The central contract under test: the decode-only path is **bit-identical**
to the one-shot paths for matched keys — for the serial and shared-memory
backends, with and without noise.
"""

import numpy as np
import pytest

from repro.core.design import PoolingDesign, stream_design_stats
from repro.core.mn import MNDecoder, mn_reconstruct, run_mn_trial
from repro.core.reconstruction import reconstruct
from repro.core.signal import random_signal, random_signals
from repro.designs import (
    CompiledDesign,
    DesignKey,
    DesignStore,
    compile_design,
    compile_from_key,
)
from repro.engine import SerialBackend, SharedMemBackend, reconstruct_batch, run_trial_grid, signals_oracle
from repro.noise.models import DropoutNoise, GaussianNoise
from repro.noise.trial import run_noisy_mn_trial

N, M, BQ, SEED = 300, 700, 64, 9


@pytest.fixture
def key():
    return DesignKey.for_stream(N, M, root_seed=SEED, batch_queries=BQ)


@pytest.fixture
def compiled(key):
    return compile_from_key(key)


@pytest.fixture
def sigma():
    return random_signal(N, 6, np.random.default_rng(1))


class TestDesignKey:
    def test_stream_key_normalises(self):
        a = DesignKey.for_stream(N, M, root_seed=SEED, trial_key=(np.int64(3),), batch_queries=BQ)
        b = DesignKey.for_stream(N, M, root_seed=SEED, trial_key=(3,), batch_queries=BQ)
        assert a == b and a.scheme == "stream"
        assert a.gamma == N // 2  # default gamma resolved into the key

    def test_sampled_and_content_schemes(self):
        sampled = DesignKey.for_sampled(N, M, root_seed=SEED, tag=7, index=2)
        assert sampled.scheme == "sampled" and sampled.batch_queries == 0
        design = PoolingDesign.sample(50, 20, np.random.default_rng(0))
        content = DesignKey.for_content(design)
        assert content.scheme == "content"
        assert content == DesignKey.for_content(design)  # stable address

    def test_content_key_tracks_content(self):
        d1 = PoolingDesign.from_pools(10, [[0, 1], [2, 3]])
        d2 = PoolingDesign.from_pools(10, [[0, 1], [2, 4]])
        assert DesignKey.for_content(d1) != DesignKey.for_content(d2)

    def test_custom_scheme_not_regenerable(self):
        key = DesignKey(n=N, m=M, gamma=N // 2, root_seed=SEED, trial_key=("noisy", 941, 0), batch_queries=0)
        assert key.scheme == "custom"
        with pytest.raises(ValueError, match="cannot regenerate"):
            compile_from_key(key)


class TestCompiledDesign:
    def test_stream_key_regenerates_streamed_design(self, key, compiled, sigma):
        # The compiled design's edges are exactly the streamed batches, so
        # query results match the streamed y bit for bit.
        stats = stream_design_stats(sigma, M, root_seed=SEED, batch_queries=BQ)
        assert np.array_equal(compiled.query_results(sigma), stats.y)
        assert np.array_equal(compiled.dstar, stats.dstar)
        assert np.array_equal(compiled.delta, stats.delta)

    def test_psi_matches_design_psi_single_and_batch(self, compiled):
        rng = np.random.default_rng(4)
        y1 = rng.integers(0, 40, size=M, dtype=np.int64)
        Y = rng.integers(0, 40, size=(5, M), dtype=np.int64)
        assert np.array_equal(compiled.psi(y1), compiled.design.psi(y1))
        assert np.array_equal(compiled.psi(Y), compiled.design.psi(Y))

    def test_stats_for_matches_mn_reconstruct(self, compiled, sigma):
        y = compiled.query_results(sigma)
        decoded = MNDecoder().decode(compiled.stats_for(y), 6)
        assert np.array_equal(decoded, mn_reconstruct(compiled.design, y, 6))

    def test_compiled_arrays_read_only(self, compiled):
        with pytest.raises(ValueError):
            compiled.dstar[0] = 1
        with pytest.raises(ValueError):
            compiled.delta[0] = 1
        block = compiled.incidence_block()
        assert block is not None and compiled.block_resident
        with pytest.raises(ValueError):
            block[0, 0] = 2.0

    @pytest.mark.parametrize("which", ["fig1-multi-edge", "sampled"])
    def test_incidence_block_is_distinct_incidence(self, which):
        # Multi-edges collapse to one cell: the block is the count matrix's support.
        if which == "fig1-multi-edge":
            design, _ = PoolingDesign.fig1_example()
        else:
            design = PoolingDesign.sample(97, 41, np.random.default_rng(3))
        counts = design.dense_counts()
        assert which == "sampled" or counts.max() > 1
        block = compile_design(design).incidence_block()
        assert np.array_equal(block, (counts > 0).astype(block.dtype))

    def test_caller_arrays_not_frozen(self):
        # The constructor copies by default: handing it your own degree
        # vectors must not make *your* arrays read-only.
        design = PoolingDesign.sample(50, 20, np.random.default_rng(0))
        mine = design.dstar().copy()
        CompiledDesign(design, dstar=mine, delta=design.delta())
        mine[0] += 1  # still writable

    def test_cached_stream_stats_return_writable_arrays(self, sigma, key, tmp_path):
        # Warm calls (a store attach, or an explicit design=) must hand back
        # the same mutability as cold calls — consumers may scribble on
        # their stats.
        store = DesignStore(tmp_path)
        stream_design_stats(sigma, M, root_seed=SEED, batch_queries=BQ, store=store)
        warm = stream_design_stats(sigma, M, root_seed=SEED, batch_queries=BQ, store=store)
        warm.dstar[0] += 1
        warm.delta[0] += 1
        # ... without corrupting the stored artifact.
        redecode = stream_design_stats(sigma, M, root_seed=SEED, batch_queries=BQ, store=store)
        assert redecode.dstar[0] == warm.dstar[0] - 1
        assert store.stats.hits == 2
        # The same holds for one artifact held in-process and passed as design=.
        held = compile_from_key(key)
        first = stream_design_stats(sigma, M, root_seed=SEED, batch_queries=BQ, design=held)
        first.dstar[0] += 1
        again = stream_design_stats(sigma, M, root_seed=SEED, batch_queries=BQ, design=held)
        assert again.dstar[0] == first.dstar[0] - 1

    def test_blocks_build_once_under_concurrent_first_use(self, key):
        # Threads sharing one fresh artifact (the serve pool's decode and
        # admission lanes, or callers holding one CompiledDesign) must all
        # get the same block objects, each built exactly once.
        import sys
        import threading

        from repro.designs.compiled import _row_chunks

        fresh = compile_from_key(key)
        builds = {"cells": 0}
        cells = fresh.design.incidence_cells

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                builds[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        fresh.design.incidence_cells = counted("cells", cells)
        workers = 6
        barrier = threading.Barrier(workers, timeout=30)
        out: dict = {}

        def worker(i):
            barrier.wait()
            out[i] = (fresh.incidence_block(), fresh.counts_block())

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert len(out) == workers
        assert all(out[i][0] is out[0][0] and out[i][1] is out[0][1] for i in range(workers))
        # One scatter for the incidence block, one per row chunk of the single counts build.
        assert builds == {"cells": 1 + len(list(_row_chunks(fresh.m, fresh.n)))}
        assert np.array_equal(out[0][0], (out[0][1] > 0).astype(out[0][0].dtype))

    @pytest.mark.parametrize("which", ["regular", "ragged"])
    def test_counts_block_built_in_row_chunks_equals_dense_counts(self, which, monkeypatch):
        import repro.designs.compiled as compiled_mod

        rng = np.random.default_rng(3)
        if which == "regular":
            design = PoolingDesign.sample(37, 23, rng, gamma=9)
        else:
            design = PoolingDesign.from_pools(37, [rng.integers(0, 37, size=s) for s in rng.integers(0, 12, size=23)])
        monkeypatch.setattr(compiled_mod, "_ROW_CHUNK_CELLS", 5 * 37)  # 5-row chunks, the last one short
        counts = CompiledDesign(design).counts_block()
        assert counts.dtype == np.float64 and not counts.flags.writeable
        assert np.array_equal(counts, design.dense_counts())

    def test_nbytes_accounts_for_block_before_materialisation(self, key):
        fresh = compile_from_key(key)
        assert fresh.nbytes >= fresh.block_bytes  # projected, not lazy-dependent
        before = fresh.nbytes
        fresh.incidence_block()
        assert fresh.nbytes == before

    def test_key_design_shape_mismatch_rejected(self, key):
        other = PoolingDesign.sample(N, M + 1, np.random.default_rng(0))
        with pytest.raises(ValueError, match="does not match"):
            CompiledDesign(other, key=key)

    def test_psi_shape_validation(self, compiled):
        with pytest.raises(ValueError, match="shape"):
            compiled.psi(np.zeros(M + 1, dtype=np.int64))


def _mn_input_designs():
    """A ragged hand-built design and a sampled regular one, with a signal and its weight."""
    fig1, fig1_sigma = PoolingDesign.fig1_example()
    sampled = PoolingDesign.sample(120, 40, np.random.default_rng(3))
    return {"fig1": (fig1, fig1_sigma), "sampled": (sampled, random_signal(120, 4, np.random.default_rng(5)))}


class TestStatsForBothForms:
    """Both design forms turn observed results into the same MN inputs."""

    @pytest.mark.parametrize("kernel", ["dense", "dense32", "legacy"])
    @pytest.mark.parametrize("which", ["fig1", "sampled"])
    def test_equal_psi_and_dstar(self, which, kernel):
        design, _ = _mn_input_designs()[which]
        compiled = CompiledDesign(design)
        rng = np.random.default_rng(8)
        for y in (rng.integers(0, 30, size=design.m), rng.integers(0, 30, size=(4, design.m))):
            materialised = design.stats_for(y, kernel=kernel)
            via_block = compiled.stats_for(y, kernel=kernel)
            assert materialised.psi.shape == y.shape[:-1] + (design.n,)
            assert np.array_equal(materialised.psi, via_block.psi)
            assert np.array_equal(materialised.dstar, via_block.dstar)
            assert materialised.delta is None

    @pytest.mark.parametrize("which", ["fig1", "sampled"])
    def test_over_budget_fallback_runs_the_callers_kernel(self, which, monkeypatch):
        from repro.kernels import legacy

        design, _ = _mn_input_designs()[which]
        compiled = CompiledDesign(design)
        assert compiled.incidence_block() is not None
        monkeypatch.setenv("REPRO_KERNEL", "dense")
        seen = []
        original = legacy.materialised_psi

        def spy(design_arg, y2, **kwargs):
            seen.append(y2.shape)
            return original(design_arg, y2, **kwargs)

        monkeypatch.setattr(legacy, "materialised_psi", spy)
        y = np.zeros((2, design.m), dtype=np.int64)
        y[:, 0] = 2**23  # Σ|y| at the float32 budget: the exact path runs
        got = compiled.stats_for(y, kernel="legacy")
        assert seen == [(2, design.m)]
        assert np.array_equal(got.psi, design.stats_for(y, kernel="dense").psi)

    @pytest.mark.parametrize("which", ["fig1", "sampled"])
    def test_mn_reconstruct_takes_either_form(self, which):
        design, sigma = _mn_input_designs()[which]
        k = int(sigma.sum())
        compiled = CompiledDesign(design)
        sigmas = np.stack([sigma, np.roll(sigma, 1)])
        for y in (design.query_results(sigma), design.query_results(sigmas)):
            assert np.array_equal(mn_reconstruct(compiled, y, k), mn_reconstruct(design, y, k))


class TestBlockDtype:
    """The one float32 Ψ block on CompiledDesign and its per-call exactness guard."""

    def test_small_design_gets_float32_block(self, compiled):
        assert compiled.block_dtype == np.dtype(np.float32)
        block = compiled.incidence_block()
        assert block.dtype == np.dtype(np.float32)
        assert compiled.block_bytes == 4 * compiled.m * compiled.n  # half the float64 footprint

    def test_big_design_keeps_float32_block_exact_per_call(self, key, monkeypatch):
        # The budget decides each call's path, never the block's dtype: at the
        # real 2²³ budget and at a lowered one, y just under and just over it
        # both match design.psi bit for bit (over-budget rows fall back).
        from repro.designs import compiled as compiled_mod

        exact = PoolingDesign.psi
        fallbacks = []

        def spy(self, y, *args, **kwargs):
            fallbacks.append(np.asarray(y).shape)
            return exact(self, y, *args, **kwargs)

        monkeypatch.setattr(PoolingDesign, "psi", spy)
        rng = np.random.default_rng(5)
        for budget in (2**23, 1000):
            monkeypatch.setattr(compiled_mod, "_EXACT_LIMIT32", float(budget))
            big = compile_from_key(key)
            assert big.block_dtype == np.dtype(np.float32)
            assert big.incidence_block().dtype == np.dtype(np.float32)
            under, over = (rng.multinomial(total, np.full(M, 1 / M)).astype(np.int64) for total in (budget - 1, budget))
            for y, falls_back in ((under, False), (over, True), (np.stack([under, over]), True)):
                fallbacks.clear()
                got = big.psi(y)
                assert fallbacks == ([y.shape if y.ndim == 2 else (1, M)] if falls_back else [])
                assert np.array_equal(got, exact(big.design, y))

    def test_psi_through_float32_block_is_exact(self, compiled, sigma):
        y = compiled.query_results(sigma)
        assert compiled.incidence_block().dtype == np.dtype(np.float32)
        got = compiled.psi(y)
        assert got.dtype == np.int64
        assert np.array_equal(got, compiled.design.psi(y))

    def test_adversarial_y_falls_back_per_call(self):
        # Eligibility comes from *clean* result bounds; a caller-supplied y
        # beyond the float32 budget must still decode exactly.
        design = PoolingDesign.from_pools(5, [[4], [0, 1], [2, 3]])
        compiled = CompiledDesign(design)
        assert compiled.block_dtype == np.dtype(np.float32)
        compiled.incidence_block()  # make the float32 block resident
        big = 2**23 + 10
        y = np.array([big, 0, 0], dtype=np.int64)
        assert compiled.psi(y)[4] == big

    def test_adopted_packed_block_decodes_like_the_scatter(self, compiled):
        from repro.designs.compiled import _pack_block

        fresh = CompiledDesign(compiled.design, key=compiled.key)
        with pytest.raises(ValueError, match="uint8"):
            fresh.adopt_packed_block(compiled.incidence_block())  # dense float32 is not the packed form
        fresh.adopt_packed_block(_pack_block(compiled.incidence_block()))
        assert np.array_equal(fresh.incidence_block(), compiled.incidence_block())
        assert fresh.incidence_block().dtype == np.dtype(np.float32)
        y = np.arange(fresh.m, dtype=np.int64)
        assert np.array_equal(fresh.psi(y), compiled.design.psi(y))

    def test_adopt_packed_block_rejects_bad_dtype_and_shape(self, compiled):
        fresh = CompiledDesign(compiled.design, key=compiled.key)
        packed_cols = (fresh.n + 7) // 8
        with pytest.raises(ValueError, match="uint8"):
            fresh.adopt_packed_block(np.zeros((fresh.m, packed_cols), dtype=np.int64))
        with pytest.raises(ValueError, match="uint8"):
            fresh.adopt_packed_block(np.zeros((fresh.m + 1, packed_cols), dtype=np.uint8))
        with pytest.raises(ValueError, match="uint8"):
            fresh.adopt_packed_block(np.zeros((fresh.m, packed_cols + 1), dtype=np.uint8))

    def test_serialization_writes_no_block_dtype(self, compiled, tmp_path):
        from repro.core.serialization import load_compiled_design, save_design

        path = save_design(tmp_path / "d.npz", compiled)
        with np.load(path) as data:
            assert "compiled_block_dtype" not in data
        loaded, _ = load_compiled_design(path)
        assert loaded.block_dtype == np.dtype(np.float32)

    def test_serialization_loads_legacy_float64_tag(self, compiled, sigma, tmp_path):
        # Older files tag designs of 2²³+ draws "float64"; the tag is ignored
        # and the loaded artifact decodes exactly like the original.
        from repro.core.serialization import load_compiled_design, save_design

        path = save_design(tmp_path / "d.npz", compiled)
        with np.load(path) as data:
            payload = {name: data[name] for name in data.files}
        payload["compiled_block_dtype"] = np.asarray("float64")
        np.savez_compressed(path, **payload)
        loaded, _ = load_compiled_design(path)
        assert loaded.incidence_block().dtype == np.dtype(np.float32)
        y = compiled.query_results(sigma)
        assert np.array_equal(loaded.psi(y), compiled.psi(y))
        assert np.array_equal(MNDecoder().compile(loaded).decode(y, 6), MNDecoder().compile(compiled).decode(y, 6))


class TestDecodeOnlyBitIdentity:
    """The acceptance contract: decode-only ≡ one-shot, serial + sharedmem, ± noise."""

    @pytest.mark.parametrize("noise", [None, GaussianNoise(2.0), DropoutNoise(0.2)])
    def test_serial_decode_only_matches_streamed_one_shot(self, key, compiled, sigma, noise):
        stats = stream_design_stats(sigma, M, root_seed=SEED, batch_queries=BQ, noise=noise)
        one_shot = MNDecoder().decode(stats, 6)
        served = MNDecoder().compile(compiled).decode(stats.y, 6)
        assert np.array_equal(one_shot, served)

    @pytest.mark.parametrize("noise", [None, GaussianNoise(2.0)])
    def test_cached_stream_stats_identical(self, sigma, noise, tmp_path):
        store = DesignStore(tmp_path)
        cold = stream_design_stats(sigma, M, root_seed=SEED, batch_queries=BQ, noise=noise, store=store)
        warm = stream_design_stats(sigma, M, root_seed=SEED, batch_queries=BQ, noise=noise, store=store)
        plain = stream_design_stats(sigma, M, root_seed=SEED, batch_queries=BQ, noise=noise)
        assert store.stats.hits == 1 and store.stats.misses == 1
        for field in ("y", "psi", "dstar", "delta"):
            assert np.array_equal(getattr(cold, field), getattr(plain, field)), field
            assert np.array_equal(getattr(warm, field), getattr(plain, field)), field

    @pytest.mark.parametrize("noise", [None, GaussianNoise(2.0)])
    def test_sharedmem_stream_cache_identical(self, sigma, noise, tmp_path):
        store = DesignStore(tmp_path)
        plain = stream_design_stats(sigma, M, root_seed=SEED, batch_queries=BQ, noise=noise)
        with SharedMemBackend(2) as backend:
            cold = stream_design_stats(sigma, M, root_seed=SEED, batch_queries=BQ, noise=noise, backend=backend, store=store)
            warm = stream_design_stats(sigma, M, root_seed=SEED, batch_queries=BQ, noise=noise, backend=backend, store=store)
        assert store.stats.hits == 1 and store.stats.misses == 1
        for field in ("y", "psi", "dstar", "delta"):
            assert np.array_equal(getattr(cold, field), getattr(plain, field)), field
            assert np.array_equal(getattr(warm, field), getattr(plain, field)), field

    def test_compile_rejects_unknown_type(self):
        with pytest.raises(TypeError, match="cannot compile"):
            MNDecoder().compile(42)

    def test_mn_decoder_takes_no_backend(self):
        # The Ψ GEMM runs in-process against the compiled block; there is
        # no worker fan-out for a backend to drive.
        with pytest.raises(TypeError):
            MNDecoder(backend=SerialBackend())

    def test_explicit_design_must_match_key(self, compiled, sigma):
        with pytest.raises(ValueError, match="does not match"):
            stream_design_stats(sigma, M, root_seed=SEED + 1, batch_queries=BQ, design=compiled)
        with pytest.raises(ValueError, match="does not match"):
            stream_design_stats(sigma, M, root_seed=SEED, batch_queries=BQ + 1, design=compiled)

    def test_run_mn_trial_cache_and_design(self, tmp_path):
        base = run_mn_trial(N, 120, k=5, root_seed=7, trial=3, batch_queries=BQ)
        store = DesignStore(tmp_path)
        cold = run_mn_trial(N, 120, k=5, root_seed=7, trial=3, batch_queries=BQ, store=store)
        warm = run_mn_trial(N, 120, k=5, root_seed=7, trial=3, batch_queries=BQ, store=store)
        assert base == cold == warm
        trial_key = DesignKey.for_stream(N, 120, root_seed=7, trial_key=(3,), batch_queries=BQ)
        explicit = run_mn_trial(N, 120, k=5, root_seed=7, trial=3, batch_queries=BQ, design=compile_from_key(trial_key))
        assert base == explicit


class TestFacadeDesignReuse:
    def test_reconstruct_with_deployed_design(self, tmp_path):
        sig = random_signal(N, 3, np.random.default_rng(5))
        oracle = lambda pools: [int(sig[p].sum()) for p in pools]
        base = reconstruct(N, 200, oracle, k=3, rng=np.random.default_rng(0))
        store = DesignStore(tmp_path)
        for _ in range(2):  # second call attaches the content-addressed entry
            again = reconstruct(N, 200, oracle, k=3, design=base.design, store=store)
            assert np.array_equal(base.sigma_hat, again.sigma_hat)
            assert np.array_equal(base.y, again.y)
        assert store.stats.hits == 1 and store.stats.misses == 1

    def test_reconstruct_noisy_with_deployed_design(self):
        sig = random_signal(N, 3, np.random.default_rng(5))
        oracle = lambda pools: [int(sig[p].sum()) for p in pools]
        noise = GaussianNoise(1.0)
        base = reconstruct(N, 250, oracle, k=3, rng=np.random.default_rng(0), noise=noise, noise_seed=4)
        again = reconstruct(N, 250, oracle, k=3, design=compile_design(base.design), noise=noise, noise_seed=4)
        assert np.array_equal(base.sigma_hat, again.sigma_hat)
        assert np.array_equal(base.y, again.y)

    def test_reconstruct_design_shape_mismatch(self):
        design = PoolingDesign.sample(N, 100, np.random.default_rng(0))
        with pytest.raises(ValueError, match="asked for"):
            reconstruct(N, 200, lambda pools: [0] * len(pools), k=3, design=design)

    def test_materialised_design_without_a_store_is_not_compiled(self, tmp_path, monkeypatch):
        from repro.designs import compiled as compiled_mod

        monkeypatch.delenv("REPRO_DESIGN_STORE", raising=False)
        sigmas = random_signals(N, 3, 4, np.random.default_rng(8))
        base = reconstruct_batch(N, 200, signals_oracle(sigmas), 4, rng=np.random.default_rng(0))
        original = compiled_mod.compile_design

        def refuse(*args, **kwargs):
            raise AssertionError("compile_design called")

        monkeypatch.setattr(compiled_mod, "compile_design", refuse)
        # No store: Ψ/Δ* straight from the design, bit-identical to the sampled call.
        again = reconstruct_batch(N, 200, signals_oracle(sigmas), 4, k=base.k, design=base.design)
        assert np.array_equal(base.sigma_hat, again.sigma_hat)
        assert again.design is base.design
        single = reconstruct(N, 200, lambda pools: [int(sigmas[0][p].sum()) for p in pools], k=3, design=base.design)
        assert np.array_equal(single.sigma_hat, again.sigma_hat[0])
        # With a store the design is still compiled once and published.
        monkeypatch.setattr(compiled_mod, "compile_design", original)
        store = DesignStore(tmp_path)
        stored = reconstruct_batch(N, 200, signals_oracle(sigmas), 4, k=base.k, design=base.design, store=store)
        assert np.array_equal(base.sigma_hat, stored.sigma_hat)
        assert store.stats.publishes == 1 and len(store) == 1

    def test_reconstruct_batch_with_deployed_design(self, tmp_path):
        sigmas = random_signals(N, 3, 4, np.random.default_rng(7))
        base = reconstruct_batch(N, 200, signals_oracle(sigmas), 4, rng=np.random.default_rng(0))
        again = reconstruct_batch(N, 200, signals_oracle(sigmas), 4, design=base.design, store=DesignStore(tmp_path))
        assert np.array_equal(base.sigma_hat, again.sigma_hat)
        assert np.array_equal(base.y, again.y)
        assert np.array_equal(base.k, again.k)


class TestGridAndNoisyTrialCaching:
    def test_trial_grid_cache_parity(self, tmp_path):
        plain = run_trial_grid(200, [60, 140], theta=0.2, trials=5, root_seed=3)
        store = DesignStore(tmp_path)
        for _ in range(2):
            cached = run_trial_grid(200, [60, 140], theta=0.2, trials=5, root_seed=3, store=store)
            for a, b in zip(plain, cached):
                assert np.array_equal(a.success, b.success)
                assert np.array_equal(a.overlap, b.overlap)
        assert store.stats.hits == 2 and store.stats.misses == 2

    def test_trial_grid_worker_store_slot(self, tmp_path):
        # A fanned-out grid hands each worker its store as a picklable
        # (root, max_bytes) spec; the worker opens it once, reopens it when
        # the spec changes, and drops it when a later grid runs storeless.
        from repro.engine.grid import _WORKER_STORE_SLOT, _grid_point_task

        plain = run_trial_grid(200, [60], theta=0.2, trials=5, root_seed=3)
        spec = (str(tmp_path / "a"), None)
        payload = (200, 60, 0.2, None, 5, 3, 0, None, None, 1, "dense", "mn", spec)
        worker_cache: dict = {}
        result = _grid_point_task(payload, worker_cache)
        assert np.array_equal(plain[0].success, result.success)
        opened = worker_cache[_WORKER_STORE_SLOT]
        assert (str(opened.root), opened.max_bytes) == spec and len(opened) == 1
        _grid_point_task(payload, worker_cache)
        assert worker_cache[_WORKER_STORE_SLOT] is opened and opened.stats.hits == 1
        other = (str(tmp_path / "b"), 1 << 30)
        _grid_point_task(payload[:12] + (other,), worker_cache)
        assert (str(worker_cache[_WORKER_STORE_SLOT].root), worker_cache[_WORKER_STORE_SLOT].max_bytes) == other
        _grid_point_task(payload[:12] + (None,), worker_cache)
        assert _WORKER_STORE_SLOT not in worker_cache

    def test_trial_grid_cache_parity_sharedmem(self, tmp_path):
        plain = run_trial_grid(200, [60, 140], theta=0.2, trials=5, root_seed=3, backend=SerialBackend())
        store = DesignStore(tmp_path)
        with SharedMemBackend(2) as backend:
            for _ in range(2):  # cold: workers compile and publish; warm: they attach
                cached = run_trial_grid(200, [60, 140], theta=0.2, trials=5, root_seed=3, backend=backend, store=store)
                for a, b in zip(plain, cached):
                    assert np.array_equal(a.success, b.success)
                    assert np.array_equal(a.overlap, b.overlap)
        assert len(store) == 2

    def test_noisy_trial_cache_parity(self, tmp_path):
        noise = GaussianNoise(1.0)
        plain = run_noisy_mn_trial(200, 150, noise, k=4, root_seed=5, trial=2)
        store = DesignStore(tmp_path)
        cold = run_noisy_mn_trial(200, 150, noise, k=4, root_seed=5, trial=2, store=store)
        warm = run_noisy_mn_trial(200, 150, noise, k=4, root_seed=5, trial=2, store=store)
        assert plain == cold == warm
        assert store.stats.hits == 1 and store.stats.misses == 1

    def test_noisy_trial_design_shape_mismatch(self):
        design = compile_design(PoolingDesign.sample(200, 100, np.random.default_rng(0)))
        with pytest.raises(ValueError, match="asked for"):
            run_noisy_mn_trial(200, 150, GaussianNoise(1.0), k=4, design=design)
