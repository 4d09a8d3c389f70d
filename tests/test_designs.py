"""Tests for the compiled-design lifecycle: keys, cache, serving.

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
    DesignCache,
    DesignKey,
    compile_design,
    compile_from_key,
    default_design_cache,
    reset_default_design_cache,
    resolve_design_cache,
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

    def test_caller_arrays_not_frozen(self):
        # The constructor copies by default: handing it your own degree
        # vectors must not make *your* arrays read-only.
        design = PoolingDesign.sample(50, 20, np.random.default_rng(0))
        mine = design.dstar().copy()
        CompiledDesign(design, dstar=mine, delta=design.delta())
        mine[0] += 1  # still writable

    def test_cached_stream_stats_return_writable_arrays(self, sigma):
        # Warm (cache-hit) calls must hand back the same mutability as cold
        # calls — consumers may scribble on their stats.
        cache = DesignCache()
        stream_design_stats(sigma, M, root_seed=SEED, batch_queries=BQ, cache=cache)
        warm = stream_design_stats(sigma, M, root_seed=SEED, batch_queries=BQ, cache=cache)
        warm.dstar[0] += 1
        warm.delta[0] += 1
        # ... without corrupting the cached artifact.
        key = DesignKey.for_stream(N, M, root_seed=SEED, batch_queries=BQ)
        redecode = stream_design_stats(sigma, M, root_seed=SEED, batch_queries=BQ, cache=cache)
        assert redecode.dstar[0] == warm.dstar[0] - 1
        assert cache.get(key) is not None

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

    def test_adopt_block_rejects_float64(self, compiled):
        fresh = CompiledDesign(compiled.design, key=compiled.key)
        block = np.zeros((fresh.m, fresh.n), dtype=np.float64)
        rows = np.repeat(np.arange(fresh.m), np.diff(fresh.design.indptr))
        block[rows, fresh.design.entries] = 1.0
        with pytest.raises(ValueError, match="float32"):
            fresh.adopt_block(block)
        fresh.adopt_block(block.astype(np.float32))  # the one accepted format
        y = np.arange(fresh.m, dtype=np.int64)
        assert np.array_equal(fresh.psi(y), compiled.design.psi(y))

    def test_adopt_block_rejects_bad_dtype_and_shape(self, compiled):
        fresh = CompiledDesign(compiled.design, key=compiled.key)
        with pytest.raises(ValueError, match="float32"):
            fresh.adopt_block(np.zeros((fresh.m, fresh.n), dtype=np.int64))
        with pytest.raises(ValueError, match="float32"):
            fresh.adopt_block(np.zeros((fresh.m + 1, fresh.n), dtype=np.float32))

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


class TestDesignCache:
    def test_hit_miss_counters(self, key, compiled):
        cache = DesignCache()
        assert cache.get(key) is None
        cache.put(key, compiled)
        assert cache.get(key) is compiled
        s = cache.stats
        assert (s.hits, s.misses, s.entries) == (1, 1, 1)
        assert 0.0 < s.hit_rate < 1.0

    def test_get_or_compile_compiles_once(self, key):
        cache = DesignCache()
        calls = []

        def factory():
            calls.append(1)
            return compile_from_key(key)

        a = cache.get_or_compile(key, factory)
        b = cache.get_or_compile(key, factory)
        assert a is b and len(calls) == 1

    def test_factory_key_mismatch_rejected(self, key):
        cache = DesignCache()
        other = DesignKey.for_stream(N, M, root_seed=SEED + 1, batch_queries=BQ)
        with pytest.raises(ValueError, match="factory produced"):
            cache.get_or_compile(other, lambda: compile_from_key(key))

    def test_lru_eviction_by_bytes(self):
        keys = [DesignKey.for_stream(64, 40, root_seed=s, batch_queries=16) for s in range(3)]
        artifacts = [compile_from_key(k) for k in keys]
        cache = DesignCache(max_bytes=2 * artifacts[0].nbytes + artifacts[0].nbytes // 2)
        cache.put(keys[0], artifacts[0])
        cache.put(keys[1], artifacts[1])
        cache.get(keys[0])  # refresh 0 -> 1 becomes LRU
        cache.put(keys[2], artifacts[2])
        assert keys[1] not in cache and keys[0] in cache and keys[2] in cache
        assert cache.stats.evictions == 1

    def test_oversized_artifact_not_admitted(self, key, compiled):
        cache = DesignCache(max_bytes=1)
        cache.put(key, compiled)
        assert len(cache) == 0 and cache.get(key) is None

    def test_clear_keeps_counters(self, key, compiled):
        cache = DesignCache()
        cache.put(key, compiled)
        cache.get(key)
        cache.clear()
        assert len(cache) == 0 and cache.stats.hits == 1

    def test_get_or_compile_single_flight(self, key):
        # Concurrent cold lookups on one key must compile exactly once.
        import threading

        calls, started = [], threading.Barrier(4)
        cache = DesignCache()

        def factory():
            calls.append(1)
            return compile_from_key(key)

        def worker(out, i):
            started.wait()
            out[i] = cache.get_or_compile(key, factory)

        out: dict = {}
        threads = [threading.Thread(target=worker, args=(out, i)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert all(out[i] is out[0] for i in range(4))

    def test_ambient_cache_opt_in(self, monkeypatch):
        monkeypatch.delenv("REPRO_DESIGN_CACHE", raising=False)
        reset_default_design_cache()
        assert resolve_design_cache(None) is None
        monkeypatch.setenv("REPRO_DESIGN_CACHE", "1")
        ambient = resolve_design_cache(None)
        assert ambient is default_design_cache()
        explicit = DesignCache()
        assert resolve_design_cache(explicit) is explicit
        monkeypatch.setenv("REPRO_DESIGN_CACHE", "0")
        assert resolve_design_cache(None) is None
        reset_default_design_cache()


class TestDecodeOnlyBitIdentity:
    """The acceptance contract: decode-only ≡ one-shot, serial + sharedmem, ± noise."""

    @pytest.mark.parametrize("noise", [None, GaussianNoise(2.0), DropoutNoise(0.2)])
    def test_serial_decode_only_matches_streamed_one_shot(self, key, compiled, sigma, noise):
        stats = stream_design_stats(sigma, M, root_seed=SEED, batch_queries=BQ, noise=noise)
        one_shot = MNDecoder().decode(stats, 6)
        served = MNDecoder().compile(compiled).decode(stats.y, 6)
        assert np.array_equal(one_shot, served)

    @pytest.mark.parametrize("noise", [None, GaussianNoise(2.0)])
    def test_cached_stream_stats_identical(self, sigma, noise):
        cache = DesignCache()
        cold = stream_design_stats(sigma, M, root_seed=SEED, batch_queries=BQ, noise=noise, cache=cache)
        warm = stream_design_stats(sigma, M, root_seed=SEED, batch_queries=BQ, noise=noise, cache=cache)
        plain = stream_design_stats(sigma, M, root_seed=SEED, batch_queries=BQ, noise=noise)
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        for field in ("y", "psi", "dstar", "delta"):
            assert np.array_equal(getattr(cold, field), getattr(plain, field)), field
            assert np.array_equal(getattr(warm, field), getattr(plain, field)), field

    @pytest.mark.parametrize("noise", [None, GaussianNoise(2.0)])
    def test_sharedmem_stream_cache_identical(self, sigma, noise):
        cache = DesignCache()
        plain = stream_design_stats(sigma, M, root_seed=SEED, batch_queries=BQ, noise=noise)
        with SharedMemBackend(2) as backend:
            cold = stream_design_stats(sigma, M, root_seed=SEED, batch_queries=BQ, noise=noise, backend=backend, cache=cache)
            warm = stream_design_stats(sigma, M, root_seed=SEED, batch_queries=BQ, noise=noise, backend=backend, cache=cache)
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

    def test_run_mn_trial_cache_and_design(self):
        base = run_mn_trial(N, 120, k=5, root_seed=7, trial=3, batch_queries=BQ)
        cache = DesignCache()
        cold = run_mn_trial(N, 120, k=5, root_seed=7, trial=3, batch_queries=BQ, cache=cache)
        warm = run_mn_trial(N, 120, k=5, root_seed=7, trial=3, batch_queries=BQ, cache=cache)
        assert base == cold == warm
        trial_key = DesignKey.for_stream(N, 120, root_seed=7, trial_key=(3,), batch_queries=BQ)
        explicit = run_mn_trial(N, 120, k=5, root_seed=7, trial=3, batch_queries=BQ, design=compile_from_key(trial_key))
        assert base == explicit


class TestFacadeDesignReuse:
    def test_reconstruct_with_deployed_design(self):
        sig = random_signal(N, 3, np.random.default_rng(5))
        oracle = lambda pools: [int(sig[p].sum()) for p in pools]
        base = reconstruct(N, 200, oracle, k=3, rng=np.random.default_rng(0))
        cache = DesignCache()
        for _ in range(2):  # second call hits the content-addressed cache
            again = reconstruct(N, 200, oracle, k=3, design=base.design, cache=cache)
            assert np.array_equal(base.sigma_hat, again.sigma_hat)
            assert np.array_equal(base.y, again.y)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

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

    def test_reconstruct_batch_with_deployed_design(self):
        sigmas = random_signals(N, 3, 4, np.random.default_rng(7))
        base = reconstruct_batch(N, 200, signals_oracle(sigmas), 4, rng=np.random.default_rng(0))
        again = reconstruct_batch(N, 200, signals_oracle(sigmas), 4, design=base.design, cache=DesignCache())
        assert np.array_equal(base.sigma_hat, again.sigma_hat)
        assert np.array_equal(base.y, again.y)
        assert np.array_equal(base.k, again.k)


class TestGridAndNoisyTrialCaching:
    def test_trial_grid_cache_parity(self):
        plain = run_trial_grid(200, [60, 140], theta=0.2, trials=5, root_seed=3)
        cache = DesignCache()
        for _ in range(2):
            cached = run_trial_grid(200, [60, 140], theta=0.2, trials=5, root_seed=3, cache=cache)
            for a, b in zip(plain, cached):
                assert np.array_equal(a.success, b.success)
                assert np.array_equal(a.overlap, b.overlap)
        assert cache.stats.hits == 2 and cache.stats.misses == 2

    def test_trial_grid_worker_caches_honor_byte_budget(self):
        # The caller's byte budget must reach fanned-out workers: with a
        # 1-byte budget nothing is ever admitted, so results still match
        # (admission failure only skips reuse, never changes output).
        from repro.engine.grid import _WORKER_CACHE_SLOT, _grid_point_task

        plain = run_trial_grid(200, [60], theta=0.2, trials=5, root_seed=3)
        tiny = DesignCache(max_bytes=1)
        cached = run_trial_grid(200, [60], theta=0.2, trials=5, root_seed=3, cache=tiny)
        assert np.array_equal(plain[0].success, cached[0].success)
        assert len(tiny) == 0  # nothing fit the budget
        # The worker-side task builds its private cache at the same budget
        # (trailing None: no design store for this grid).
        payload = (200, 60, 0.2, None, 5, 3, 0, None, None, 1, "dense", "mn", tiny.max_bytes, None)
        worker_cache: dict = {}
        _grid_point_task(payload, worker_cache)
        assert worker_cache[_WORKER_CACHE_SLOT].max_bytes == 1
        # A later grid with a different budget replaces the worker cache ...
        _grid_point_task(payload[:12] + (1 << 20, None), worker_cache)
        assert worker_cache[_WORKER_CACHE_SLOT].max_bytes == 1 << 20
        # ... and caching-off actually releases it (memory contract).
        _grid_point_task(payload[:12] + (None, None), worker_cache)
        assert _WORKER_CACHE_SLOT not in worker_cache

    def test_trial_grid_cache_parity_sharedmem(self):
        plain = run_trial_grid(200, [60, 140], theta=0.2, trials=5, root_seed=3, backend=SerialBackend())
        with SharedMemBackend(2) as backend:
            cached = run_trial_grid(200, [60, 140], theta=0.2, trials=5, root_seed=3, backend=backend, cache=DesignCache())
        for a, b in zip(plain, cached):
            assert np.array_equal(a.success, b.success)
            assert np.array_equal(a.overlap, b.overlap)

    def test_noisy_trial_cache_parity(self):
        noise = GaussianNoise(1.0)
        plain = run_noisy_mn_trial(200, 150, noise, k=4, root_seed=5, trial=2)
        cache = DesignCache()
        cold = run_noisy_mn_trial(200, 150, noise, k=4, root_seed=5, trial=2, cache=cache)
        warm = run_noisy_mn_trial(200, 150, noise, k=4, root_seed=5, trial=2, cache=cache)
        assert plain == cold == warm
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_noisy_trial_design_shape_mismatch(self):
        design = compile_design(PoolingDesign.sample(200, 100, np.random.default_rng(0)))
        with pytest.raises(ValueError, match="asked for"):
            run_noisy_mn_trial(200, 150, GaussianNoise(1.0), k=4, design=design)
