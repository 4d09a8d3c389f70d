"""The cross-process design store: persistence, locking, GC, parity.

Three contracts under test:

1. **storage** — publish/attach round-trips are exact, attachments are
   zero-copy memory maps, corrupt or truncated entries are clean misses
   (never garbage), and counters/stats persist across instances;
2. **lifecycle** — byte-budgeted GC evicts LRU-first, skips entries that
   any live reader still has mmap-attached, and single-flight compilation
   holds across *processes* (subprocess test);
3. **parity** — the acceptance criterion: every decode path is
   bit-identical with the store enabled vs disabled (serial and
   shared-memory backends, with and without noise), and an unset
   ``REPRO_DESIGN_STORE`` leaves the library store-free.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.design import stream_design_stats
from repro.core.mn import MNDecoder, run_mn_trial
from repro.designs import (
    DESIGN_STORE_BYTES_ENV,
    DESIGN_STORE_ENV,
    DesignCache,
    DesignKey,
    DesignStore,
    compile_from_key,
    fetch_compiled,
    reset_default_design_store,
    resolve_design_store,
)
from repro.engine import SerialBackend, SharedMemBackend, run_trial_grid
from repro.noise import GaussianNoise
from repro.noise.trial import run_noisy_mn_trial

KEY = DesignKey.for_stream(300, 40, root_seed=11)


@pytest.fixture
def store(tmp_path):
    return DesignStore(tmp_path / "store")


@pytest.fixture(autouse=True)
def _no_ambient_store(monkeypatch):
    monkeypatch.delenv(DESIGN_STORE_ENV, raising=False)
    monkeypatch.delenv(DESIGN_STORE_BYTES_ENV, raising=False)
    reset_default_design_store()
    yield
    reset_default_design_store()


def _keys(count, n=240, m=30):
    return [DesignKey.for_stream(n, m, root_seed=100 + i) for i in range(count)]


def _set_used(store, key, epoch):
    """Pin an entry's recency marker (mtime granularity makes touches tie)."""
    os.utime(store.entry_dir(key) / ".last-used", (epoch, epoch))


class TestStoreBasics:
    def test_publish_attach_roundtrip_is_exact_and_mmap_backed(self, store, tmp_path):
        compiled = compile_from_key(KEY)
        store.publish(compiled)

        fresh = DesignStore(tmp_path / "store")  # a different "process view"
        attached = fresh.get(KEY)
        assert attached is not None and attached.key == KEY
        assert np.array_equal(np.asarray(attached.design.entries), compiled.design.entries)
        assert np.array_equal(np.asarray(attached.design.indptr), compiled.design.indptr)
        assert np.array_equal(np.asarray(attached.dstar), compiled.dstar)
        assert np.array_equal(np.asarray(attached.delta), compiled.delta)
        # Zero-copy: the arrays are views of on-disk memory maps, read-only.
        entries = attached.design.entries
        assert isinstance(entries, np.memmap) or isinstance(np.asarray(entries).base, np.memmap)
        assert not attached.dstar.flags.writeable

    def test_get_or_compile_compiles_once(self, store):
        calls = []

        def factory():
            calls.append(1)
            return compile_from_key(KEY)

        first = store.get_or_compile(KEY, factory)
        second = store.get_or_compile(KEY, factory)
        assert len(calls) == 1
        assert first.key == second.key == KEY
        stats = store.stats
        assert (stats.publishes, stats.hits) == (1, 1)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_factory_key_mismatch_rejected(self, store):
        other = DesignKey.for_stream(300, 40, root_seed=99)
        with pytest.raises(ValueError, match="factory produced key"):
            store.get_or_compile(KEY, lambda: compile_from_key(other))

    def test_publish_idempotent(self, store):
        compiled = compile_from_key(KEY)
        path = store.publish(compiled)
        assert store.publish(compiled) == path
        assert store.stats.publishes == 1
        assert len(store.ls()) == 1

    def test_contains_and_ls(self, store):
        assert KEY not in store
        store.publish(compile_from_key(KEY))
        assert KEY in store
        entries = store.ls()
        assert len(entries) == 1 and entries[0].key == KEY
        assert entries[0].nbytes > 0 and entries[0].path.is_dir()

    def test_decode_from_store_bit_identical(self, store):
        compiled = compile_from_key(KEY)
        store.publish(compiled)
        attached = store.get(KEY)
        rng = np.random.default_rng(5)
        sigma = np.zeros(KEY.n, dtype=np.int8)
        sigma[rng.choice(KEY.n, size=6, replace=False)] = 1
        y = compiled.query_results(sigma)
        direct = MNDecoder().compile(compiled).decode(y, 6)
        via_store = MNDecoder().compile(attached).decode(y, 6)
        assert np.array_equal(direct, via_store)

    def test_corrupt_entry_is_a_clean_miss_and_recompiles(self, store):
        store.publish(compile_from_key(KEY))
        entry = store.entry_dir(KEY)
        npy = entry / "entries.npy"
        npy.write_bytes(npy.read_bytes()[:16])  # truncate mid-header
        assert store.get(KEY) is None  # no numpy traceback leaks out
        # The quarantined entry was dropped; a recompile heals the store.
        healed = store.get_or_compile(KEY, lambda: compile_from_key(KEY))
        assert np.array_equal(np.asarray(healed.dstar), compile_from_key(KEY).dstar)

    def test_meta_key_mismatch_is_a_miss(self, store):
        store.publish(compile_from_key(KEY))
        entry = store.entry_dir(KEY)
        meta = json.loads((entry / "meta.json").read_text())
        meta["key"]["root_seed"] = 12345  # entry no longer addresses KEY
        (entry / "meta.json").write_text(json.dumps(meta))
        assert store.get(KEY) is None

    def test_v2_float64_entry_is_a_miss_and_republishes_as_v3(self, store):
        import hashlib

        # Rewrite a fresh entry into the version-2 layout: a float64 block
        # with a matching manifest and the old block_dtype meta field.
        store.publish(compile_from_key(KEY))
        entry = store.entry_dir(KEY)
        block64 = np.load(entry / "block.npy").astype(np.float64)
        np.save(entry / "block.npy", block64)
        meta = json.loads((entry / "meta.json").read_text())
        meta.update(format_version=2, block_dtype="float64")
        meta["sha256"]["block.npy"] = hashlib.sha256((entry / "block.npy").read_bytes()).hexdigest()
        (entry / "meta.json").write_text(json.dumps(meta, sort_keys=True))

        assert store.get(KEY) is None  # stale: a miss, never adopted
        assert store.stats.quarantined == 0  # ... and not counted as corrupt
        healed = store.get_or_compile(KEY, lambda: compile_from_key(KEY))
        assert healed.incidence_block().dtype == np.dtype(np.float32)
        meta = json.loads((entry / "meta.json").read_text())
        assert meta["format_version"] == 3 and "block_dtype" not in meta
        assert np.load(entry / "block.npy").dtype == np.dtype(np.float32)
        assert store.stats.publishes == 2
        warm = store.get(KEY)
        sigma = np.zeros(KEY.n, dtype=np.int64)
        sigma[:3] = 1
        y = warm.query_results(sigma)
        assert np.array_equal(warm.psi(y), compile_from_key(KEY).design.psi(y))

    def test_fsck_drops_stale_format_entry_without_quarantine(self, store):
        store.publish(compile_from_key(KEY))
        meta_path = store.entry_dir(KEY) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 2
        meta_path.write_text(json.dumps(meta))
        report = store.fsck()
        assert report.clean and report.checked == 0
        assert KEY not in store

    def test_persistent_stats_accumulate_across_instances(self, store, tmp_path):
        store.get(KEY)  # miss
        store.get_or_compile(KEY, lambda: compile_from_key(KEY))
        other = DesignStore(tmp_path / "store")
        other.get(KEY)  # hit from a second instance
        cumulative = other.persistent_stats()
        assert cumulative["publishes"] == 1
        assert cumulative["misses"] == 2
        assert cumulative["hits"] == 1


class TestStoreGC:
    def test_gc_respects_byte_budget_lru_first(self, store):
        keys = _keys(3)
        for key in keys:
            store.publish(compile_from_key(key))
        sizes = {e.key: e.nbytes for e in store.ls()}
        for i, key in enumerate(keys):
            _set_used(store, key, 1_000_000 + i)  # keys[2] most recently used
        budget = sizes[keys[2]] + 1
        evicted = store.gc(budget)
        assert {e.key for e in evicted} == {keys[0], keys[1]}
        assert [e.key for e in store.ls()] == [keys[2]]
        assert store.nbytes <= budget
        assert store.stats.evictions == 2

    def test_gc_never_evicts_attached_entry_mid_read(self, store):
        keys = _keys(3)
        for key in keys:
            store.publish(compile_from_key(key))
        attached = store.get(keys[0])  # holds the shared read lock ...
        for i, key in enumerate(keys):
            _set_used(store, key, 1_000_000 + i)  # ... but is an LRU candidate
        evicted = store.gc(1)
        # keys[0] is mmap'd-in-use: skipped even under budget pressure —
        # only the unattached, non-MRU keys[1] was evictable.
        assert [e.key for e in evicted] == [keys[1]]
        assert {e.key for e in store.ls()} == {keys[0], keys[2]}
        assert int(np.asarray(attached.dstar).sum()) > 0  # mappings still valid
        # Releasing the attachment makes the entry evictable again.
        attached._store_read_lock.close()
        evicted = store.gc(1)
        assert [e.key for e in evicted] == [keys[0]]

    def test_gc_never_evicts_the_mru_entry_even_when_others_are_pinned(self, store):
        keys = _keys(3)
        for key in keys:
            store.publish(compile_from_key(key))
        pinned = [store.get(keys[0]), store.get(keys[1])]  # both lock-held
        for i, key in enumerate(keys):
            _set_used(store, key, 1_000_000 + i)  # keys[2] is the hottest design
        # Every older entry is pinned and the MRU entry is sacred: nothing
        # is evictable, and in particular keys[2] must survive.
        assert store.gc(1) == []
        assert {e.key for e in store.ls()} == set(keys)
        for compiled in pinned:
            compiled._store_read_lock.close()

    def test_publish_heals_a_partial_entry_directory(self, store):
        compiled = compile_from_key(KEY)
        # Simulate a writer that crashed mid-eviction/mid-copy: an entry
        # directory with arrays but no meta.json squats on the address.
        partial = store.entry_dir(KEY)
        partial.mkdir(parents=True)
        np.save(partial / "entries.npy", np.arange(3))
        assert store.get(KEY) is None  # invisible to lookups
        store.publish(compiled)  # must clear the squatter and land
        healed = store.get(KEY)
        assert healed is not None
        assert np.array_equal(np.asarray(healed.dstar), compiled.dstar)

    def test_publish_enforces_budget_automatically(self, tmp_path):
        keys = _keys(3)
        one_entry = DesignStore(tmp_path / "probe").publish(compile_from_key(keys[0]))
        nbytes = sum(f.stat().st_size for f in one_entry.glob("*.npy"))
        store = DesignStore(tmp_path / "store", max_bytes=int(nbytes * 1.5))
        for key in keys:
            store.publish(compile_from_key(key))
        assert len(store.ls()) == 1  # each publish evicted its predecessor
        assert store.stats.evictions == 2

    def test_gc_without_budget_is_a_noop(self, store):
        store.publish(compile_from_key(KEY))
        assert store.gc() == []
        assert len(store.ls()) == 1

    def test_clear_drops_unattached_entries(self, store):
        for key in _keys(2):
            store.publish(compile_from_key(key))
        store.clear()
        assert len(store.ls()) == 0


class TestResolveAmbient:
    def test_unset_env_resolves_to_none(self):
        assert resolve_design_store(None) is None

    def test_explicit_store_wins(self, store, monkeypatch, tmp_path):
        monkeypatch.setenv(DESIGN_STORE_ENV, str(tmp_path / "ambient"))
        assert resolve_design_store(store) is store

    def test_env_opt_in_memoised(self, monkeypatch, tmp_path):
        monkeypatch.setenv(DESIGN_STORE_ENV, str(tmp_path / "ambient"))
        first = resolve_design_store(None)
        assert first is not None and first.root == tmp_path / "ambient"
        assert resolve_design_store(None) is first
        reset_default_design_store()
        assert resolve_design_store(None) is not first

    def test_env_byte_budget(self, monkeypatch, tmp_path):
        monkeypatch.setenv(DESIGN_STORE_ENV, str(tmp_path / "ambient"))
        monkeypatch.setenv(DESIGN_STORE_BYTES_ENV, str(1 << 20))
        assert resolve_design_store(None).max_bytes == 1 << 20

    def test_fetch_compiled_layers_cache_over_store(self, store):
        cache = DesignCache()
        calls = []

        def factory():
            calls.append(1)
            return compile_from_key(KEY)

        a = fetch_compiled(KEY, factory, cache=cache, store=store)
        assert calls == [1] and store.stats.publishes == 1
        # L1 hit: no store traffic at all.
        before = store.stats.hits
        b = fetch_compiled(KEY, factory, cache=cache, store=store)
        assert b is a and store.stats.hits == before
        # Fresh cache, same store: the L2 serves it, no recompilation.
        c = fetch_compiled(KEY, factory, cache=DesignCache(), store=store)
        assert calls == [1]
        assert np.array_equal(np.asarray(c.dstar), np.asarray(a.dstar))


class TestStoreParityAcceptance:
    """Store enabled vs disabled must be bit-identical on every path."""

    @pytest.mark.parametrize("noise", [None, GaussianNoise(1.5)])
    def test_stream_stats_parity_serial(self, store, noise):
        sigma = np.zeros(300, dtype=np.int8)
        sigma[[3, 77, 150, 299]] = 1
        plain = stream_design_stats(sigma, 40, root_seed=11, noise=noise)
        cold = stream_design_stats(sigma, 40, root_seed=11, noise=noise, store=store)  # publishes
        warm = stream_design_stats(sigma, 40, root_seed=11, noise=noise, store=store)  # attaches
        for a in (cold, warm):
            assert np.array_equal(plain.y, a.y)
            assert np.array_equal(plain.psi, a.psi)
            assert np.array_equal(plain.dstar, a.dstar)
            assert np.array_equal(plain.delta, a.delta)
        assert store.stats.publishes == 1 and store.stats.hits == 1

    @pytest.mark.parametrize("noise", [None, GaussianNoise(1.5)])
    def test_run_mn_trial_parity(self, store, noise):
        plain = run_mn_trial(300, 40, theta=0.3, root_seed=11, noise=noise)
        cold = run_mn_trial(300, 40, theta=0.3, root_seed=11, noise=noise, store=store)
        warm = run_mn_trial(300, 40, theta=0.3, root_seed=11, noise=noise, store=store)
        assert plain == cold == warm

    def test_stream_stats_parity_sharedmem(self, store):
        sigma = np.zeros(300, dtype=np.int8)
        sigma[[5, 9, 200]] = 1
        with SharedMemBackend(2) as backend:
            plain = stream_design_stats(sigma, 40, root_seed=11, backend=backend)
            cold = stream_design_stats(sigma, 40, root_seed=11, backend=backend, store=store)
            warm = stream_design_stats(sigma, 40, root_seed=11, backend=backend, store=store)
        for a in (cold, warm):
            assert np.array_equal(plain.psi, a.psi)
            assert np.array_equal(plain.y, a.y)
        # The worker path regenerates edges in the parent and still publishes.
        assert store.stats.publishes == 1

    @pytest.mark.parametrize("noise", [None, GaussianNoise(1.0)])
    def test_noisy_trial_parity(self, store, noise):
        kwargs = dict(theta=0.3, root_seed=4, trial=2)
        if noise is None:
            plain = run_mn_trial(240, 36, **kwargs)
            cold = run_mn_trial(240, 36, store=store, **kwargs)
            warm = run_mn_trial(240, 36, store=store, **kwargs)
        else:
            plain = run_noisy_mn_trial(240, 36, noise, **kwargs)
            cold = run_noisy_mn_trial(240, 36, noise, store=store, **kwargs)
            warm = run_noisy_mn_trial(240, 36, noise, store=store, **kwargs)
        assert plain == cold == warm

    def test_trial_grid_parity_and_warm_workers(self, store):
        plain = run_trial_grid(200, [60, 140], theta=0.2, trials=5, root_seed=3, backend=SerialBackend())
        cold = run_trial_grid(200, [60, 140], theta=0.2, trials=5, root_seed=3, store=store, backend=SerialBackend())
        with SharedMemBackend(2) as backend:
            warm = run_trial_grid(200, [60, 140], theta=0.2, trials=5, root_seed=3, store=store, backend=backend)
        for a, b in zip(plain, cold):
            assert np.array_equal(a.success, b.success)
            assert np.array_equal(a.overlap, b.overlap)
        for a, b in zip(plain, warm):
            assert np.array_equal(a.success, b.success)
        # The serial pass published both grid points; the forked workers
        # attached instead of compiling (cross-process hits recorded).
        assert store.persistent_stats()["publishes"] == 2
        assert store.persistent_stats()["hits"] >= 2

    def test_reconstruct_with_store_matches_plain(self, store):
        from repro.core.reconstruction import reconstruct

        compiled = compile_from_key(KEY)
        sigma = np.zeros(KEY.n, dtype=np.int8)
        sigma[[1, 4, 9]] = 1

        def oracle(pools):
            return [int(sigma[p].sum()) for p in pools]

        plain = reconstruct(KEY.n, KEY.m, oracle, design=compiled.design)
        stored = reconstruct(KEY.n, KEY.m, oracle, design=compiled.design, store=store)
        again = reconstruct(KEY.n, KEY.m, oracle, design=compiled.design, store=store)
        assert np.array_equal(plain.sigma_hat, stored.sigma_hat)
        assert np.array_equal(plain.sigma_hat, again.sigma_hat)
        assert store.stats.publishes == 1  # content-addressed artifact persisted once


_CHILD_SCRIPT = """
import json, sys, time
import numpy as np
from repro.designs import DesignKey, DesignStore, compile_from_key

root, n, m, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
key = DesignKey.for_stream(n, m, root_seed=seed)
store = DesignStore(root)
compiled = store.get_or_compile(key, lambda: compile_from_key(key))
print(json.dumps({
    "publishes": store.stats.publishes,
    "hits": store.stats.hits,
    "dstar_sum": int(np.asarray(compiled.dstar).sum()),
}))
"""


class TestCrossProcess:
    def test_two_processes_share_one_compilation(self, tmp_path):
        root = tmp_path / "store"
        env = {"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", _CHILD_SCRIPT, str(root), "300", "40", "11"],
                capture_output=True,
                text=True,
                env={**env, "PATH": "/usr/bin:/bin"},
                check=True,
            )
            runs.append(json.loads(proc.stdout))
        first, second = runs
        assert first["publishes"] == 1 and first["hits"] == 0  # cold: compiled + published
        assert second["publishes"] == 0 and second["hits"] == 1  # warm: attached only
        assert first["dstar_sum"] == second["dstar_sum"]
        # The shared stats.json agrees with the per-process views.
        cumulative = DesignStore(root).persistent_stats()
        assert cumulative["publishes"] == 1 and cumulative["hits"] == 1


_BUMP_SCRIPT = """
import sys
import repro.designs.store as store_mod
from repro.designs import DesignKey, DesignStore

root, compact_bytes = sys.argv[1], int(sys.argv[2])
if compact_bytes:
    store_mod._STATS_COMPACT_BYTES = compact_bytes
store = DesignStore(root)
warm = DesignKey.for_stream(300, 40, root_seed=11)
cold = DesignKey.for_stream(300, 40, root_seed=12)
for _ in range(150):
    assert store.get(warm) is not None
    assert store.get(cold) is None
"""


class TestStatsLog:
    """The cross-process counters: an append-only delta log over a base."""

    def test_torn_trailing_record_is_skipped_and_earlier_totals_survive(self, store):
        store.get(KEY)  # miss
        store.get_or_compile(KEY, lambda: compile_from_key(KEY))  # miss + publish
        store.get(KEY)  # hit
        before = store.persistent_stats()
        assert (before["misses"], before["publishes"], before["hits"]) == (2, 1, 1)
        with open(store.root / "stats.log", "ab") as log:
            log.write(b'{"hits":40')  # a writer crashed mid-record
        assert store.persistent_stats() == before
        store.get(KEY)  # the next writer starts a fresh line
        assert store.persistent_stats() == {**before, "hits": before["hits"] + 1}

    def test_forced_compaction_preserves_totals_and_empties_the_log(self, store, monkeypatch):
        import repro.designs.store as store_mod

        store.publish(compile_from_key(KEY))
        for _ in range(4):
            store.get(KEY)
        store.get(DesignKey.for_stream(300, 40, root_seed=12))  # miss
        expected = store.persistent_stats()
        assert (expected["publishes"], expected["hits"], expected["misses"]) == (1, 4, 1)
        monkeypatch.setattr(store_mod, "_STATS_COMPACT_BYTES", 1)
        store.get(KEY)  # this append crosses the threshold and compacts
        expected["hits"] += 1
        assert store.persistent_stats() == expected
        assert not (store.root / "stats.log").exists()
        assert json.loads((store.root / "stats.json").read_text()) == expected
        assert not list(store.root.glob(".stats-*"))  # no compaction residue
        monkeypatch.undo()
        store.get(KEY)  # the log starts over on top of the new base
        assert (store.root / "stats.log").stat().st_size > 0
        assert store.persistent_stats() == {**expected, "hits": expected["hits"] + 1}

    def test_compaction_residue_is_not_counted_and_is_reaped(self, store):
        store.get(KEY)  # miss
        expected = store.persistent_stats()
        # A compaction that crashed after setting the log aside.
        (store.root / ".stats-4242-deadbeef.log").write_text('{"hits":7}\n{"misses":3}\n')
        assert store.persistent_stats() == expected
        assert store.fsck().residue == 1
        assert store.reap_residue(grace_s=0.0) == 1
        assert not list(store.root.glob(".stats-*"))
        assert store.persistent_stats() == expected

    @pytest.mark.parametrize("compact_bytes", [0, 512], ids=["append-only", "compacting"])
    def test_concurrent_processes_count_exactly(self, tmp_path, compact_bytes):
        root = tmp_path / "store"
        DesignStore(root).publish(compile_from_key(KEY))
        env = {"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"), "PATH": "/usr/bin:/bin"}
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _BUMP_SCRIPT, str(root), str(compact_bytes)],
                env=env,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        cumulative = DesignStore(root).persistent_stats()
        assert cumulative["hits"] == 300 and cumulative["misses"] == 300
        assert cumulative["publishes"] == 1
        assert not list(root.glob(".stats-*"))

    def test_lookups_rename_no_file(self, store, monkeypatch):
        calls = []
        real_rename, real_replace = os.rename, os.replace

        def spy(real, name):
            def wrapper(src, dst, *args, **kwargs):
                calls.append((name, Path(src).name, Path(dst).name))
                return real(src, dst, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(os, "rename", spy(real_rename, "rename"))
        monkeypatch.setattr(os, "replace", spy(real_replace, "replace"))
        assert store.get(KEY) is None  # get miss
        assert calls == []
        store.get_or_compile(KEY, lambda: compile_from_key(KEY))  # get_or_compile miss
        # The only rename is the entry's own atomic publication.
        assert [(name, dst) for name, _, dst in calls] == [("rename", store.digest(KEY))]
        calls.clear()
        assert store.get(KEY) is not None  # get hit
        store.get_or_compile(KEY, lambda: pytest.fail("a warm key must not compile"))  # get_or_compile hit
        assert calls == []
        assert store.persistent_stats()["hits"] == 2


class TestMachineLocalStore:
    """The store is machine-local: roots written when it had a fleet tier
    keep working, and non-regenerable designs travel as ``.npz`` files."""

    def test_reap_residue_removes_quarantined_files(self, store):
        held = store.root / ".quarantine" / "remote-deadbeef-1-abc.tar"
        held.parent.mkdir()
        held.write_bytes(b"torn blob")
        assert store.fsck().quarantine_held == 1
        assert store.reap_residue(grace_s=0.0) == 1
        assert not held.exists()
        assert store.fsck().clean

    def test_fleet_era_root_reads_local_counters_and_cleans_up(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / "stats.json").write_text(
            '{"hits": 3, "misses": 2, "evictions": 1, "publishes": 2, "quarantined": 1, "remote_hits": 5, '
            '"remote_misses": 1, "remote_publishes": 2, "remote_corrupt": 1, "remote_manifest_rejected": 0}'
        )
        (root / "stats.log").write_text(
            '{"misses":1,"remote_hits":1}\n{"publishes":1,"remote_publishes":1}\n{"remote_corrupt":1}\n'
        )
        staging = root / ".tmp-remote-0123456789abcdef-77-deadbeef"
        staging.mkdir()
        (staging / "blob.tar").write_bytes(b"partial download")
        (root / ".quarantine").mkdir()
        (root / ".quarantine" / "remote-0123456789ab-77-cafebabe.tar").write_bytes(b"corrupt blob")

        DesignStore(root).publish(compile_from_key(KEY))
        warm = DesignStore(root).get(KEY)
        assert warm is not None
        assert np.array_equal(np.asarray(warm.dstar), compile_from_key(KEY).dstar)
        assert DesignStore(root).persistent_stats() == {"hits": 4, "misses": 3, "evictions": 1, "publishes": 4, "quarantined": 1}

        store = DesignStore(root)
        assert not store.fsck().clean  # the staging dir and the held blob
        store.gc(residue_grace_s=0)
        report = store.fsck()
        assert report.clean and report.ok == (store.digest(KEY),)

    def test_shipped_npz_publishes_into_another_store(self, tmp_path):
        from repro import load_compiled_design, save_design
        from repro.core.design import PoolingDesign
        from repro.designs import compile_design

        compiled = compile_design(PoolingDesign.sample(240, 30, np.random.default_rng(5)))
        assert compiled.key.scheme == "content"
        with pytest.raises(ValueError):
            compile_from_key(compiled.key)  # cannot be rebuilt on another machine

        shipped = save_design(tmp_path / "deployed", compiled)
        restored, _ = load_compiled_design(shipped)
        DesignStore(tmp_path / "receiver").publish(restored)

        attached = DesignStore(tmp_path / "receiver").get(compiled.key)
        assert attached is not None
        for name in ("dstar", "delta"):
            assert np.array_equal(np.asarray(getattr(attached, name)), getattr(compiled, name))
        assert np.array_equal(np.asarray(attached.design.entries), compiled.design.entries)
        y = compiled.query_results(np.arange(240) < 6)
        assert np.array_equal(MNDecoder().compile(attached).decode(y, 6), MNDecoder().compile(compiled).decode(y, 6))
