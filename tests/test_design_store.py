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
import re
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
    DesignKey,
    DesignStore,
    compile_from_key,
    resolve_compiled,
    reset_default_design_store,
    resolve_design_store,
)
from repro.designs.store import _entries_dtype
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
        # Zero-copy: the arrays are views of on-disk memory maps, read-only.
        # Read the held entries before ``.entries`` widens them to an int64 copy.
        held = attached.design._entries
        assert isinstance(held, np.memmap) and held._mmap is not None  # a widened copy maps nothing
        assert not attached.dstar.flags.writeable
        assert np.array_equal(np.asarray(attached.design.entries), compiled.design.entries)
        assert np.array_equal(np.asarray(attached.design.indptr), compiled.design.indptr)
        assert np.array_equal(np.asarray(attached.dstar), compiled.dstar)
        assert np.array_equal(np.asarray(attached.delta), compiled.delta)

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

    def test_v3_entry_is_a_miss_and_republishes_as_v4(self, store):
        import hashlib

        # Rewrite a fresh entry into the version-3 layout: an unpacked
        # float32 block and int64 entries, with a matching manifest.
        store.publish(compile_from_key(KEY))
        entry = store.entry_dir(KEY)
        np.save(entry / "block.npy", compile_from_key(KEY).incidence_block())
        np.save(entry / "entries.npy", np.load(entry / "entries.npy").astype(np.int64))
        meta = json.loads((entry / "meta.json").read_text())
        meta["format_version"] = 3
        for name in ("block.npy", "entries.npy"):
            meta["sha256"][name] = hashlib.sha256((entry / name).read_bytes()).hexdigest()
        (entry / "meta.json").write_text(json.dumps(meta, sort_keys=True))

        assert store.get(KEY) is None  # stale: a miss, never adopted
        assert store.stats.quarantined == 0  # ... and not counted as corrupt
        healed = store.get_or_compile(KEY, lambda: compile_from_key(KEY))
        assert healed.incidence_block().dtype == np.dtype(np.float32)
        meta = json.loads((entry / "meta.json").read_text())
        assert meta["format_version"] == 4
        assert np.load(entry / "block.npy").dtype == np.dtype(np.uint8)
        assert np.load(entry / "entries.npy").dtype == np.dtype(np.int16)
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

    @pytest.mark.parametrize("raw", ["12MB", "1.5", "0", "-5"])
    def test_bad_env_byte_budget_names_the_variable(self, monkeypatch, tmp_path, raw):
        monkeypatch.setenv(DESIGN_STORE_ENV, str(tmp_path / "ambient"))
        monkeypatch.setenv(DESIGN_STORE_BYTES_ENV, raw)
        with pytest.raises(ValueError, match=f"^{DESIGN_STORE_BYTES_ENV}='{re.escape(raw)}' is not a positive integer"):
            resolve_design_store(None)

    def test_resolve_compiled_layers_store_over_compile(self, store, monkeypatch):
        from repro.designs import compiled as compiled_mod

        calls = []
        real = compiled_mod.compile_from_key

        def counting(key):
            calls.append(key)
            return real(key)

        # The store's factory calls the module global bare, so a patched
        # compile_from_key sees every regeneration and nothing else.
        monkeypatch.setattr(compiled_mod, "compile_from_key", counting)
        a = resolve_compiled(KEY, store=store)
        assert calls == [KEY] and store.stats.publishes == 1
        # Same store: the entry attaches, no recompilation.
        b = resolve_compiled(KEY, store=store)
        assert calls == [KEY] and store.stats.hits == 1
        assert np.array_equal(np.asarray(b.dstar), np.asarray(a.dstar))
        # A held artifact passes straight through, touching neither layer.
        assert resolve_compiled(b, store=store) is b and store.stats.hits == 1


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


#: A stream key whose ``entries.npy`` spans three 256 KiB hash reads.
_WIDE = DesignKey.for_stream(2000, 300, root_seed=3)


def _first_read_values(itemsize):
    """Elements of a ``.npy`` file in its first 256 KiB hash read (the
    128-byte header is read on its own)."""
    return ((1 << 18) - 128) // itemsize


#: Elements of ``_WIDE``'s stored entries in the first hash read: the
#: element at this position opens the second read.
_FIRST_READ_VALUES = _first_read_values(_entries_dtype(_WIDE.n).itemsize)


def _forge_entry(store, key, position, value):
    """Write ``value`` into ``entries.npy`` and rewrite its manifest digest to match."""
    import hashlib

    path = store.entry_dir(key)
    entries = np.load(path / "entries.npy")
    entries[position] = value
    np.save(path / "entries.npy", entries)
    meta = json.loads((path / "meta.json").read_text())
    meta["sha256"]["entries.npy"] = hashlib.sha256((path / "entries.npy").read_bytes()).hexdigest()
    (path / "meta.json").write_text(json.dumps(meta, sort_keys=True))
    return path


class TestEntryRangeInHashPass:
    """The verify pass takes the entry range from the bytes it hashes."""

    WIDE = _WIDE  # 300 000 int16 entries: three hash reads

    @pytest.mark.parametrize("position", [0, _FIRST_READ_VALUES - 1, _FIRST_READ_VALUES, -1])
    @pytest.mark.parametrize("bad", ["n", "negative"])
    def test_first_read_heals_a_wild_index_and_quarantines(self, store, position, bad):
        store.publish(compile_from_key(self.WIDE))
        path = _forge_entry(store, self.WIDE, position, self.WIDE.n if bad == "n" else -1)
        attached = store.get(self.WIDE)  # the entries check waits for the first read of their values
        assert attached is not None and path.exists() and store.stats.quarantined == 0
        # That read never sees the wild index: the entries heal from the key, in place.
        assert np.array_equal(attached.design.entries, compile_from_key(self.WIDE).design.entries)
        assert store.stats.quarantined == 1 and not path.exists()
        assert store.get(self.WIDE) is None  # a miss now, then a recompile

    @pytest.mark.parametrize("bad", ["n", "negative"])
    def test_fsck_quarantines_a_forged_index_like_get(self, tmp_path, bad):
        """An out-of-range index under a matching digest fails fsck, as it fails every first read."""
        import gc

        good = DesignKey.for_stream(2000, 30, root_seed=4)
        store = DesignStore(tmp_path / "store")
        for key in (self.WIDE, good):
            store.publish(compile_from_key(key))
        path = _forge_entry(store, self.WIDE, -1, self.WIDE.n if bad == "n" else -1)
        pin = store.get(self.WIDE)  # a reader that never reads the entries
        reader = store.get(self.WIDE)
        # What every first read meets: the wild index is never used.  The
        # pin defers the quarantine, so the entry is still there for fsck.
        assert np.array_equal(reader.design.entries, compile_from_key(self.WIDE).design.entries)
        assert path.exists() and store.stats.quarantined == 0
        del pin, reader
        gc.collect()
        report = store.fsck()
        assert report.quarantined == (store.digest(self.WIDE),)
        assert report.ok == (store.digest(good),)
        assert not path.exists() and report.quarantine_held == 1
        assert store.get(self.WIDE) is None
        assert store.get(good) is not None

    def test_fsck_and_get_agree_on_an_intact_entry(self, store):
        store.publish(compile_from_key(self.WIDE))
        assert store.fsck().ok == (store.digest(self.WIDE),)
        assert store.get(self.WIDE) is not None

    def test_unverified_attach_still_rejects(self, tmp_path):
        DesignStore(tmp_path / "store").publish(compile_from_key(self.WIDE))
        trusting = DesignStore(tmp_path / "store", verify=False)
        path = _forge_entry(trusting, self.WIDE, -1, self.WIDE.n)
        with pytest.raises(ValueError, match="entry index out of range"):
            trusting._attach(path, self.WIDE)
        assert trusting.get(self.WIDE) is None

    @pytest.mark.parametrize("verify", [True, False])
    def test_only_a_verified_attach_hands_over_the_range(self, tmp_path, monkeypatch, verify):
        """A verified attach hands over ``[0, n)`` on the word of its pending entries check; an unverified one scans."""
        from repro.core.design import PoolingDesign

        DesignStore(tmp_path / "store").publish(compile_from_key(self.WIDE))
        seen = []
        original = PoolingDesign._setup

        def spy(self, n, entries, indptr, entry_range):
            seen.append(entry_range)
            return original(self, n, entries, indptr, entry_range)

        monkeypatch.setattr(PoolingDesign, "_setup", spy)
        attached = DesignStore(tmp_path / "store", verify=verify).get(self.WIDE)
        assert attached is not None
        assert (attached.design._pending_check is not None) == verify
        entries = np.asarray(attached.design.entries)
        assert seen == [(0, self.WIDE.n - 1) if verify else None]
        assert attached.design._pending_check is None and 0 <= entries.min() and entries.max() < self.WIDE.n

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    @pytest.mark.parametrize("size", ["one", "first-read", "first-read+1", 100_003])
    @pytest.mark.parametrize("max_read", [None, 7], ids=["full-reads", "short-reads"])
    def test_hash_and_range_match_a_direct_read(self, tmp_path, monkeypatch, dtype, size, max_read):
        import builtins
        import hashlib

        import repro.designs.store as store_mod

        first = _first_read_values(np.dtype(dtype).itemsize)
        size = {"one": 1, "first-read": first, "first-read+1": first + 1}.get(size, size)
        bound = np.iinfo(dtype).max
        values = np.random.default_rng(size).integers(-bound, bound, size=size, dtype=dtype)
        np.save(tmp_path / "v.npy", values)
        if max_read is not None:
            # A file object whose reads stop short at odd byte counts: values
            # then straddle reads, and the range must not change.
            class Short:
                def __init__(self, f):
                    self._f = f

                def readinto(self, view):
                    return self._f.readinto(memoryview(view)[:max_read])

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    self._f.close()

            monkeypatch.setattr(store_mod, "open", lambda *a, **k: Short(builtins.open(*a, **k)), raising=False)
        digest, observed = store_mod._sha256_and_range(tmp_path / "v.npy", np.load(tmp_path / "v.npy", mmap_mode="r"))
        assert digest == hashlib.sha256((tmp_path / "v.npy").read_bytes()).hexdigest()
        assert observed == (int(values.min()), int(values.max()))

    def test_a_file_cut_short_after_mapping_leaves_the_range_to_the_caller(self, tmp_path):
        import repro.designs.store as store_mod

        np.save(tmp_path / "v.npy", np.arange(100_000, dtype=np.int64))
        mapped = np.load(tmp_path / "v.npy", mmap_mode="r")
        os.truncate(tmp_path / "v.npy", mapped.offset + 8 * 40_000)  # the map's pages stay untouched
        digest, observed = store_mod._sha256_and_range(tmp_path / "v.npy", mapped)
        assert digest == store_mod._sha256_file(tmp_path / "v.npy") and observed is None

    def test_other_dtypes_leave_the_range_to_the_caller(self, tmp_path):
        import repro.designs.store as store_mod

        np.save(tmp_path / "v.npy", np.arange(10, dtype=np.float64))
        digest, observed = store_mod._sha256_and_range(tmp_path / "v.npy", np.load(tmp_path / "v.npy", mmap_mode="r"))
        assert digest == store_mod._sha256_file(tmp_path / "v.npy") and observed is None


class TestPackedFormat:
    """Format 4: a bit-packed Ψ block and entries at the width ``n`` needs."""

    @pytest.mark.parametrize("n, dtype", [(2**15, np.int16), (2**15 + 1, np.int32), (2**31, np.int32), (2**31 + 1, np.int64)])
    def test_entries_dtype_is_the_narrowest_signed_that_holds_n_minus_1(self, n, dtype):
        assert _entries_dtype(n) == np.dtype(dtype)

    @pytest.mark.parametrize("n, dtype", [(2**15, np.int16), (2**15 + 1, np.int32)])
    def test_published_entries_use_that_dtype(self, store, n, dtype):
        key = DesignKey.for_stream(n, 2, root_seed=1, gamma=40)
        compiled = compile_from_key(key)
        store.publish(compiled)
        stored = np.load(store.entry_dir(key) / "entries.npy")
        assert stored.dtype == np.dtype(dtype)
        assert np.array_equal(stored, compiled.design.entries)
        attached = store.get(key)
        assert attached.design.entries.dtype == np.int64
        assert np.array_equal(attached.design.entries, compiled.design.entries)

    @pytest.mark.parametrize(
        "n, m, chunk_cells",
        [(203, 70, 4096), (1001, 1100, None)],
        ids=["small-chunks", "module-chunks"],
    )
    def test_unpacked_block_is_bit_identical(self, store, monkeypatch, n, m, chunk_cells):
        import repro.designs.compiled as compiled_mod

        if chunk_cells is not None:
            monkeypatch.setattr(compiled_mod, "_ROW_CHUNK_CELLS", chunk_cells)
        rows = max(1, compiled_mod._ROW_CHUNK_CELLS // n)
        assert n % 8 and m > rows and m % rows  # several chunks, the last one short
        key = DesignKey.for_stream(n, m, root_seed=9)
        store.publish(compile_from_key(key))
        packed = np.load(store.entry_dir(key) / "block.npy")
        assert packed.dtype == np.uint8 and packed.shape == (m, (n + 7) // 8)
        block = store.get(key).incidence_block()
        assert block.dtype == np.float32 and not block.flags.writeable
        assert np.array_equal(block, compile_from_key(key).incidence_block())

    def test_block_unpacks_at_mn_compile_and_never_for_counts_decoders(self, store):
        from repro.designs import make_decoder

        store.publish(compile_from_key(KEY))
        attached = store.get(KEY)
        assert attached._block is None and attached._packed.dtype == np.uint8  # the verified bits only
        make_decoder("omp").compile(attached)  # decodes against the counts block
        assert attached._block is None
        assert attached.design._entries.dtype == np.int16  # the counts read the narrow entries
        MNDecoder().compile(attached)
        assert attached._packed is None and attached._block is not None

    def test_mn_attach_and_decode_never_widen_the_entries(self, store):
        store.publish(compile_from_key(KEY))
        attached = store.get(KEY)
        held = attached.design._entries
        assert held.dtype == np.int16 and isinstance(held, np.memmap)  # the stored map, not a copy
        assert attached.nbytes == held.nbytes + 8 * (KEY.m + 1 + 2 * KEY.n) + attached.block_bytes
        y = compile_from_key(KEY).query_results(np.arange(KEY.n) < 4)
        MNDecoder().compile(attached).decode(y, 4)
        assert attached.design._entries is held
        assert attached.gamma == KEY.gamma  # mean_pool_size reads the size only
        assert attached.design._entries is held

    def test_query_results_index_with_the_narrow_entries(self, store):
        from repro.core.signal import random_signals

        key = DesignKey.for_stream(10_000, 600, root_seed=5)
        fresh = compile_from_key(key)
        store.publish(fresh)
        attached = store.get(key)
        sigmas = random_signals(key.n, 16, 3, np.random.default_rng(2))
        assert np.array_equal(attached.query_results(sigmas), fresh.query_results(sigmas))  # the dense batch gather
        assert np.array_equal(attached.query_results(sigmas[0]), fresh.query_results(sigmas[0]))  # the one-row gather
        assert attached.design._entries.dtype == np.int16  # checked through the gate, never widened
        assert attached.design._pending_check is None

    def test_entries_stay_eager_where_a_late_mismatch_cannot_heal(self, store):
        """Content keys and entries without block.npy hash entries.npy at attach."""
        from repro.core.design import PoolingDesign
        from repro.designs import compile_design
        from repro.faults import bitflip_file

        content = compile_design(PoolingDesign.sample(300, 40, np.random.default_rng(8)))
        store.publish(content)
        store.publish(compile_from_key(KEY))
        blockless = store.entry_dir(KEY)
        meta = json.loads((blockless / "meta.json").read_text())
        meta["block"] = False
        del meta["sha256"]["block.npy"]
        (blockless / "meta.json").write_text(json.dumps(meta, sort_keys=True))
        (blockless / "block.npy").unlink()
        for key in (content.key, KEY):
            assert store.get(key).design._pending_check is None  # entries.npy hashed at attach
            bitflip_file(store.entry_dir(key) / "entries.npy")
            assert store.get(key) is None  # so a corrupt one is a miss there, as before
        assert store.stats.quarantined == 2

    def test_concurrent_first_reads_widen_once(self):
        import threading

        from repro.core.design import PoolingDesign

        rng = np.random.default_rng(0)
        narrow = rng.integers(0, 500, size=200_000, dtype=np.int16)
        design = PoolingDesign(500, narrow, np.arange(0, 200_001, 100, dtype=np.int64))
        workers = 6
        barrier = threading.Barrier(workers, timeout=30)
        seen = []

        def read():
            barrier.wait()
            seen.append(design.entries)

        threads = [threading.Thread(target=read) for _ in range(workers)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads) and len(seen) == workers
        assert all(entries is seen[0] for entries in seen) and seen[0].dtype == np.int64
        assert np.array_equal(seen[0], narrow)

    def test_attached_content_key_equals_the_original(self, store):
        from repro.core.design import PoolingDesign
        from repro.designs import compile_design

        compiled = compile_design(PoolingDesign.from_pools(9, [[0, 1, 8], [2, 2, 5], [7, 3, 0, 4]]))
        assert compiled.key.scheme == "content"
        store.publish(compiled)
        attached = store.get(compiled.key)
        assert attached.design._entries.dtype == np.int16
        assert DesignKey.for_content(attached.design) == compiled.key

    @pytest.mark.parametrize("reader", ["get", "fsck"])
    def test_misshapen_packed_block_under_a_matching_digest_is_quarantined(self, store, reader):
        import hashlib

        store.publish(compile_from_key(KEY))
        path = store.entry_dir(KEY)
        np.save(path / "block.npy", np.load(path / "block.npy")[:, :-1])
        meta = json.loads((path / "meta.json").read_text())
        meta["sha256"]["block.npy"] = hashlib.sha256((path / "block.npy").read_bytes()).hexdigest()
        (path / "meta.json").write_text(json.dumps(meta, sort_keys=True))
        if reader == "get":
            assert store.get(KEY) is None
        else:
            assert store.fsck().quarantined == (store.digest(KEY),)
        assert store.stats.quarantined == 1 and not path.exists()

    def test_each_file_is_hashed_in_full_before_its_first_use(self, store, monkeypatch):
        """Attach hashes four files; entries.npy waits for a read of its values, then hashes once."""
        import repro.designs.store as store_mod

        store.publish(compile_from_key(KEY))
        path = store.entry_dir(KEY)
        manifest = json.loads((path / "meta.json").read_text())["sha256"]
        assert set(manifest) == {"entries.npy", "indptr.npy", "dstar.npy", "delta.npy", "block.npy"}
        size = {name: (path / name).stat().st_size for name in manifest}
        hashed = {}
        original = store_mod._read_full

        def counting(f, view):
            got = original(f, view)
            hashed[Path(f.name).name] = hashed.get(Path(f.name).name, 0) + got
            return got

        monkeypatch.setattr(store_mod, "_read_full", counting)
        fresh = compile_from_key(KEY)
        y = fresh.query_results(np.arange(KEY.n) < 4)
        for _ in range(3):
            hashed.clear()
            attached = store.get(KEY)
            assert attached is not None
            assert hashed == {name: size[name] for name in manifest if name != "entries.npy"}
            hashed.clear()
            MNDecoder().compile(attached).decode(y, 4)
            assert hashed == {}  # an MN compile and decode read no entry value
            for _ in range(2):
                assert np.array_equal(attached.design.entries, fresh.design.entries)
            assert hashed == {"entries.npy": size["entries.npy"]}  # the first read hashed them, once

_RSS_SCRIPT = """
import json, sys
import numpy as np
from repro.core.mn import MNDecoder
from repro.designs import DesignKey, DesignStore

def rss_bytes():  # (total, file-backed) resident bytes of this process
    with open("/proc/self/status") as f:
        fields = dict(line.split(":", 1) for line in f)
    return tuple(int(fields[name].split()[0]) * 1024 for name in ("VmRSS", "RssFile"))

store = DesignStore(sys.argv[1])
# A small attach and decode first, so every lazily loaded module is mapped
# before the measured one starts.
small = store.get(DesignKey.for_stream(300, 40, root_seed=11))
MNDecoder().compile(small).decode_batch(np.ones((2, 40), dtype=np.int64), 3)
key = DesignKey.for_stream(10_000, 600, root_seed=5)
before = rss_bytes()
compiled = store.get(key)
MNDecoder().compile(compiled).decode_batch(np.ones((2, key.m), dtype=np.int64), 3)
after = rss_bytes()
print(json.dumps({
    "grew": after[0] - before[0],
    "grew_file": after[1] - before[1],
    "stored_entries": compiled.design._entries.nbytes,
    "wide_entries": key.m * int(key.gamma) * 8,
    "held_dtype": str(compiled.design._entries.dtype),
    "block": compiled.block_bytes,
}))
"""


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads RssFile from /proc (Linux)")
def test_mn_attach_and_decode_map_no_entries_pages(tmp_path):
    store = DesignStore(tmp_path / "store")
    store.publish(compile_from_key(KEY))
    store.publish(compile_from_key(DesignKey.for_stream(10_000, 600, root_seed=5)))
    env = {"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"), "PATH": "/usr/bin:/bin"}
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_SCRIPT, str(store.root)], capture_output=True, text=True, env=env, check=True
    )
    run = json.loads(proc.stdout)
    # The attach unpacks the whole float32 Ψ block (24 MB here) into private
    # memory; the int16 entries (6 MB) are hashed with read(), never mapped
    # page by page, and never widened into their 24 MB int64 copy.
    assert run["held_dtype"] == "int16", run
    assert run["grew"] - run["block"] < run["wide_entries"] / 2, run
    assert run["grew_file"] < run["stored_entries"] / 2, run
