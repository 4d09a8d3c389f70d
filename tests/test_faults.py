"""The chaos suite: deterministic fault injection against every recovery path.

Each test arms a seeded :class:`repro.faults.FaultPlan` (programmatically
or through ``REPRO_FAULT_PLAN`` for subprocesses/forked workers), lets a
real fault fire at a production trip site, and asserts two things:

1. the substrate **recovers** (heals the pool, quarantines + recompiles
   the store entry, retries / breaks the circuit at the serve layer), and
2. every recovered result is **bit-identical** to a fault-free run — the
   stack's core invariant extended into the failure domain.

Covered here: SIGKILL'd workers mid-map, bit-flipped and truncated store
artifacts, a publisher killed between tmp-write and rename, decode
failures healing through retry and the circuit breaker's half-open probe,
and client reconnect-with-replay across a dropped connection.
"""

import asyncio
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.mn import MNDecoder, mn_reconstruct
from repro.core.signal import random_signal
from repro.designs import DesignKey, DesignStore, compile_from_key
from repro.engine import SerialBackend, SharedMemBackend, run_trial_grid
from repro.faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    InjectedFault,
    bitflip_file,
    reset_ambient_plan,
    set_ambient_plan,
    truncate_file,
)
from repro.parallel import RetryableTaskError, WorkerCrashError, WorkerPool
from repro.serve import Coalescer, DecodeRequest, DecodeServer, DecoderPool, ProtocolError, ServeClient, ServeConfig
from repro.serve.breaker import CircuitBreaker

KEY = DesignKey.for_stream(160, 30, root_seed=21)

_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def ambient_fault():
    """Install a programmatic ambient plan; always clean up the global."""
    yield set_ambient_plan
    reset_ambient_plan()


@pytest.fixture
def fault_env(monkeypatch):
    """Arm ``REPRO_FAULT_PLAN`` for this process's future forks."""

    def arm(spec: str) -> None:
        monkeypatch.setenv(FAULT_PLAN_ENV, spec)
        reset_ambient_plan()  # drop any cached plan so the env is re-read

    yield arm
    reset_ambient_plan()


def _square(payload, cache):
    return payload * payload


def _raise_memory_error(payload, cache):
    raise MemoryError(f"simulated allocation failure on payload {payload}")


def make_case(key, k, seed):
    """One decode case: (y, offline support) for a fresh weight-k signal."""
    compiled = compile_from_key(key)
    sigma = random_signal(key.n, k, np.random.default_rng(seed))
    y = compiled.query_results(sigma)
    support = np.flatnonzero(mn_reconstruct(compiled.design, y, k)).tolist()
    return y, support


def _request(key, y, k, request_id, decoder="mn"):
    y = np.asarray(y, dtype=np.int64)
    y.setflags(write=False)
    return DecodeRequest(request_id=request_id, key=key, y=y, k=k, decoder=decoder)


class TestFaultPlan:
    def test_parse_roundtrip(self):
        spec = "worker.task:kill@2;serve.decode:exception@1x2;store.publish:bitflip=dstar.npy;worker.task:delay@1x*=0.05"
        plan = FaultPlan.parse(spec)
        # ``@1`` is the default arrival and is normalised away on re-emission.
        canonical = "worker.task:kill@2;serve.decode:exceptionx2;store.publish:bitflip=dstar.npy;worker.task:delayx*=0.05"
        assert plan.to_spec() == canonical
        assert FaultPlan.parse(canonical).to_spec() == canonical
        assert [r.site for r in plan.rules] == ["worker.task", "serve.decode", "store.publish", "worker.task"]
        assert plan.rules[3].times == -1

    @pytest.mark.parametrize("bad", ["nosite", "site:doesnotexist", "site:kill@0", "site:killx0", ":kill"])
    def test_malformed_specs_fail_loudly(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_exception_fires_at_scheduled_arrivals_only(self):
        plan = FaultPlan.parse("s:exception@2x2")
        plan.trip("s")  # arrival 1: quiet
        for _ in range(2):  # arrivals 2 and 3 fire
            with pytest.raises(InjectedFault):
                plan.trip("s")
        plan.trip("s")  # arrival 4: rule exhausted
        assert (plan.arrivals("s"), plan.fired("s")) == (4, 2)

    def test_delay_composes_with_a_terminal_action(self):
        plan = FaultPlan.parse("s:delay=0.001;s:exception")
        with pytest.raises(InjectedFault):
            plan.trip("s")
        assert plan.fired("s") == 2  # both rules fired on the same arrival

    def test_bitflip_is_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        payload = bytes(range(256)) * 4
        a.write_bytes(payload)
        b.write_bytes(payload)
        off_a = bitflip_file(a, seed=(7, "site", 1))
        off_b = bitflip_file(b, seed=(7, "site", 1))
        assert off_a == off_b and a.read_bytes() == b.read_bytes()
        assert sum(x != y for x, y in zip(a.read_bytes(), payload)) == 1  # exactly one byte
        assert off_a >= 128  # past the header region

    def test_truncate_halves_the_file(self, tmp_path):
        f = tmp_path / "t.bin"
        f.write_bytes(b"x" * 1000)
        assert truncate_file(f) == 500
        assert f.stat().st_size == 500

    def test_ambient_plan_resolves_from_env_once(self, fault_env):
        from repro.faults import trip

        fault_env("probe:exception@1")
        with pytest.raises(InjectedFault):
            trip("probe")
        trip("probe")  # exhausted; also proves the same plan object is reused

    def test_trip_is_a_noop_without_a_plan(self, monkeypatch):
        from repro.faults import trip

        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        reset_ambient_plan()
        trip("anything")  # must not raise
        reset_ambient_plan()


class TestWorkerCrashHealing:
    def test_sigkilled_workers_heal_and_results_are_bit_identical(self, fault_env):
        payloads = list(range(12))
        expected = [p * p for p in payloads]  # the fault-free answer
        fault_env("worker.task:kill@3")  # every worker dies at its 3rd task
        with WorkerPool(2) as pool:
            assert pool.map(_square, payloads, timeout=60.0) == expected
            assert pool.respawns >= 1
            assert len(pool.crashed_pids) == pool.respawns
            assert all(pid > 0 for pid in pool.crashed_pids)

    def test_retry_budget_exhaustion_raises_structured_crash_error(self, fault_env):
        fault_env("worker.task:kill@1x*")  # every task is lethal: healing cannot win
        with WorkerPool(2, max_task_retries=1) as pool:
            with pytest.raises(WorkerCrashError) as err:
                pool.map(_square, list(range(4)), timeout=60.0)
        assert err.value.retryable
        assert err.value.task_id is not None
        assert len(err.value.pids) >= 2  # the original death plus the failed retry

    def test_worker_memory_error_is_structured_and_retryable(self):
        with WorkerPool(2) as pool:
            with pytest.raises(RetryableTaskError) as err:
                pool.map(_raise_memory_error, [1, 2], timeout=60.0)
        assert err.value.retryable
        assert "MemoryError" in str(err.value)

    def test_serial_backend_translates_transient_errors(self):
        with pytest.raises(RetryableTaskError, match="MemoryError"):
            SerialBackend().map(_raise_memory_error, [1])

    def test_trial_grid_heals_under_worker_kills_bit_identically(self, fault_env):
        ms = [20, 24, 28, 32, 36, 40]
        plain = run_trial_grid(120, ms, theta=0.2, trials=3, root_seed=9, backend=SerialBackend())
        fault_env("worker.task:kill@2")
        with SharedMemBackend(2) as backend:
            healed = run_trial_grid(120, ms, theta=0.2, trials=3, root_seed=9, backend=backend)
            assert backend.pool.respawns >= 1  # the faults really fired
        for a, b in zip(plain, healed):
            assert np.array_equal(a.success, b.success)
            assert np.array_equal(a.overlap, b.overlap)


class TestStoreIntegrity:
    def _publish(self, root):
        store = DesignStore(root)
        store.publish(compile_from_key(KEY))
        return store

    @pytest.mark.parametrize("payload", ["entries", "indptr", "dstar", "delta", "block"])
    @pytest.mark.parametrize("corrupt", [bitflip_file, truncate_file])
    def test_corrupt_artifact_quarantines_and_recompiles_bit_identically(self, tmp_path, corrupt, payload):
        store = self._publish(tmp_path / "store")
        corrupt(store.entry_dir(KEY) / f"{payload}.npy")
        if (payload, corrupt) == ("entries", bitflip_file):
            # A flipped entries byte still maps, so its check waits for the
            # first read of entry values: that read heals in place.
            attached = store.get(KEY)
            assert attached is not None and store.stats.quarantined == 0
            assert np.array_equal(attached.design.entries, compile_from_key(KEY).design.entries)
        else:
            assert store.get(KEY) is None  # integrity manifest catches it: clean miss
        assert store.stats.quarantined == 1
        assert store.persistent_stats()["quarantined"] == 1
        held = list((store.root / ".quarantine").iterdir())
        assert len(held) == 1  # set aside for post-mortem, not deleted
        healed = store.get_or_compile(KEY, lambda: compile_from_key(KEY))
        fresh = compile_from_key(KEY)
        assert np.array_equal(np.asarray(healed.dstar), fresh.dstar)
        assert np.array_equal(np.asarray(healed.delta), fresh.delta)
        assert np.array_equal(np.asarray(healed.design.entries), fresh.design.entries)
        assert np.array_equal(np.asarray(healed.design.indptr), fresh.design.indptr)
        assert np.array_equal(np.asarray(healed.incidence_block()), fresh.incidence_block())

    def test_missing_payload_file_is_reported_by_name(self, tmp_path):
        store = self._publish(tmp_path / "store")
        path = store.entry_dir(KEY)
        meta = json.loads((path / "meta.json").read_text())
        (path / "delta.npy").unlink()
        with pytest.raises(ValueError) as excinfo:
            DesignStore._verify_manifest(path, meta)
        assert str(excinfo.value) == f"integrity: store entry {path.name} is missing delta.npy"
        assert store.get(KEY) is None and store.stats.quarantined == 1

    def test_forked_workers_attach_after_the_parent_verified(self, tmp_path):
        store = DesignStore(tmp_path / "store")
        grid = dict(theta=0.2, trials=4, root_seed=3, store=store)
        plain = run_trial_grid(160, [30, 60], theta=0.2, trials=4, root_seed=3, backend=SerialBackend())
        run_trial_grid(160, [30, 60], backend=SerialBackend(), **grid)  # publishes
        run_trial_grid(160, [30, 60], backend=SerialBackend(), **grid)  # the parent attaches + verifies
        hits_before = store.persistent_stats()["hits"]
        assert hits_before >= 2
        # Fork only now, after the parent's verify thread pools have run.
        with SharedMemBackend(2) as backend:
            forked = run_trial_grid(160, [30, 60], backend=backend, **grid)
        for a, b in zip(plain, forked):
            assert np.array_equal(a.success, b.success)
            assert np.array_equal(a.overlap, b.overlap)
        assert store.persistent_stats()["hits"] >= hits_before + 2  # the workers attached
        assert store.persistent_stats()["publishes"] == 2

    def test_publish_fault_site_corrupts_then_store_self_repairs(self, tmp_path, ambient_fault):
        ambient_fault(FaultPlan.parse("store.publish:bitflip=dstar.npy"))
        store = self._publish(tmp_path / "store")  # the publish trip corrupts the entry
        reset_ambient_plan()
        assert store.get(KEY) is None
        healed = store.get_or_compile(KEY, lambda: compile_from_key(KEY))
        assert np.array_equal(np.asarray(healed.dstar), compile_from_key(KEY).dstar)

    def test_pre_manifest_entry_is_a_miss_not_a_half_trust(self, tmp_path):
        store = self._publish(tmp_path / "store")
        meta_path = store.entry_dir(KEY) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 1  # a v1 entry: no integrity manifest
        del meta["sha256"]
        meta_path.write_text(json.dumps(meta, sort_keys=True))
        assert store.get(KEY) is None

    def test_fsck_audits_quarantines_and_reports_clean(self, tmp_path):
        store = DesignStore(tmp_path / "store")
        other = DesignKey.for_stream(160, 30, root_seed=22)
        store.publish(compile_from_key(KEY))
        store.publish(compile_from_key(other))
        bitflip_file(store.entry_dir(other) / "entries.npy")
        report = store.fsck()
        assert report.checked == 2
        assert len(report.ok) == 1 and len(report.quarantined) == 1
        assert report.quarantine_held == 1 and not report.clean
        # The bad entry is gone; a second audit over the survivor is clean.
        again = store.fsck()
        assert again.checked == 1 and again.clean is False  # quarantine still held
        store.reap_residue(grace_s=0.0)
        assert store.fsck().quarantine_held == 0

    def test_verification_runs_once_per_attach_not_per_decode(self, tmp_path):
        calls = []
        import repro.designs.store as store_mod

        original = store_mod._sha256_file

        def counting(path):
            calls.append(path.name)
            return original(path)

        store = self._publish(tmp_path / "store")
        store_mod._sha256_file = counting
        try:
            attached = store.get(KEY)
            decoder = MNDecoder().compile(attached)
            y, _ = make_case(KEY, 4, seed=5)
            hashed_after_attach = len(calls)
            for _ in range(3):
                decoder.decode(np.asarray(y, dtype=np.int64), 4)
            assert len(calls) == hashed_after_attach  # decodes never re-hash
            assert hashed_after_attach >= len(["entries", "indptr", "dstar", "delta"])
        finally:
            store_mod._sha256_file = original

    def test_pinned_corrupt_entry_misses_then_quarantines_on_release(self, tmp_path):
        """A verified reader's pin defers quarantine; it never lets bytes through.

        Corrupting the on-disk entry while a verified attachment still
        maps it must make every fresh attach a clean miss.  Quarantine
        waits for the pin to go (the reader's mmap view predates the
        corruption) and happens on the first attach after release.
        """
        import gc

        store = DesignStore(tmp_path / "store")
        store.publish(compile_from_key(KEY))
        attached = store.get(KEY)  # verified against the integrity manifest here
        bitflip_file(store.entry_dir(KEY) / "dstar.npy")
        fresh_store = DesignStore(tmp_path / "store")
        assert fresh_store.get(KEY) is None
        assert fresh_store.stats.quarantined == 0
        del attached  # release the reader's pin
        gc.collect()
        unpinned = DesignStore(tmp_path / "store")
        assert unpinned.get(KEY) is None
        assert unpinned.stats.quarantined == 1  # now it is set aside for good

    def test_pinned_corrupt_entries_heal_then_miss_then_quarantine_on_release(self, tmp_path):
        """The pinned-entry rule above, for entries.npy, whose check runs on first read."""
        import gc

        store = DesignStore(tmp_path / "store")
        store.publish(compile_from_key(KEY))
        pinned = store.get(KEY)  # never reads its entries
        bitflip_file(store.entry_dir(KEY) / "entries.npy")
        reader = store.get(KEY)
        assert np.array_equal(reader.design.entries, compile_from_key(KEY).design.entries)  # healed in place
        assert store.stats.quarantined == 0  # the other reader's pin defers the quarantine
        assert store.get(KEY) is None  # remembered: this attach hashes entries.npy and misses
        assert store.stats.quarantined == 0
        del pinned
        gc.collect()
        assert store.get(KEY) is None
        assert store.stats.quarantined == 1  # now it is set aside for good
        healed = store.get_or_compile(KEY, lambda: compile_from_key(KEY))
        assert np.array_equal(np.asarray(healed.design.entries), compile_from_key(KEY).design.entries)

    def test_concurrent_first_reads_hash_the_entries_once(self, tmp_path, monkeypatch):
        import threading

        import repro.designs.store as store_mod

        store = self._publish(tmp_path / "store")
        attached = store.get(KEY)
        hashed = []
        original = store_mod._sha256_and_range

        def counting(path, data=None):
            hashed.append(path.name)
            return original(path, data)

        monkeypatch.setattr(store_mod, "_sha256_and_range", counting)
        workers = 4
        barrier = threading.Barrier(workers, timeout=30)
        seen = []

        def read():
            barrier.wait()
            seen.append(attached.design.entries)

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
        assert hashed == ["entries.npy"]
        assert all(entries is seen[0] for entries in seen)
        assert np.array_equal(seen[0], compile_from_key(KEY).design.entries)

    def test_publisher_crash_leaves_no_entry_and_second_process_heals(self, tmp_path):
        root = tmp_path / "store"
        child = (
            "import sys, json\n"
            "import numpy as np\n"
            "from repro.designs import DesignKey, DesignStore, compile_from_key\n"
            "key = DesignKey.for_stream(160, 30, root_seed=21)\n"
            "store = DesignStore(sys.argv[1])\n"
            "c = store.get_or_compile(key, lambda: compile_from_key(key))\n"
            "print(json.dumps({'dstar_sum': int(np.asarray(c.dstar).sum())}))\n"
        )
        base_env = {"PYTHONPATH": _SRC, "PATH": "/usr/bin:/bin"}
        crashed = subprocess.run(
            [sys.executable, "-c", child, str(root)],
            capture_output=True,
            text=True,
            env={**base_env, FAULT_PLAN_ENV: "store.publish.pre_rename:crash@1"},
        )
        assert crashed.returncode == 70  # died between tmp-write and rename
        store = DesignStore(root)
        assert KEY not in store  # atomicity: no partial entry is visible
        residue = [p for p in root.iterdir() if p.name.startswith(".tmp-")]
        assert len(residue) == 1  # the orphaned publication temp dir
        clean = subprocess.run(
            [sys.executable, "-c", child, str(root)],
            capture_output=True,
            text=True,
            env=base_env,
            check=True,
        )
        assert KEY in store  # the second process compiled and published cleanly
        assert json.loads(clean.stdout)["dstar_sum"] == int(compile_from_key(KEY).dstar.sum())
        # gc reaps the crash residue (grace elapsed) but keeps the good entry.
        store.gc(residue_grace_s=0.0)
        assert not [p for p in root.iterdir() if p.name.startswith(".tmp-")]
        assert KEY in store


class TestCircuitBreaker:
    def test_half_open_probe_failure_reopens(self):
        t = [0.0]
        b = CircuitBreaker(threshold=1, cooldown_s=10.0, clock=lambda: t[0])
        b.record_failure()
        assert b.state == "open" and b.opens == 1
        t[0] = 11.0
        assert b.allow()  # the half-open probe
        b.record_failure()  # probe failed: straight back to open
        assert b.state == "open" and b.opens == 2
        assert not b.allow()  # cooling again from the reopen time
        t[0] = 22.0
        assert b.allow()
        b.record_success()
        assert b.state == "closed" and b.consecutive_failures == 0

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_s=-1.0)


class TestServeDegradation:
    def test_failed_decode_retries_on_a_fresh_decoder(self, ambient_fault):
        async def run():
            plan = FaultPlan.parse("serve.decode:exception@1")
            ambient_fault(plan)
            pool = DecoderPool({"mn": MNDecoder()})
            coalescer = Coalescer(pool, max_batch=1)  # decode_retries=1 default
            y, offline = make_case(KEY, 4, seed=40)
            support = await coalescer.submit(_request(KEY, y, 4, "r1"))
            assert support.tolist() == offline  # healed invisibly, bit-identical
            assert coalescer.stats.retries == 1
            assert pool.evictions == 1  # the suspect decoder was dropped
            assert plan.fired("serve.decode") == 1

        asyncio.run(run())

    def test_corrupt_entries_heal_in_place_under_the_decoder_pool(self, tmp_path):
        """MN never reads the entries, OMP's admission heals them, and the release quarantines."""
        import gc

        from repro.designs import make_decoder

        store = DesignStore(tmp_path / "store")
        store.publish(compile_from_key(KEY))
        bitflip_file(store.entry_dir(KEY) / "entries.npy")
        y, offline = make_case(KEY, 4, seed=43)
        omp_offline = np.flatnonzero(make_decoder("omp").compile(compile_from_key(KEY)).decode(y, 4)).tolist()

        async def run():
            pool = DecoderPool({"mn": MNDecoder(), "omp": make_decoder("omp")}, store=store)
            coalescer = Coalescer(pool, max_batch=1)
            for i in range(3):
                assert (await coalescer.submit(_request(KEY, y, 4, f"mn{i}"))).tolist() == offline
            assert store.stats.quarantined == 0  # no MN compile or decode reads an entry value
            support = await coalescer.submit(_request(KEY, y, 4, "omp", decoder="omp"))
            assert support.tolist() == omp_offline  # the counts block read healed entries
            assert store.stats.quarantined == 0 and KEY in store  # the MN decoder's pin defers it
            assert pool.evict(KEY, "mn")
            gc.collect()
            support = await coalescer.submit(_request(KEY, y, 4, "mn-again"))
            assert support.tolist() == offline
            assert store.stats.quarantined == 1  # that admission set the entry aside and recompiled
            assert coalescer.stats.retries == 0

        asyncio.run(run())

    def test_breaker_opens_fast_fails_then_recovers_through_half_open(self, ambient_fault):
        async def run():
            ambient_fault(FaultPlan.parse("serve.decode:exception@1x2"))
            coalescer = Coalescer(
                DecoderPool({"mn": MNDecoder()}),
                max_batch=1,
                decode_retries=0,
                breaker_threshold=1,
                breaker_cooldown_s=0.05,
            )
            y, offline = make_case(KEY, 4, seed=41)

            async def roundtrip(request_id):
                return await coalescer.submit(_request(KEY, y, 4, request_id))

            with pytest.raises(ProtocolError) as err:
                await roundtrip("r1")  # first dispatch fails: breaker opens
            assert err.value.code == "internal"
            with pytest.raises(ProtocolError) as err:
                await roundtrip("r2")  # open and cooling: refused before any work
            assert err.value.code == "unavailable"
            await asyncio.sleep(0.06)
            with pytest.raises(ProtocolError) as err:
                await roundtrip("r3")  # half-open probe, second injected failure
            assert err.value.code == "internal"
            with pytest.raises(ProtocolError) as err:
                await roundtrip("r4")  # the failed probe re-opened the breaker
            assert err.value.code == "unavailable"
            await asyncio.sleep(0.06)
            support = await roundtrip("r5")  # probe succeeds: service restored
            assert support.tolist() == offline
            assert (await roundtrip("r6")).tolist() == offline  # fully closed again
            assert coalescer.stats.unavailable == 2
            assert coalescer.stats.breaker_opens == 2
            assert coalescer.breaker(KEY).state == "closed"

        asyncio.run(run())

    def test_server_end_to_end_degrades_then_recovers(self, ambient_fault):
        async def run():
            ambient_fault(FaultPlan.parse("serve.decode:exception@1x2"))
            config = ServeConfig(decode_retries=0, breaker_threshold=1, breaker_cooldown_ms=5.0)
            server = DecodeServer({"mn": MNDecoder()}, config)
            host, port = await server.start_tcp()
            y, offline = make_case(KEY, 4, seed=42)
            async with await ServeClient.connect(host, port) as client:
                failures = []
                for i in range(20):
                    response = await client.decode(KEY, y, 4, request_id=f"r{i}")
                    if response["ok"]:
                        break
                    failures.append(response["error"]["code"])
                    await asyncio.sleep(0.01)
                else:
                    pytest.fail(f"service never recovered; errors: {failures}")
                assert response["support"] == offline  # recovered bit-identically
                assert failures and set(failures) <= {"internal", "unavailable"}
                assert "internal" in failures  # the injected failures were served
            await server.drain()

        asyncio.run(run())

    def test_client_reconnects_and_replays_unanswered_requests(self):
        async def run():
            connections = 0

            async def handler(reader, writer):
                nonlocal connections
                connections += 1
                if connections == 1:
                    await reader.readline()  # swallow the request, then drop the line
                    writer.close()
                    return
                while True:
                    line = await reader.readline()
                    if not line:
                        break
                    request = json.loads(line)
                    response = {"request_id": request["request_id"], "ok": True, "n": 4, "k": 1, "support": [2]}
                    writer.write((json.dumps(response) + "\n").encode())
                    await writer.drain()

            fake = await asyncio.start_server(handler, "127.0.0.1", 0)
            host, port = fake.sockets[0].getsockname()[:2]
            client = await ServeClient.connect(host, port, reconnect=True, backoff_base_s=0.01)
            response = await asyncio.wait_for(client.request({"probe": 1}, request_id="q1"), timeout=10.0)
            assert response == {"request_id": "q1", "ok": True, "n": 4, "k": 1, "support": [2]}
            assert connections == 2 and client.reconnects == 1
            await client.close()
            fake.close()
            await fake.wait_closed()

        asyncio.run(run())

    def test_reconnect_gives_up_after_bounded_attempts(self):
        async def run():
            async def handler(reader, writer):
                await reader.readline()
                writer.close()

            fake = await asyncio.start_server(handler, "127.0.0.1", 0)
            host, port = fake.sockets[0].getsockname()[:2]
            client = await ServeClient.connect(host, port, reconnect=True, max_reconnect_attempts=2, backoff_base_s=0.01)
            fake.close()  # no listener left: every re-dial must fail
            await fake.wait_closed()
            with pytest.raises(ConnectionError):
                await asyncio.wait_for(client.request({"probe": 1}, request_id="q1"), timeout=10.0)
            await client.close()

        asyncio.run(run())
