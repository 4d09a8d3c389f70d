"""Fault-tolerance substrate: what does surviving failure actually cost?

The robustness PR's contract is twofold — recovery is *correct* (the chaos
suite in ``tests/test_faults.py`` proves every healed result bit-identical)
and recovery is *affordable*.  This module prices the affordable half:

* **worker-crash healing** — a :class:`~repro.parallel.pool.WorkerPool`
  map that loses workers to injected SIGKILLs, measured against the same
  map fault-free.  The overhead is the respawn + re-dispatch + liveness
  detection cost, recorded per crash.
* **store self-repair** — detecting a corrupted entry (manifest
  verification → quarantine) plus the single-flight recompile heal,
  against the cold-compile baseline it protects.
* **breaker trip → recovery** — wall time from the first injected decode
  failure to the first healthy response once the half-open probe closes
  the circuit again.
* **warm-decode integrity tax** — the steady-state serving cost of
  ``verify=True``: manifest hashing runs *once per file before its first
  use* (at attach; ``entries.npy``, which no MN decode reads, at the
  first read of entry values) and never on the per-decode hot path, so
  over an attach + decode-loop session the overhead must stay **< 3 %**
  (asserted, median of interleaved pairs).
* **fresh-process integrity tax** — the same hash priced where it is not
  amortised: a new child process's attach plus first decode at
  ``n = 10^4``, ``m ∈ {600, 2400}``, ``verify=True`` against
  ``verify=False`` (recorded, not asserted).
"""

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.mn import MNDecoder
from repro.core.signal import random_signal
from repro.designs import DesignKey, DesignStore, compile_from_key
from repro.faults import FAULT_PLAN_ENV, FaultPlan, bitflip_file, reset_ambient_plan, set_ambient_plan
from repro.parallel import WorkerPool

N = 4_000
M = 300
K = 8
SEED = 2022

KEY = DesignKey.for_stream(N, M, root_seed=SEED, batch_queries=256)

#: The integrity-tax serving session: one attach (where verification
#: lives) amortised over a warm batched-decode run the way the serve
#: layer actually uses a decoder — coalesced batches, process-lifetime
#: attach.  ``100 × 64``-wide batches ≈ 6 400 decodes ≈ half a second.
BATCH = 64
BATCHES_PER_SESSION = 100

_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: The fresh-process leg: a new interpreter attaches one entry (verified or
#: trusted) and runs its first decode, timed inside the child so the record
#: isolates attach + verify + first decode from interpreter startup.
FRESH_N = 10_000
FRESH_K = 16
_FRESH_CHILD = r"""
import json, sys, time
import numpy as np
from repro.core.mn import MNDecoder
from repro.designs import DesignKey, DesignStore

root, y_path, verify = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
n, m, k, seed = (int(a) for a in sys.argv[4:8])
key = DesignKey.for_stream(n, m, root_seed=seed, batch_queries=256)
y = np.load(y_path)
t0 = time.perf_counter()
compiled = DesignStore(root, verify=verify).get(key)
assert compiled is not None, "store miss in fresh child"
attach_s = time.perf_counter() - t0
sigma_hat = MNDecoder().compile(compiled).decode(y, k)
seconds = time.perf_counter() - t0
print(json.dumps({"seconds": seconds, "attach_s": attach_s, "support": np.flatnonzero(sigma_hat).tolist()}))
"""


def _sleep_task(payload, cache):
    time.sleep(0.05)
    return payload


def _timed_map(plan: "str | None", tasks: int, workers: int) -> "tuple[float, int, list]":
    """One pool lifecycle under ``plan`` (or fault-free): (seconds, respawns, out)."""
    previous = os.environ.pop(FAULT_PLAN_ENV, None)
    if plan is not None:
        os.environ[FAULT_PLAN_ENV] = plan
    reset_ambient_plan()
    try:
        t0 = time.perf_counter()
        with WorkerPool(workers) as pool:
            out = pool.map(_sleep_task, list(range(tasks)), timeout=120.0)
            respawns = pool.respawns
        return time.perf_counter() - t0, respawns, out
    finally:
        if previous is None:
            os.environ.pop(FAULT_PLAN_ENV, None)
        else:
            os.environ[FAULT_PLAN_ENV] = previous
        reset_ambient_plan()


class TestWorkerCrashHealing:
    def test_healed_map_overhead_per_crash(self, benchmark, repro_seed):
        tasks, workers = 8, 2
        clean_s, _, clean_out = _timed_map(None, tasks, workers)
        faulted_s, respawns, faulted_out = _timed_map("worker.task:kill@2", tasks, workers)
        assert faulted_out == clean_out  # healed run is bit-identical
        assert respawns >= 1

        benchmark.pedantic(lambda: _timed_map("worker.task:kill@2", tasks, workers), rounds=1, iterations=1)
        per_crash_s = (faulted_s - clean_s) / max(1, respawns)
        benchmark.extra_info.update(
            {
                "backend": f"sharedmem[{workers}]",
                "tasks": tasks,
                "clean_s": round(clean_s, 4),
                "faulted_s": round(faulted_s, 4),
                "respawns": respawns,
                "per_crash_overhead_s": round(per_crash_s, 4),
            }
        )
        print(
            f"\nworker healing: clean map {clean_s * 1e3:.0f}ms, {respawns} crashes healed in "
            f"{faulted_s * 1e3:.0f}ms -> {per_crash_s * 1e3:.0f}ms per crash"
        )


class TestStoreSelfRepair:
    def test_quarantine_plus_recompile_heal(self, benchmark, repro_seed, tmp_path):
        store = DesignStore(tmp_path / "store")
        store.publish(compile_from_key(KEY))

        t0 = time.perf_counter()
        cold = compile_from_key(KEY)
        cold_s = time.perf_counter() - t0

        bitflip_file(store.entry_dir(KEY) / "dstar.npy")
        t0 = time.perf_counter()
        assert store.get(KEY) is None  # verification catches the flip
        detect_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        healed = store.get_or_compile(KEY, lambda: compile_from_key(KEY))
        heal_s = time.perf_counter() - t0
        assert np.array_equal(np.asarray(healed.dstar), cold.dstar)

        def session():
            bitflip_file(store.entry_dir(KEY) / "dstar.npy")
            assert store.get(KEY) is None
            return store.get_or_compile(KEY, lambda: compile_from_key(KEY))

        benchmark.pedantic(session, rounds=3, iterations=1)
        benchmark.extra_info.update(
            {
                "n": N,
                "m": M,
                "backend": "serial",
                "cold_compile_s": round(cold_s, 4),
                "detect_quarantine_s": round(detect_s, 4),
                "recompile_heal_s": round(heal_s, 4),
                "store_stats": dataclasses.asdict(store.stats),
            }
        )
        print(
            f"\nself-repair: corruption detected+quarantined in {detect_s * 1e3:.1f}ms, "
            f"healed by recompile in {heal_s * 1e3:.0f}ms (cold compile {cold_s * 1e3:.0f}ms)"
        )


class TestBreakerRecovery:
    def test_trip_to_recovery_wall_time(self, benchmark, repro_seed):
        import asyncio

        from repro.core.mn import mn_reconstruct
        from repro.serve import Coalescer, DecodeRequest, DecoderPool

        compiled = compile_from_key(KEY)
        sigma = random_signal(N, K, np.random.default_rng(7))
        y = compiled.query_results(sigma)
        y.setflags(write=False)
        offline = np.flatnonzero(mn_reconstruct(compiled.design, y, K)).tolist()
        cooldown_s = 0.05

        async def trip_and_recover() -> "tuple[float, list]":
            set_ambient_plan(FaultPlan.parse("serve.decode:exception@1"))
            try:
                coalescer = Coalescer(
                    DecoderPool({"mn": MNDecoder()}),
                    max_batch=1,
                    decode_retries=0,
                    breaker_threshold=1,
                    breaker_cooldown_s=cooldown_s,
                )
                t0 = time.perf_counter()
                for attempt in range(50):
                    try:
                        support = await coalescer.submit(
                            DecodeRequest(request_id=f"r{attempt}", key=KEY, y=y, k=K)
                        )
                        return time.perf_counter() - t0, support.tolist()
                    except Exception:
                        await asyncio.sleep(cooldown_s / 4)
                raise AssertionError("breaker never recovered")
            finally:
                reset_ambient_plan()

        recovery_s, support = asyncio.run(trip_and_recover())
        assert support == offline  # post-recovery decode is bit-identical

        benchmark.pedantic(lambda: asyncio.run(trip_and_recover()), rounds=3, iterations=1)
        benchmark.extra_info.update(
            {
                "n": N,
                "m": M,
                "k": K,
                "backend": "serial",
                "breaker_cooldown_s": cooldown_s,
                "trip_to_recovery_s": round(recovery_s, 4),
            }
        )
        print(f"\nbreaker: trip -> half-open probe -> recovered in {recovery_s * 1e3:.0f}ms (cooldown {cooldown_s * 1e3:.0f}ms)")


class TestIntegrityTax:
    def test_warm_decode_overhead_under_3pct(self, benchmark, repro_seed, tmp_path):
        store_verified = DesignStore(tmp_path / "verified")
        store_trusting = DesignStore(tmp_path / "trusting", verify=False)
        store_verified.publish(compile_from_key(KEY))
        store_trusting.publish(compile_from_key(KEY))

        from repro.core.signal import random_signals

        Y = compile_from_key(KEY).query_results(random_signals(N, K, BATCH, np.random.default_rng(11)))

        def session(store: DesignStore) -> float:
            """One serving session: attach (verify lives here) + warm batches."""
            t0 = time.perf_counter()
            compiled = store.get(KEY)
            assert compiled is not None
            decoder = MNDecoder().compile(compiled)
            for _ in range(BATCHES_PER_SESSION):
                decoder.decode_batch(Y, K)
            return time.perf_counter() - t0

        # Interleaved verified/unverified pairs, alternating which arm runs
        # first: the overhead is the median of the per-pair ratios, so
        # drift in the decode time (the bulk of a session) cancels within
        # each pair instead of landing on one arm.
        pairs = 11
        verified, trusting = [], []
        for i in range(pairs):
            for store in (store_verified, store_trusting) if i % 2 == 0 else (store_trusting, store_verified):
                (verified if store is store_verified else trusting).append(session(store))
        overhead = float(np.median(np.divide(verified, trusting))) - 1.0
        verified_q1, verified_s, verified_q3 = (float(q) for q in np.percentile(verified, [25, 50, 75]))
        trusting_q1, trusting_s, trusting_q3 = (float(q) for q in np.percentile(trusting, [25, 50, 75]))

        benchmark.pedantic(lambda: session(store_verified), rounds=1, iterations=1)
        benchmark.extra_info.update(
            {
                "n": N,
                "m": M,
                "k": K,
                "backend": "serial",
                "B": BATCH,
                "batches_per_session": BATCHES_PER_SESSION,
                "pairs": pairs,
                "verified_session_s": round(verified_s, 4),
                "verified_iqr_s": round(verified_q3 - verified_q1, 4),
                "trusting_session_s": round(trusting_s, 4),
                "trusting_iqr_s": round(trusting_q3 - trusting_q1, 4),
                "integrity_overhead_pct": round(overhead * 100.0, 2),
            }
        )
        print(
            f"\nintegrity tax: attach+{BATCHES_PER_SESSION}x{BATCH} batched decodes {verified_s * 1e3:.1f}ms "
            f"verified vs {trusting_s * 1e3:.1f}ms unverified (medians) -> {overhead * 100.0:+.2f}% median pair"
        )
        # The acceptance bar: amortised over a warm session, verification
        # must cost < 3% because hashing never runs on the decode hot path.
        assert overhead < 0.03


def _fresh_child(root: Path, y_path: Path, m: int, verify: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [str(root), str(y_path), "1" if verify else "0", str(FRESH_N), str(m), str(FRESH_K), str(SEED)]
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_CHILD, *argv], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(proc.stdout)


class TestFreshProcessTax:
    @pytest.mark.parametrize("m", [600, 2400])
    def test_fresh_process_attach_and_first_decode(self, benchmark, repro_seed, tmp_path, m):
        key = DesignKey.for_stream(FRESH_N, m, root_seed=SEED, batch_queries=256)
        compiled = compile_from_key(key)
        DesignStore(tmp_path / "store").publish(compiled)
        y_path = tmp_path / "y.npy"
        np.save(y_path, compiled.query_results(random_signal(FRESH_N, FRESH_K, np.random.default_rng(7))))
        del compiled

        # Interleave the arms; each child is a new process with a cold
        # import but a warm page cache (the entry was just written).
        rounds = 3
        verified, trusting = [], []
        for _ in range(rounds):
            verified.append(_fresh_child(tmp_path / "store", y_path, m, verify=True))
            trusting.append(_fresh_child(tmp_path / "store", y_path, m, verify=False))
        assert len({tuple(r["support"]) for r in verified + trusting}) == 1

        def median(runs, field):
            return float(np.median([r[field] for r in runs]))

        verified_s, trusting_s = median(verified, "seconds"), median(trusting, "seconds")
        benchmark.pedantic(lambda: _fresh_child(tmp_path / "store", y_path, m, verify=True), rounds=1, iterations=1)
        benchmark.extra_info.update(
            {
                "n": FRESH_N,
                "m": m,
                "k": FRESH_K,
                "backend": "subprocess",
                "verified_s": round(verified_s, 5),
                "trusting_s": round(trusting_s, 5),
                "verified_attach_s": round(median(verified, "attach_s"), 5),
                "trusting_attach_s": round(median(trusting, "attach_s"), 5),
                "fresh_process_tax_ms": round((verified_s - trusting_s) * 1e3, 2),
                "fresh_process_tax_pct": round((verified_s / trusting_s - 1.0) * 100.0, 1),
            }
        )
        print(
            f"\nfresh process m={m}: attach+first decode {verified_s * 1e3:.1f}ms verified vs "
            f"{trusting_s * 1e3:.1f}ms unverified -> +{(verified_s - trusting_s) * 1e3:.1f}ms"
        )
