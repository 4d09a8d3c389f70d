"""Design-store serving: warm *cross-process* decode vs cold compile (tracked).

PR 4's ``DesignCache`` amortised compilation within one process; the
``DesignStore`` extends that across processes: a compiled design (entries,
indptr, ``Δ*``, ``Δ`` **and** the dense ``Ψ`` block) persists in a
content-addressed directory and later processes mmap-attach it instead of
recompiling.  This benchmark measures exactly the two contracts the store
PR claims, at paper-panel scale (``n = 10^4``):

* **cross-process warm decode** — a *second* Python process (stand-in for
  a repeated CLI invocation or a forked grid worker) attaches from the
  store and decodes; measured inside the child, against a cold child that
  compiles from the key.  Acceptance: warm beats cold by >= 5x, with
  bit-identical output.
* **in-process steady state** — with an L1 ``DesignCache`` above the
  store, repeated fetches never touch disk.

``DesignStore.stats`` / ``DesignCache.stats`` ride along in the JSON
payloads so hit/eviction rates are tracked across PRs.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.core.signal import random_signals
from repro.designs import DesignCache, DesignKey, DesignStore, compile_from_key, fetch_compiled

N = 10_000
M = 600
K = 16
B = 64
SEED = 2022

KEY = DesignKey.for_stream(N, M, root_seed=SEED, batch_queries=256)

_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: The measured child: everything after interpreter/import startup is timed
#: inside the process, so the record isolates attach-vs-compile, not fork
#: overhead.  ``warm`` attaches from the store; ``cold`` compiles from key.
_CHILD = r"""
import json, sys, time
import numpy as np
from repro.designs import DesignKey, DesignStore, compile_from_key

mode, root, y_path = sys.argv[1], sys.argv[2], sys.argv[3]
n, m, k, seed = (int(a) for a in sys.argv[4:8])
key = DesignKey.for_stream(n, m, root_seed=seed, batch_queries=256)
y = np.load(y_path)
t0 = time.perf_counter()
if mode == "warm":
    compiled = DesignStore(root).get(key)
    assert compiled is not None, "store miss in warm child"
else:
    compiled = compile_from_key(key)
sigma_hat = MNDecoder().compile(compiled).decode(y, k)
seconds = time.perf_counter() - t0
print(json.dumps({"seconds": seconds, "support": np.flatnonzero(sigma_hat).tolist()}))
"""


def _run_child(mode: str, root: Path, y_path: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, mode, str(root), str(y_path), str(N), str(M), str(K), str(SEED)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout)


def _observed(batch: int) -> np.ndarray:
    compiled = compile_from_key(KEY)
    sigmas = random_signals(N, K, batch, np.random.default_rng(7))
    return compiled.query_results(sigmas)


class TestWarmCrossProcessDecode:
    def test_second_process_decodes_warm(self, benchmark, repro_seed, tmp_path):
        root = tmp_path / "store"
        store = DesignStore(root)
        store.get_or_compile(KEY, lambda: compile_from_key(KEY))  # publication process

        y_path = tmp_path / "y.npy"
        np.save(y_path, _observed(1)[0])

        rounds = 3
        cold = [_run_child("cold", root, y_path) for _ in range(rounds)]
        warm = [_run_child("warm", root, y_path) for _ in range(rounds)]
        cold_s = float(np.median([r["seconds"] for r in cold]))
        warm_s = float(np.median([r["seconds"] for r in warm]))
        speedup = cold_s / warm_s

        # The tracked wall-time record: one full warm child invocation
        # (interpreter startup included — the honest CLI-reinvocation cost).
        benchmark.pedantic(lambda: _run_child("warm", root, y_path), rounds=1, iterations=1)
        benchmark.extra_info.update(
            {
                "n": N,
                "m": M,
                "k": K,
                "B": 1,
                "backend": "subprocess",
                "cold_s": round(cold_s, 5),
                "warm_s": round(warm_s, 5),
                "speedup_x": round(speedup, 2),
                "store_stats": dataclasses.asdict(store.stats),
                "store_cumulative": store.persistent_stats(),
            }
        )
        print(f"\ncross-process: cold compile+decode {cold_s * 1e3:.1f}ms vs warm attach+decode {warm_s * 1e3:.2f}ms -> {speedup:.1f}x")

        # Bit-identical supports across every child, warm or cold.
        supports = {tuple(r["support"]) for r in cold + warm}
        assert len(supports) == 1
        # The store PR's acceptance contract at n = 10^4.
        assert speedup >= 5.0
        # Exactly one compilation ever happened for this key across all
        # processes (parent published; children only attached or compiled
        # throwaway artifacts in the cold arm, which never publish).
        assert store.persistent_stats()["publishes"] == 1

    def test_layered_fetch_hits_in_process_first(self, benchmark, repro_seed, tmp_path):
        store = DesignStore(tmp_path / "layered")
        cache = DesignCache()
        fetch_compiled(KEY, lambda: compile_from_key(KEY), cache=cache, store=store)

        compiled = benchmark(lambda: fetch_compiled(KEY, lambda: compile_from_key(KEY), cache=cache, store=store))
        benchmark.extra_info.update(
            {
                "n": N,
                "m": M,
                "backend": "serial",
                "cache_stats": dataclasses.asdict(cache.stats),
                "store_stats": dataclasses.asdict(store.stats),
            }
        )
        assert compiled.key == KEY
        assert cache.stats.hit_rate > 0.9  # steady state never touches disk
