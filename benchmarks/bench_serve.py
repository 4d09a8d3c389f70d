"""Serve-path load benchmark: coalesced decode service vs sequential baseline.

Boots the real ``pooled-repro serve`` process (warm-started from a
pre-published :class:`DesignStore`, as a supervisor would) and drives it
at paper-panel scale (``n = 10^4``, a heavy ``m = 2400`` design where
decode compute dominates wire overhead) with **separate client
processes** running the bundled :class:`ServeClient` — 64 concurrent
clients spread over up to 4 OS processes (scaled to the cores actually
available), so the load generator's own JSON/event-loop CPU competes as
little as possible with the server under test:

* **coalesced** — the 64-client load against a server at its default
  settings, where micro-batches form at the decode lane (the only place
  they form); per-request p50/p99 latency and aggregate throughput.
* **sequential baseline** — one client process with one request
  outstanding at a time, so no request ever finds company in its bucket:
  what the same server does when coalescing can never happen.

The two arms alternate against one server process, :data:`PAIRS` times,
and the ratio is the median over the pairs: a one-client baseline swings
about 2× between runs on a small host, so a ratio of single runs of
separate servers measures that swing as much as the coalescing.

Acceptance (the serve PR's headline claim): micro-batched throughput at
64 concurrent clients beats the sequential baseline by >= 3x, with every
served support bit-identical to the offline ``mn_reconstruct`` on the
same ``(design_key, y, k)`` — asserted inside every client process.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.core.mn import mn_reconstruct
from repro.core.signal import random_signals
from repro.designs import DesignKey, DesignStore, compile_from_key


def _cores() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover
        return max(1, os.cpu_count() or 1)


N = 10_000
M = 2400
K = 16
CLIENTS = 64
CLIENT_PROCS = min(4, _cores())
PER_CLIENT = 6
SEED = 2022
#: Sequential/coalesced pairs measured against one server process.
PAIRS = 5

KEY = DesignKey.for_stream(N, M, root_seed=SEED, batch_queries=256)

_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: One load-generator process: ``n_clients`` pipelined connections, each
#: issuing ``per_client`` serial requests (a client waits for its response
#: before asking again — coalescing opportunities come only from
#: *cross-client* concurrency).  Prints READY, waits for the parent's go
#: line so sibling processes start together, then reports wall time and
#: per-request latencies.  Bit-identity against the offline supports is
#: asserted on every single response.
_CHILD = r"""
import asyncio, json, sys, time
import numpy as np
from repro.designs import DesignKey
from repro.serve import ServeClient

host, port, n_clients, per_client, data_path, key_json = sys.argv[1:7]
n_clients, per_client = int(n_clients), int(per_client)
key = DesignKey.from_json(key_json)
data = np.load(data_path)
Y, S, k = data["Y"], data["S"], int(data["k"])

async def main():
    clients = [await ServeClient.connect(host, int(port)) for _ in range(n_clients)]
    latencies = []
    print("READY", flush=True)
    sys.stdin.readline()  # parent's go signal

    async def one_client(c, client):
        for i in range(per_client):
            case = (c * per_client + i) % len(Y)
            t0 = time.perf_counter()
            response = await client.decode(key, Y[case], k, request_id=f"{c}/{i}")
            latencies.append(time.perf_counter() - t0)
            assert response["ok"], response
            assert response["support"] == S[case].tolist(), (case, response)

    t0 = time.perf_counter()
    try:
        await asyncio.gather(*[one_client(c, cl) for c, cl in enumerate(clients)])
    finally:
        for cl in clients:
            await cl.close()
    wall_s = time.perf_counter() - t0
    print(json.dumps({"requests": n_clients * per_client, "wall_s": wall_s,
                      "latencies_ms": [t * 1e3 for t in latencies]}))

asyncio.run(main())
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn_server(store_root: Path):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0",
            "--max-batch", str(CLIENTS),
            "--store", str(store_root),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_env(),
        text=True,
    )
    banner = proc.stdout.readline().strip()
    assert banner.startswith("serving on "), banner
    host, port = banner.rsplit(" ", 1)[1].rsplit(":", 1)
    return proc, host, int(port)


def _stop_server(proc: subprocess.Popen) -> str:
    """SIGTERM the server and return its drain-stats stderr line."""
    proc.send_signal(signal.SIGTERM)
    _, stderr = proc.communicate(timeout=30)
    assert proc.returncode == 0, stderr
    drained = [line for line in stderr.splitlines() if line.startswith("drained:")]
    return drained[-1] if drained else ""


def _drive(host: str, port: int, procs: int, clients_per_proc: int, per_client: int, data_path: Path) -> dict:
    """Fan ``procs`` load generators at the server; aggregate their reports."""
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _CHILD, host, str(port), str(clients_per_proc), str(per_client), str(data_path), KEY.to_json()],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_env(),
            text=True,
        )
        for _ in range(procs)
    ]
    for child in children:  # all connected and parked before anyone fires
        assert child.stdout.readline().strip() == "READY"
    for child in children:
        child.stdin.write("go\n")
        child.stdin.flush()
    reports = []
    for child in children:
        stdout, stderr = child.communicate(timeout=120)
        assert child.returncode == 0, stderr
        reports.append(json.loads(stdout.splitlines()[-1]))
    total = sum(r["requests"] for r in reports)
    latencies = np.concatenate([r["latencies_ms"] for r in reports])
    wall_s = max(r["wall_s"] for r in reports)
    return {
        "requests": total,
        "wall_s": round(wall_s, 4),
        "throughput_rps": round(total / wall_s, 1),
        "p50_ms": round(float(np.percentile(latencies, 50)), 3),
        "p99_ms": round(float(np.percentile(latencies, 99)), 3),
    }


class TestServeLoad:
    def test_coalesced_vs_sequential(self, benchmark, repro_seed, tmp_path):
        store_root = tmp_path / "store"
        compiled = DesignStore(store_root).get_or_compile(KEY, lambda: compile_from_key(KEY))

        sigmas = random_signals(N, K, CLIENTS, np.random.default_rng(repro_seed))
        Y = compiled.query_results(sigmas)
        supports = np.stack([np.flatnonzero(mn_reconstruct(compiled.design, y, K)) for y in Y])
        data_path = tmp_path / "cases.npz"
        np.savez(data_path, Y=Y, S=supports, k=K)

        clients_per_proc = CLIENTS // CLIENT_PROCS

        def coalesced_run():
            return _drive(host, port, CLIENT_PROCS, clients_per_proc, PER_CLIENT, data_path)

        # Alternate the arms against one live server (boot cost excluded).
        # Sequential: one request outstanding, so nothing to coalesce with.
        # Coalesced: one concurrent burst, batches formed at the decode lane;
        # the first burst is the tracked wall-time record.
        pairs = []
        proc, host, port = _spawn_server(store_root)
        try:
            for i in range(PAIRS):
                sequential = _drive(host, port, procs=1, clients_per_proc=1, per_client=2 * CLIENTS, data_path=data_path)
                coalesced = benchmark.pedantic(coalesced_run, rounds=1, iterations=1) if i == 0 else coalesced_run()
                ratio = coalesced["throughput_rps"] / sequential["throughput_rps"]
                pairs.append({"sequential": sequential, "coalesced": coalesced, "speedup_x": ratio})
        finally:
            drain = _stop_server(proc)

        median_pair = sorted(pairs, key=lambda pair: pair["speedup_x"])[PAIRS // 2]  # PAIRS is odd
        sequential, coalesced, speedup = median_pair["sequential"], median_pair["coalesced"], median_pair["speedup_x"]
        benchmark.extra_info.update(
            {
                "n": N,
                "m": M,
                "k": K,
                "clients": CLIENTS,
                "client_procs": CLIENT_PROCS,
                "per_client": PER_CLIENT,
                "backend": "subprocess-serve",
                "sequential": sequential,
                "coalesced": coalesced,
                "pairs_rps": [[p["sequential"]["throughput_rps"], p["coalesced"]["throughput_rps"]] for p in pairs],
                "pairs_speedup_x": [round(p["speedup_x"], 2) for p in pairs],
                "drain": drain,
                "speedup_vs_sequential_x": round(speedup, 2),
            }
        )

        rows = [
            f"  pair {i}: sequential {p['sequential']['throughput_rps']:7.1f} req/s (p50 {p['sequential']['p50_ms']:6.2f}ms)"
            f"  x{CLIENTS} {p['coalesced']['throughput_rps']:7.1f} req/s (p50 {p['coalesced']['p50_ms']:6.2f}ms"
            f"  p99 {p['coalesced']['p99_ms']:7.2f}ms)  -> {p['speedup_x']:.2f}x"
            for i, p in enumerate(pairs)
        ]
        print(f"\nserve load (n={N}, m={M}, k={K}, {CLIENT_PROCS} client procs, one server):\n" + "\n".join(rows) + f"\n  [{drain}]")
        print(f"  coalesced -> {speedup:.1f}x sequential throughput (median of {PAIRS} pairs)")

        # The serve PR's acceptance contract: coalescing pays >= 3x at 64 clients.
        assert speedup >= 3.0
