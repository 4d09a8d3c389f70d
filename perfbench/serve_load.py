"""The two serve workloads: ``serve-hot`` and ``serve-churn``.

Both start the real ``pooled-repro serve`` process at its default settings
over a design store the benchmark fills first, and drive it open-loop with
:mod:`loadgen`.  Every served support is compared with an untimed offline
reference, ``make_decoder(name).compile(compile_from_key(key)).decode_batch``.

The measured seconds are split into ``ROUNDS`` rounds, each running every
phase of the workload once.  The host's speed drifts over seconds (another
tenant's memory traffic, say); interleaved rounds let that drift hit every
phase alike, and serve-hot's metrics and both capacities are medians of
per-round values, which drop the round the drift hit hardest.  serve-churn's
latencies pool its rounds instead: their noise is which requests miss the
decoder pool, and a round alone holds too few misses.
"""

from __future__ import annotations

import time

import numpy as np

import common
import loadgen

N = 10_000
K = 16
#: Server spawns per run; ``setup_s`` is their median.
SETUP_SPAWNS = 5
ROUNDS = 3
TAIL_Q = 90.0

#: Every round ends with an overload burst: an open-loop rate above what the
#: server can take, so its correct responses per second are its capacity.
BURST_S = 1.0

# serve-hot: one stream key, decoder mn.
HOT_M = 2400
HOT_SIGNALS = 128
#: Light load: a lone request rarely finds company in the 2 ms window, so
#: this measures the batch-size-1 decode path.  A busier rate would show the
#: executor queue sooner, but its tail swings with the host's speed (the
#: queue amplifies every slowdown); the overload burst and the traced
#: ``executor_wait`` show the queue instead.
HOT_RPS = 15.0
HOT_BURST_RPS = 120.0
HOT_WARMUP_S = 1.0

# serve-churn: 12 stream keys, Zipf popularity, one rate.
CHURN_M = 600
CHURN_KEYS = 12
#: Zipf exponent of key popularity.  About a fifth of requests then miss the
#: decoder pool and re-attach from the store (50-70 ms each), so the p50
#: falls among the hits and the p90 among those misses, not on the edge
#: between the two where it would jump from run to run.
CHURN_ZIPF = 0.9
CHURN_SIGNALS = 16
#: Each key is served under one decoder, so the working set is 12
#: (key, decoder) pairs, 1.5x the default 8-entry DecoderPool.  The
#: baselines take the three least popular keys (10% of requests); half of
#: their requests miss the pool and recompile.
CHURN_DECODERS = {9: "comp", 10: "amp", 11: "omp"}
#: Low enough that a pool miss (50-250 ms on the single executor) seldom
#: holds up the hits behind it: the slow requests are then the misses
#: themselves, a fifth of the total, and both the p50 (hits) and the p90
#: (store re-attaches) sit inside one mode.
CHURN_RPS = 6.0
CHURN_BURST_RPS = 200.0


def _seed_int(seed: int) -> int:
    return int(seed) % (2**31)


class _Server:
    """Spawn the server ``SETUP_SPAWNS`` times; keep the last one running.

    ``setup_s`` is the median time from spawn to the first OK response
    (the probe request's support is checked like any other).
    """

    def __init__(self, store, work, probe: bytes, probe_expect: "list[int]", spans=None):
        self.setup_s = []
        self.failed = 0
        argv = common.serve_argv(store, spans)
        env = common.child_env()
        server = None
        try:
            for i in range(SETUP_SPAWNS):
                if server is not None:
                    server.close()
                    server = None
                server = common.ServerProcess(argv, env, work / "serve.log")
                response = loadgen.request_once(server.host, server.port, b'{"request_id":%d,' % -(i + 1) + probe)
                self.setup_s.append(time.perf_counter() - server.started)
                if not response.get("ok") or response.get("support") != probe_expect:
                    self.failed += 1
        except BaseException:
            if server is not None:
                server.close()
            raise
        self.server = server

    @property
    def address(self) -> "tuple[str, int]":
        return self.server.host, self.server.port

    def close(self) -> float:
        """Stop the server (it drains and writes its spans); return its peak RSS."""
        rss = self.server.rss_peak_mb()
        self.server.close()
        return rss


def _reference(compiled, name: str, Y: np.ndarray) -> "list[list[int]]":
    from repro.designs import make_decoder

    decoder = make_decoder(name).compile(compiled)
    return [np.flatnonzero(row).tolist() for row in decoder.decode_batch(Y, K)]


def _phase_row(res: loadgen.PhaseResult) -> dict:
    lat = common.summary(res.latencies_ms, TAIL_Q)
    return {
        "phase": res.name,
        "rate": res.rate,
        "attempted": res.attempted,
        "failed": res.failed,
        "errors": res.errors,
        "p50_ms": lat["p50"],
        "tail_q": lat["tail_q"],
        "tail_ms": lat["tail"],
        "backlog_ratio": res.backlog_ratio,
        "goodput_per_s": res.ok / res.wall_s if res.wall_s > 0 else 0.0,
        "send_lag_p50_ms": common.percentile(res.send_lag_ms, 50.0),
        "cpu_s": res.cpu_s,
    }


class _Load:
    """Runs open-loop phases against one server; request ids never repeat in a run."""

    def __init__(self, address, bodies, expected, rng, pick):
        self.address, self.bodies, self.expected, self.rng, self.pick = address, bodies, expected, rng, pick
        self.next_id = 1
        self.results: "list[loadgen.PhaseResult]" = []

    def run(self, name: str, rate: float, seconds: float, choice: "np.ndarray | None" = None) -> dict:
        count = max(1, int(round(rate * seconds))) if choice is None else len(choice)
        choice = self.pick(count) if choice is None else choice
        phase = loadgen.make_phase(name, rate, count, self.bodies, choice, self.expected, self.next_id, self.rng)
        self.next_id += count
        result = loadgen.run_phase(*self.address, phase, common.nproc())
        self.results.append(result)
        return _phase_row(result)


def _median(rows: "list[dict]", field: str) -> float:
    return float(np.median([row[field] for row in rows]))


def _serve(server: _Server, load: _Load, metrics: dict, samples: dict, rows: "list[dict]") -> dict:
    """The result object of a serve workload whose phases ``load`` ran."""
    timed = [r for r in load.results if r.name != "warmup"]
    failed = sum(r.failed for r in timed) + server.failed
    metrics = {"setup_s": float(np.median(server.setup_s)), **metrics}
    samples = {"setup_s": f"median of {SETUP_SPAWNS} server spawns", **samples, "rss_peak_mb": "server VmHWM"}
    return {
        "metrics": metrics,
        "samples": samples,
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in timed) + SETUP_SPAWNS,
        "failed": failed,
        "phases": rows,
        "setup_samples_s": server.setup_s,
        "gen": {"send_lag_ms": [v for r in timed for v in r.send_lag_ms], "cpu_s": sum(r.cpu_s for r in timed)},
    }


def run_hot(seed: int, seconds: float, spans=None) -> dict:
    """``serve-hot``: warm single-key server at n=10^4, m=2400, k=16, decoder mn."""
    from repro.core.signal import random_signals
    from repro.designs import DesignKey, DesignStore, compile_from_key

    work = common.fresh_workdir("hot")
    try:
        rng = np.random.default_rng([seed, 11])
        key = DesignKey.for_stream(N, HOT_M, root_seed=_seed_int(seed), batch_queries=256)
        compiled = compile_from_key(key)
        DesignStore(work / "store").publish(compiled)
        Y = compiled.query_results(random_signals(N, K, HOT_SIGNALS, rng))
        expected = _reference(compiled, "mn", Y)
        key_json = key.to_json()
        bodies = [loadgen.encode_body(key_json, y, K, "mn") for y in Y]
        del compiled, Y

        server = _Server(work / "store", work, bodies[0], expected[0], spans)
        try:
            load = _Load(server.address, bodies, expected, rng, lambda count: rng.integers(0, len(bodies), count))
            rows = [load.run("warmup", HOT_RPS, HOT_WARMUP_S)]
            for _ in range(ROUNDS):
                rows.append(load.run("light", HOT_RPS, max(1.0, seconds / ROUNDS - BURST_S)))
                rows.append(load.run("burst", HOT_BURST_RPS, BURST_S))
        finally:
            rss = server.close()
        light = [r for r in rows if r["phase"] == "light"]
        burst = [r for r in rows if r["phase"] == "burst"]
        return _serve(
            server,
            load,
            {
                "p50_ms": _median(light, "p50_ms"),
                "p90_ms": _median(light, "tail_ms"),
                "rate_per_s": _median(burst, "goodput_per_s"),
                "rss_peak_mb": rss,
            },
            {
                "p50_ms": f"{HOT_RPS:g}/s: median over {ROUNDS} rounds of the p50 of {light[0]['attempted']} requests",
                "p90_ms": f"{HOT_RPS:g}/s: median over {ROUNDS} rounds of the p{light[0]['tail_q']:g} of {light[0]['attempted']} requests",
                "rate_per_s": f"burst at {HOT_BURST_RPS:g}/s: median over {ROUNDS} rounds of correct responses per second ({burst[0]['attempted']} requests)",
            },
            rows,
        )
    finally:
        common.remove_workdir(work)


def run_churn(seed: int, seconds: float, spans=None) -> dict:
    """``serve-churn``: 12 keys at m=600, Zipf popularity, mixed decoders."""
    from repro.core.signal import random_signals
    from repro.designs import DesignKey, DesignStore, compile_from_key

    work = common.fresh_workdir("churn")
    try:
        rng = np.random.default_rng([seed, 23])
        base = _seed_int(seed) * CHURN_KEYS % (2**31 - CHURN_KEYS)
        keys = [DesignKey.for_stream(N, CHURN_M, root_seed=base + i, batch_queries=256) for i in range(CHURN_KEYS)]
        store = DesignStore(work / "store")
        bodies, expected = [], []
        for rank, key in enumerate(keys):
            compiled = compile_from_key(key)
            if rank % 2 == 0:  # every other popularity rank starts published
                store.publish(compiled)
            Y = compiled.query_results(random_signals(N, K, CHURN_SIGNALS, rng))
            name = CHURN_DECODERS.get(rank, "mn")
            bodies += [loadgen.encode_body(key.to_json(), y, K, name) for y in Y]
            expected += _reference(compiled, name, Y)
            del compiled
        del store

        popularity = 1.0 / np.arange(1, CHURN_KEYS + 1) ** CHURN_ZIPF
        popularity /= popularity.sum()

        def pick(count: int) -> np.ndarray:
            ranks = rng.choice(CHURN_KEYS, size=count, p=popularity)
            return ranks * CHURN_SIGNALS + rng.integers(0, CHURN_SIGNALS, size=count)

        server = _Server(work / "store", work, bodies[0], expected[0], spans)
        try:
            load = _Load(server.address, bodies, expected, rng, pick)
            # Touch every key once, least popular first: the cold half compiles
            # and publishes here, and the pool is left holding the most popular.
            rows = [load.run("warmup", CHURN_RPS, 0.0, np.arange(CHURN_KEYS)[::-1] * CHURN_SIGNALS)]
            for _ in range(ROUNDS):
                rows.append(load.run("churn", CHURN_RPS, max(1.0, seconds / ROUNDS - BURST_S)))
                rows.append(load.run("burst", CHURN_BURST_RPS, BURST_S))
        finally:
            rss = server.close()
        churn = common.summary([v for r in load.results if r.name == "churn" for v in r.latencies_ms], TAIL_Q)
        burst = [r for r in rows if r["phase"] == "burst"]
        return _serve(
            server,
            load,
            {
                "p50_ms": churn["p50"],
                "p90_ms": churn["tail"],
                "rate_per_s": _median(burst, "goodput_per_s"),
                "rss_peak_mb": rss,
            },
            {
                "p50_ms": f"{CHURN_RPS:g}/s: p50 of the {churn['count']} requests of {ROUNDS} rounds",
                "p90_ms": f"{CHURN_RPS:g}/s: p{churn['tail_q']:g} of the {churn['count']} requests of {ROUNDS} rounds",
                "rate_per_s": f"burst at {CHURN_BURST_RPS:g}/s: median over {ROUNDS} rounds of correct responses per second ({burst[0]['attempted']} requests)",
            },
            rows,
        )
    finally:
        common.remove_workdir(work)
