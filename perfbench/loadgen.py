"""Open-loop load generator for the ``serve`` NDJSON protocol.

One asyncio process, at most ``nproc`` pipelined TCP connections.  Arrival
times come from a seeded Poisson schedule fixed before the clock starts,
and every request line is encoded before then too, so the generator spends
its timed CPU on socket writes and on slicing the ``request_id`` out of
each response.  A request's latency runs from its *intended* send time to
the arrival of its response, so a stall also counts against the requests
queued behind it.  Responses are checked against the expected supports
only after the phase ends.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass

import numpy as np

#: Response lines are ``{"request_id":<int>,...`` (the server's encoder
#: writes ``request_id`` first); slicing it out keeps parsing off the clock.
_ID_PREFIX = b'{"request_id":'


def poisson_offsets(rate: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` arrival offsets (seconds from phase start) at ``rate`` per second."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


@dataclass
class Phase:
    """One open-loop phase: pre-encoded request lines and their schedule."""

    name: str
    rate: float
    lines: "list[bytes]"
    offsets: np.ndarray
    expected: "list[list[int]]"
    ids: "list[int]"


@dataclass
class PhaseResult:
    name: str
    rate: float
    attempted: int
    ok: int
    failed: int
    errors: "dict[str, int]"
    latencies_ms: "list[float]"  # every attempted request; failures at the grace limit
    send_lag_ms: "list[float]"
    wall_s: float
    cpu_s: float
    backlog_ratio: float  # last-quarter over first-quarter median latency

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def make_phase(name: str, rate: float, count: int, bodies: "list[bytes]", choice: np.ndarray,
               expected: "list[list[int]]", first_id: int, rng: np.random.Generator) -> Phase:
    """Phase of ``count`` requests; request ``i`` sends body ``choice[i]``.

    ``bodies`` are the encoded request fields after ``request_id`` (ending
    in ``}\\n``); ``expected[j]`` is body ``j``'s reference support.
    """
    ids = list(range(first_id, first_id + count))
    lines = [_ID_PREFIX + str(rid).encode() + b"," + bodies[int(c)] for rid, c in zip(ids, choice)]
    return Phase(name, rate, lines, poisson_offsets(rate, count, rng), [expected[int(c)] for c in choice], ids)


def _response_id(line: bytes) -> int:
    try:
        return int(line[len(_ID_PREFIX):line.index(b",", len(_ID_PREFIX))])
    except ValueError:
        rid = json.loads(line).get("request_id")
        return int(rid) if isinstance(rid, int) else -1


async def _run(host: str, port: int, phase: Phase, conns: int, grace_s: float) -> "tuple[dict, list[float], float, float]":
    streams = [await asyncio.open_connection(host, port, limit=1 << 22) for _ in range(conns)]
    received: "dict[int, tuple[float, bytes]]" = {}
    total = len(phase.lines)
    done = asyncio.Event()

    async def reader(r: asyncio.StreamReader) -> None:
        while True:
            line = await r.readline()
            if not line:
                return
            received[_response_id(line)] = (time.perf_counter(), line)
            if len(received) >= total:
                done.set()

    readers = [asyncio.ensure_future(reader(r)) for r, _ in streams]
    lags = []
    cpu0 = time.process_time()
    t0 = time.perf_counter() + 0.02
    try:
        for i, (line, offset) in enumerate(zip(phase.lines, phase.offsets)):
            due = t0 + float(offset)
            wait = due - time.perf_counter()
            if wait > 0.0005:
                await asyncio.sleep(wait)
            writer = streams[i % conns][1]
            lags.append((time.perf_counter() - due) * 1e3)
            writer.write(line)
            await writer.drain()
        try:
            await asyncio.wait_for(done.wait(), timeout=grace_s)
        except asyncio.TimeoutError:
            pass
    finally:
        cpu_s = time.process_time() - cpu0
        for _, writer in streams:
            writer.close()
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in streams:
            try:
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass
    return received, lags, t0, cpu_s


def run_phase(host: str, port: int, phase: Phase, conns: int, grace_s: float = 10.0) -> PhaseResult:
    """Drive one phase open-loop and check every response (after the clock)."""
    received, lags, t0, cpu_s = asyncio.run(_run(host, port, phase, conns, grace_s))
    errors: "dict[str, int]" = {}
    latencies = []
    ok = 0
    last = t0
    for rid, offset, expect in zip(phase.ids, phase.offsets, phase.expected):
        due = t0 + float(offset)
        got = received.get(rid)
        if got is None:
            errors["no_response"] = errors.get("no_response", 0) + 1
            latencies.append(grace_s * 1e3)
            continue
        t_recv, line = got
        last = max(last, t_recv)
        response = json.loads(line)
        if not response.get("ok"):
            code = str(response.get("error", {}).get("code"))
            errors[code] = errors.get(code, 0) + 1
            latencies.append(grace_s * 1e3)
        elif response.get("support") != expect:
            errors["wrong_support"] = errors.get("wrong_support", 0) + 1
            latencies.append(grace_s * 1e3)
        else:
            ok += 1
            latencies.append((t_recv - due) * 1e3)
    quarter = max(1, len(latencies) // 4)
    head, tail = np.median(latencies[:quarter]), np.median(latencies[-quarter:])
    return PhaseResult(
        name=phase.name,
        rate=phase.rate,
        attempted=len(phase.ids),
        ok=ok,
        failed=len(phase.ids) - ok,
        errors=errors,
        latencies_ms=latencies,
        send_lag_ms=lags,
        wall_s=last - t0,
        cpu_s=cpu_s,
        backlog_ratio=float(tail / head) if head > 0 else 1.0,
    )


async def _one(host: str, port: int, line: bytes, timeout_s: float) -> dict:
    reader, writer = await asyncio.open_connection(host, port, limit=1 << 22)
    try:
        writer.write(line)
        await writer.drain()
        return json.loads(await asyncio.wait_for(reader.readline(), timeout_s))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass


def request_once(host: str, port: int, line: bytes, timeout_s: float = 60.0) -> dict:
    """Send one request on a fresh connection and return its parsed response."""
    return asyncio.run(_one(host, port, line, timeout_s))


def encode_body(key_json: str, y: np.ndarray, k: int, decoder: str) -> bytes:
    """Request fields after ``request_id``, encoded once per distinct signal."""
    return (
        b'"design_key":' + json.dumps(key_json).encode()
        + b',"y":' + json.dumps([int(v) for v in y], separators=(",", ":")).encode()
        + b',"k":' + str(int(k)).encode()
        + b',"decoder":"' + decoder.encode() + b'"}\n'
    )
