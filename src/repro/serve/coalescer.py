"""Request coalescing: many single-signal requests, few ``decode_batch`` calls.

The serving economics of this codebase are batch-shaped — one
``(B, m) @ (m, n)`` GEMM amortises far better than ``B`` single-vector
decodes (the engine and design PRs measured ~5× at ``B = 64``,
``n = 10⁴``) — but network clients arrive one signal at a time.  The
:class:`Coalescer` bridges the two: concurrent requests for the *same
design key* accumulate in a per-key bucket that flushes onto
:meth:`~repro.designs.protocol.CompiledDecoder.decode_batch` when either

* the **batch window** elapses (``--batch-window-ms`` — the latency an
  idle request is willing to spend waiting for company), or
* the bucket reaches **max batch** (``--max-batch`` — flush immediately,
  a full GEMM is waiting).

Row results demultiplex back to each awaiting request's future.  Because
``decode_batch`` is bit-identical row-wise to ``decode`` (the
:class:`~repro.designs.protocol.CompiledDecoder` contract), coalescing
changes *when* work runs, never what any client gets back.

Robustness is structural, not best-effort:

* **bounded admission** — at most ``max_queue`` requests may be admitted
  (buffered or decoding) at once; beyond that :meth:`Coalescer.submit`
  raises a structured ``overloaded`` error immediately instead of growing
  a queue without bound (degrade-and-recover, never crash-on-burst);
* **per-design decoder LRU** — :class:`DecoderPool` holds at most
  ``max_designs`` attached decoders, read-through compiled from the L1/L2
  design cache/store on first request (single-flight per key), evicting
  least-recently-served designs;
* **isolation** — a failing compile or decode fails exactly the requests
  in that batch, each with a structured error; the loop, the pool and
  other keys' batches are untouched;
* **retry on a fresh decoder** — a failed ``decode_batch`` evicts the
  key's decoder and retries once on a freshly attached one (a corrupt
  store entry quarantines and recompiles underneath), so a transient
  artifact fault heals invisibly;
* **per-key circuit breaker** — ``breaker_threshold`` consecutive batch
  failures open a :class:`~repro.serve.breaker.CircuitBreaker` for that
  key: requests fast-fail with a structured ``unavailable`` error (no
  executor work, no queue residency) until a cooldown admits a half-open
  probe; one good batch closes the breaker.  One persistently bad design
  degrades; every other key serves normally.

CPU-heavy work (compilation, the batched GEMM + top-k) runs on a
single-thread executor so the event loop keeps accepting, parsing and
timing out requests while NumPy (which releases the GIL in the hot
kernels) decodes.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.faults import trip as _fault_trip
from repro.serve.breaker import CircuitBreaker
from repro.serve.protocol import DecodeRequest, ProtocolError

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from concurrent.futures import Executor

    from repro.designs.cache import DesignCache
    from repro.designs.compiled import DesignKey
    from repro.designs.protocol import CompiledDecoder, Decoder
    from repro.designs.store import DesignStore

__all__ = ["Coalescer", "DecoderPool", "CoalescerStats"]


@dataclass
class CoalescerStats:
    """Live telemetry — exposed in logs, the benchmark payload and tests."""

    admitted: int = 0  #: requests currently admitted (buffered or decoding)
    peak_admitted: int = 0  #: high-water mark of ``admitted``
    batches: int = 0  #: ``decode_batch`` dispatches
    requests: int = 0  #: requests served through those batches
    overloaded: int = 0  #: submissions refused by the admission bound
    max_batch_seen: int = 0  #: largest micro-batch dispatched
    retries: int = 0  #: batches decoded successfully on a fresh-decoder retry
    unavailable: int = 0  #: submissions fast-failed by an open circuit breaker
    breaker_opens: int = 0  #: closed/half-open → open breaker transitions

    @property
    def mean_batch(self) -> float:
        """Mean micro-batch size (0.0 before the first dispatch)."""
        return self.requests / self.batches if self.batches else 0.0


class DecoderPool:
    """Per-``(design, decoder)`` LRU of attached decoders over the cache/store layers.

    ``get`` is read-through: an entry served for the first time compiles
    (or mmap-attaches from the L2 :class:`~repro.designs.store.DesignStore`)
    on the executor, single-flight per entry — concurrent batches for one
    cold entry await one compilation.  The pool holds at most
    ``max_designs`` attached decoders; the least recently *served* one is
    dropped when a new entry crowds it out.

    ``decoder`` may be a single :class:`~repro.designs.protocol.Decoder`
    (the historical single-algorithm pool; served under the name ``mn``)
    or a mapping of registry names to decoders — the multi-decoder server
    passes the whole registry, so one pool serves every family keyed by
    ``(DesignKey, name)``.
    """

    def __init__(
        self,
        decoder: "Decoder | Mapping[str, Decoder]",
        *,
        max_designs: int = 8,
        cache: "DesignCache | None" = None,
        store: "DesignStore | None" = None,
        executor: "Executor | None" = None,
    ):
        if max_designs < 1:
            raise ValueError("max_designs must be positive")
        if isinstance(decoder, Mapping):
            if not decoder:
                raise ValueError("decoder mapping must not be empty")
            self._decoders: "dict[str, Decoder]" = dict(decoder)
        else:
            self._decoders = {"mn": decoder}
        self.default_decoder = next(iter(self._decoders))
        self.max_designs = int(max_designs)
        self._cache = cache
        self._store = store
        self._executor = executor
        self._entries: "OrderedDict[tuple[DesignKey, str], CompiledDecoder]" = OrderedDict()
        self._inflight: "dict[tuple[DesignKey, str], asyncio.Task]" = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def decoder_names(self) -> "tuple[str, ...]":
        """The decoder names this pool can serve."""
        return tuple(self._decoders)

    def _resolve_name(self, decoder: "str | None") -> str:
        name = self.default_decoder if decoder is None else decoder
        if name not in self._decoders:
            known = ", ".join(self._decoders)
            raise ProtocolError("bad_request", f"decoder {name!r} is not served here; available: {known}")
        return name

    async def get(self, key: "DesignKey", decoder: "str | None" = None) -> "CompiledDecoder":
        """The attached decoder for ``(key, decoder)`` (read-through on a miss).

        Raises :class:`~repro.serve.protocol.ProtocolError` (``bad_key``)
        when the key cannot be served — unknown scheme with no store
        entry, or a key whose compilation rejects it — and
        (``bad_request``) for a decoder name the pool does not hold.
        """
        name = self._resolve_name(decoder)
        entry_key = (key, name)
        entry = self._entries.get(entry_key)
        if entry is not None:
            self._entries.move_to_end(entry_key)
            self.hits += 1
            return entry
        self.misses += 1
        inflight = self._inflight.get(entry_key)
        if inflight is None:
            inflight = asyncio.get_running_loop().create_task(self._admit(entry_key))
            self._inflight[entry_key] = inflight
            inflight.add_done_callback(lambda _t: self._inflight.pop(entry_key, None))
        # shield: one waiter timing out must not cancel the shared compile.
        return await asyncio.shield(inflight)

    async def _admit(self, entry_key: "tuple[DesignKey, str]") -> "CompiledDecoder":
        loop = asyncio.get_running_loop()
        try:
            compiled = await loop.run_in_executor(self._executor, self._compile, entry_key)
        except (ValueError, TypeError) as exc:
            raise ProtocolError("bad_key", f"design key cannot be served: {exc}") from exc
        self._entries[entry_key] = compiled
        self._entries.move_to_end(entry_key)
        while len(self._entries) > self.max_designs:
            self._entries.popitem(last=False)
            self.evictions += 1
        return compiled

    def _compile(self, entry_key: "tuple[DesignKey, str]") -> "CompiledDecoder":
        """Executor-side compile — the only place the Decoder protocol is used."""
        key, name = entry_key
        return self._decoders[name].compile(key, cache=self._cache, store=self._store)

    def evict(self, key: "DesignKey", decoder: "str | None" = None) -> bool:
        """Drop the ``(key, decoder)`` attached decoder, if any.

        The retry path calls this after a failed ``decode_batch`` so the
        next :meth:`get` attaches a *fresh* decoder — recompiling through
        the cache/store layers, where a corrupt L2 entry quarantines and
        heals.  Returns whether an entry was evicted.
        """
        name = self.default_decoder if decoder is None else decoder
        if self._entries.pop((key, name), None) is None:
            return False
        self.evictions += 1
        return True

    def close(self) -> None:
        """Drop every attached decoder (drain-time cleanup)."""
        self._entries.clear()


@dataclass
class _Pending:
    request: DecodeRequest
    future: "asyncio.Future[np.ndarray]" = field(repr=False)


class Coalescer:
    """Groups admitted requests per design key into deadline/size batches."""

    def __init__(
        self,
        pool: DecoderPool,
        *,
        window_s: float = 0.002,
        max_batch: int = 64,
        max_queue: int = 1024,
        executor: "Executor | None" = None,
        decode_retries: int = 1,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 5.0,
    ):
        if window_s < 0:
            raise ValueError("window_s must be non-negative")
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        if decode_retries < 0:
            raise ValueError("decode_retries must be non-negative")
        self._pool = pool
        self.window_s = float(window_s)
        self.max_batch = int(max_batch)
        self.max_queue = int(max_queue)
        self.decode_retries = int(decode_retries)
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown_s = float(breaker_cooldown_s)
        self._executor = executor
        # Coalescing unit: one (design key, decoder name) pair — requests
        # for the same design under different decoders never share a GEMM.
        self._buckets: "dict[tuple[DesignKey, str], list[_Pending]]" = {}
        self._timers: "dict[tuple[DesignKey, str], asyncio.TimerHandle]" = {}
        self._breakers: "dict[tuple[DesignKey, str], CircuitBreaker]" = {}
        self._tasks: "set[asyncio.Task]" = set()
        self._draining = False
        self.stats = CoalescerStats()

    def _bucket_key(self, key: "DesignKey", decoder: "str | None") -> "tuple[DesignKey, str]":
        return (key, self._pool.default_decoder if decoder is None else decoder)

    def breaker(self, key: "DesignKey", decoder: "str | None" = None) -> CircuitBreaker:
        """The (lazily created) circuit breaker guarding ``(key, decoder)``."""
        bucket_key = self._bucket_key(key, decoder)
        b = self._breakers.get(bucket_key)
        if b is None:
            b = self._breakers[bucket_key] = CircuitBreaker(self.breaker_threshold, self.breaker_cooldown_s)
        return b

    def submit(self, request: DecodeRequest) -> "asyncio.Future[np.ndarray]":
        """Admit one request; the future resolves to its support indices.

        Raises :class:`~repro.serve.protocol.ProtocolError` with code
        ``overloaded`` when the admission queue is full (explicit
        backpressure — the request was **not** buffered), ``unavailable``
        when the key's circuit breaker is open (fast structured failure,
        no executor work) and ``shutting_down`` once a drain began.
        """
        if self._draining:
            raise ProtocolError("shutting_down", "server is draining; no new requests admitted", request.request_id)
        if self.stats.admitted >= self.max_queue:
            self.stats.overloaded += 1
            raise ProtocolError(
                "overloaded",
                f"admission queue full ({self.max_queue} requests pending); retry later",
                request.request_id,
            )
        bucket_key = self._bucket_key(request.key, request.decoder)
        breaker = self._breakers.get(bucket_key)
        if breaker is not None and not breaker.allow():
            self.stats.unavailable += 1
            raise ProtocolError(
                "unavailable",
                f"design key is failing (circuit breaker {breaker.state}); retry after cooldown",
                request.request_id,
            )
        loop = asyncio.get_running_loop()
        self.stats.admitted += 1
        self.stats.peak_admitted = max(self.stats.peak_admitted, self.stats.admitted)
        future: "asyncio.Future[np.ndarray]" = loop.create_future()
        bucket = self._buckets.setdefault(bucket_key, [])
        bucket.append(_Pending(request, future))
        if len(bucket) >= self.max_batch:
            self._flush(bucket_key)
        elif len(bucket) == 1:
            # First request opens the batch window for its bucket; the timer
            # is cancelled if the size trigger (or a drain) flushes first.
            self._timers[bucket_key] = loop.call_later(self.window_s, self._flush, bucket_key)
        return future

    # -- dispatch ---------------------------------------------------------------

    def _flush(self, bucket_key: "tuple[DesignKey, str]") -> None:
        timer = self._timers.pop(bucket_key, None)
        if timer is not None:
            timer.cancel()
        pending = self._buckets.pop(bucket_key, None)
        if not pending:
            return
        task = asyncio.get_running_loop().create_task(self._run_batch(bucket_key, pending))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run_batch(self, bucket_key: "tuple[DesignKey, str]", pending: "list[_Pending]") -> None:
        """Decode one micro-batch and demultiplex rows to the awaiting futures.

        A failed ``decode_batch`` evicts the key's decoder and retries on
        a freshly attached one (up to ``decode_retries`` times) — the
        store-level quarantine + recompile heals a corrupt artifact
        underneath.  The batch outcome (after retries) feeds the key's
        circuit breaker.
        """
        key, decoder_name = bucket_key
        admitted = len(pending)
        # Timed-out or cancelled requests have no one waiting: decode only
        # the live rows, and nothing at all when none are left.
        pending = [p for p in pending if not p.future.done()]
        try:
            if not pending:
                return
            Y = np.stack([p.request.y for p in pending])
            ks = [p.request.k for p in pending]
            # Uniform weights keep the scalar-k selection path; mixed
            # weights use the ragged-k batch decode.  Both are row-wise
            # bit-identical to the single-signal decode (the protocol
            # contract), so grouping by (key, decoder) alone is safe.
            k_arg: "int | np.ndarray" = ks[0] if len(set(ks)) == 1 else np.asarray(ks, dtype=np.int64)
            loop = asyncio.get_running_loop()
            supports: "list[np.ndarray] | None" = None
            for attempt in range(self.decode_retries + 1):
                try:
                    decoder = await self._pool.get(key, decoder_name)
                except ProtocolError as exc:
                    # A structured bad_key is the client's mistake, not
                    # service ill-health — it never trips the breaker.
                    self._fail(pending, exc)
                    return
                except Exception as exc:  # noqa: BLE001 - isolate arbitrary compile failures
                    self.breaker(key, decoder_name).record_failure()
                    self.stats.breaker_opens = sum(b.opens for b in self._breakers.values())
                    self._fail(pending, ProtocolError("internal", f"compilation failed: {exc}"))
                    return
                try:
                    supports = await loop.run_in_executor(self._executor, _decode_supports, decoder, Y, k_arg)
                    if attempt:
                        self.stats.retries += 1
                    break
                except Exception as exc:  # noqa: BLE001 - isolate arbitrary decode failures
                    # A decoder that just failed is suspect: drop it so the
                    # retry (or the next batch) attaches fresh through the
                    # cache/store self-repair path.
                    self._pool.evict(key, decoder_name)
                    if attempt >= self.decode_retries:
                        self.breaker(key, decoder_name).record_failure()
                        self.stats.breaker_opens = sum(b.opens for b in self._breakers.values())
                        self._fail(pending, ProtocolError("internal", f"decode failed: {exc}"))
                        return
            assert supports is not None
            breaker = self._breakers.get(bucket_key)
            if breaker is not None:
                breaker.record_success()
            for p, support in zip(pending, supports):
                if not p.future.done():  # timed-out/cancelled requests are skipped
                    p.future.set_result(support)
            self.stats.batches += 1
            self.stats.requests += len(pending)
            self.stats.max_batch_seen = max(self.stats.max_batch_seen, len(pending))
        finally:
            self.stats.admitted -= admitted

    @staticmethod
    def _fail(pending: "list[_Pending]", error: ProtocolError) -> None:
        for p in pending:
            if not p.future.done():
                p.future.set_exception(ProtocolError(error.code, error.message, p.request.request_id))

    # -- drain ------------------------------------------------------------------

    def begin_drain(self) -> None:
        """Refuse new submissions and flush every open bucket immediately."""
        self._draining = True
        for key in list(self._buckets):
            self._flush(key)

    async def drain(self) -> None:
        """Wait for every dispatched batch to finish (call after ``begin_drain``)."""
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)


def _decode_supports(decoder: "CompiledDecoder", Y: np.ndarray, k: "int | np.ndarray") -> "list[np.ndarray]":
    """Executor-side batch decode → per-row sorted support indices."""
    _fault_trip("serve.decode")
    rows = decoder.decode_batch(Y, k)
    return [np.flatnonzero(row) for row in rows]
