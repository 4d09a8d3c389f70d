"""Request coalescing: many single-signal requests, few ``decode_batch`` calls.

The serving economics of this codebase are batch-shaped — one
``(B, m) @ (m, n)`` GEMM amortises far better than ``B`` single-vector
decodes (the engine and design PRs measured ~5× at ``B = 64``,
``n = 10⁴``) — but network clients arrive one signal at a time.  The
:class:`Coalescer` bridges the two: requests for the same
``(design key, decoder)`` pair share a per-key bucket, and a micro-batch
forms when the **decode lane** takes it:

* a bucket with no batch in flight dispatches at once;
* requests that arrive while that batch is being admitted or waits for
  the lane join it when the lane takes it, up to ``--max-batch``;
* requests that arrive while it decodes form the bucket's next batch,
  which dispatches as soon as this one finishes.

Each bucket has at most one batch in flight, and every batch decodes
through one FIFO lane, so a burst merges into as few GEMMs as the decode
thread's pace allows, and a lone request at an idle server waits for
nothing.  There is no timer: the lane is the only place batches form (a
fixed wait for company at an idle bucket lost on throughput and latency
alike in ``benchmarks/bench_serve.py``).  Row results demultiplex back to
each awaiting request's future.  Because ``decode_batch`` is bit-identical
row-wise to ``decode`` (the :class:`~repro.designs.protocol.CompiledDecoder`
contract), coalescing changes *when* work runs, never what any client gets
back.

Robustness is structural, not best-effort:

* **bounded admission** — at most ``max_queue`` requests may be admitted
  (buffered or decoding) at once; beyond that :meth:`Coalescer.submit`
  raises a structured ``overloaded`` error immediately instead of growing
  a queue without bound (degrade-and-recover, never crash-on-burst);
* **per-design decoder LRU** — :class:`DecoderPool` holds at most
  ``max_designs`` attached decoders, each bound on first request
  (single-flight per key) to the design the pool resolved once through
  :func:`~repro.designs.compiled.resolve_compiled` (a store attach, or a
  compile), evicting least-recently-served designs;
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

CPU-heavy work runs off the event loop on two single-thread executors,
so the loop keeps accepting, parsing and timing out requests while NumPy
and ``hashlib`` (which release the GIL in their hot loops) work: the
coalescer's executor runs every batched GEMM + top-k, one at a time in
lane order, and the pool's executor runs admission — store attach,
verify and compile.  A batch resolves its decoder before it queues for
the lane, so a cold key's admission never holds up a warm key's decode.
The :class:`~repro.serve.server.DecodeServer` owns both threads
(``repro-serve-decode`` and ``repro-serve-admit``).
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.designs.compiled import resolve_compiled
from repro.faults import trip as _fault_trip
from repro.serve.breaker import CircuitBreaker
from repro.serve.protocol import DecodeRequest, ProtocolError

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from concurrent.futures import Executor

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
    """Per-``(design, decoder)`` LRU of attached decoders over the design store.

    ``get`` is read-through: an entry served for the first time resolves
    its design through :func:`~repro.designs.compiled.resolve_compiled`
    (an mmap attach from the :class:`~repro.designs.store.DesignStore`, or
    a compile) and binds the decoder to it, on ``executor`` — the server's
    admission thread, not its decode thread — single-flight per entry:
    concurrent batches for one cold entry await one admission.  The pool
    is the only serve code that touches the store.  It holds at most
    ``max_designs`` attached decoders; the least recently *served* one is
    dropped when a new entry crowds it out.

    ``decoders`` maps registry names to
    :class:`~repro.designs.protocol.Decoder` instances — the server passes
    the whole registry, so one pool serves every family keyed by
    ``(DesignKey, name)``; the first name is the default.
    """

    def __init__(
        self,
        decoders: "Mapping[str, Decoder]",
        *,
        max_designs: int = 8,
        store: "DesignStore | None" = None,
        executor: "Executor | None" = None,
    ):
        if max_designs < 1:
            raise ValueError("max_designs must be positive")
        self._decoders: "dict[str, Decoder]" = dict(decoders)
        if not self._decoders:
            raise ValueError("decoder mapping must not be empty")
        self.default_decoder = next(iter(self._decoders))
        self.max_designs = int(max_designs)
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
        """Executor-side admission: resolve the key's design once, bind the decoder to it."""
        key, name = entry_key
        return self._decoders[name].compile(resolve_compiled(key, store=self._store))

    def evict(self, key: "DesignKey", decoder: "str | None" = None) -> bool:
        """Drop the ``(key, decoder)`` attached decoder, if any.

        The retry path calls this after a failed ``decode_batch`` so the
        next :meth:`get` attaches a *fresh* decoder — recompiling through
        the store, where a corrupt entry quarantines and heals.  Returns
        whether an entry was evicted.
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
    """Groups admitted requests per design key into batches formed at the decode lane."""

    def __init__(
        self,
        pool: DecoderPool,
        *,
        max_batch: int = 64,
        max_queue: int = 1024,
        executor: "Executor | None" = None,
        decode_retries: int = 1,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 5.0,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        if decode_retries < 0:
            raise ValueError("decode_retries must be non-negative")
        self._pool = pool
        self.max_batch = int(max_batch)
        self.max_queue = int(max_queue)
        self.decode_retries = int(decode_retries)
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown_s = float(breaker_cooldown_s)
        self._executor = executor
        # Coalescing unit: one (design key, decoder name) pair — requests
        # for the same design under different decoders never share a GEMM.
        self._buckets: "dict[tuple[DesignKey, str], list[_Pending]]" = {}
        self._breakers: "dict[tuple[DesignKey, str], CircuitBreaker]" = {}
        # Buckets with a batch in flight: new requests only append, and the
        # batch takes them when it reaches the lane (or they form the next
        # batch once it finishes).
        self._busy: "set[tuple[DesignKey, str]]" = set()
        # The decode lane: asyncio.Lock wakes waiters first-in first-out,
        # so batches decode in the order they became ready, across keys.
        self._lane = asyncio.Lock()
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
        self.stats.admitted += 1
        self.stats.peak_admitted = max(self.stats.peak_admitted, self.stats.admitted)
        future: "asyncio.Future[np.ndarray]" = asyncio.get_running_loop().create_future()
        self._buckets.setdefault(bucket_key, []).append(_Pending(request, future))
        # A busy bucket's batch takes the request at the lane (or the next
        # batch does); an idle bucket dispatches it now.
        self._flush(bucket_key)
        return future

    # -- dispatch ---------------------------------------------------------------

    def _flush(self, bucket_key: "tuple[DesignKey, str]") -> None:
        """Dispatch the bucket's oldest ``max_batch`` requests unless a batch is in flight."""
        if bucket_key in self._busy:
            return
        pending = self._take(bucket_key, [])
        if not pending:
            return
        self._busy.add(bucket_key)
        task = asyncio.get_running_loop().create_task(self._run_batch(bucket_key, pending))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _take(self, bucket_key: "tuple[DesignKey, str]", pending: "list[_Pending]") -> "list[_Pending]":
        """Move the bucket's oldest requests into ``pending``, in place, up to ``max_batch``."""
        bucket = self._buckets.get(bucket_key)
        if bucket:
            room = self.max_batch - len(pending)
            pending.extend(bucket[:room])
            del bucket[:room]
        if not bucket:
            self._buckets.pop(bucket_key, None)
        return pending

    async def _run_batch(self, bucket_key: "tuple[DesignKey, str]", pending: "list[_Pending]") -> None:
        """Decode one micro-batch and demultiplex rows to the awaiting futures.

        The decoder is resolved before the batch queues for the decode
        lane, so an admission runs on the pool's thread while other batches
        decode, and the reference held here survives an eviction by other
        keys meanwhile.  Once the batch holds the lane, the requests that
        joined its bucket move into ``pending`` (in place, up to
        ``max_batch``) and the timed-out ones are dropped.

        A failed ``decode_batch`` evicts the key's decoder and retries on
        a freshly attached one (up to ``decode_retries`` times, each lookup
        outside the lane) — the store-level quarantine + recompile heals a
        corrupt artifact underneath.  The batch outcome (after retries)
        feeds the key's circuit breaker.  When the batch ends, whatever the
        bucket gathered meanwhile dispatches as its next batch.
        """
        key, decoder_name = bucket_key
        try:
            # Timed-out or cancelled requests have no one waiting: with none
            # live and none joined, there is nothing to look up or decode.
            if all(p.future.done() for p in pending) and bucket_key not in self._buckets:
                return
            loop = asyncio.get_running_loop()
            live: "list[_Pending] | None" = None
            supports: "list[np.ndarray] | None" = None
            for attempt in range(self.decode_retries + 1):
                try:
                    decoder = await self._pool.get(key, decoder_name)
                except Exception as exc:  # noqa: BLE001 - isolate arbitrary compile failures
                    if isinstance(exc, ProtocolError):
                        # A structured bad_key is the client's mistake, not
                        # service ill-health — it never trips the breaker.
                        error = exc
                    else:
                        self.breaker(key, decoder_name).record_failure()
                        self.stats.breaker_opens = sum(b.opens for b in self._breakers.values())
                        error = ProtocolError("internal", f"compilation failed: {exc}")
                    if live is None:  # requests that joined during the admission fail with it
                        self._take(bucket_key, pending)
                    self._fail(pending, error)
                    return
                async with self._lane:
                    if live is None:
                        self._take(bucket_key, pending)
                        live = [p for p in pending if not p.future.done()]
                        if not live:
                            return
                        Y = np.stack([p.request.y for p in live])
                        ks = [p.request.k for p in live]
                        # Uniform weights keep the scalar-k selection path;
                        # mixed weights use the ragged-k batch decode.  Both
                        # are row-wise bit-identical to the single-signal
                        # decode (the protocol contract), so grouping by
                        # (key, decoder) alone is safe.
                        k_arg: "int | np.ndarray" = ks[0] if len(set(ks)) == 1 else np.asarray(ks, dtype=np.int64)
                    try:
                        supports = await loop.run_in_executor(self._executor, _decode_supports, decoder, Y, k_arg)
                        if attempt:
                            self.stats.retries += 1
                        break
                    except Exception as exc:  # noqa: BLE001 - isolate arbitrary decode failures
                        # A decoder that just failed is suspect: drop it so
                        # the retry (or the next batch) attaches fresh
                        # through the store's self-repair path.
                        self._pool.evict(key, decoder_name)
                        if attempt >= self.decode_retries:
                            self.breaker(key, decoder_name).record_failure()
                            self.stats.breaker_opens = sum(b.opens for b in self._breakers.values())
                            self._fail(pending, ProtocolError("internal", f"decode failed: {exc}"))
                            return
            assert live is not None and supports is not None
            breaker = self._breakers.get(bucket_key)
            if breaker is not None:
                breaker.record_success()
            for p, support in zip(live, supports):
                if not p.future.done():  # timed-out/cancelled requests are skipped
                    p.future.set_result(support)
            self.stats.batches += 1
            self.stats.requests += len(live)
            self.stats.max_batch_seen = max(self.stats.max_batch_seen, len(live))
        finally:
            self.stats.admitted -= len(pending)
            self._busy.discard(bucket_key)
            self._flush(bucket_key)

    @staticmethod
    def _fail(pending: "list[_Pending]", error: ProtocolError) -> None:
        for p in pending:
            if not p.future.done():
                p.future.set_exception(ProtocolError(error.code, error.message, p.request.request_id))

    # -- drain ------------------------------------------------------------------

    def begin_drain(self) -> None:
        """Refuse new submissions.

        Nothing needs flushing: a request waits in a bucket only while that
        bucket's batch is in flight, and that batch takes it at the lane or
        dispatches it when it finishes.
        """
        self._draining = True

    async def drain(self) -> None:
        """Wait for every dispatched batch to finish (call after ``begin_drain``).

        A finishing batch dispatches what its bucket gathered, so this
        loops until no batch is left in flight.
        """
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)


def _decode_supports(decoder: "CompiledDecoder", Y: np.ndarray, k: "int | np.ndarray") -> "list[np.ndarray]":
    """Executor-side batch decode → per-row sorted support indices."""
    _fault_trip("serve.decode")
    rows = decoder.decode_batch(Y, k)
    return [np.flatnonzero(row) for row in rows]
