"""The asyncio decode service behind ``pooled-repro serve``.

One long-lived process owning a :class:`~repro.serve.coalescer.DecoderPool`
(attached decoders over the design store) and a
:class:`~repro.serve.coalescer.Coalescer` (per-key micro-batching), fed by
either transport:

* **TCP** — ``pooled-repro serve --host 127.0.0.1 --port 0`` accepts any
  number of concurrent connections; each connection pipelines requests
  (responses correlate by ``request_id``, not order);
* **stdio** — ``pooled-repro serve --stdio`` speaks the same protocol on
  the stdin/stdout pair, the dependency-light mode for supervisors that
  prefer pipes to sockets.

Lifecycle guarantees (the tentpole's robustness contract):

* a malformed line yields a structured error response for that line only —
  the connection and every other request survive;
* admission is bounded: past ``max_queue`` concurrently admitted requests,
  submissions are refused with a structured ``overloaded`` error *before*
  buffering anything;
* every admitted request resolves within ``timeout_ms`` or receives a
  structured ``timeout`` error;
* ``SIGTERM``/``SIGINT`` (and stdin EOF in stdio mode) trigger a graceful
  drain — stop admitting, decode what was admitted, deliver every
  response, then exit 0.

Batches form only at the decode lane (see :mod:`repro.serve.coalescer`):
there is no batching timer to tune.  The server types against the
:class:`~repro.designs.protocol.Decoder` protocol only and takes a mapping
of registry names to decoders — the CLI passes the whole registry.  Its
pool resolves each admitted key's design through the store once and binds
the named decoder to it.
"""

from __future__ import annotations

import asyncio
import math
import signal
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.serve.coalescer import Coalescer, DecoderPool
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    encode_error,
    encode_success,
    parse_request,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.designs.protocol import Decoder
    from repro.designs.store import DesignStore

__all__ = ["ServeConfig", "DecodeServer", "serve_forever"]


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of one serve process (see ``docs/serving.md``).

    The field defaults are the only defaults: each ``pooled-repro serve``
    flag overrides its field (``--max-batch`` sets ``max_batch``,
    ``--decoder`` sets ``default_decoder``), and an omitted flag keeps it.

    ``decode_retries`` failed ``decode_batch`` calls per micro-batch are
    retried on a freshly attached decoder before the batch fails;
    ``breaker_threshold`` consecutive batch failures for one key open its
    circuit breaker for ``breaker_cooldown_ms`` (requests fast-fail with
    ``unavailable`` until a half-open probe succeeds).

    ``default_decoder`` names the registry decoder a request without an
    explicit ``decoder`` field runs under.
    """

    max_batch: int = 64
    max_queue: int = 1024
    timeout_ms: float = 10_000.0
    max_designs: int = 8
    drain_timeout_s: float = 30.0
    decode_retries: int = 1
    breaker_threshold: int = 5
    breaker_cooldown_ms: float = 5000.0
    default_decoder: str = "mn"

    def __post_init__(self) -> None:
        # NaN passes every ordered comparison below, and asyncio takes a NaN
        # or infinite timeout as "no deadline": check finiteness first.
        for name in ("timeout_ms", "drain_timeout_s", "breaker_cooldown_ms"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.max_batch < 1 or self.max_queue < 1 or self.max_designs < 1:
            raise ValueError("max_batch, max_queue and max_designs must be positive")
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")
        if self.decode_retries < 0:
            raise ValueError("decode_retries must be non-negative")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be positive")
        if self.breaker_cooldown_ms < 0:
            raise ValueError("breaker_cooldown_ms must be non-negative")
        if self.drain_timeout_s < 0:
            raise ValueError("drain_timeout_s must be non-negative")
        if not self.default_decoder or not isinstance(self.default_decoder, str):
            raise ValueError("default_decoder must be a non-empty string")

    @property
    def timeout_s(self) -> float:
        return self.timeout_ms / 1e3

    @property
    def breaker_cooldown_s(self) -> float:
        return self.breaker_cooldown_ms / 1e3


class DecodeServer:
    """The coalescing decode service, transport-agnostic core.

    Parameters
    ----------
    decoders:
        A mapping of registry names to
        :class:`~repro.designs.protocol.Decoder` instances — the server
        never imports a concrete decoder class.
    config:
        The :class:`ServeConfig` knobs.
    store:
        Optional :class:`~repro.designs.store.DesignStore` the pool
        resolves every admitted key through (ambient
        ``REPRO_DESIGN_STORE`` resolution happens in the CLI, not here).
        The pool is the only in-process tier: one attached decoder per
        ``(key, decoder)``.
    """

    def __init__(
        self,
        decoders: "Mapping[str, Decoder]",
        config: "ServeConfig | None" = None,
        *,
        store: "DesignStore | None" = None,
    ):
        self.config = config if config is not None else ServeConfig()
        # Two single-thread executors.  Decodes serialise on one (one GEMM
        # at a time keeps BLAS unconflicted); store attach, verify and
        # compile run on the other, so a cold key's admission never queues
        # a warm key's decode behind it.  The loop keeps admitting and
        # timing out requests meanwhile.
        from concurrent.futures import ThreadPoolExecutor

        self._executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-serve-decode")
        self._admit_executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-serve-admit")
        self.pool = DecoderPool(
            decoders,
            max_designs=self.config.max_designs,
            store=store,
            executor=self._admit_executor,
        )
        self.coalescer = Coalescer(
            self.pool,
            max_batch=self.config.max_batch,
            max_queue=self.config.max_queue,
            executor=self._executor,
            decode_retries=self.config.decode_retries,
            breaker_threshold=self.config.breaker_threshold,
            breaker_cooldown_s=self.config.breaker_cooldown_s,
        )
        self._request_tasks: "set[asyncio.Task]" = set()
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._connections: "set[asyncio.StreamWriter]" = {*()}
        self._tcp_server: "asyncio.base_events.Server | None" = None
        self._stopping = asyncio.Event()

    # -- request handling -------------------------------------------------------

    async def _process_line(self, line: bytes, send) -> None:
        """One request line → exactly one response line, never an exception."""
        try:
            request = parse_request(line, default_decoder=self.config.default_decoder)
        except ProtocolError as exc:
            await send(encode_error(exc.request_id, exc.code, exc.message))
            return
        try:
            future = self.coalescer.submit(request)
        except ProtocolError as exc:
            await send(encode_error(exc.request_id, exc.code, exc.message))
            return
        try:
            support = await asyncio.wait_for(future, self.config.timeout_s)
        except asyncio.TimeoutError:
            await send(encode_error(request.request_id, "timeout", f"deadline of {self.config.timeout_ms:g}ms elapsed before the decode ran"))
            return
        except ProtocolError as exc:
            await send(encode_error(request.request_id, exc.code, exc.message))
            return
        await send(encode_success(request.request_id, support, n=request.key.n, k=request.k, decoder=request.decoder))

    async def handle_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """Serve one NDJSON stream until EOF (shared by TCP and stdio)."""
        self._connections.add(writer)
        conn_task = asyncio.current_task()
        if conn_task is not None:
            self._conn_tasks.add(conn_task)
        write_lock = asyncio.Lock()

        async def send(response: str) -> None:
            async with write_lock:
                writer.write(response.encode("utf-8") + b"\n")
                try:
                    await writer.drain()
                except (ConnectionError, RuntimeError):  # client went away mid-response
                    pass

        tasks: "set[asyncio.Task]" = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # An over-long line cannot be resynchronised reliably;
                    # report it and end this connection (others unaffected).
                    await send(encode_error(None, "bad_request", f"request line exceeds the {MAX_LINE_BYTES}-byte limit"))
                    break
                except ConnectionError:
                    break
                if not line:
                    break  # EOF
                if not line.strip():
                    continue
                task = asyncio.ensure_future(self._process_line(line, send))
                tasks.add(task)
                self._request_tasks.add(task)
                task.add_done_callback(tasks.discard)
                task.add_done_callback(self._request_tasks.discard)
            if tasks:
                await asyncio.gather(*list(tasks), return_exceptions=True)
        finally:
            self._connections.discard(writer)
            if conn_task is not None:
                self._conn_tasks.discard(conn_task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    # -- transports -------------------------------------------------------------

    async def start_tcp(self, host: str = "127.0.0.1", port: int = 0) -> "tuple[str, int]":
        """Bind the TCP transport; returns the actual ``(host, port)``."""
        self._tcp_server = await asyncio.start_server(
            self.handle_connection,
            host,
            port,
            limit=MAX_LINE_BYTES + 1024,
        )
        bound = self._tcp_server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def serve_stdio(self) -> None:
        """Speak the protocol on this process's stdin/stdout pair."""
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader(limit=MAX_LINE_BYTES + 1024)
        await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)
        w_transport, w_protocol = await loop.connect_write_pipe(asyncio.streams.FlowControlMixin, sys.stdout)
        writer = asyncio.StreamWriter(w_transport, w_protocol, reader, loop)
        await self.handle_connection(reader, writer)

    # -- lifecycle --------------------------------------------------------------

    def request_stop(self) -> None:
        """Signal-safe stop request: begins the graceful drain."""
        self._stopping.set()

    async def wait_stopped(self) -> None:
        await self._stopping.wait()

    async def drain(self) -> None:
        """Graceful drain: admit nothing new, decode and answer the admitted.

        1. stop accepting connections; 2. refuse new submissions
        (``shutting_down``); 3. wait for dispatched batches; 4. wait for response writes (bounded by
        ``drain_timeout_s``); 5. close connections and decoders, and join
        the decode and admission threads.
        """
        if self._tcp_server is not None:
            self._tcp_server.close()
        self.coalescer.begin_drain()
        await self.coalescer.drain()
        if self._request_tasks:
            # Every future is resolved; give the response writers a bounded
            # window to flush (a wedged client cannot hold the drain open).
            await asyncio.wait(list(self._request_tasks), timeout=self.config.drain_timeout_s)
        for writer in list(self._connections):
            try:
                writer.close()
            except RuntimeError:  # pragma: no cover - transport already gone
                pass
        if self._conn_tasks:
            # Closed transports feed EOF to the readers, so handlers exit
            # cleanly within the grace window; stragglers (a reader that
            # cannot see the close, e.g. a still-open stdin) are cancelled.
            _done, stragglers = await asyncio.wait(list(self._conn_tasks), timeout=1.0)
            for task in stragglers:
                task.cancel()
            if stragglers:
                await asyncio.gather(*stragglers, return_exceptions=True)
        if self._tcp_server is not None:
            await self._tcp_server.wait_closed()
        self.pool.close()
        self._executor.shutdown(wait=True)
        self._admit_executor.shutdown(wait=True)


async def serve_forever(
    decoders: "Mapping[str, Decoder]",
    config: "ServeConfig | None" = None,
    *,
    stdio: bool = False,
    host: str = "127.0.0.1",
    port: int = 0,
    store: "DesignStore | None" = None,
    ready: "Optional[asyncio.Future]" = None,
    install_signal_handlers: bool = True,
) -> None:
    """Run a :class:`DecodeServer` until SIGTERM/SIGINT (or stdin EOF), then drain.

    ``ready`` (an optional future) resolves to the bound ``(host, port)``
    once the TCP transport is listening — how in-process tests and the
    benchmark learn the ephemeral port.  In stdio mode it resolves to
    ``None`` when the stream handler is up.
    """
    server = DecodeServer(
        decoders,
        config,
        store=store,
    )
    loop = asyncio.get_running_loop()
    if install_signal_handlers:
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, server.request_stop)
            except (NotImplementedError, RuntimeError):  # pragma: no cover - non-POSIX loop
                pass
    try:
        if stdio:
            if ready is not None and not ready.done():
                ready.set_result(None)
            stdio_task = asyncio.ensure_future(server.serve_stdio())
            stop_task = asyncio.ensure_future(server.wait_stopped())
            # stdin EOF is the pipe-world SIGTERM: either ends the serve loop.
            await asyncio.wait({stdio_task, stop_task}, return_when=asyncio.FIRST_COMPLETED)
            stop_task.cancel()
            await server.drain()
            # The stdio handler ends once its writer closes in drain().
            await asyncio.gather(stdio_task, return_exceptions=True)
        else:
            bound = await server.start_tcp(host, port)
            if ready is not None and not ready.done():
                ready.set_result(bound)
            print(f"serving on {bound[0]}:{bound[1]}", flush=True)
            await server.wait_stopped()
            await server.drain()
        stats = server.coalescer.stats
        print(
            f"drained: {stats.requests} requests in {stats.batches} batches "
            f"(mean batch {stats.mean_batch:.1f}, peak queue {stats.peak_admitted}, "
            f"overloaded {stats.overloaded})",
            file=sys.stderr,
            flush=True,
        )
    finally:
        if install_signal_handlers:
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.remove_signal_handler(sig)
                except (NotImplementedError, RuntimeError, ValueError):  # pragma: no cover
                    pass
