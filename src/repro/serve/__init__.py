"""``pooled-repro serve`` — the async decode service with request coalescing.

The first component of the stack that *serves* rather than simulates:
PRs 1–6 built the batched engine, the compiled-design lifecycle, the
cross-process :class:`~repro.designs.store.DesignStore` and the GEMM
kernels; this package puts concurrent traffic on top of them through a
dependency-light newline-delimited-JSON protocol (stdin/stdout or TCP):

* :mod:`repro.serve.protocol` — the wire format: request/response lines,
  the closed structured-error vocabulary, parse-never-crashes validation;
* :mod:`repro.serve.coalescer` — per-design-key micro-batching
  (deadline- or size-triggered) onto
  :meth:`~repro.designs.protocol.CompiledDecoder.decode_batch`, the
  bounded admission queue, and the per-design decoder LRU over the
  design store;
* :mod:`repro.serve.breaker` — the per-design-key circuit breaker
  (closed → open → half-open) behind the structured ``unavailable``
  degradation path;
* :mod:`repro.serve.server` — the asyncio front-end: both transports,
  per-request deadlines, graceful drain on SIGTERM;
* :mod:`repro.serve.client` — the bundled pipelined client (tests, CI
  smoke, the load benchmark, and a reference for other languages), with
  opt-in reconnect + replay of unanswered requests.

The whole layer types against the unified
:class:`~repro.designs.protocol.Decoder` protocol — plugging a ported
baseline into the server is a CLI change, not a serving-layer change.
Every served decode is bit-identical to the offline one-shot paths on the
same ``(design_key, y, k)``; coalescing only changes when work runs.
"""

from repro.serve.breaker import CircuitBreaker
from repro.serve.client import ServeClient
from repro.serve.coalescer import Coalescer, CoalescerStats, DecoderPool
from repro.serve.protocol import (
    ERROR_CODES,
    DecodeRequest,
    ProtocolError,
    encode_error,
    encode_success,
    parse_request,
    parse_response,
)
from repro.serve.server import DecodeServer, ServeConfig, serve_forever

__all__ = [
    "ERROR_CODES",
    "ProtocolError",
    "DecodeRequest",
    "parse_request",
    "parse_response",
    "encode_success",
    "encode_error",
    "CircuitBreaker",
    "Coalescer",
    "CoalescerStats",
    "DecoderPool",
    "DecodeServer",
    "ServeConfig",
    "serve_forever",
    "ServeClient",
]
