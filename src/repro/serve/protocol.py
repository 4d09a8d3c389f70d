"""The serve wire protocol: newline-delimited JSON, one object per line.

One request line in, one response line out (order unconstrained —
responses carry the request's ``request_id``).  The same protocol runs
over both transports (:mod:`repro.serve.server` speaks it on a TCP socket
and on a stdin/stdout pipe pair), and it is deliberately dependency-light:
any language with a JSON codec and a line-buffered stream is a client.

Request (``decoder`` optional, everything else required)::

    {"request_id": <str|int>,
     "design_key": {<DesignKey canonical JSON fields>} | "<canonical JSON>",
     "y": [<int>, ...],          # the m observed query results
     "k": <int>,                 # signal weight to decode at
     "decoder": "<name>"}        # registry name; defaults to "mn"

``decoder`` selects the algorithm from the decoder registry
(:func:`repro.designs.available_decoders`); the server coalesces
micro-batches per ``(design_key, decoder)``, so one process serves every
registered family.

Success response::

    {"request_id": ..., "ok": true, "n": <int>, "k": <int>,
     "support": [<int>, ...]}    # sorted indices of the decoded 1s

Error response (the connection survives; only the offending request
fails)::

    {"request_id": ... | null, "ok": false,
     "error": {"code": "<code>", "message": "<human readable>"}}

Error codes are a closed set (:data:`ERROR_CODES`): ``bad_request``
(non-JSON line, wrong top-level type, missing/ill-typed fields),
``bad_key`` (unparseable or unservable design key), ``bad_y`` (wrong
length, a result that is not a non-negative ``int64`` count, a result
above the pool size ``Γ`` of a stream or sampled key, or results whose
sum — the bound on every ``Ψ`` entry — overflows ``int64``),
``bad_k`` (non-positive or out of range), ``overloaded`` (admission
queue full — resubmit later), ``unavailable`` (the key's circuit breaker
is open after repeated decode failures — resubmit after the cooldown),
``timeout`` (deadline elapsed before the decode ran), ``shutting_down``
(server draining), ``internal`` (unexpected decode failure).

Parsing never raises anything but :class:`ProtocolError`, which carries
the structured ``(code, message, request_id)`` triple the server turns
into an error response — a malformed line can never take the server (or
another client's request) down.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.designs import DesignKey

__all__ = [
    "ERROR_CODES",
    "ProtocolError",
    "DecodeRequest",
    "parse_request",
    "encode_success",
    "encode_error",
    "parse_response",
]

#: The closed set of structured error codes a response may carry.
ERROR_CODES = (
    "bad_request",
    "bad_key",
    "bad_y",
    "bad_k",
    "overloaded",
    "unavailable",
    "timeout",
    "shutting_down",
    "internal",
)

_INT64_MAX = int(np.iinfo(np.int64).max)

#: Cap on accepted request-line length (bytes).  Bounds per-connection
#: buffering the same way the admission queue bounds decode work; a 1M-entry
#: ``y`` of small ints fits comfortably.
MAX_LINE_BYTES = 8 * 1024 * 1024


class ProtocolError(Exception):
    """A structured wire-level failure: ``(code, message, request_id)``.

    ``request_id`` is the offending request's id when it could be
    extracted, else ``None`` — the client then correlates by order or
    gives up on the line, but the server never drops the connection.
    """

    def __init__(self, code: str, message: str, request_id: "str | int | None" = None):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message
        self.request_id = request_id


@dataclass(frozen=True)
class DecodeRequest:
    """One validated decode request, ready for the coalescer."""

    request_id: "str | int"
    key: DesignKey
    y: np.ndarray  # (m,) int64, frozen
    k: int
    decoder: str = "mn"  #: registry name; the coalescing key is (key, decoder)


def _parse_request_id(raw: dict) -> "str | int":
    request_id = raw.get("request_id")
    if isinstance(request_id, bool) or not isinstance(request_id, (str, int)):
        raise ProtocolError("bad_request", "request_id must be a string or integer")
    return request_id


def _parse_design_key(field: object, request_id: "str | int") -> DesignKey:
    """``design_key`` as a canonical-JSON string or the equivalent object."""
    if isinstance(field, str):
        payload = field
    elif isinstance(field, dict):
        payload = json.dumps(field, sort_keys=True)
    else:
        raise ProtocolError("bad_key", "design_key must be an object or canonical-JSON string", request_id)
    try:
        return DesignKey.from_json(payload)
    except ValueError as exc:
        raise ProtocolError("bad_key", str(exc), request_id) from exc


def parse_request(line: "str | bytes", *, default_decoder: str = "mn") -> DecodeRequest:
    """Validate one request line into a :class:`DecodeRequest`.

    Raises :class:`ProtocolError` — and only :class:`ProtocolError` — on
    any malformed input, carrying the offending ``request_id`` whenever
    the line got far enough to have one.  An absent ``decoder`` field
    resolves to ``default_decoder`` (the server's configured default); a
    present one must name a registered decoder.

    Examples
    --------
    >>> from repro.designs import DesignKey
    >>> import json
    >>> key = DesignKey.for_stream(16, 4, root_seed=0)
    >>> line = json.dumps({"request_id": "r1", "design_key": key.to_json(), "y": [0, 1, 2, 3], "k": 2})
    >>> req = parse_request(line)
    >>> (req.request_id, req.k, req.y.tolist())
    ('r1', 2, [0, 1, 2, 3])
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("bad_request", f"request line is not valid UTF-8: {exc}") from exc
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError("bad_request", f"request line exceeds {MAX_LINE_BYTES} bytes")
    try:
        raw = json.loads(line)
    except ValueError as exc:
        raise ProtocolError("bad_request", f"request line is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ProtocolError("bad_request", f"request must be a JSON object, got {type(raw).__name__}")
    request_id = _parse_request_id(raw)
    missing = [f for f in ("design_key", "y", "k") if f not in raw]
    if missing:
        raise ProtocolError("bad_request", f"missing required field(s): {', '.join(missing)}", request_id)
    key = _parse_design_key(raw["design_key"], request_id)

    y_field = raw["y"]
    if not isinstance(y_field, list):
        raise ProtocolError("bad_y", "y must be a list of integer query results", request_id)
    if len(y_field) != key.m:
        raise ProtocolError("bad_y", f"y has length {len(y_field)}, design key has m={key.m}", request_id)
    if not set(map(type, y_field)) <= {int}:  # exact type: no bool, float or str
        raise ProtocolError("bad_y", "y entries must be integers", request_id)
    try:
        y = np.asarray(y_field, dtype=np.int64)
    except OverflowError:
        raise ProtocolError("bad_y", "y entries must fit in int64", request_id) from None
    if (y < 0).any():
        raise ProtocolError("bad_y", "y entries are counts and must be non-negative", request_id)
    top = int(y.max(initial=0))
    if key.scheme in ("stream", "sampled") and isinstance(key.gamma, (int, float)) and top > key.gamma:
        # A query result counts the draws of one pool: it never exceeds Γ.
        raise ProtocolError("bad_y", f"y entry {top} exceeds the pool size Γ={key.gamma} of this design key", request_id)
    if y.size and top > _INT64_MAX // y.size and sum(y_field) > _INT64_MAX:
        raise ProtocolError("bad_y", "y entries sum past int64, so Ψ would overflow", request_id)
    y.setflags(write=False)

    k_field = raw["k"]
    if isinstance(k_field, bool) or not isinstance(k_field, int):
        raise ProtocolError("bad_k", "k must be an integer", request_id)
    if not 0 < k_field <= key.n:
        raise ProtocolError("bad_k", f"k={k_field} must satisfy 0 < k <= n={key.n}", request_id)

    decoder_field = raw.get("decoder", default_decoder)
    if not isinstance(decoder_field, str):
        raise ProtocolError("bad_request", "decoder must be a string naming a registered decoder", request_id)
    from repro.designs import available_decoders

    if decoder_field not in available_decoders():
        known = ", ".join(available_decoders())
        raise ProtocolError("bad_request", f"unknown decoder {decoder_field!r}; available: {known}", request_id)

    return DecodeRequest(request_id=request_id, key=key, y=y, k=k_field, decoder=decoder_field)


def encode_success(
    request_id: "str | int",
    support: np.ndarray,
    *,
    n: int,
    k: int,
    decoder: "str | None" = None,
) -> str:
    """One success response line (no trailing newline).

    ``decoder`` (when given) echoes the registry name the decode ran
    under, so clients multiplexing decoders over one connection can audit
    responses without correlating through their own request table.
    """
    payload = {
        "request_id": request_id,
        "ok": True,
        "n": int(n),
        "k": int(k),
        "support": [int(i) for i in support],
    }
    if decoder is not None:
        payload["decoder"] = decoder
    return json.dumps(payload, separators=(",", ":"))


def encode_error(request_id: "str | int | None", code: str, message: str) -> str:
    """One error response line (no trailing newline)."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    payload = {
        "request_id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }
    return json.dumps(payload, separators=(",", ":"))


def parse_response(line: "str | bytes") -> dict:
    """Decode one response line into its dict (client side).

    Raises ``ValueError`` on non-JSON or structurally invalid responses —
    a *server* bug, unlike :class:`ProtocolError` which models client
    mistakes the server reports back.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    raw = json.loads(line)
    if not isinstance(raw, dict) or "ok" not in raw or "request_id" not in raw:
        raise ValueError(f"malformed response line: {line!r}")
    if raw["ok"]:
        if not isinstance(raw.get("support"), list):
            raise ValueError(f"success response without support list: {line!r}")
    else:
        error = raw.get("error")
        if not isinstance(error, dict) or error.get("code") not in ERROR_CODES:
            raise ValueError(f"error response without structured error: {line!r}")
    return raw
