"""In-memory spans around the program's public calls, installed by patching.

:func:`install` replaces the names the program's callers look up (a module
global such as ``repro.serve.server.parse_request``, or a class attribute
such as ``DesignStore.get``) with thin wrappers that time each call with
``perf_counter_ns`` and append a span to a :class:`Tracer`.  Nothing under
``src/`` changes, and an untraced process never imports this module.

Spans carry the id of the span that was open on the same thread when they
started, so a layer's self time is its duration minus its children's.
Coroutine wrappers (``DecoderPool.get`` and the coalescer's batch runner)
record plain intervals instead, because other tasks interleave with them on
the event loop thread.

The serve path has no public call that sees which requests share a
micro-batch, so the coalescer's batch runner, ``Coalescer._run_batch``, is
the one private method wrapped; the ``DecoderPool`` wrapper also reads the
pool's private entry and in-flight tables to tell an admission from a hit.  Batch records tie the stages of one
request together: submit, ``DecoderPool.get``, the executor queue and
``decode_batch``.  The executor runs one job at a time in submission order,
so each ``decode_batch`` belongs to the oldest batch whose
``DecoderPool.get`` returned and whose decode has not started.
"""

from __future__ import annotations

import collections
import contextvars
import functools
import itertools
import json
import threading
import time
from pathlib import Path

_now = time.perf_counter_ns

#: Kernel-module functions of the dispatch contract (``repro.kernels``).
KERNEL_FUNCTIONS = ("stream_batch", "materialised_psi", "materialised_dstar", "query_results_batch")
KERNEL_TIERS = ("dense", "dense32", "legacy")


def _batch_of(array) -> int:
    shape = getattr(array, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


class Tracer:
    """Span sink plus the per-batch records of the serve path."""

    def __init__(self) -> None:
        self.spans: "list[tuple]" = []  # (id, name, t0_ns, t1_ns, parent_id, attrs)
        self.batches: "list[dict]" = []
        self.submits: "dict[object, int]" = {}
        self.pool = None
        self.missing: "list[str]" = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._batch = contextvars.ContextVar("perfbench_batch", default=None)
        self._ready = collections.deque()  # batches whose get returned, decode not started

    # -- span primitives -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, attrs=None):
        """Run ``fn`` inside a span; ``attrs(result, args)`` adds fields after the call."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name))
        t0 = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = _now()
            stack.pop()
        self.spans.append((span_id, name, t0, t1, parent, attrs(result, args) if attrs else None))
        return result

    def parent_name(self) -> "str | None":
        stack = self._stack()
        return stack[-1][1] if stack else None

    # -- output ----------------------------------------------------------------

    def dump(self, path: Path, extra: "dict | None" = None) -> None:
        payload = {
            "spans": self.spans,
            "batches": self.batches,
            "submits": [[rid, t] for rid, t in self.submits.items()],
            "missing": self.missing,
        }
        if self.pool is not None:
            payload["pool"] = {"hits": self.pool.hits, "misses": self.pool.misses, "evictions": self.pool.evictions}
        payload.update(extra or {})
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, separators=(",", ":")))
        tmp.replace(path)


# -- patching ---------------------------------------------------------------------


def _patch(tracer: Tracer, owner, attr: str, make) -> None:
    """Replace ``owner.attr`` with ``make(original)``; note names that vanished."""
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if original is None:
        tracer.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return
    setattr(owner, attr, make(original))


def _sync(tracer: Tracer, name: str, attrs=None):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, attrs)

        return wrapper

    return make


def _install_serve(tracer: Tracer) -> None:
    from repro.serve import coalescer, server

    def parse_attrs(result, args):
        return {"rid": result.request_id}

    _patch(tracer, server, "parse_request", _sync(tracer, "serve.protocol.parse", parse_attrs))
    _patch(tracer, server, "encode_success", _sync(tracer, "serve.protocol.encode", lambda r, a: {"rid": a[0]}))

    def submit(fn):
        @functools.wraps(fn)
        def wrapper(self, request):
            tracer.submits[request.request_id] = _now()
            return fn(self, request)

        return wrapper

    def run_batch(fn):
        @functools.wraps(fn)
        async def wrapper(self, bucket_key, pending):
            record = {"rids": [p.request.request_id for p in pending]}
            tracer.batches.append(record)
            token = tracer._batch.set(record)
            try:
                return await fn(self, bucket_key, pending)
            finally:
                tracer._batch.reset(token)

        return wrapper

    def pool_get(fn):
        @functools.wraps(fn)
        async def wrapper(self, key, decoder=None):
            tracer.pool = self
            record = tracer._batch.get()
            entry_key = (key, self.default_decoder if decoder is None else decoder)
            # The call that finds neither an attached entry nor an admission in
            # flight is the one that admits; concurrent callers only wait on it.
            admits = entry_key not in self._entries and entry_key not in self._inflight
            t0 = _now()
            result = await fn(self, key, decoder)
            t1 = _now()
            if admits:
                tracer.spans.append((next(tracer._ids), "serve.coalescer.pool_admit", t0, t1, None, {"resident": _resident_bytes(self)}))
            if record is not None:
                record.update(t_get0=t0, t_get1=t1)
                tracer._ready.append(record)
            return result

        return wrapper

    _patch(tracer, coalescer.Coalescer, "submit", submit)
    _patch(tracer, coalescer.Coalescer, "_run_batch", run_batch)
    _patch(tracer, coalescer.DecoderPool, "get", pool_get)


def _resident_bytes(pool) -> int:
    """``CompiledDesign.nbytes`` summed over the distinct designs the pool holds."""
    designs = {id(entry.compiled): entry.compiled for entry in pool._entries.values() if hasattr(entry, "compiled")}
    return sum(c.nbytes for c in designs.values())


def _install_decoders(tracer: Tracer) -> None:
    from repro.baselines import compiled as baselines
    from repro.core.mn import MNDecoder
    from repro.designs.compiled import CompiledDesign
    from repro.designs.serving import CompiledMNDecoder

    def decode_batch(name: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(self, Y, k=1):
                outer = tracer.parent_name() is None
                record = tracer._ready.popleft() if outer and tracer._ready else None
                if record is not None:
                    record["t_dec0"] = _now()
                decoder = name if name != "gt" else ("dd" if self.definite_defectives else "comp")
                try:
                    return tracer.call(f"decode_batch.{decoder}", fn, (self, Y, k), {}, lambda r, a: {"B": _batch_of(a[1])})
                finally:
                    if record is not None:
                        record["t_dec1"] = _now()

            return wrapper

        return make

    _patch(tracer, CompiledMNDecoder, "decode_batch", decode_batch("mn"))
    for cls_name, name in (("CompiledOMPDecoder", "omp"), ("CompiledAMPDecoder", "amp"), ("CompiledGTDecoder", "gt"), ("CompiledLPDecoder", "lp")):
        _patch(tracer, getattr(baselines, cls_name), "decode_batch", decode_batch(name))

    def psi_attrs(result, args):
        compiled, y = args[0], args[1]
        batch = _batch_of(y)
        block = compiled.block_dtype.itemsize * compiled.m * compiled.n
        # Bytes the GEMM reads and writes: the block, the (B, m) operand cast
        # to the block dtype, and the (B, n) int64 product.  Computed, not measured.
        return {"B": batch, "bytes": block + batch * compiled.m * compiled.block_dtype.itemsize + batch * compiled.n * 8}

    _patch(tracer, CompiledDesign, "psi", _sync(tracer, "designs.compiled.psi", psi_attrs))
    _patch(tracer, MNDecoder, "decode", _sync(tracer, "core.mn.decode", lambda r, a: {"B": _batch_of(a[1].psi)}))

    for cls_name, name in (("OMPDecoder", "omp"), ("AMPDecoder", "amp"), ("COMPDecoder", "comp"), ("DDDecoder", "dd"), ("LPDecoder", "lp")):
        _patch(tracer, getattr(baselines, cls_name), "compile", _sync(tracer, f"compile.{name}"))
    _patch(tracer, MNDecoder, "compile", _sync(tracer, "compile.mn"))


def _install_designs(tracer: Tracer) -> None:
    from repro.designs import compiled as compiled_mod
    from repro.designs.store import DesignStore

    def compile_from_key(fn):
        @functools.wraps(fn)
        def wrapper(key, *, cache=None, store=None):
            if cache is None and store is None:  # the regeneration itself, not a layered lookup
                return tracer.call("designs.compiled.compile", fn, (key,), {})
            return fn(key, cache=cache, store=store)

        return wrapper

    _patch(tracer, compiled_mod, "compile_from_key", compile_from_key)

    def get_attrs(result, args):
        if result is None:
            return {"hit": False, "bytes": 0}
        entry = args[0].entry_dir(args[1])
        return {"hit": True, "bytes": sum(p.stat().st_size for p in entry.iterdir() if p.is_file())}

    _patch(tracer, DesignStore, "get", _sync(tracer, "designs.store.get", get_attrs))
    _patch(tracer, DesignStore, "publish", _sync(tracer, "designs.store.publish"))


def _install_kernels(tracer: Tracer) -> None:
    import importlib

    for tier in KERNEL_TIERS:
        module = importlib.import_module(f"repro.kernels.{tier}")
        for fn_name in KERNEL_FUNCTIONS:
            _patch(tracer, module, fn_name, _sync(tracer, f"kernels.{tier}.{fn_name}"))


def _install_core(tracer: Tracer) -> None:
    from repro.core.design import PoolingDesign
    from repro.engine import grid

    def sample(fn):
        @functools.wraps(fn)
        def wrapper(cls, *args, **kwargs):
            return tracer.call("core.design.sample", fn.__func__, (cls, *args), kwargs)

        return classmethod(wrapper)

    _patch(tracer, PoolingDesign, "sample", sample)
    _patch(tracer, PoolingDesign, "query_results", _sync(tracer, "core.design.query", lambda r, a: {"B": _batch_of(a[1])}))
    _patch(tracer, PoolingDesign, "psi", _sync(tracer, "core.design.stats"))
    _patch(tracer, PoolingDesign, "dstar", _sync(tracer, "core.design.stats"))
    _patch(tracer, PoolingDesign, "delta", _sync(tracer, "core.design.stats"))
    _patch(tracer, grid, "random_signal", _sync(tracer, "core.signal.random_signal"))


def install() -> Tracer:
    """Wrap every traced call; returns the tracer that collects the spans."""
    tracer = Tracer()
    _install_serve(tracer)
    _install_decoders(tracer)
    _install_designs(tracer)
    _install_kernels(tracer)
    _install_core(tracer)
    return tracer
