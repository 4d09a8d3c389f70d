"""Per-layer metrics and the self-time ledger, computed from a span dump.

Every metric named in :data:`PER_LAYER` is reported by every traced run; a
layer the workload bypasses reads 0 (and its ``.count`` 0), which is how a
reader sees the "no change predicted here" pairings.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from common import B_BUCKETS

#: Timings reported as ``.p50``, ``.p99`` and ``.count``: (metric, unit).
TIMINGS = (
    ("serve.protocol.parse_us", "us"),
    ("serve.protocol.encode_us", "us"),
    ("serve.coalescer.window_wait_ms", "ms"),
    ("serve.coalescer.batch_size", "count"),
    ("serve.coalescer.executor_wait_ms", "ms"),
    ("serve.coalescer.pool_admit_ms", "ms"),
    ("designs.store.get_ms", "ms"),
    ("designs.store.publish_ms", "ms"),
    ("designs.compiled.compile_ms", "ms"),
    *((f"designs.serving.decode_batch_ms.{b}", "ms") for b, _, _ in B_BUCKETS),
    *((f"designs.compiled.psi_ms.{b}", "ms") for b, _, _ in B_BUCKETS),
    *((f"core.mn.decode_ms.{b}", "ms") for b, _, _ in B_BUCKETS),
    *((f"baselines.compiled.{d}.{what}_ms", "ms") for d in ("omp", "amp", "comp") for what in ("compile", "decode_batch")),
    ("core.design.sample_ms", "ms"),
    ("core.design.query_ms", "ms"),
    ("core.design.stats_ms", "ms"),
    ("gen.send_lag_ms", "ms"),
)

#: Single-valued metrics: (metric, unit).
SCALARS = (
    ("serve.coalescer.pool_hit_ratio", "ratio"),
    ("serve.coalescer.pool_evictions", "count"),
    ("designs.store.hit_ratio", "ratio"),
    ("designs.store.get_bytes", "B"),  # computed: file sizes of the entries attached
    ("designs.compiled.resident_bytes", "B"),  # peak CompiledDesign.nbytes held by the pool
    ("designs.compiled.psi_bytes", "B"),  # computed: block + operands per psi call, mean
    ("kernels.calls.dense", "count"),
    ("kernels.calls.dense32", "count"),
    ("kernels.calls.legacy", "count"),
    ("kernels.fallbacks", "count"),
    ("gen.cpu_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
)

#: Every per-layer metric name with its unit, in report order.
PER_LAYER = tuple((f"{name}.{stat}", "count" if stat == "count" else unit) for name, unit in TIMINGS for stat in ("p50", "p99", "count")) + SCALARS

#: Span name -> timing metric, for spans whose duration is the timing.
_SPAN_TIMINGS = {
    "serve.protocol.parse": ("serve.protocol.parse_us", 1e-3),
    "serve.protocol.encode": ("serve.protocol.encode_us", 1e-3),
    "serve.coalescer.pool_admit": ("serve.coalescer.pool_admit_ms", 1e-6),
    "designs.store.get": ("designs.store.get_ms", 1e-6),
    "designs.store.publish": ("designs.store.publish_ms", 1e-6),
    "designs.compiled.compile": ("designs.compiled.compile_ms", 1e-6),
    "core.design.sample": ("core.design.sample_ms", 1e-6),
    "core.design.query": ("core.design.query_ms", 1e-6),
    "core.design.stats": ("core.design.stats_ms", 1e-6),
    **{f"compile.{d}": (f"baselines.compiled.{d}.compile_ms", 1e-6) for d in ("omp", "amp", "comp")},
    **{f"decode_batch.{d}": (f"baselines.compiled.{d}.decode_batch_ms", 1e-6) for d in ("omp", "amp", "comp")},
}

#: Span name -> B-bucketed timing metric prefix.
_BUCKETED = {
    "decode_batch.mn": "designs.serving.decode_batch_ms",
    "designs.compiled.psi": "designs.compiled.psi_ms",
    "core.mn.decode": "core.mn.decode_ms",
}


def bucket(batch: int) -> str:
    for name, lo, hi in B_BUCKETS:
        if lo <= batch <= hi:
            return name
    return B_BUCKETS[-1][0]


def _ms(t0: int, t1: int) -> float:
    return (t1 - t0) / 1e6


def request_stages(payload: dict) -> "tuple[list[float], list[float], list[float]]":
    """Per request: window wait (ms), covered time and server time (ns).

    A request's server time runs from the start of its parse to the end of
    its encode; the covered part is the sum of its stage spans.
    """
    spans = payload["spans"]
    parse = {s[5]["rid"]: (s[2], s[3]) for s in spans if s[1] == "serve.protocol.parse"}
    encode = {s[5]["rid"]: (s[2], s[3]) for s in spans if s[1] == "serve.protocol.encode"}
    submits = dict((rid, t) for rid, t in payload["submits"])
    window, covered, total = [], [], []
    for batch in payload["batches"]:
        if "t_dec1" not in batch:
            continue
        for rid in batch["rids"]:
            t_submit = submits.get(rid)
            if t_submit is None:
                continue
            window.append(_ms(t_submit, batch["t_get0"]))
            if rid in parse and rid in encode:
                p0, p1 = parse[rid]
                e0, e1 = encode[rid]
                covered.append((p1 - p0) + (batch["t_dec1"] - t_submit) + (e1 - e0))
                total.append(e1 - p0)
    return window, covered, total


def window_coverage(payload: dict) -> float:
    """Share of the sweep's grid-point wall time that top-level spans cover."""
    roots = [s for s in payload["spans"] if s[4] is None]
    covered = total = 0
    for p0, p1 in payload["windows"]:
        total += p1 - p0
        covered += sum(s[3] - s[2] for s in roots if p0 <= s[2] and s[3] <= p1)
    return covered / total if total else 0.0


def self_times(spans: list) -> "list[tuple[str, int, float, float]]":
    """(span name, calls, total ms, self ms) for every span name, by self time."""
    children = defaultdict(int)
    for s in spans:
        if s[4] is not None:
            children[s[4]] += s[3] - s[2]
    rows: "dict[str, list]" = defaultdict(lambda: [0, 0, 0])
    for s in spans:
        row = rows[s[1]]
        row[0] += 1
        row[1] += s[3] - s[2]
        row[2] += (s[3] - s[2]) - children.get(s[0], 0)
    return sorted(((name, c, t / 1e6, own / 1e6) for name, (c, t, own) in rows.items()), key=lambda r: -r[3])


def _stats(values) -> "tuple[float, float, int]":
    if not len(values):
        return 0.0, 0.0, 0
    arr = np.asarray(values, dtype=float)
    return float(np.percentile(arr, 50)), float(np.percentile(arr, 99)), len(arr)


def layer_metrics(payload: dict, *, send_lag_ms=(), gen_cpu_s: float = 0.0, overhead: float = 0.0) -> dict:
    """Every :data:`PER_LAYER` metric as ``{name: {"value", "unit"}}``."""
    spans = payload["spans"]
    names = {s[0]: s[1] for s in spans}
    timings: "dict[str, list[float]]" = defaultdict(list)
    for s in spans:
        name, attrs = s[1], s[5] or {}
        if name in _SPAN_TIMINGS:
            metric, scale = _SPAN_TIMINGS[name]
            timings[metric].append((s[3] - s[2]) * scale)
        elif name in _BUCKETED:
            timings[f"{_BUCKETED[name]}.{bucket(attrs.get('B', 1))}"].append(_ms(s[2], s[3]))

    batches = [b for b in payload["batches"] if "t_dec1" in b]
    timings["serve.coalescer.batch_size"] = [len(b["rids"]) for b in payload["batches"]]
    timings["serve.coalescer.executor_wait_ms"] = [_ms(b["t_get1"], b["t_dec0"]) for b in batches]
    window, covered, total = request_stages(payload)
    timings["serve.coalescer.window_wait_ms"] = window
    timings["gen.send_lag_ms"] = list(send_lag_ms)

    out: "dict[str, dict]" = {}
    for name, unit in TIMINGS:
        p50, p99, count = _stats(timings.get(name, ()))
        out[f"{name}.p50"] = {"value": p50, "unit": unit}
        out[f"{name}.p99"] = {"value": p99, "unit": unit}
        out[f"{name}.count"] = {"value": count, "unit": "count"}

    pool = payload.get("pool", {})
    lookups = pool.get("hits", 0) + pool.get("misses", 0)
    gets = [s for s in spans if s[1] == "designs.store.get"]
    hits = [s for s in gets if s[5]["hit"]]
    psi = [s[5]["bytes"] for s in spans if s[1] == "designs.compiled.psi"]
    admits = [s[5]["resident"] for s in spans if s[1] == "serve.coalescer.pool_admit"]
    kernel_calls = {tier: 0 for tier in ("dense", "dense32", "legacy")}
    fallbacks = 0
    for s in spans:
        if not s[1].startswith("kernels."):
            continue
        tier = s[1].split(".")[1]
        parent = names.get(s[4], "")
        if not parent.startswith("kernels."):
            kernel_calls[tier] += 1
        elif parent.split(".")[1] != tier:
            fallbacks += 1
    if "windows" in payload:  # paper-sweep: grid points instead of requests
        coverage = window_coverage(payload)
    else:
        coverage = sum(covered) / sum(total) if total else 0.0
    scalars = {
        "serve.coalescer.pool_hit_ratio": pool.get("hits", 0) / lookups if lookups else 0.0,
        "serve.coalescer.pool_evictions": pool.get("evictions", 0),
        "designs.store.hit_ratio": len(hits) / len(gets) if gets else 0.0,
        "designs.store.get_bytes": sum(s[5]["bytes"] for s in hits),
        "designs.compiled.resident_bytes": max(admits, default=0),
        "designs.compiled.psi_bytes": float(np.mean(psi)) if psi else 0.0,
        "kernels.calls.dense": kernel_calls["dense"],
        "kernels.calls.dense32": kernel_calls["dense32"],
        "kernels.calls.legacy": kernel_calls["legacy"],
        "kernels.fallbacks": fallbacks,
        "gen.cpu_s": gen_cpu_s,
        "trace.overhead": overhead,
        "trace.coverage": coverage,
    }
    for name, unit in SCALARS:
        out[name] = {"value": scalars[name], "unit": unit}
    return out
