"""The repository's benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24      # every workload

Workloads (see ``WORKLOADS`` for the layers each one exercises):

* ``serve-hot`` -- a warm ``pooled-repro serve --store`` with one stream key
  (n=10^4, m=2400, k=16, decoder mn) under open-loop Poisson load: rounds of
  light load (batch size ~1) and an overload burst.
* ``serve-churn`` -- 12 stream keys at m=600 with Zipf popularity, mostly mn
  with some comp/amp/omp; half the keys start in the store, half compile on
  first touch; the working set is 1.5x the 8-entry decoder pool.  Rounds of
  one open-loop rate and an overload burst.
* ``paper-sweep`` -- the paper's success-vs-m simulation through
  ``run_trial_grid`` in child processes (serial backend, no cache or store).

End-to-end metrics (``--trace 0``), each defined on every workload:

* ``setup_s`` -- spawn of the program process to its first correct result
  (median of five spawns).
* ``p50_ms``, ``p90_ms`` -- latency of one unit of work: a request of
  serve-hot's light load or of serve-churn's load, timed from its intended
  send time; a grid point (64 trials) of paper-sweep.
* ``rate_per_s`` -- the serve workloads: correct responses per second while
  an open-loop burst offers more than the server can take (its capacity);
  paper-sweep: trials per second.
* ``rss_peak_mb`` -- peak resident memory of the server or sweep process.

Request latency runs from the intended send time.  Errors, refusals,
timeouts and wrong outputs count in ``failed``.  ``--trace 1`` runs the
workload untraced and then traced (see ``tracing.py``), half the seconds
each, and reports the per-layer metrics of ``ledger.PER_LAYER``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("rate_per_s", "1/s"),
    ("rss_peak_mb", "MB"),
)

#: Layers each workload exercises and bypasses.  A change confined to the
#: bypassed layers predicts no change in that workload's end-to-end metrics.
WORKLOADS = {
    "serve-hot": {
        "exercises": [
            "serve.protocol (parse, encode)",
            "serve.coalescer (window, executor queue)",
            "designs.compiled.psi (block GEMM)",
            "core.mn.decode (scores, top-k)",
            "designs.store.get (setup only: attach and verify)",
        ],
        "bypasses": ["designs.compiled.compile", "DecoderPool churn", "baselines.compiled", "core.design sampling (grid)", "kernels"],
        "no_change_if": "a change confined to compile, pool eviction, the baseline decoders or the grid",
    },
    "serve-churn": {
        "exercises": [
            "serve.coalescer (DecoderPool admission and eviction)",
            "designs.store (get, verify, publish)",
            "designs.compiled.compile",
            "baselines.compiled (omp, amp, comp)",
            "serve.protocol",
        ],
        "bypasses": ["core.design sampling (grid)", "large GEMMs (m=600)"],
        "no_change_if": "a change confined to the grid engine or to large-batch GEMM speed",
    },
    "paper-sweep": {
        "exercises": ["core.design (sample, query_results, psi/dstar)", "kernels (dense)", "core.mn.decode (B=64)"],
        "bypasses": ["serve.*", "designs.store", "designs.compiled (compile, block)", "baselines.compiled"],
        "no_change_if": "a change confined to the serve path, the design store or compile",
    },
}


def _run_workload(name: str, seed: int, seconds: float, spans: "Path | None" = None) -> dict:
    import serve_load
    import sweep

    fn = {"serve-hot": serve_load.run_hot, "serve-churn": serve_load.run_churn, "paper-sweep": sweep.run_sweep}[name]
    return fn(seed, seconds, spans=spans)


def _layer_metrics(untraced: dict, traced: dict, spans: Path) -> "tuple[dict, list]":
    import ledger

    payload = json.loads(spans.read_text())
    metrics = ledger.layer_metrics(
        payload,
        send_lag_ms=traced["gen"]["send_lag_ms"],
        gen_cpu_s=traced["gen"]["cpu_s"],
        overhead=traced["metrics"]["p50_ms"] / untraced["metrics"]["p50_ms"],
    )
    lines = ["self-time ledger (traced run):", f"  {'span':44s} {'calls':>7s} {'total ms':>11s} {'self ms':>11s}"]
    lines += [f"  {n:44s} {c:7d} {t:11.1f} {s:11.1f}" for n, c, t, s in ledger.self_times(payload["spans"])]
    if payload.get("missing"):
        lines.append(f"  untraced (name not found): {', '.join(payload['missing'])}")
    return metrics, lines


def _report(name: str, seed: int, result: dict) -> "list[str]":
    info = WORKLOADS[name]
    lines = [
        f"== {name} (seed {seed})",
        "provenance: " + json.dumps(common.provenance(seed), sort_keys=True),
        f"exercises: {'; '.join(info['exercises'])}",
        f"bypasses: {'; '.join(info['bypasses'])} -- predicted no change from {info['no_change_if']}",
    ]
    for row in result["phases"]:
        lines.append("phase: " + json.dumps(row, sort_keys=True, default=float))
    lines.append(f"setup samples (s): {', '.join(f'{v:.4f}' for v in result['setup_samples_s'])}")
    share = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    lines.append(f"failed_share: {share:.6f} ({result['failed']} of {result['attempted']} attempted)")
    return lines


def run(name: str, seed: int, seconds: float, trace: bool) -> "tuple[dict, list[str]]":
    """One workload run: its result object and its report lines.

    A traced run splits the measured seconds between an untraced and a
    traced pass over the same inputs; their p50s give ``trace.overhead``.
    """
    if trace:
        seconds /= 2
    result = _run_workload(name, seed, seconds)
    lines = _report(name, seed, result)
    if not trace:
        metrics = {m: {"value": result["metrics"][m], "unit": unit} for m, unit in END_TO_END}
        lines += [f"{m:16s} {metrics[m]['value']:14.4f} {unit:4s}  {result['samples'][m]}" for m, unit in END_TO_END]
        return _result(result, [result], metrics), lines

    spans_dir = common.fresh_workdir(f"spans-{name}")
    try:
        spans = spans_dir / "spans.json"
        traced = _run_workload(name, seed, seconds, spans=spans)
        metrics, ledger_lines = _layer_metrics(result, traced, spans)
    finally:
        common.remove_workdir(spans_dir)
    lines += [f"traced run: p50_ms {traced['metrics']['p50_ms']:.4f} vs untraced {result['metrics']['p50_ms']:.4f}"]
    lines += ledger_lines
    lines += [f"{m:52s} {v['value']:16.4f} {v['unit']}" for m, v in metrics.items()]
    return _result(result, [result, traced], metrics), lines


def _result(result: dict, runs: "list[dict]", metrics: dict) -> dict:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {"correct": all(r["correct"] for r in runs), "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the pooled-data decoder: serve and sweep workloads.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    common.require_source()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, lines = run(name, args.seed, args.seconds, bool(args.trace))
            for line in lines:
                print(line)
            results[name] = result
    except Exception:  # noqa: BLE001 - report, print no result, exit non-zero
        traceback.print_exc()
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
