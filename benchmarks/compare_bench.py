"""Benchmark-regression gate: compare two ``BENCH_*.json`` directories.

CI stashes the committed baseline JSONs before wiping ``results/``, runs
the fresh smoke benchmarks, then calls::

    python benchmarks/compare_bench.py <baseline_dir> <fresh_dir> --threshold 2.5

For every record key (``<bench>::<test>``) present in *both* directories
the median wall times are compared; any fresh median more than
``threshold``× the baseline fails the gate (exit code 1) with a per-key
table.  Keys present on only one side are reported but never fail — CI
only measures a subset of the suite, and new benchmarks have no history
yet.  An empty baseline (first run on a fresh branch) passes trivially;
a fresh directory holding no record while the baseline holds some fails,
since a bench step that wrote nothing measured nothing.

Shared-runner medians are noisy, hence the deliberately loose default
threshold: the gate exists to catch order-of-magnitude hot-path
regressions, not 10% drift.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = ["load_medians", "compare", "main"]

DEFAULT_THRESHOLD = 2.5


def load_medians(directory: "str | Path") -> "dict[str, float]":
    """Map ``<bench>::<test>`` to the recorded median seconds.

    Unreadable or malformed files are skipped with a warning rather than
    failing the gate — a corrupt baseline must never block CI, it just
    loses coverage for its keys.  Robustness is *per record*: one
    malformed record (missing/non-numeric ``median_s``, e.g. an
    informational record carrying only derived metrics like
    ``speedup_x``) drops only itself, never its whole file, so new
    benchmark-record shapes can land without touching the gate.
    """
    medians: "dict[str, float]" = {}
    directory = Path(directory)
    if not directory.is_dir():
        return medians
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text())
            bench = payload["bench"]
            records = payload["results"]
        except (ValueError, KeyError, TypeError) as exc:
            print(f"warning: skipping malformed {path.name}: {exc}", file=sys.stderr)
            continue
        for record in records:
            try:
                medians[f"{bench}::{record['test']}"] = float(record["median_s"])
            except (ValueError, KeyError, TypeError) as exc:
                print(f"warning: skipping malformed record in {path.name}: {exc}", file=sys.stderr)
    return medians


def compare(
    baseline: "dict[str, float]",
    fresh: "dict[str, float]",
    threshold: float = DEFAULT_THRESHOLD,
) -> "tuple[list[tuple[str, float, float, float, str]], list[str]]":
    """Per-key comparison rows and the list of regressed keys.

    Returns ``(rows, regressions)`` where each row is
    ``(key, baseline_s, fresh_s, ratio, verdict)`` for shared keys, and
    ``regressions`` lists keys whose ratio exceeds ``threshold``.
    """
    if not (threshold > 0):
        raise ValueError("threshold must be positive")
    rows = []
    regressions = []
    for key in sorted(set(baseline) & set(fresh)):
        base_s, fresh_s = baseline[key], fresh[key]
        # A zero baseline median (timer resolution) cannot regress meaningfully.
        ratio = fresh_s / base_s if base_s > 0 else 1.0
        verdict = "REGRESSION" if ratio > threshold else "ok"
        if verdict == "REGRESSION":
            regressions.append(key)
        rows.append((key, base_s, fresh_s, ratio, verdict))
    return rows, regressions


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", help="directory holding the committed baseline BENCH_*.json")
    parser.add_argument("fresh", help="directory holding the freshly measured BENCH_*.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help=f"fail when fresh median > threshold x baseline median (default {DEFAULT_THRESHOLD})",
    )
    args = parser.parse_args(argv)

    baseline = load_medians(args.baseline)
    fresh = load_medians(args.fresh)
    rows, regressions = compare(baseline, fresh, args.threshold)

    only_base = sorted(set(baseline) - set(fresh))
    only_fresh = sorted(set(fresh) - set(baseline))

    if rows:
        width = max(len(r[0]) for r in rows)
        print(f"{'record':<{width}}  {'baseline_s':>12}  {'fresh_s':>12}  {'ratio':>7}  verdict")
        for key, base_s, fresh_s, ratio, verdict in rows:
            print(f"{key:<{width}}  {base_s:>12.6f}  {fresh_s:>12.6f}  {ratio:>6.2f}x  {verdict}")
    else:
        print("no shared benchmark records — nothing to gate")
    if only_base:
        print(f"{len(only_base)} baseline-only record(s) not measured this run: {', '.join(only_base)}")
    if only_fresh:
        print(f"{len(only_fresh)} new record(s) without history: {', '.join(only_fresh)}")

    if baseline and not fresh:
        print(
            f"FAIL: {args.fresh} holds no benchmark record to compare with the {len(baseline)} baseline record(s)",
            file=sys.stderr,
        )
        return 1
    if regressions:
        print(
            f"FAIL: {len(regressions)} record(s) regressed beyond {args.threshold}x: {', '.join(regressions)}",
            file=sys.stderr,
        )
        return 1
    print(f"benchmark gate passed ({len(rows)} shared record(s), threshold {args.threshold}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
