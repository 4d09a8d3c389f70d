"""The ``paper-sweep`` workload: the paper's success-rate-vs-m simulation.

The sweep runs in child processes (this file run as a script) through
``engine.grid.run_trial_grid`` on the serial backend, with no design cache
or store, so every point samples its design afresh.  The grid is n=10^4,
two weights theta, and m from 0.5x to 1.5x each theta's
``core.thresholds.m_mn_threshold``; every point decodes 64 trials.  One
pass runs every point once; a child repeats passes until its share of the
measured seconds is spent.  Each point has a fixed seed, so every pass must repeat
the first one exactly, and the first pass must equal the same grid run
under ``kernel="legacy"`` (the parity oracle), which the parent runs
untimed after the children exit.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import common

N = 10_000
THETAS = (0.2, 0.3)
M_FACTORS = (0.5, 0.75, 1.0, 1.25, 1.5)
TRIALS = 64
SETUP_SPAWNS = 5
#: Child processes sharing a run's measured seconds (see ``run_sweep``).
CHILDREN = 3
TAIL_Q = 90.0


def grid_points(seed: int) -> "list[dict]":
    """The sweep's points, each with its own root seed."""
    from repro.core.thresholds import m_mn_threshold

    points = []
    for ti, theta in enumerate(THETAS):
        threshold = m_mn_threshold(N, theta)
        for mi, factor in enumerate(M_FACTORS):
            root_seed = (int(seed) * 1009 + ti * 101 + mi) % (2**31)
            points.append({"theta": theta, "m": int(round(factor * threshold)), "root_seed": root_seed})
    return points


def run_point(point: dict, kernel: "str | None" = None):
    from repro.engine.backend import SerialBackend
    from repro.engine.grid import run_trial_grid

    (result,) = run_trial_grid(N, [point["m"]], theta=point["theta"], trials=TRIALS, root_seed=point["root_seed"], backend=SerialBackend(kernel=kernel))
    return result


# -- child side ----------------------------------------------------------------


def _child(args) -> int:
    t_start = time.perf_counter()
    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.install()
    points = grid_points(args.seed)
    first = run_point(points[0])
    print(f"ready {time.perf_counter() - t_start:.6f}", flush=True)
    if args.setup_only:
        return 0

    reference = None
    mismatches = 0
    pass_ms, windows = [], []
    deadline = time.perf_counter() + args.seconds
    while reference is None or time.perf_counter() < deadline:
        results, point_ms = [], []
        for point in points:
            p0 = time.perf_counter_ns()
            results.append(run_point(point))
            p1 = time.perf_counter_ns()
            point_ms.append((p1 - p0) / 1e6)
            windows.append((p0, p1))
        pass_ms.append(point_ms)
        if reference is None:
            reference = results
        else:
            mismatches += sum(
                not (np.array_equal(a.success, b.success) and np.array_equal(a.overlap, b.overlap)) for a, b in zip(reference, results)
            )
    if not (np.array_equal(first.success, reference[0].success) and np.array_equal(first.overlap, reference[0].overlap)):
        mismatches += 1
    payload = {
        "pass_ms": pass_ms,
        "mismatches": mismatches,
        "success": [r.success.astype(int).tolist() for r in reference],
        "overlap": [r.overlap.tolist() for r in reference],
        "rss_peak_mb": _vm_hwm_mb(),
    }
    if tracer is not None:
        tracer.dump(Path(args.spans), {"windows": windows})
    print(json.dumps(payload, separators=(",", ":")), flush=True)
    return 0


def _vm_hwm_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


# -- parent side ---------------------------------------------------------------


def _spawn(seed: int, seconds: float, spans=None, setup_only: bool = False) -> "tuple[float, dict | None]":
    """Run one child; return (spawn-to-first-point seconds, its result or None)."""
    argv = [sys.executable, __file__, "--seed", str(seed), "--seconds", str(seconds)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    if setup_only:
        argv.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=common.child_env(), cwd=str(common.ROOT))
    try:
        ready = common.read_line(proc, 120.0)
        setup_s = time.perf_counter() - started
        if not ready.startswith("ready "):
            raise RuntimeError(f"sweep child did not start (got {ready!r})")
        result = None if setup_only else json.loads(common.read_line(proc, seconds + 120.0) or "null")
        if proc.wait(timeout=60) != 0:
            raise RuntimeError(f"sweep child exited with {proc.returncode}")
        return setup_s, result
    finally:
        common.stop_process(proc)


def run_sweep(seed: int, seconds: float, spans=None) -> dict:
    """``paper-sweep``: timed child sweeps, then the untimed legacy-kernel oracle.

    The measured seconds are shared by ``CHILDREN`` child processes run one
    after another, and each metric is a median over the passes of all of
    them: the speed of a memory-bound process on this kind of host differs
    from one process to the next (whether its large arrays got huge pages,
    say), so one odd process must not set the run's figures.
    """
    setups = [_spawn(seed, 0.0, setup_only=True)[0] for _ in range(SETUP_SPAWNS - CHILDREN)]
    children = []
    for _ in range(CHILDREN):
        setup_s, child = _spawn(seed, seconds / CHILDREN, spans=spans)
        if child is None:
            raise RuntimeError("sweep child printed no result")
        setups.append(setup_s)
        children.append(child)

    points = grid_points(seed)
    wrong = 0
    for i, point in enumerate(points):
        oracle = run_point(point, kernel="legacy")
        wrong += any(
            not (np.array_equal(oracle.success.astype(int), c["success"][i]) and np.array_equal(oracle.overlap, np.asarray(c["overlap"][i])))
            for c in children
        )
    passes = [p for c in children for p in c["pass_ms"]]
    attempted = len(passes) * len(points)
    failed = wrong * len(passes) + sum(c["mismatches"] for c in children)
    p50 = [np.percentile(p, 50) for p in passes]
    p90 = [np.percentile(p, TAIL_Q) for p in passes]
    pass_s = [sum(p) / 1e3 for p in passes]
    return {
        "metrics": {
            "setup_s": float(np.median(setups)),
            "p50_ms": float(np.median(p50)),
            "p90_ms": float(np.median(p90)),
            "rate_per_s": TRIALS * len(points) / float(np.median(pass_s)),
            "rss_peak_mb": max(c["rss_peak_mb"] for c in children),
        },
        "samples": {
            "setup_s": f"median of {SETUP_SPAWNS} child spawns, spawn to first point result",
            "p50_ms": f"median over {len(passes)} passes in {CHILDREN} processes of the p50 of a pass's {len(points)} grid points ({TRIALS} trials each)",
            "p90_ms": f"median over {len(passes)} passes in {CHILDREN} processes of the p90 of a pass's {len(points)} grid points",
            "rate_per_s": f"trials of one pass over the median pass time ({len(passes)} passes)",
            "rss_peak_mb": "largest VmHWM of the sweep children",
        },
        "correct": failed == 0,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "phases": [
            {"phase": "sweep", "child": i, "points": len(points), "passes": len(c["pass_ms"]), "repeat_mismatches": c["mismatches"]}
            for i, c in enumerate(children)
        ]
        + [{"phase": "oracle", "points": len(points), "mismatches": wrong}],
        "setup_samples_s": setups,
        "gen": {"send_lag_ms": [], "cpu_s": 0.0},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="paper-sweep child process (started by run_sweep)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    return _child(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
