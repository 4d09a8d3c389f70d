"""Shared benchmark configuration.

Benchmarks double as the *reproduction harness*: each file regenerates one
figure/table/claim of the paper (see DESIGN.md's experiment index), prints
the measured rows, and asserts the paper's qualitative *shape* (who wins,
where the transition sits, what dominates what).  Run with::

    pytest benchmarks/bench_<name>.py --benchmark-only

Scale: defaults are laptop-scale (minutes, not the paper's CPU-days); every
driver accepts paper-scale parameters through its Python API.

Perf trajectory: at session end every ``bench_<name>.py`` that ran emits a
machine-readable ``benchmarks/results/BENCH_<name>.json`` (per test: the
median wall time, params from ``benchmark.extra_info``, and the
measurement context — python/workers/seed — it was recorded under) so
that speedups and regressions are tracked across PRs.  Tests attach
structured fields with ``benchmark.extra_info["key"] = value``.
"""

import json
import os
import platform
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def _worker_count() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover
        return max(1, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def workers() -> int:
    """Worker processes available to the sweep drivers."""
    return _worker_count()


@pytest.fixture(scope="session")
def repro_seed() -> int:
    """Root seed for every benchmark (override via POOLED_REPRO_SEED)."""
    return int(os.environ.get("POOLED_REPRO_SEED", "2022"))


def emit(title: str, body: str) -> None:
    """Print a labelled block that survives pytest's capture with -s or on failure."""
    print(f"\n===== {title} =====")
    print(body)


@pytest.fixture
def check(benchmark):
    """Run a shape-assertion block through the benchmark fixture.

    The suite is executed with ``--benchmark-only``, which skips any test
    not using the ``benchmark`` fixture.  Shape checks consume data from
    module-scoped sweep fixtures (where the real cost lives); wrapping the
    assertion body in a 1-round pedantic run keeps them executing under
    that flag.  Use as a decorator::

        def test_shape(sweep, check):
            @check
            def _():
                assert sweep[0].success.mean < 0.5
    """

    def runner(fn):
        benchmark.pedantic(fn, rounds=1, iterations=1)
        return fn

    return runner


_DESELECTED_MODULES: set = set()
_FAILED_NODEIDS: set = set()


def pytest_deselected(items):
    """Track modules with filtered-out tests (-k/-m) for the JSON emitter."""
    for item in items:
        _DESELECTED_MODULES.add(Path(str(item.fspath)).stem)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Remember every test that failed in any phase, so its row is not recorded."""
    outcome = yield
    if outcome.get_result().failed:
        _FAILED_NODEIDS.add(item.nodeid)


def pytest_sessionfinish(session, exitstatus):
    """Emit ``BENCH_<name>.json`` per benchmark module that ran.

    ``<name>`` is the module stem without the ``bench_`` prefix, so
    ``bench_kernels.py`` writes ``benchmarks/results/BENCH_kernels.json``.
    Each record carries the median wall time (seconds), rounds, and the
    test's ``extra_info`` (params, backend, derived metrics like speedups).
    A test that failed — even after its ``benchmark()`` call finished —
    writes no row, and the file keeps that test's previous record.
    """
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    by_module: "dict[str, list]" = {}
    for bench in bench_session.benchmarks:
        if bench.has_error or not bench.stats or bench.fullname in _FAILED_NODEIDS:
            continue
        module = Path(bench.fullname.split("::", 1)[0]).stem
        by_module.setdefault(module, []).append(
            {
                "test": bench.fullname.split("::", 1)[-1],
                "group": bench.group,
                "median_s": bench.stats.median,
                "mean_s": bench.stats.mean,
                "rounds": bench.stats.rounds,
                "params": bench.params,
                **({"extra": dict(bench.extra_info)} if bench.extra_info else {}),
            }
        )
    if not by_module:
        return
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    from repro.kernels.threads import machine_provenance

    # Machine provenance (core count, BLAS vendor + configured threads)
    # travels with every record: a speedup measured on a 1-core openblas
    # runner is not comparable to one from a 32-core MKL box.
    context = {
        "python": platform.python_version(),
        "workers_available": _worker_count(),
        "seed": int(os.environ.get("POOLED_REPRO_SEED", "2022")),
        **machine_provenance(),
    }
    for module, results in by_module.items():
        # A complete, clean run of the module is authoritative: replace the
        # file so records for renamed/deleted tests don't linger.  A
        # filtered (-k/-m), aborted (-x) or failing run merges by test id
        # instead, refreshing only what passed.  The measurement context
        # travels per record, so retained rows keep the environment they
        # were actually measured under.
        name = module[len("bench_"):] if module.startswith("bench_") else module
        path = RESULTS_DIR / f"BENCH_{name}.json"
        # Nodeid selection (file.py::Test) never fires pytest_deselected,
        # so inspect the invocation args too.
        nodeid_scoped = any("::" in str(a) for a in session.config.invocation_params.args)
        partial = nodeid_scoped or module in _DESELECTED_MODULES or exitstatus != 0
        merged: "dict[str, dict]" = {}
        if partial and path.exists():
            try:
                merged = {r["test"]: r for r in json.loads(path.read_text()).get("results", [])}
            except (ValueError, KeyError, TypeError):
                merged = {}
        merged.update({r["test"]: {**r, "context": context} for r in results})
        payload = {"bench": name, "results": sorted(merged.values(), key=lambda r: r["test"])}
        path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
