"""Shared plumbing: checkout paths, percentiles, server processes, provenance.

Everything here runs in the benchmark's own process (the load generator);
the program under test runs in child processes started from ``src/``.
"""

from __future__ import annotations

import math
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: Root of the checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch space for design stores and span files; removed when a run ends.
WORK = ROOT / ".perfbench_work"

#: B buckets of the per-layer batch-size split.
B_BUCKETS = (("b1", 1, 1), ("b2-8", 2, 8), ("b9-64", 9, 64))


def require_source() -> None:
    """Exit non-zero (printing no result) when the program's source is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def nproc() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def child_env() -> dict:
    """Environment for a program child: ``src`` importable, one BLAS thread.

    ``REPRO_BLAS_THREADS`` is the program's own knob; the vendor variables
    make the cap effective in processes that never consult it (``serve``),
    so the load generator keeps a core of its own.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("REPRO_BLAS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    # Ambient program configuration must not leak into a measured run.
    for name in ("REPRO_DESIGN_STORE", "REPRO_DESIGN_CACHE", "REPRO_KERNEL", "REPRO_KERNEL_TUNING",
                 "REPRO_FAULT_PLAN", "REPRO_DESIGN_STORE_REMOTE", "REPRO_SERVE_DECODER"):
        env.pop(name, None)
    return env


def fresh_workdir(tag: str) -> Path:
    path = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()  # only when no other run uses it
    except OSError:
        pass


# -- percentiles --------------------------------------------------------------


def tail_percentile(count: int, cap: float = 99.0, beyond: int = 10) -> "float | None":
    """Highest percentile <= ``cap`` with at least ``beyond`` samples above it."""
    if count <= beyond:
        return None
    return min(cap, math.floor(1000.0 * (1.0 - beyond / count)) / 10.0)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def summary(values, cap: float = 99.0) -> dict:
    """Median and supported tail of ``values`` with the counts behind them."""
    tail_q = tail_percentile(len(values), cap)
    return {
        "count": len(values),
        "p50": percentile(values, 50.0),
        "tail_q": tail_q,
        "tail": percentile(values, tail_q) if tail_q is not None else max(values, default=0.0),
    }


# -- processes ----------------------------------------------------------------


def read_line(proc: subprocess.Popen, timeout_s: float) -> str:
    """One stdout line of ``proc`` within ``timeout_s`` (``""`` on EOF/timeout)."""
    fd = proc.stdout.fileno()
    deadline = time.monotonic() + timeout_s
    buf = b""
    while not buf.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            return ""
        chunk = os.read(fd, 1)
        if not chunk:
            return ""
        buf += chunk
    return buf.decode("utf-8", "replace").strip()


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def stop_process(proc: subprocess.Popen, timeout_s: float = 30.0) -> int:
    """SIGTERM (graceful drain), then SIGKILL; always reaps the child."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdout, proc.stdin):
        if stream is not None:
            stream.close()
    return proc.returncode


class ServerProcess:
    """One ``pooled-repro serve`` child on an ephemeral TCP port."""

    def __init__(self, argv: "list[str]", env: dict, log_path: Path):
        self._log = open(log_path, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=self._log, env=env, cwd=str(ROOT))
        banner = read_line(self.proc, 120.0)
        if not banner.startswith("serving on "):
            self.close()
            raise RuntimeError(f"server did not start (banner {banner!r}); see {log_path}")
        host, port = banner.rsplit(" ", 1)[1].rsplit(":", 1)
        self.host, self.port = host, int(port)

    def rss_peak_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def close(self) -> int:
        code = stop_process(self.proc)
        self._log.close()
        return code


def serve_argv(store: Path, spans: "Path | None" = None) -> "list[str]":
    """The ``serve`` command at default settings (traced through the launcher)."""
    args = ["serve", "--port", "0", "--store", str(store)]
    if spans is None:
        return [sys.executable, "-m", "repro.cli", *args]
    return [sys.executable, str(BENCH_DIR / "traced_serve.py"), "--spans", str(spans), "--", *args]


# -- provenance ---------------------------------------------------------------


def provenance(seed: int) -> dict:
    from repro.kernels.threads import machine_provenance

    program = child_env()
    return {
        "nproc": nproc(),
        "seed": seed,
        "python": sys.version.split()[0],
        **machine_provenance(),
        "program_blas_threads": int(program["REPRO_BLAS_THREADS"]),
    }
