"""The perfbench tracer still finds every name it wraps.

``perfbench/tracing.py`` patches program functions and class attributes by
name.  A rename under ``src/`` does not break it loudly: the name lands in
``Tracer.missing`` and its ledger stage silently reads "untraced" in a later
traced run.  This test installs the tracer in a fresh interpreter (the
patches must not leak into the test process) and requires that nothing is
missing.  It only reads ``perfbench/``.

The tracer also relies on how the program calls what it wraps: its
``compile_from_key`` wrapper records a ``designs.compiled.compile`` span
only for a bare call, and forwards keywords as ``cache=``/``store=``.  So
the store's factory must call ``compile_from_key(key)`` bare, through the
module global, on the cold path of a layered lookup.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
print(json.dumps(tracing.install().missing))
"""


_LAYERED_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
tracer = tracing.install()
import numpy as np
from repro.designs import DesignKey, DesignStore, make_decoder, resolve_compiled
key = DesignKey.for_stream(200, 60, root_seed=3)
store = DesignStore(sys.argv[2])
supports = []
for _ in range(2):  # cold: compile and publish; warm: attach
    decoder = make_decoder("mn").compile(resolve_compiled(key, store=store))
    sigma = np.zeros(200, dtype=np.int8)
    sigma[[5, 50, 150]] = 1
    supports.append(np.flatnonzero(decoder.decode(decoder.compiled.query_results(sigma), 3)).tolist())
spans = [s[1] for s in tracer.spans if s[1] == "designs.compiled.compile"]
print(json.dumps({"supports": supports, "compiles": len(spans), "hits": store.stats.hits}))
"""


def _run(probe: str, *args: str) -> str:
    env = {name: value for name, value in os.environ.items() if name != "REPRO_DESIGN_STORE"}
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(REPO / "perfbench"), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_tracer_install_finds_every_name():
    assert json.loads(_run(_PROBE)) == []


def test_traced_layered_compile_records_one_compile_span(tmp_path):
    out = json.loads(_run(_LAYERED_PROBE, str(tmp_path / "store")))
    cold, warm = out["supports"]
    assert cold == warm and len(cold) == 3
    assert out["compiles"] == 1 and out["hits"] == 1
