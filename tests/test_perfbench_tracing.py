"""The perfbench tracer still finds every name it wraps.

``perfbench/tracing.py`` patches program functions and class attributes by
name.  A rename under ``src/`` does not break it loudly: the name lands in
``Tracer.missing`` and its ledger stage silently reads "untraced" in a later
traced run.  This test installs the tracer in a fresh interpreter (the
patches must not leak into the test process) and requires that nothing is
missing.  It only reads ``perfbench/``.
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


def test_tracer_install_finds_every_name():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(REPO / "perfbench")],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []
