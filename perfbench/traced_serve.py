"""Run ``pooled-repro serve`` with the benchmark's spans installed.

Usage: ``python3 traced_serve.py --spans OUT.json -- serve --port 0 ...``

Installs :mod:`tracing` and then calls the same CLI entry as
``python -m repro.cli``.  Spans stay in memory and are written to
``OUT.json`` once the server has drained and ``main`` returned.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    import tracing
    from repro import cli

    tracer = tracing.install()
    code = cli.main(serve_args)
    tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
