"""Name-only stand-in for the retired float32 stream/query kernel.

This module is not a kernel: it is outside the :mod:`repro.kernels`
registry and nothing in the library imports it.  It survives only because
the benchmark tracer (``perfbench/tracing.py``) wraps these four names on
``repro.kernels.dense32``, so it binds them to the ``dense`` functions.
"""

from repro.kernels.dense import materialised_dstar, materialised_psi, query_results_batch, stream_batch  # noqa: F401
