"""Cross-validation: the streaming kernel vs an explicitly materialised design.

``stream_design_stats`` never materialises the graph; this test rebuilds
the *same* edges (same stream keys, same batch layout) into a
:class:`PoolingDesign` and checks that every statistic agrees exactly —
the strongest possible check that the batched dedup kernel implements the
model's Ψ/Δ*/Δ/y semantics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.design import PoolingDesign, default_gamma, stream_design_stats
from repro.core.signal import random_signal
from repro.rng.streams import StreamFamily


def _materialise_stream(n, m, root_seed, trial_key, batch_queries):
    """Rebuild the exact edge set the streaming path generates."""
    gamma = default_gamma(n)
    family = StreamFamily(root_seed)
    chunks = []
    b = 0
    lo = 0
    while lo < m:
        hi = min(m, lo + batch_queries)
        rng = family.generator(*trial_key, b)
        chunks.append(rng.integers(0, n, size=(hi - lo, gamma), dtype=np.int64))
        lo = hi
        b += 1
    entries = np.concatenate([c.ravel() for c in chunks])
    indptr = np.arange(m + 1, dtype=np.int64) * gamma
    return PoolingDesign(n, entries, indptr)


@pytest.mark.parametrize("batch_queries", [7, 64, 256])
def test_stream_equals_materialised(batch_queries):
    rng = np.random.default_rng(0)
    n, k, m = 180, 5, 90
    sigma = random_signal(n, k, rng)
    stats = stream_design_stats(sigma, m, root_seed=17, trial_key=(3,), batch_queries=batch_queries)
    design = _materialise_stream(n, m, 17, (3,), batch_queries)
    ref = design.stats(sigma)
    assert np.array_equal(stats.y, ref.y)
    assert np.array_equal(stats.psi, ref.psi)
    assert np.array_equal(stats.dstar, ref.dstar)
    assert np.array_equal(stats.delta, ref.delta)


def test_stream_equals_materialised_parallel():
    from repro.engine.backend import SharedMemBackend

    rng = np.random.default_rng(1)
    n, k, m = 150, 4, 120
    sigma = random_signal(n, k, rng)
    with SharedMemBackend(3) as backend:
        stats = stream_design_stats(sigma, m, root_seed=23, trial_key=(1,), batch_queries=32, backend=backend)
    design = _materialise_stream(n, m, 23, (1,), 32)
    ref = design.stats(sigma)
    for field in ("y", "psi", "dstar", "delta"):
        assert np.array_equal(getattr(stats, field), getattr(ref, field)), field


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_property_stream_equals_materialised(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 120))
    k = int(rng.integers(1, max(2, n // 5)))
    m = int(rng.integers(1, 60))
    batch = int(rng.integers(1, 80))
    sigma = random_signal(n, k, rng)
    stats = stream_design_stats(sigma, m, root_seed=seed % 2**31, batch_queries=batch)
    design = _materialise_stream(n, m, seed % 2**31, (), batch)
    ref = design.stats(sigma)
    for field in ("y", "psi", "dstar", "delta"):
        assert np.array_equal(getattr(stats, field), getattr(ref, field)), field
