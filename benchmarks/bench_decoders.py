"""Compiled baseline decoders: cold one-shot vs warm compiled (tracked).

Every baseline family (LP, OMP, AMP, binary-GT COMP/DD) needs per-design
state — the dense counts block (shared by LP/OMP/AMP), OMP's centred
column norms, OR membership.  The compiled decoders
(:mod:`repro.baselines.compiled`) build that state once per artifact, so
warm serving pays only the per-signal algorithm.  This benchmark measures that contract at
paper-panel scale (``n = 10^4``): **cold** is the one-shot function on
the raw design — for LP/OMP/AMP that is compile (content key, compiled
design, decoder state) plus one ``decode``; for MN and COMP/DD the
reference one-shots — and **warm** is the compiled decoder's ``decode``
against the pre-built artifact.  The acceptance floor is a >= 5x warm
speedup for OMP and AMP (recorded in
``benchmarks/results/BENCH_decoders.json``, ``extra.speedup_x``).  The
``B = 64`` records track batched serving throughput ((B,m)@(m,n) GEMMs
instead of per-signal loops).

LP is measured at a reduced ``n`` (its per-call ``linprog`` dominates
both paths, so hoisting buys materialisation only — the recorded ratio
documents that honestly rather than asserting a floor).
"""

import time

import numpy as np
import pytest

from repro.baselines.amp import amp_decode
from repro.baselines.bin_gt import BernoulliORDesign, comp_decode, dd_decode
from repro.baselines.lp import basis_pursuit_decode
from repro.baselines.omp import omp_decode
from repro.core.design import PoolingDesign
from repro.core.mn import mn_reconstruct
from repro.core.signal import random_signal, random_signals
from repro.designs import compile_design, make_decoder

N, M, K = 10_000, 128, 4
B = 64
LP_N, LP_M = 1500, 110

#: Warm-speedup acceptance floors (the compiled-baselines PR contract).
SPEEDUP_FLOORS = {"omp": 5.0, "amp": 5.0}


def _membership(design: PoolingDesign) -> np.ndarray:
    """Per-call OR membership matrix — the legacy binary-GT setup cost."""
    member = np.zeros((design.m, design.n), dtype=bool)
    rows = np.repeat(np.arange(design.m), np.diff(design.indptr))
    member[rows, design.entries] = True
    return member


#: Cold one-shot calls: everything per-call, nothing reused across calls.
#: LP/OMP/AMP compile a private artifact and decode once (compile included);
#: MN and COMP/DD run their reference one-shot implementations.
LEGACY = {
    "mn": lambda d, y, k: mn_reconstruct(d, y, k),
    "lp": lambda d, y, k: basis_pursuit_decode(d, y, k),
    "omp": lambda d, y, k: omp_decode(d, y, k),
    "amp": lambda d, y, k: amp_decode(d, y, k).sigma_hat,
    "comp": lambda d, y, k: comp_decode(BernoulliORDesign(_membership(d)), (np.asarray(y) > 0).astype(np.int8)),
    "dd": lambda d, y, k: dd_decode(BernoulliORDesign(_membership(d)), (np.asarray(y) > 0).astype(np.int8)),
}


def _instance(n: int, m: int, seed: int):
    rng = np.random.default_rng(seed)
    sigma = random_signal(n, K, rng)
    design = PoolingDesign.sample(n, m, rng)
    return design, sigma, design.query_results(sigma)


def _cold_seconds(fn, rounds: int = 3):
    times, out = [], None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), out


@pytest.fixture(scope="module")
def panel(repro_seed):
    """One paper-panel instance plus its compiled artifact (shared)."""
    design, sigma, y = _instance(N, M, repro_seed)
    return design, sigma, y, compile_design(design)


@pytest.mark.parametrize("name", ["mn", "omp", "amp", "comp", "dd"])
def test_warm_vs_cold(name, panel, benchmark, repro_seed):
    design, _sigma, y, compiled = panel
    cold_s, cold_out = _cold_seconds(lambda: LEGACY[name](design, y, K))

    decoder = make_decoder(name).compile(compiled)
    decoder.decode(y, K)  # materialise lazily-built state outside timing
    warm_out = benchmark(lambda: decoder.decode(y, K))
    warm_s = benchmark.stats.stats.median

    speedup = cold_s / warm_s
    benchmark.extra_info.update(
        {
            "decoder": name,
            "n": N,
            "m": M,
            "k": K,
            "B": 1,
            "cold_s": round(cold_s, 5),
            "warm_s": round(warm_s, 6),
            "speedup_x": round(speedup, 2),
        }
    )
    print(f"\n{name}: cold {cold_s * 1e3:.1f}ms vs warm {warm_s * 1e3:.2f}ms -> {speedup:.1f}x")

    # The one-shot runs the same decode on a fresh artifact — bit-identical.
    assert np.array_equal(np.asarray(cold_out), warm_out)
    floor = SPEEDUP_FLOORS.get(name)
    if floor is not None:
        assert speedup >= floor, f"{name} warm speedup {speedup:.1f}x under the {floor}x acceptance floor"


def test_lp_warm_vs_cold(benchmark, repro_seed):
    """LP at reduced n — linprog dominates, so the ratio is documentation."""
    design, _sigma, y = _instance(LP_N, LP_M, repro_seed)
    compiled = compile_design(design)
    cold_s, cold_out = _cold_seconds(lambda: LEGACY["lp"](design, y, K))

    decoder = make_decoder("lp").compile(compiled)
    decoder.decode(y, K)
    warm_out = benchmark(lambda: decoder.decode(y, K))
    warm_s = benchmark.stats.stats.median

    benchmark.extra_info.update(
        {
            "decoder": "lp",
            "n": LP_N,
            "m": LP_M,
            "k": K,
            "B": 1,
            "reduced_size": "linprog dominates both paths at n=10^4; hoisting buys materialisation only",
            "cold_s": round(cold_s, 5),
            "warm_s": round(warm_s, 5),
            "speedup_x": round(cold_s / warm_s, 2),
        }
    )
    assert np.array_equal(np.asarray(cold_out), warm_out)
    assert cold_s >= warm_s * 0.9  # hoisting never makes LP meaningfully slower


@pytest.mark.parametrize("name", ["mn", "omp", "amp", "comp", "dd"])
def test_batched_throughput(name, panel, benchmark, repro_seed):
    """B=64 decode_batch: one (B,m)@(m,n) GEMM pass, not B per-signal loops."""
    design, _sigma, _y, compiled = panel
    sigmas = random_signals(N, K, B, np.random.default_rng(repro_seed + 7))
    Y = compiled.query_results(sigmas)

    decoder = make_decoder(name).compile(compiled)
    decoder.decode_batch(Y, K)  # warm any lazily-built state
    out = benchmark(lambda: decoder.decode_batch(Y, K))
    batch_s = benchmark.stats.stats.median

    single_s, _ = _cold_seconds(lambda: decoder.decode(Y[0], K))
    amortisation = single_s / (batch_s / B)
    benchmark.extra_info.update(
        {
            "decoder": name,
            "n": N,
            "m": M,
            "k": K,
            "B": B,
            "per_signal_us": round(batch_s / B * 1e6, 1),
            "single_warm_us": round(single_s * 1e6, 1),
            "batch_amortisation_x": round(amortisation, 2),
        }
    )
    print(f"\n{name}: B={B} batch {batch_s * 1e3:.1f}ms ({batch_s / B * 1e6:.0f}us/signal, {amortisation:.1f}x vs single)")

    assert out.shape == (B, N)
    # Batched rows recover the same supports as the warm single-signal path.
    assert np.array_equal(np.flatnonzero(out[0]), np.flatnonzero(decoder.decode(Y[0], K)))
