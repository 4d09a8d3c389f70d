"""Tests for the batched engine: backends, batch kernels, facades, grids."""

import numpy as np
import pytest

from repro.core.design import DesignStats, PoolingDesign, stream_design_stats
from repro.core.mn import MNDecoder, mn_reconstruct, run_mn_trial
from repro.core.reconstruction import reconstruct
from repro.core.scores import mn_scores
from repro.core.signal import exact_recovery, overlap_fraction, random_signal, random_signals
from repro.engine import (
    BatchReconstructionReport,
    SerialBackend,
    SharedMemBackend,
    backend_for_workers,
    reconstruct_batch,
    run_batched_point,
    run_trial_grid,
    signals_oracle,
)
from repro.engine.backend import resolved_backend
from repro.experiments.runner import run_trials, success_and_overlap_curve
from repro.parallel.pool import WorkerPool, resolve_workers

# The five library entry points whose one execution argument is backend=,
# each bound to a tiny valid call.
_SIGMA = random_signal(60, 2, np.random.default_rng(0))
ENTRY_POINTS = {
    "stream_design_stats": lambda **kw: stream_design_stats(_SIGMA, 20, root_seed=0, **kw),
    "run_mn_trial": lambda **kw: run_mn_trial(60, 20, k=2, **kw),
    "run_trials": lambda **kw: run_trials(60, 20, k=2, trials=1, **kw),
    "success_and_overlap_curve": lambda **kw: success_and_overlap_curve(60, [20], k=2, trials=1, **kw),
    "run_trial_grid": lambda **kw: run_trial_grid(60, [20], k=2, trials=1, **kw),
}


class TestBackends:
    def test_serial_defaults(self):
        b = SerialBackend()
        assert b.workers == 1 and b.kernel is None

    def test_serial_map_runs_inline_with_persistent_cache(self):
        b = SerialBackend()
        out = b.map(lambda p, cache: cache.setdefault("hits", []).append(p) or p * 2, [1, 2, 3])
        assert out == [2, 4, 6]
        assert b._cache["hits"] == [1, 2, 3]

    def test_resolve_legacy_workers_one_is_serial(self):
        with backend_for_workers(1) as backend:
            assert isinstance(backend, SerialBackend)

    @pytest.mark.parametrize("workers", [0, None])
    def test_backend_for_workers_all_cores(self, workers):
        # 0/None resolve to every core; one core degrades to inline.
        cores = resolve_workers(None)
        with backend_for_workers(workers) as backend:
            assert backend.workers == cores
            assert isinstance(backend, SerialBackend if cores == 1 else SharedMemBackend)

    def test_backend_for_workers_count(self):
        with backend_for_workers(3) as backend:
            assert isinstance(backend, SharedMemBackend) and backend.workers == 3

    def test_backend_for_workers_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            backend_for_workers(-1)

    def test_resolve_rejects_backend_plus_pool(self):
        # backend= is the one execution argument: the pre-backend pool=
        # is no longer a parameter of any entry point.
        with WorkerPool(1) as pool:
            for call in ENTRY_POINTS.values():
                with pytest.raises(TypeError, match="pool"):
                    call(backend=SerialBackend(), pool=pool)

    @pytest.mark.parametrize("knob", [{"workers": 4}, {"workers": 0}, {"batch_queries": 128}, {"kernel": "legacy"}])
    def test_resolve_rejects_backend_plus_any_legacy_knob(self, knob):
        # An explicit backend with a loose knob is two sources of truth;
        # every knob must be rejected loudly, not silently ignored.  The
        # runners and the grid accept none of them any more.
        for name in ("run_trials", "success_and_overlap_curve", "run_trial_grid"):
            with pytest.raises(TypeError, match=next(iter(knob))):
                ENTRY_POINTS[name](backend=SerialBackend(), **knob)

    @pytest.mark.parametrize("name", ["stream_design_stats", "run_mn_trial"])
    def test_streaming_entry_points_reject_workers_and_kernel(self, name):
        # batch_queries stays a per-call design-key argument here; the
        # execution knobs are gone.
        for knob in ({"workers": 2}, {"pool": None}, {"kernel": "legacy"}):
            with pytest.raises(TypeError, match=next(iter(knob))):
                ENTRY_POINTS[name](**knob)

    @pytest.mark.parametrize("cls", [SerialBackend, SharedMemBackend])
    def test_backends_take_no_batch_queries_or_pool(self, cls):
        assert not hasattr(cls, "batch_queries")
        with pytest.raises(TypeError, match="batch_queries"):
            cls(batch_queries=128)
        if cls is SharedMemBackend:
            with pytest.raises(TypeError, match="pool"):
                cls(2, pool=None)

    def test_resolve_explicit_backend_not_owned(self):
        b = SerialBackend()
        with resolved_backend(b) as backend:
            assert backend is b
        assert b.map(_double_task, [1]) == [2]  # still running

    def test_resolved_default_backend_is_owned(self):
        with resolved_backend() as backend:
            assert isinstance(backend, SerialBackend)
        with pytest.raises(RuntimeError, match="backend already shut down"):
            backend.map(_double_task, [1])

    def test_serial_map_after_shutdown_raises(self):
        b = SerialBackend()
        b.shutdown()
        with pytest.raises(RuntimeError, match="backend already shut down"):
            b.map(_double_task, [1])

    def test_sharedmem_map_after_shutdown_raises(self):
        b = SharedMemBackend(2)
        b.shutdown()  # lazy pool: never forked
        with pytest.raises(RuntimeError, match="backend already shut down"):
            b.map(_double_task, [1])


def _double_task(payload, cache):
    return payload * 2


class TestBackendEquivalence:
    """Serial and shared-memory backends must agree bit-for-bit."""

    def test_stream_stats_fixed_seed_grid(self):
        sigma = random_signal(300, 6, np.random.default_rng(1))
        with SharedMemBackend(3) as shared:
            for m in (40, 160, 700):
                serial = stream_design_stats(sigma, m, root_seed=9, batch_queries=64, backend=SerialBackend())
                par = stream_design_stats(sigma, m, root_seed=9, batch_queries=64, backend=shared)
                for field in ("y", "psi", "dstar", "delta"):
                    assert np.array_equal(getattr(serial, field), getattr(par, field)), (m, field)

    def test_trial_grid_backend_invariance(self):
        serial = run_trial_grid(200, [60, 140], theta=0.2, trials=5, root_seed=3, backend=SerialBackend())
        with SharedMemBackend(2) as shared:
            par = run_trial_grid(200, [60, 140], theta=0.2, trials=5, root_seed=3, backend=shared)
        for a, b in zip(serial, par):
            assert np.array_equal(a.success, b.success)
            assert np.array_equal(a.overlap, b.overlap)

    def test_run_trials_matches_run_mn_trial(self):
        # Trials fanned out over a multi-worker backend are the same trials
        # run_mn_trial draws one at a time (same stream keys).
        from repro.core.mn import POINT_TRIAL_STRIDE

        with SharedMemBackend(2) as backend:
            batch = run_trials(300, 120, k=5, trials=3, root_seed=7, point_id=1, backend=backend)
        for t, r in enumerate(batch):
            assert r == run_mn_trial(300, 120, k=5, root_seed=7, trial=POINT_TRIAL_STRIDE + t)

    def test_reconstruct_backend_only_affects_decomposition(self):
        sigma = random_signal(300, 3, np.random.default_rng(5))
        oracle = lambda pools: [int(sigma[p].sum()) for p in pools]
        base = reconstruct(300, 200, oracle, k=3, rng=np.random.default_rng(0))
        alt = reconstruct(300, 200, oracle, k=3, rng=np.random.default_rng(0), backend=SerialBackend(kernel="legacy"))
        assert np.array_equal(base.sigma_hat, alt.sigma_hat)
        assert np.array_equal(base.y, alt.y)


class TestBatchedStats:
    def test_batched_stats_match_single(self):
        rng = np.random.default_rng(0)
        design = PoolingDesign.sample(120, 60, rng)
        sigmas = random_signals(120, 4, 5, rng)
        batched = design.stats(sigmas)
        assert batched.batch == 5
        for b in range(5):
            single = design.stats(sigmas[b])
            view = batched.signal(b)
            for field in ("y", "psi", "dstar", "delta"):
                assert np.array_equal(getattr(single, field), getattr(view, field)), (b, field)
            assert single.gamma == view.gamma

    def test_batched_shape_validation(self):
        with pytest.raises(ValueError, match="batched psi"):
            DesignStats(
                y=np.zeros((2, 3), dtype=np.int64),
                psi=np.zeros((3, 4), dtype=np.int64),
                dstar=np.zeros(4, dtype=np.int64),
                delta=np.zeros(4, dtype=np.int64),
                n=4,
                m=3,
                gamma=2,
            )

    def test_signal_view_requires_batch(self):
        design = PoolingDesign.sample(50, 10, np.random.default_rng(1))
        stats = design.stats(random_signal(50, 2, np.random.default_rng(2)))
        with pytest.raises(ValueError, match="not batched"):
            stats.signal(0)

    def test_single_signal_only_consumers_reject_batched_stats(self):
        # estimate_k would silently pool one k-hat across heterogeneous
        # signals; psi_phi_identity_check would compare mixed-batch masses.
        from repro.core.estimate import estimate_k
        from repro.core.scores import psi_phi_identity_check

        design = PoolingDesign.sample(60, 30, np.random.default_rng(7))
        sigmas = random_signals(60, 3, 2, np.random.default_rng(8))
        stats = design.stats(sigmas)
        with pytest.raises(ValueError, match="single-signal"):
            estimate_k(stats)
        with pytest.raises(ValueError, match="single-signal"):
            psi_phi_identity_check(stats, sigmas[0])
        # The per-signal views still work.
        assert estimate_k(stats.signal(0)).k_hat >= 0
        assert psi_phi_identity_check(stats.signal(1), sigmas[1])

    def test_diagnose_scores_rejects_batched_stats(self):
        from repro.core.diagnostics import diagnose_scores

        design = PoolingDesign.sample(60, 40, np.random.default_rng(20))
        sigmas = random_signals(60, 3, 2, np.random.default_rng(21))
        stats = design.stats(sigmas)
        with pytest.raises(ValueError, match="single-signal"):
            diagnose_scores(stats, sigmas[0])
        assert diagnose_scores(stats.signal(0), sigmas[0]).separated in (True, False)

    def test_phi_from_psi_batched(self):
        from repro.core.scores import phi_from_psi

        design = PoolingDesign.sample(60, 30, np.random.default_rng(9))
        sigmas = random_signals(60, 3, 2, np.random.default_rng(10))
        stats = design.stats(sigmas)
        phi = phi_from_psi(stats, sigmas)
        for b in range(2):
            assert np.array_equal(phi[b], phi_from_psi(stats.signal(b), sigmas[b]))
        # A single signal against batched stats must not broadcast silently.
        with pytest.raises(ValueError, match="stats.signal"):
            phi_from_psi(stats, sigmas[0])

    def test_rank_entries_rejects_batched_stats(self):
        design = PoolingDesign.sample(60, 30, np.random.default_rng(11))
        stats = design.stats(random_signals(60, 3, 2, np.random.default_rng(12)))
        with pytest.raises(ValueError, match="single-signal"):
            MNDecoder().rank_entries(stats, 3)
        ranked = MNDecoder().rank_entries(stats.signal(0), 3)
        assert ranked.shape == (60,)

    def test_batched_scores_and_decode_match_single(self):
        rng = np.random.default_rng(3)
        design = PoolingDesign.sample(150, 120, rng)
        sigmas = random_signals(150, 3, 4, rng)
        stats = design.stats(sigmas)
        scores = mn_scores(stats, 3)
        decoded = MNDecoder().decode(stats, 3)
        assert scores.shape == (4, 150) and decoded.shape == (4, 150)
        for b in range(4):
            s_single = stats.signal(b)
            assert np.array_equal(scores[b], mn_scores(s_single, 3))
            assert np.array_equal(decoded[b], MNDecoder().decode(s_single, 3))

    def test_per_signal_k_decode(self):
        rng = np.random.default_rng(4)
        design = PoolingDesign.sample(100, 150, rng)
        ks = np.array([2, 5, 3])
        sigmas = np.stack([random_signal(100, int(kb), rng) for kb in ks])
        stats = design.stats(sigmas)
        decoded = MNDecoder().decode(stats, ks)
        assert np.array_equal(decoded.sum(axis=1), ks)
        for b in range(3):
            assert np.array_equal(decoded[b], MNDecoder().decode(stats.signal(b), int(ks[b])))

    def test_batched_mn_reconstruct(self):
        rng = np.random.default_rng(5)
        design = PoolingDesign.sample(200, 160, rng)
        sigmas = random_signals(200, 3, 6, rng)
        y = design.query_results(sigmas)
        assert y.shape == (6, 160)
        batched = mn_reconstruct(design, y, 3)
        for b in range(6):
            assert np.array_equal(batched[b], mn_reconstruct(design, y[b], 3))


class TestBatchMetrics:
    def test_exact_recovery_batched(self):
        a = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.int8)
        b = np.array([[1, 0, 1], [1, 0, 0]], dtype=np.int8)
        assert np.array_equal(exact_recovery(a, b), [True, False])

    def test_overlap_batched_matches_scalar(self):
        rng = np.random.default_rng(6)
        sig = random_signals(40, 4, 3, rng)
        est = random_signals(40, 4, 3, rng)
        batched = overlap_fraction(sig, est)
        for b in range(3):
            assert batched[b] == overlap_fraction(sig[b], est[b])

    def test_one_truth_broadcasts_against_batch(self):
        truth = np.array([1, 0, 1, 0], dtype=np.int8)
        ests = np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=np.int8)
        assert np.array_equal(exact_recovery(truth, ests), [True, False])
        assert np.allclose(overlap_fraction(truth, ests), [1.0, 0.0])

    def test_batched_zero_weight_row_rejected(self):
        sig = np.zeros((2, 4), dtype=np.int8)
        sig[0, 1] = 1
        with pytest.raises(ValueError, match="one-entry"):
            overlap_fraction(sig, sig)


class TestReconstructBatch:
    def _signals(self, n, k, B, seed):
        return random_signals(n, k, B, np.random.default_rng(seed))

    def test_matches_independent_reconstruct_calls(self):
        # The acceptance contract: B=64 batched == 64 singles, matched seeds.
        n, m, B = 256, 180, 64
        sigmas = self._signals(n, 3, B, 7)
        batch = reconstruct_batch(n, m, signals_oracle(sigmas), B, rng=np.random.default_rng(42))
        assert isinstance(batch, BatchReconstructionReport) and batch.batch == B
        for b in range(B):
            oracle = lambda pools, s=sigmas[b]: [int(s[p].sum()) for p in pools]
            single = reconstruct(n, m, oracle, rng=np.random.default_rng(42))
            assert np.array_equal(single.sigma_hat, batch.sigma_hat[b])
            assert single.k == int(batch.k[b])
            assert np.array_equal(single.y, batch.y[b])
            view = batch.signal_report(b)
            assert np.array_equal(view.sigma_hat, single.sigma_hat) and view.k == single.k

    def test_known_k_scalar(self):
        n, m, B = 200, 150, 8
        sigmas = self._signals(n, 3, B, 8)
        batch = reconstruct_batch(n, m, signals_oracle(sigmas), B, k=3, rng=np.random.default_rng(1))
        assert not batch.calibrated
        assert np.array_equal(batch.sigma_hat, sigmas)

    def test_per_signal_k_array(self):
        n, m, B = 150, 140, 3
        rng = np.random.default_rng(9)
        ks = np.array([2, 4, 3])
        sigmas = np.stack([random_signal(n, int(kb), rng) for kb in ks])
        batch = reconstruct_batch(n, m, signals_oracle(sigmas), B, k=ks, rng=np.random.default_rng(2))
        assert np.array_equal(batch.k, ks)
        assert np.array_equal(batch.sigma_hat, sigmas)

    def test_calibration_learns_heterogeneous_weights(self):
        n, m, B = 150, 140, 3
        rng = np.random.default_rng(10)
        ks = [1, 5, 2]
        sigmas = np.stack([random_signal(n, kb, rng) for kb in ks])
        batch = reconstruct_batch(n, m, signals_oracle(sigmas), B, rng=np.random.default_rng(3))
        assert batch.calibrated
        assert np.array_equal(batch.k, ks)

    # -- error paths (mirroring the single-signal facade) ---------------------

    def test_rejects_wrong_result_shape(self):
        with pytest.raises(ValueError, match="shape"):
            reconstruct_batch(50, 10, lambda pools: np.zeros((4, len(pools) - 1)), 4, k=2)

    def test_rejects_wrong_batch_count(self):
        with pytest.raises(ValueError, match="shape"):
            reconstruct_batch(50, 10, lambda pools: np.zeros((3, len(pools))), 4, k=2)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="negative"):
            reconstruct_batch(50, 10, lambda pools: -np.ones((4, len(pools))), 4, k=2)

    def test_rejects_zero_weight_calibration(self):
        sigmas = np.zeros((4, 50), dtype=np.int8)
        sigmas[[0, 1, 3], 2] = 1  # only signal 2 is empty
        with pytest.raises(ValueError, match="signal 2"):
            reconstruct_batch(50, 10, signals_oracle(sigmas), 4)

    def test_rejects_impossible_calibration(self):
        with pytest.raises(ValueError, match="inconsistent"):
            reconstruct_batch(50, 10, lambda pools: 60 * np.ones((4, len(pools))), 4)

    def test_rejects_bad_k_array(self):
        sigmas = np.zeros((3, 50), dtype=np.int8)
        sigmas[:, 0] = 1
        with pytest.raises(ValueError, match="positive integer"):
            reconstruct_batch(50, 10, signals_oracle(sigmas), 3, k=np.array([1, 0, 1]))
        with pytest.raises(ValueError, match="shape"):
            reconstruct_batch(50, 10, signals_oracle(sigmas), 3, k=np.array([1, 1]))


class TestTrialGrid:
    def test_point_is_deterministic(self):
        a = run_batched_point(200, 120, theta=0.2, trials=6, root_seed=5, point_id=1)
        b = run_batched_point(200, 120, theta=0.2, trials=6, root_seed=5, point_id=1)
        assert np.array_equal(a.success, b.success)
        assert np.array_equal(a.overlap, b.overlap)

    def test_point_matches_manual_batch_decode(self):
        r = run_batched_point(150, 200, k=3, trials=4, root_seed=2, point_id=0)
        assert r.k == 3
        assert r.success.shape == (4,) and r.overlap.shape == (4,)
        assert np.all((r.overlap >= 0) & (r.overlap <= 1))
        assert np.all(r.overlap[r.success] == 1.0)

    def test_grid_success_increases_with_m(self):
        pts = run_trial_grid(300, [30, 450], theta=0.2, trials=8, root_seed=0)
        assert pts[0].success.mean() <= pts[1].success.mean()
        assert pts[1].success.mean() == 1.0

    def test_requires_exactly_one_of_theta_k(self):
        with pytest.raises(ValueError, match="exactly one"):
            run_batched_point(100, 50, trials=2)
        with pytest.raises(ValueError, match="exactly one"):
            run_batched_point(100, 50, theta=0.2, k=3, trials=2)

    def test_signal_streams_match_classic_runner(self):
        # The batched grid promises the same per-trial ground truths as
        # run_mn_trial at trial id point_id * POINT_TRIAL_STRIDE + t.
        from repro.core.mn import POINT_TRIAL_STRIDE, SIGNAL_STREAM_TAG
        from repro.rng.streams import batch_generator

        n, k, point_id, root_seed = 80, 3, 2, 13
        for t in range(3):
            trial = point_id * POINT_TRIAL_STRIDE + t
            classic = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(entropy=root_seed, spawn_key=(SIGNAL_STREAM_TAG, trial)))
            )
            assert np.array_equal(
                random_signal(n, k, batch_generator(root_seed, SIGNAL_STREAM_TAG, trial)),
                random_signal(n, k, classic),
            )


class TestRunnerEngines:
    def test_batched_curve_shape_and_determinism(self):
        from repro.experiments.runner import success_and_overlap_curve

        a = success_and_overlap_curve(200, [60, 200], theta=0.2, trials=5, root_seed=1, engine="batched")
        b = success_and_overlap_curve(200, [60, 200], theta=0.2, trials=5, root_seed=1, engine="batched")
        assert [(p.n, p.m, p.success.mean, p.overlap.mean) for p in a] == [
            (p.n, p.m, p.success.mean, p.overlap.mean) for p in b
        ]
        assert a[-1].success.mean == 1.0

    def test_unknown_engine_rejected(self):
        from repro.experiments.runner import success_and_overlap_curve

        with pytest.raises(ValueError, match="unknown engine"):
            success_and_overlap_curve(100, [10], theta=0.2, trials=2, engine="warp")
