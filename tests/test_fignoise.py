"""Tests for the robustness phase-diagram experiment (fignoise)."""

import numpy as np
import pytest

from repro.experiments.fig3 import run_fig3
from repro.experiments.fignoise import default_level_grid, run_fignoise
from repro.experiments.io import read_csv, results_dir
from repro.noise import DropoutNoise, GaussianNoise

THETAS = (0.2, 0.3)
N, M, TRIALS, SEED = 300, 160, 6, 3


class TestLevelGrid:
    def test_includes_zero_and_max(self):
        grid = default_level_grid(GaussianNoise(2.0), points=5)
        assert grid[0] == 0.0 and grid[-1] == 2.0 and len(grid) == 5

    def test_single_point_is_zero(self):
        assert default_level_grid(GaussianNoise(2.0), points=1) == (0.0,)

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError):
            default_level_grid(GaussianNoise(1.0), points=0)


class TestFig3Parity:
    """Level 0 must be bit-identical to the noiseless fig3 path at matching points."""

    @pytest.mark.parametrize("family", [GaussianNoise(2.0), DropoutNoise(0.4)])
    def test_batched_zero_level_matches_fig3_batched(self, family):
        series = run_fignoise(
            n=N, noise=family, thetas=THETAS, levels=(0.0, family.level), trials=TRIALS, root_seed=SEED, m=M
        )
        fig3 = run_fig3(n=N, thetas=THETAS, ms=[M], trials=TRIALS, root_seed=SEED, engine="batched")
        for s, f in zip(series, fig3):
            assert s.points[0].success.mean == f.points[0].success.mean
            assert s.points[0].overlap.mean == f.points[0].overlap.mean

    def test_zero_level_unaffected_by_repeats(self):
        base = run_fignoise(
            n=N, noise=GaussianNoise(1.0), thetas=(0.3,), levels=(0.0,), trials=TRIALS, root_seed=SEED, m=M
        )
        reps = run_fignoise(
            n=N,
            noise=GaussianNoise(1.0),
            thetas=(0.3,),
            levels=(0.0,),
            trials=TRIALS,
            root_seed=SEED,
            m=M,
            repeats=3,
        )
        assert base[0].points[0].success.mean == reps[0].points[0].success.mean

    def test_trial_engine_zero_level_matches_fig3_trial(self):
        series = run_fignoise(
            n=N,
            noise=GaussianNoise(1.0),
            thetas=THETAS,
            levels=(0.0,),
            trials=TRIALS,
            root_seed=SEED,
            m=M,
            engine="trial",
        )
        fig3 = run_fig3(n=N, thetas=THETAS, ms=[M], trials=TRIALS, root_seed=SEED, engine="trial")
        for s, f in zip(series, fig3):
            assert s.points[0].success.mean == f.points[0].success.mean


class TestPhaseDiagram:
    def test_noise_degrades_recovery(self):
        series = run_fignoise(
            n=N,
            noise=GaussianNoise(30.0),
            thetas=(0.3,),
            levels=(0.0, 30.0),
            trials=TRIALS,
            root_seed=SEED,
            m=M,
        )
        pts = series[0].points
        assert pts[0].success.mean > pts[-1].success.mean

    def test_default_budget_recovers_at_zero_noise(self):
        series = run_fignoise(
            n=N, noise=GaussianNoise(1.0), thetas=(0.3,), levels=(0.0,), trials=TRIALS, root_seed=SEED
        )
        assert series[0].points[0].success.mean >= 0.5
        assert series[0].m > 0

    def test_critical_level(self):
        series = run_fignoise(
            n=N,
            noise=GaussianNoise(30.0),
            thetas=(0.3,),
            levels=(0.0, 30.0),
            trials=TRIALS,
            root_seed=SEED,
            m=M,
        )
        crit = series[0].critical_level(floor=0.5)
        assert crit is None or crit in (0.0, 30.0)

    def test_csv_written(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POOLED_REPRO_RESULTS", str(tmp_path))
        run_fignoise(
            n=N,
            noise=GaussianNoise(1.0),
            thetas=(0.3,),
            levels=(0.0, 1.0),
            trials=2,
            root_seed=SEED,
            m=M,
            csv_name="fignoise_test",
        )
        headers, rows = read_csv(results_dir() / "fignoise_test.csv")
        assert headers[:4] == ["theta", "level", "n", "m"]
        assert len(rows) == 2
        assert float(rows[0][1]) == 0.0 and float(rows[1][1]) == 1.0

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            run_fignoise(n=N, thetas=(0.3,), engine="turbo")

    def test_trial_engine_rejects_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            run_fignoise(n=N, thetas=(0.3,), engine="trial", repeats=2)

    def test_rejects_negative_levels(self):
        with pytest.raises(ValueError, match="non-negative"):
            run_fignoise(n=N, thetas=(0.3,), levels=(-1.0,))

    def test_worker_count_invariant(self):
        kwargs = dict(
            n=N, noise=GaussianNoise(2.0), thetas=THETAS, levels=(0.0, 1.0), trials=TRIALS, root_seed=SEED, m=M
        )
        serial = run_fignoise(workers=1, **kwargs)
        fanned = run_fignoise(workers=2, **kwargs)
        for a, b in zip(serial, fanned):
            for pa, pb in zip(a.points, b.points):
                assert pa.success.mean == pb.success.mean
                assert pa.overlap.mean == pb.overlap.mean

    def test_trial_engine_forks_one_pool_per_call(self, monkeypatch):
        """Every trial of the grid shares the one backend run_fignoise builds."""
        from repro.parallel.pool import WorkerPool

        inits = []
        real_init = WorkerPool.__init__

        def counting_init(self, *args, **kwargs):
            inits.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(WorkerPool, "__init__", counting_init)
        run_fignoise(n=N, thetas=(0.3,), levels=(0.0, 1.0), trials=3, root_seed=SEED, m=M, engine="trial", workers=2)
        assert len(inits) == 1

    def test_sweep_matches_per_level_points(self):
        from repro.engine.grid import run_batched_point, run_batched_point_sweep

        models = [GaussianNoise(x) for x in (0.0, 1.5, 3.0)]
        sweep = run_batched_point_sweep(N, M, models, theta=0.3, trials=TRIALS, root_seed=SEED, repeats=2)
        for model, r in zip(models, sweep):
            single = run_batched_point(N, M, theta=0.3, trials=TRIALS, root_seed=SEED, noise=model, repeats=2)
            assert np.array_equal(r.success, single.success)
            assert np.array_equal(r.overlap, single.overlap)

    def test_omp_sweep_matches_per_level_points(self):
        from repro.engine.grid import run_batched_point, run_batched_point_sweep

        models = [None, GaussianNoise(1.0), DropoutNoise(0.2)]
        sweep = run_batched_point_sweep(N, M, models, theta=0.2, trials=TRIALS, root_seed=SEED, decoder="omp")
        for model, r in zip(models, sweep):
            single = run_batched_point(N, M, theta=0.2, trials=TRIALS, root_seed=SEED, noise=model, decoder="omp")
            assert np.array_equal(r.success, single.success)
            assert np.array_equal(r.overlap, single.overlap)

    def test_sweep_compiles_a_baseline_once_per_point(self, monkeypatch):
        """A baseline sweep compiles its one design once, not once per noise model."""
        from repro.designs import compiled as compiled_mod
        from repro.engine.grid import run_batched_point_sweep

        monkeypatch.delenv("REPRO_DESIGN_STORE", raising=False)
        compiles = []
        original = compiled_mod.compile_design

        def counting_compile(design, **kwargs):
            compiles.append(design)
            return original(design, **kwargs)

        monkeypatch.setattr(compiled_mod, "compile_design", counting_compile)
        models = [GaussianNoise(x) for x in (0.0, 0.5, 1.0, 2.0)]
        run_batched_point_sweep(N, M, models, theta=0.2, trials=TRIALS, root_seed=SEED, decoder="omp")
        assert len(compiles) == 1

    def test_common_random_numbers_pair_levels(self):
        """All levels of one θ share design and signals (paired comparison)."""
        a = run_fignoise(
            n=N, noise=GaussianNoise(0.0), thetas=(0.3,), levels=(0.0,), trials=TRIALS, root_seed=SEED, m=M
        )
        b = run_fignoise(
            n=N,
            noise=GaussianNoise(5.0),
            thetas=(0.3,),
            levels=(0.0, 5.0),
            trials=TRIALS,
            root_seed=SEED,
            m=M,
        )
        assert a[0].points[0].success.mean == b[0].points[0].success.mean
