"""Tests for the experiment harness (runner, search, drivers, io)."""

import numpy as np
import pytest

from repro.engine.backend import SharedMemBackend
from repro.experiments.claims import run_claim_table, threshold_summary
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import default_m_grid, run_fig3
from repro.experiments.fig4 import overlap_leads_success, run_fig4
from repro.experiments.io import read_csv, results_dir, write_csv
from repro.experiments.itcheck import run_it_threshold
from repro.experiments.runner import run_trials, success_and_overlap_curve
from repro.experiments.search import minimal_queries_for_recovery


@pytest.fixture(autouse=True)
def _isolated_results(tmp_path, monkeypatch):
    monkeypatch.setenv("POOLED_REPRO_RESULTS", str(tmp_path / "results"))


class TestIO:
    def test_roundtrip(self):
        path = write_csv("unit", ["a", "b"], [(1, 2), (3, 4)])
        headers, rows = read_csv(path)
        assert headers == ["a", "b"]
        assert rows == [["1", "2"], ["3", "4"]]

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            write_csv("bad", ["a", "b"], [(1,)])

    def test_name_validated(self):
        with pytest.raises(ValueError):
            write_csv("../escape", ["a"], [(1,)])

    def test_results_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POOLED_REPRO_RESULTS", str(tmp_path / "x"))
        assert results_dir() == tmp_path / "x"
        assert (tmp_path / "x").exists()


class TestRunner:
    def test_run_trials_count_and_determinism(self):
        a = run_trials(200, 100, k=3, trials=4, root_seed=1)
        b = run_trials(200, 100, k=3, trials=4, root_seed=1)
        assert len(a) == 4
        assert a == b

    def test_point_id_changes_designs(self):
        # Below threshold, overlaps vary between designs: different point
        # ids must draw different designs.
        a = run_trials(500, 12, k=5, trials=8, root_seed=1, point_id=0)
        b = run_trials(500, 12, k=5, trials=8, root_seed=1, point_id=1)
        assert [x.overlap for x in a] != [y.overlap for y in b]

    def test_parallel_equals_serial(self):
        a = run_trials(200, 100, k=3, trials=6, root_seed=2)
        with SharedMemBackend(3) as backend:
            b = run_trials(200, 100, k=3, trials=6, root_seed=2, backend=backend)
        assert a == b

    def test_curve_monotone_shape(self):
        pts = success_and_overlap_curve(300, [20, 120, 400], k=4, trials=10, root_seed=0)
        assert pts[0].success.mean <= pts[-1].success.mean
        assert pts[-1].success.mean >= 0.9
        for p in pts:
            assert p.overlap.mean >= p.success.mean - 1e-12


class TestSearch:
    def test_reasonable_range(self):
        m = minimal_queries_for_recovery(300, theta=0.3, root_seed=0, trial=0)
        # Must exceed the counting bound and stay within ~4x the MN theory.
        from repro.core.thresholds import m_mn_threshold

        assert 10 < m < 4 * m_mn_threshold(300, 0.3)

    def test_deterministic(self):
        a = minimal_queries_for_recovery(200, theta=0.3, root_seed=3, trial=1)
        b = minimal_queries_for_recovery(200, theta=0.3, root_seed=3, trial=1)
        assert a == b

    def test_trial_variation(self):
        values = {minimal_queries_for_recovery(200, theta=0.3, root_seed=3, trial=t) for t in range(4)}
        assert len(values) > 1  # fresh randomness per trial

    def test_cap_raises(self):
        with pytest.raises(RuntimeError):
            minimal_queries_for_recovery(100, k=3, root_seed=0, m_cap=2)


class TestFigureDrivers:
    def test_fig2_rows_and_csv(self):
        rows = run_fig2(ns=(100, 300), thetas=(0.3,), trials=3, root_seed=0, csv_name="fig2_test")
        assert len(rows) == 2
        assert all(r.required_m.mean > 0 for r in rows)
        headers, data = read_csv(results_dir() / "fig2_test.csv")
        assert len(data) == 2

    def test_fig2_theory_columns(self):
        rows = run_fig2(ns=(300,), thetas=(0.2,), trials=2, root_seed=0, csv_name=None)
        assert rows[0].theory_corrected > rows[0].theory_m

    def test_fig3_series_shape(self):
        series = run_fig3(n=300, thetas=(0.3,), ms=(30, 150, 450), trials=6, root_seed=0)
        assert len(series) == 1
        s = series[0]
        assert len(s.points) == 3
        assert s.points[-1].success.mean >= s.points[0].success.mean

    def test_fig3_crossing(self):
        series = run_fig3(n=300, thetas=(0.3,), ms=(30, 450), trials=6, root_seed=0)
        assert series[0].crossing_m(0.5) in (450.0, None) or series[0].crossing_m(0.5) == 30.0

    def test_fig4_overlap_dominates(self):
        series = run_fig4(n=300, thetas=(0.3,), ms=(60, 200, 500), trials=6, root_seed=0, csv_name="fig4_test")
        s = series[0]
        for p in s.points:
            assert p.overlap.mean >= p.success.mean
        assert overlap_leads_success(s, level=0.9)

    def test_default_m_grid(self):
        g1000 = default_m_grid(1000)
        g10000 = default_m_grid(10000)
        assert max(g1000) == 1000
        assert max(g10000) == 3000
        assert all(m > 0 for m in g1000)


class TestClaims:
    def test_claim_rows(self):
        rows = run_claim_table(trials=5, csv_name="claims_test")
        assert rows[0].label == "sec6_99pct_overlap"
        assert rows[0].m == 220
        assert 0.5 <= rows[0].measured_overlap.mean <= 1.0

    def test_claim_cells_share_one_pool(self, monkeypatch):
        from repro.parallel.pool import WorkerPool

        inits = []
        real_init = WorkerPool.__init__

        def counting_init(self, *args, **kwargs):
            inits.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(WorkerPool, "__init__", counting_init)
        parallel = run_claim_table(trials=2, workers=2, csv_name=None)
        assert len(inits) == 1
        serial = run_claim_table(trials=2, workers=1, csv_name=None)
        assert [r.measured_overlap for r in parallel] == [r.measured_overlap for r in serial]

    def test_threshold_summary(self):
        info = threshold_summary(1000, 0.3)
        assert info["k"] == 8.0
        assert info["m_MN"] > info["m_IT_parallel"]


class TestITCheck:
    def test_transition_shape(self):
        pts = run_it_threshold(n=24, k=3, cs=(0.5, 3.0), trials=8, root_seed=0, csv_name=None)
        assert pts[0].unique.mean < pts[1].unique.mean
        assert pts[1].unique.mean >= 0.75

    def test_m_scales_with_c(self):
        pts = run_it_threshold(n=24, k=3, cs=(1.0, 2.0), trials=2, root_seed=0, csv_name=None)
        assert pts[1].m > pts[0].m
