"""Tests for the CI benchmark-regression gate (benchmarks/compare_bench.py) and the BENCH recorder."""

import importlib.util
import json
from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

_SPEC = importlib.util.spec_from_file_location(
    "compare_bench", Path(__file__).resolve().parent.parent / "benchmarks" / "compare_bench.py"
)
compare_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_bench)


def _write_bench(directory: Path, name: str, medians: "dict[str, float]") -> None:
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "bench": name,
        "results": [{"test": test, "median_s": median, "rounds": 1} for test, median in medians.items()],
    }
    (directory / f"BENCH_{name}.json").write_text(json.dumps(payload))


@pytest.fixture
def dirs(tmp_path):
    return tmp_path / "baseline", tmp_path / "fresh"


class TestLoadMedians:
    def test_loads_keys(self, dirs):
        base, _ = dirs
        _write_bench(base, "kernels", {"test_a": 0.5, "test_b": 0.1})
        assert compare_bench.load_medians(base) == {"kernels::test_a": 0.5, "kernels::test_b": 0.1}

    def test_missing_dir_is_empty(self, tmp_path):
        assert compare_bench.load_medians(tmp_path / "nope") == {}

    def test_malformed_file_skipped(self, dirs, capsys):
        base, _ = dirs
        base.mkdir()
        (base / "BENCH_bad.json").write_text("{not json")
        _write_bench(base, "good", {"t": 1.0})
        assert compare_bench.load_medians(base) == {"good::t": 1.0}
        assert "skipping malformed" in capsys.readouterr().err

    def test_malformed_record_drops_only_itself(self, dirs, capsys):
        """New record shapes (e.g. speedup-only records) must not sink their file."""
        base, _ = dirs
        base.mkdir()
        payload = {
            "bench": "kernels",
            "results": [
                {"test": "test_good", "median_s": 0.5},
                {"test": "test_speedup_only", "extra": {"speedup_x": 4.2}},  # no median_s
                {"test": "test_bad_median", "median_s": "n/a"},
            ],
        }
        (base / "BENCH_kernels.json").write_text(json.dumps(payload))
        assert compare_bench.load_medians(base) == {"kernels::test_good": 0.5}
        assert "skipping malformed record" in capsys.readouterr().err

    def test_extra_fields_tolerated(self, dirs):
        """Records carrying extra keys (params, speedup_x, context) load fine."""
        base, _ = dirs
        base.mkdir()
        payload = {
            "bench": "kernels",
            "results": [
                {"test": "t", "median_s": 0.25, "extra": {"speedup_x": 3.9, "n": 10000}, "context": {"python": "3"}}
            ],
        }
        (base / "BENCH_kernels.json").write_text(json.dumps(payload))
        assert compare_bench.load_medians(base) == {"kernels::t": 0.25}


class TestCompare:
    def test_flags_slowdown_beyond_threshold(self):
        rows, regressions = compare_bench.compare({"k::t": 0.1}, {"k::t": 0.35}, threshold=2.5)
        assert regressions == ["k::t"]
        assert rows[0][4] == "REGRESSION"

    def test_within_threshold_ok(self):
        _, regressions = compare_bench.compare({"k::t": 0.1}, {"k::t": 0.24}, threshold=2.5)
        assert regressions == []

    def test_disjoint_keys_never_fail(self):
        rows, regressions = compare_bench.compare({"a::x": 1.0}, {"b::y": 100.0})
        assert rows == [] and regressions == []

    def test_zero_baseline_cannot_regress(self):
        _, regressions = compare_bench.compare({"k::t": 0.0}, {"k::t": 5.0})
        assert regressions == []

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match="threshold"):
            compare_bench.compare({}, {}, threshold=0.0)


class TestMain:
    def test_synthetic_3x_slowdown_fails(self, dirs, capsys):
        """The acceptance fixture: a 3x slowdown must exit non-zero."""
        base, fresh = dirs
        _write_bench(base, "kernels", {"test_psi": 0.10, "test_topk": 0.20})
        _write_bench(fresh, "kernels", {"test_psi": 0.30, "test_topk": 0.21})
        rc = compare_bench.main([str(base), str(fresh), "--threshold", "2.5"])
        assert rc == 1
        out = capsys.readouterr()
        assert "REGRESSION" in out.out  # per-key table printed
        assert "kernels::test_psi" in out.err

    def test_identical_measurements_pass(self, dirs):
        base, fresh = dirs
        _write_bench(base, "kernels", {"test_psi": 0.10})
        _write_bench(fresh, "kernels", {"test_psi": 0.10})
        assert compare_bench.main([str(base), str(fresh)]) == 0

    def test_empty_baseline_passes(self, dirs, capsys):
        base, fresh = dirs
        fresh.mkdir()
        _write_bench(fresh, "kernels", {"test_psi": 0.10})
        assert compare_bench.main([str(base), str(fresh)]) == 0
        assert "new record(s) without history" in capsys.readouterr().out

    def test_baseline_only_keys_reported_not_failed(self, dirs, capsys):
        base, fresh = dirs
        _write_bench(base, "kernels", {"test_gone": 0.10})
        _write_bench(fresh, "kernels", {"test_new": 0.10})
        assert compare_bench.main([str(base), str(fresh)]) == 0
        out = capsys.readouterr().out
        assert "baseline-only" in out

    @pytest.mark.parametrize("fresh_exists", [True, False])
    def test_empty_fresh_dir_fails_naming_it(self, dirs, capsys, fresh_exists):
        """A bench step that wrote no record leaves nothing to gate: that fails."""
        base, fresh = dirs
        _write_bench(base, "kernels", {"test_psi": 0.10, "test_topk": 0.20})
        if fresh_exists:
            fresh.mkdir()
        assert compare_bench.main([str(base), str(fresh)]) == 1
        err = capsys.readouterr().err
        assert str(fresh) in err and "no benchmark record" in err

    def test_custom_threshold_respected(self, dirs):
        base, fresh = dirs
        _write_bench(base, "kernels", {"t": 0.10})
        _write_bench(fresh, "kernels", {"t": 0.15})
        assert compare_bench.main([str(base), str(fresh), "--threshold", "1.2"]) == 1


_BENCH_CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"

_DEMO_BENCH = """
def test_ok(benchmark):
    benchmark.extra_info["speedup_x"] = 6.0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_bad(benchmark):
    benchmark.extra_info["speedup_x"] = 2.8
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert benchmark.extra_info["speedup_x"] >= 5, "gate"
"""


class TestRecorder:
    """The session-end BENCH_*.json writer in benchmarks/conftest.py."""

    def test_failed_test_keeps_its_previous_record(self, pytester):
        previous = [
            {"test": "test_bad", "median_s": 123.0, "extra": {"speedup_x": 11.0}},
            {"test": "test_gone", "median_s": 1.0},
        ]
        pytester.makeconftest(_BENCH_CONFTEST.read_text())
        pytester.makepyfile(bench_demo=_DEMO_BENCH)
        record = pytester.path / "results" / "BENCH_demo.json"
        record.parent.mkdir()
        record.write_text(json.dumps({"bench": "demo", "results": previous}))
        outcome = pytester.runpytest_inprocess("bench_demo.py", "--benchmark-only", "-q", "-p", "no:cacheprovider")
        outcome.assert_outcomes(passed=1, failed=1)
        rows = {r["test"]: r for r in json.loads(record.read_text())["results"]}
        assert rows["test_bad"] == previous[0]  # the failing run wrote nothing for it
        assert rows["test_ok"]["extra"] == {"speedup_x": 6.0}
        assert "test_gone" in rows  # a failing run merges; it never replaces the file
