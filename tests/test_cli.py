"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def _isolated_results(tmp_path, monkeypatch):
    monkeypatch.setenv("POOLED_REPRO_RESULTS", str(tmp_path / "results"))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig2_defaults(self):
        args = build_parser().parse_args(["fig2"])
        assert args.trials == 10

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9"])

    @pytest.mark.parametrize("command", ["fig2", "fig3", "fig4", "fignoise", "figdecoders", "claims", "it"])
    def test_negative_workers_is_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--workers", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--workers" in err and ">= 0" in err

    @pytest.mark.parametrize(
        "command, default", [("fig2", 0), ("fig3", 0), ("fig4", 0), ("fignoise", 1), ("figdecoders", 1), ("claims", 0), ("it", 0)]
    )
    def test_workers_defaults(self, command, default):
        assert build_parser().parse_args([command]).workers == default


class TestCommands:
    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "[2, 2, 3, 1, 1]" in out

    def test_thresh(self, capsys):
        assert main(["thresh", "--n", "1000"]) == 0
        out = capsys.readouterr().out
        assert "MN (Thm1)" in out

    def test_it_small(self, capsys):
        assert main(["it", "--n", "20", "--k", "2", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert "P[unique]" in out

    def test_fig3_small(self, capsys):
        rc = main(["fig3", "--n", "200", "--thetas", "0.3", "--points", "3", "--trials", "3", "--workers", "1"])
        assert rc == 0
        assert "success" in capsys.readouterr().out

    def test_fig3_batched_engine(self, capsys):
        rc = main(
            ["fig3", "--n", "200", "--thetas", "0.3", "--points", "3", "--trials", "3", "--workers", "1", "--engine", "batched"]
        )
        assert rc == 0
        assert "success" in capsys.readouterr().out

    def test_fig4_small(self, capsys):
        rc = main(["fig4", "--n", "200", "--thetas", "0.3", "--points", "3", "--trials", "3", "--workers", "1"])
        assert rc == 0
        assert "overlap" in capsys.readouterr().out

    def test_fig2_small(self, capsys):
        rc = main(["fig2", "--ns", "100", "200", "--thetas", "0.3", "--trials", "2", "--workers", "1"])
        assert rc == 0
        assert "m_required" in capsys.readouterr().out

    def test_claims_small(self, capsys):
        rc = main(["claims", "--trials", "3", "--workers", "1"])
        assert rc == 0
        assert "sec6_99pct_overlap" in capsys.readouterr().out


class TestDesignCommands:
    def test_design_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["design"])

    def test_build_info_decode_roundtrip(self, tmp_path, capsys):
        import numpy as np

        from repro.core.serialization import load_compiled_design, save_design
        from repro.core.signal import random_signal

        out = tmp_path / "deployed"
        assert main(["design", "build", "--n", "200", "--m", "150", "--seed", "9", "--out", str(out)]) == 0
        built = capsys.readouterr().out
        assert "compiled design written" in built and "stream" in built

        assert main(["design", "info", str(out) + ".npz"]) == 0
        info = capsys.readouterr().out
        assert "batch_queries=256" in info and "psi block" in info

        # Attach observed results to the artifact, then serve a decode.
        compiled, _ = load_compiled_design(str(out) + ".npz")
        sigma = random_signal(200, 3, np.random.default_rng(3))
        served = tmp_path / "observed"
        save_design(served, compiled, y=compiled.query_results(sigma))
        assert main(["design", "decode", str(served) + ".npz", "--k", "3"]) == 0
        decoded = capsys.readouterr().out
        support = " ".join(str(i) for i in np.flatnonzero(sigma))
        assert support in decoded

    def test_decode_from_y_file(self, tmp_path, capsys):
        import numpy as np

        from repro.core.serialization import load_compiled_design

        out = tmp_path / "d"
        assert main(["design", "build", "--n", "100", "--m", "80", "--out", str(out)]) == 0
        capsys.readouterr()
        compiled, _ = load_compiled_design(str(out) + ".npz")
        sigma = np.zeros(100, dtype=np.int8)
        sigma[[5, 17]] = 1
        y_file = tmp_path / "y.txt"
        y_file.write_text("\n".join(str(int(v)) for v in compiled.query_results(sigma)))
        assert main(["design", "decode", str(out) + ".npz", "--k", "2", "--y-file", str(y_file)]) == 0
        assert "5 17" in capsys.readouterr().out

    def test_decode_malformed_y_file_errors(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["design", "build", "--n", "50", "--m", "30", "--out", str(out)]) == 0
        capsys.readouterr()
        bad = tmp_path / "y.txt"
        bad.write_text("3.5 not-a-count")
        assert main(["design", "decode", str(out) + ".npz", "--k", "2", "--y-file", str(bad)]) == 2
        assert "could not parse" in capsys.readouterr().err

    @pytest.mark.parametrize("counts", [[2**62] * 8, [-1] + [0] * 7, [17] + [0] * 7])
    def test_decode_rejects_results_that_are_not_pool_counts(self, tmp_path, capsys, counts):
        # n=32 stream design: every pool holds Γ=16 draws, so a result is in [0, 16].
        out = tmp_path / "d"
        assert main(["design", "build", "--n", "32", "--m", "8", "--seed", "7", "--out", str(out)]) == 0
        capsys.readouterr()
        y_file = tmp_path / "y.txt"
        y_file.write_text(" ".join(str(v) for v in counts))
        assert main(["design", "decode", str(out) + ".npz", "--k", "2", "--y-file", str(y_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: y[0] = ") and "pool holds 16 draws" in err

    def test_decode_rejects_stored_results_that_are_not_pool_counts(self, tmp_path, capsys):
        import numpy as np

        from repro.core.serialization import load_compiled_design, save_design

        out = tmp_path / "d"
        assert main(["design", "build", "--n", "32", "--m", "8", "--seed", "7", "--out", str(out)]) == 0
        capsys.readouterr()
        compiled, _ = load_compiled_design(str(out) + ".npz")
        stored = tmp_path / "observed"
        save_design(stored, compiled, y=np.array([0, 0, 0, 0, 0, 0, 0, -3]))
        assert main(["design", "decode", str(stored) + ".npz", "--k", "2"]) == 2
        assert "error: y[7] = -3" in capsys.readouterr().err

    @pytest.mark.parametrize("decoder", ["mn", "lp", "omp", "amp"])
    @pytest.mark.parametrize("k", ["0", "33"])
    def test_decode_bad_k_is_a_clean_error(self, tmp_path, capsys, decoder, k):
        out = tmp_path / "d"
        assert main(["design", "build", "--n", "32", "--m", "8", "--seed", "7", "--out", str(out)]) == 0
        capsys.readouterr()
        y_file = tmp_path / "y.txt"
        y_file.write_text("1 0 0 1 0 1 0 1")
        argv = ["design", "decode", str(out) + ".npz", "--k", k, "--y-file", str(y_file), "--decoder", decoder]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_decode_without_results_errors(self, tmp_path, capsys):
        out = tmp_path / "empty"
        assert main(["design", "build", "--n", "50", "--m", "30", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["design", "decode", str(out) + ".npz", "--k", "2"]) == 2
        assert "--y-file" in capsys.readouterr().err


class TestDesignStoreCLI:
    @pytest.fixture
    def ambient_store(self, tmp_path, monkeypatch):
        from repro.designs import reset_default_design_store

        root = tmp_path / "store"
        monkeypatch.setenv("REPRO_DESIGN_STORE", str(root))
        reset_default_design_store()
        yield root
        reset_default_design_store()

    def _build(self, tmp_path, seed=0):
        assert main(["design", "build", "--n", "200", "--m", "24", "--seed", str(seed), "--out", str(tmp_path / f"d{seed}")]) == 0

    def test_store_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["design", "store"])

    def test_ls_and_stats_after_ambient_build(self, tmp_path, ambient_store, capsys):
        self._build(tmp_path)
        capsys.readouterr()
        assert main(["design", "store", "ls"]) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out and "stream" in out
        assert main(["design", "store", "stats"]) == 0
        out = capsys.readouterr().out
        assert "publishes (all processes)" in out
        # A second build of the same key attaches instead of re-publishing.
        self._build(tmp_path)
        assert main(["design", "store", "stats"]) == 0
        out = capsys.readouterr().out
        assert any("hits (all processes)" in line and line.rstrip().endswith("1") for line in out.splitlines())

    def test_gc_frees_down_to_budget(self, tmp_path, ambient_store, capsys):
        self._build(tmp_path, seed=0)
        self._build(tmp_path, seed=1)
        capsys.readouterr()
        assert main(["design", "store", "gc", "--max-bytes", "1"]) == 0
        out = capsys.readouterr().out
        assert "evicted" in out and "freed" in out
        assert main(["design", "store", "ls"]) == 0
        assert "1 entries" in capsys.readouterr().out  # most recent survives

    def test_explicit_store_flag_wins_over_env(self, tmp_path, capsys):
        other = tmp_path / "elsewhere"
        assert main(["design", "store", "ls", "--store", str(other)]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_missing_store_errors_cleanly(self, monkeypatch, capsys):
        from repro.designs import reset_default_design_store

        monkeypatch.delenv("REPRO_DESIGN_STORE", raising=False)
        reset_default_design_store()
        assert main(["design", "store", "ls"]) == 2
        assert "REPRO_DESIGN_STORE" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["design", "build", "--n", "200", "--m", "24", "--out", "{tmp}/d"],
            ["design", "store", "ls"],
            ["serve", "--stdio"],
        ],
        ids=["design-build", "design-store-ls", "serve"],
    )
    def test_bad_byte_budget_exits_2_naming_the_variable(self, tmp_path, ambient_store, monkeypatch, capsys, argv):
        monkeypatch.setenv("REPRO_DESIGN_STORE_BYTES", "12MB")
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: REPRO_DESIGN_STORE_BYTES='12MB'") and "Traceback" not in err

    def test_gc_without_budget_reaps_residue_only(self, tmp_path, ambient_store, capsys):
        # No byte budget: nothing is evicted, but crash residue (orphaned
        # publication temp dirs past the grace period) is still reaped.
        (ambient_store / ".tmp-deadbeef-1-abc").mkdir(parents=True)
        assert main(["design", "store", "gc", "--grace-s", "0"]) == 0
        out = capsys.readouterr().out
        assert "reaped 1 residue item(s)" in out
        assert not (ambient_store / ".tmp-deadbeef-1-abc").exists()


#: One small invocation per sweep command (the ambient check runs before any of it).
SMALL_SWEEPS = {
    "fig2": ["fig2", "--ns", "100", "--thetas", "0.3", "--trials", "2", "--workers", "1"],
    "fig3": ["fig3", "--n", "100", "--thetas", "0.3", "--points", "2", "--trials", "2", "--workers", "1", "--engine", "batched"],
    "fig4": ["fig4", "--n", "100", "--thetas", "0.3", "--points", "2", "--trials", "2", "--workers", "1"],
    "fignoise": ["fignoise", "--n", "100", "--thetas", "0.3", "--points", "2", "--trials", "2"],
    "figdecoders": ["figdecoders", "--n", "100", "--thetas", "0.3", "--decoders", "mn", "--trials", "2"],
    "claims": ["claims", "--trials", "2", "--workers", "1"],
    "it": ["it", "--n", "12", "--k", "2", "--trials", "2", "--workers", "1"],
}


class TestAmbientSettings:
    """A malformed ambient variable ends a sweep with ``error: …`` and exit 2."""

    @pytest.fixture
    def fresh_store(self):
        from repro.designs import reset_default_design_store

        reset_default_design_store()
        yield
        reset_default_design_store()

    @pytest.mark.parametrize("command", sorted(SMALL_SWEEPS))
    def test_bad_kernel_exits_2_naming_the_variable(self, monkeypatch, capsys, command):
        monkeypatch.setenv("REPRO_KERNEL", "foo")
        assert main(SMALL_SWEEPS[command]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: REPRO_KERNEL='foo' is not a known kernel") and "Traceback" not in captured.err
        assert captured.out == ""  # rejected before the sweep started

    @pytest.mark.parametrize("command", sorted(SMALL_SWEEPS))
    def test_bad_byte_budget_exits_2_naming_the_variable(self, tmp_path, monkeypatch, capsys, fresh_store, command):
        monkeypatch.setenv("REPRO_DESIGN_STORE", str(tmp_path / "store"))
        monkeypatch.setenv("REPRO_DESIGN_STORE_BYTES", "12MB")
        assert main(SMALL_SWEEPS[command]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: REPRO_DESIGN_STORE_BYTES='12MB'") and "Traceback" not in captured.err
        assert captured.out == ""

    def test_valid_settings_still_run(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_KERNEL", "legacy")
        assert main(SMALL_SWEEPS["fig3"]) == 0
        assert "success" in capsys.readouterr().out


class TestServeFlags:
    @pytest.fixture
    def served_config(self, monkeypatch):
        """Run ``main`` up to the server start and return the ServeConfig it built."""
        import repro.serve

        seen = []

        async def fake_serve_forever(decoders, config, **kwargs):
            seen.append(config)

        monkeypatch.setattr(repro.serve, "serve_forever", fake_serve_forever)

        def run(*flags):
            assert main(["serve", "--stdio", *flags]) == 0
            return seen.pop()

        return run

    def test_omitted_flags_keep_the_serveconfig_defaults(self, served_config):
        from repro.serve import ServeConfig

        assert served_config() == ServeConfig()

    def test_flags_override_their_fields(self, served_config):
        from repro.serve import ServeConfig

        config = served_config("--max-batch", "7", "--timeout-ms", "50", "--decoder", "comp", "--breaker-cooldown-ms", "0")
        assert config == ServeConfig(max_batch=7, timeout_ms=50.0, default_decoder="comp", breaker_cooldown_ms=0.0)

    @pytest.mark.parametrize("flags", [["--decoder", "martian"], ["--max-batch", "0"]])
    def test_bad_flag_exits_2(self, flags, capsys):
        assert main(["serve", "--stdio", *flags]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_batch_window_flag_is_gone(self, capsys):
        # Batches form only at the decode lane; there is no timer to set.
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--stdio", "--batch-window-ms", "1"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --batch-window-ms" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--timeout-ms", "--breaker-cooldown-ms"])
    def test_non_finite_flag_exits_2_naming_the_field(self, flag, value, capsys, monkeypatch):
        import repro.serve

        started = []

        async def fake_serve_forever(decoders, config, **kwargs):
            started.append(config)

        monkeypatch.setattr(repro.serve, "serve_forever", fake_serve_forever)
        assert main(["serve", "--stdio", flag, value]) == 2
        assert not started
        field = flag.lstrip("-").replace("-", "_")
        assert capsys.readouterr().err.startswith(f"error: {field} must be finite")
