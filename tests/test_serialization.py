"""Tests for design persistence: plain designs, compiled artifacts, cache keys."""

import dataclasses

import numpy as np
import pytest

from repro.core.design import PoolingDesign
from repro.core.mn import mn_reconstruct
from repro.core.serialization import FORMAT_VERSION, load_compiled_design, load_design, save_design
from repro.core.signal import random_signal
from repro.designs import CompiledDesign, DesignKey, DesignStore, compile_design, compile_from_key


@pytest.fixture
def instance():
    rng = np.random.default_rng(0)
    n, k, m = 200, 4, 150
    sigma = random_signal(n, k, rng)
    design = PoolingDesign.sample(n, m, rng)
    return design, sigma, design.query_results(sigma)


class TestRoundtrip:
    def test_design_only(self, tmp_path, instance):
        design, _, _ = instance
        path = save_design(tmp_path / "run1", design)
        assert path.suffix == ".npz"
        loaded, y = load_design(path)
        assert y is None
        assert loaded.n == design.n
        assert np.array_equal(loaded.entries, design.entries)
        assert np.array_equal(loaded.indptr, design.indptr)

    def test_design_with_results(self, tmp_path, instance):
        design, sigma, y = instance
        path = save_design(tmp_path / "run2.npz", design, y=y)
        loaded, y2 = load_design(path)
        assert np.array_equal(y, y2)
        # Re-decoding from the audit file reproduces the estimate.
        assert np.array_equal(
            mn_reconstruct(loaded, y2, 4),
            mn_reconstruct(design, y, 4),
        )

    def test_ragged_design_roundtrip(self, tmp_path):
        design = PoolingDesign.from_pools(10, [[0, 1], [2, 3, 4], [5]])
        path = save_design(tmp_path / "ragged", design)
        loaded, _ = load_design(path)
        assert loaded.m == 3
        assert np.array_equal(loaded.pool(1), np.array([2, 3, 4]))


class TestCompiledRoundtrip:
    def test_compiled_artifact_roundtrip(self, tmp_path):
        key = DesignKey.for_stream(120, 80, root_seed=4, trial_key=(7,), batch_queries=32)
        compiled = compile_from_key(key)
        path = save_design(tmp_path / "artifact", compiled)
        loaded, y = load_compiled_design(path)
        assert y is None
        assert loaded.key == key and loaded.key.scheme == "stream"
        assert np.array_equal(loaded.design.entries, compiled.design.entries)
        assert np.array_equal(loaded.dstar, compiled.dstar)
        assert np.array_equal(loaded.delta, compiled.delta)

    def test_ragged_compiled_roundtrip_with_results(self, tmp_path):
        design = PoolingDesign.from_pools(10, [[0, 1, 1], [2, 3, 4], [5]])
        compiled = compile_design(design)
        sigma = np.zeros(10, dtype=np.int8)
        sigma[[1, 3]] = 1
        y = design.query_results(sigma)
        path = save_design(tmp_path / "ragged-artifact", compiled, y=y)
        loaded, y2 = load_compiled_design(path)
        assert loaded.key.scheme == "content" and loaded.key == compiled.key
        assert np.array_equal(y, y2)
        # Re-decoding from the artifact reproduces the estimate bit for bit.
        assert np.array_equal(
            loaded.stats_for(y2).psi,
            compiled.stats_for(y).psi,
        )

    def test_plain_file_loads_as_compiled(self, tmp_path):
        # Files written before the compiled lifecycle stay serveable: the
        # design is compiled on load under its content address.
        design = PoolingDesign.sample(60, 30, np.random.default_rng(2))
        path = save_design(tmp_path / "plain", design)
        loaded, _ = load_compiled_design(path)
        assert loaded.key == DesignKey.for_content(design)
        assert np.array_equal(loaded.dstar, design.dstar())

    def test_compiled_decode_matches_plain_decode(self, tmp_path):
        rng = np.random.default_rng(0)
        sigma = random_signal(200, 4, rng)
        design = PoolingDesign.sample(200, 150, rng)
        y = design.query_results(sigma)
        path = save_design(tmp_path / "served", compile_design(design), y=y)
        compiled, y2 = load_compiled_design(path)
        from repro.core.mn import MNDecoder

        assert np.array_equal(
            MNDecoder().compile(compiled).decode(y2, 4),
            mn_reconstruct(design, y, 4),
        )

    def test_corrupted_delta_rejected(self, tmp_path):
        compiled = compile_design(PoolingDesign.sample(40, 20, np.random.default_rng(1)))
        bad_delta = compiled.delta.copy()
        bad_delta[0] += 1
        path = tmp_path / "bad-delta.npz"
        np.savez(
            path,
            format_version=np.asarray(FORMAT_VERSION),
            n=np.asarray(compiled.n),
            entries=compiled.design.entries,
            indptr=compiled.design.indptr,
            compiled_dstar=compiled.dstar,
            compiled_delta=bad_delta,
            compiled_key=np.asarray("{}"),
        )
        with pytest.raises(ValueError, match="delta is inconsistent"):
            load_compiled_design(path)

    def test_truncated_compiled_extras_rejected(self, tmp_path):
        # compiled_key present but the degree vectors missing (truncated or
        # foreign writer): ValueError, never a raw KeyError.
        design = PoolingDesign.sample(40, 20, np.random.default_rng(1))
        path = tmp_path / "truncated.npz"
        np.savez(
            path,
            format_version=np.asarray(FORMAT_VERSION),
            n=np.asarray(design.n),
            entries=design.entries,
            indptr=design.indptr,
            compiled_key=np.asarray("{}"),
        )
        with pytest.raises(ValueError, match="missing 'compiled_dstar'"):
            load_compiled_design(path)

    def test_wrong_object_type_rejected_on_save(self, tmp_path):
        with pytest.raises(TypeError, match="expected PoolingDesign or CompiledDesign"):
            save_design(tmp_path / "bad", object())

    def test_garbled_key_json_rejected(self, tmp_path):
        # Degrees valid but the key JSON is empty/garbled: still ValueError,
        # never a raw KeyError.
        compiled = compile_design(PoolingDesign.sample(40, 20, np.random.default_rng(1)))
        path = tmp_path / "bad-key.npz"
        np.savez(
            path,
            format_version=np.asarray(FORMAT_VERSION),
            n=np.asarray(compiled.n),
            entries=compiled.design.entries,
            indptr=compiled.design.indptr,
            compiled_dstar=compiled.dstar,
            compiled_delta=compiled.delta,
            compiled_key=np.asarray("{}"),
        )
        with pytest.raises(ValueError, match="corrupted compiled-design key"):
            load_compiled_design(path)

    def test_corrupted_dstar_rejected(self, tmp_path):
        compiled = compile_design(PoolingDesign.sample(40, 20, np.random.default_rng(1)))
        bad_dstar = compiled.dstar.copy()
        bad_dstar[0] = compiled.m + 5  # above the distinct-query ceiling
        path = tmp_path / "bad-dstar.npz"
        np.savez(
            path,
            format_version=np.asarray(FORMAT_VERSION),
            n=np.asarray(compiled.n),
            entries=compiled.design.entries,
            indptr=compiled.design.indptr,
            compiled_dstar=bad_dstar,
            compiled_delta=compiled.delta,
            compiled_key=np.asarray("{}"),
        )
        with pytest.raises(ValueError, match="degree bounds"):
            load_compiled_design(path)


class TestCacheKeying:
    """Same key → store hit; any key component change → miss."""

    BASE = dict(n=120, m=80, gamma=60, root_seed=4, trial_key=(7,), batch_queries=32)

    def test_same_key_hits(self, tmp_path):
        key = DesignKey(**self.BASE)
        store = DesignStore(tmp_path)
        store.publish(CompiledDesign(compile_from_key(key).design, key=key))
        assert store.get(DesignKey(**self.BASE)) is not None
        assert store.stats.hits == 1

    @pytest.mark.parametrize(
        "change",
        [
            {"n": 121},
            {"m": 81},
            {"gamma": 61},
            {"root_seed": 5},
            {"trial_key": (8,)},
            {"trial_key": (7, 0)},
            {"batch_queries": 64},
        ],
    )
    def test_any_component_change_misses(self, change, tmp_path):
        key = DesignKey(**self.BASE)
        store = DesignStore(tmp_path)
        store.publish(compile_from_key(key))
        probe = dataclasses.replace(key, **change)
        assert store.get(probe) is None
        assert store.stats.misses == 1 and store.stats.hits == 0


class TestValidation:
    def test_wrong_y_length_rejected_on_save(self, tmp_path, instance):
        design, _, y = instance
        with pytest.raises(ValueError, match="length m"):
            save_design(tmp_path / "bad", design, y=y[:-1])

    def test_not_a_design_file(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, foo=np.arange(3))
        with pytest.raises(ValueError, match="not a pooled-repro design file"):
            load_design(path)

    def test_wrong_version_rejected(self, tmp_path, instance):
        design, _, _ = instance
        path = tmp_path / "v999.npz"
        np.savez(
            path,
            format_version=np.asarray(FORMAT_VERSION + 1),
            n=np.asarray(design.n),
            entries=design.entries,
            indptr=design.indptr,
        )
        with pytest.raises(ValueError, match="version"):
            load_design(path)

    def test_corrupted_structure_rejected(self, tmp_path, instance):
        design, _, _ = instance
        path = tmp_path / "corrupt.npz"
        bad_indptr = design.indptr.copy()
        bad_indptr[-1] += 5  # points past the entries array
        np.savez(
            path,
            format_version=np.asarray(FORMAT_VERSION),
            n=np.asarray(design.n),
            entries=design.entries,
            indptr=bad_indptr,
        )
        with pytest.raises(ValueError):
            load_design(path)


class TestTruncatedFiles:
    """A concurrent partial write must raise a clean ValueError, never a
    numpy/zipfile traceback (the store-era failure mode: a reader racing a
    copy or an interrupted download)."""

    def test_truncated_compiled_file_raises_clean_valueerror(self, tmp_path):
        compiled = compile_from_key(DesignKey.for_stream(120, 16, root_seed=8))
        path = save_design(tmp_path / "full", compiled)
        blob = path.read_bytes()
        # Cut at several depths: inside the zip header, mid-archive, and
        # just shy of the central directory.
        for cut in (10, len(blob) // 3, len(blob) // 2, len(blob) - 8):
            trunc = tmp_path / f"trunc{cut}.npz"
            trunc.write_bytes(blob[:cut])
            with pytest.raises(ValueError, match="truncated or corrupted|not a pooled-repro"):
                load_compiled_design(trunc)
            with pytest.raises(ValueError, match="truncated or corrupted|not a pooled-repro"):
                load_design(trunc)

    def test_empty_file_raises_clean_valueerror(self, tmp_path):
        path = tmp_path / "empty.npz"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="truncated or corrupted"):
            load_compiled_design(path)

    def test_missing_file_still_raises_filenotfound(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_compiled_design(tmp_path / "nowhere.npz")
