"""Parity suite for the compiled baseline decoders.

The contract (module docstring of :mod:`repro.baselines.compiled`):

* the one-shot ``basis_pursuit_decode`` / ``omp_decode`` / ``amp_decode``
  are the registry decoders compiled with no cache or store — same output,
  nothing published to an ambient cache/store, same residency bound;
  ``CompiledGTDecoder.decode`` matches ``comp_decode`` / ``dd_decode``;
* every family's ``decode`` is the one-row ``decode_batch``, bit for bit,
  with one shape message and one finiteness check;
* single-signal ``decode`` supports are pinned as literal index lists, so
  drift in the float op sequence shows up here — they are the float
  families' reference;
* LP/OMP/AMP decode against the compiled design's one counts block and
  hold no ``(m, n)`` array of their own;
* row ``b`` of a ``B``-row batch against ``decode`` of that row alone:
  bit-identical for the integer-exact COMP/DD decoders (they route through
  the kernel-dispatched ``Ψ`` seam) and support-identical (same thresholded
  output) for the float LP/OMP/AMP decoders, whose GEMMs round differently
  with the batch shape — this checks the cross-row masking and per-row k;
* results are independent of how the artifact was obtained — direct
  compile or cache/store read-through.

Run under ``REPRO_KERNEL=dense|legacy`` in CI: the float paths
are float64-pinned (kernel-independent by construction) and the GT paths
go through ``compiled.psi`` (kernel-dispatched, integer-exact).
"""

import warnings

import numpy as np
import pytest

from repro.baselines import (
    BernoulliORDesign,
    amp_decode,
    basis_pursuit_decode,
    comp_decode,
    dd_decode,
    omp_decode,
)
from repro.core.design import PoolingDesign
from repro.core.signal import random_signal, random_signals
from repro.designs import (
    CompiledDecoder,
    Decoder,
    DesignKey,
    DesignStore,
    available_decoders,
    compile_design,
    compile_from_key,
    make_decoder,
    reset_default_design_store,
    resolve_compiled,
    resolve_design_store,
)
from repro.designs import compiled as compiled_mod

N, M, K = 300, 120, 4
BATCH = 5

FLOAT_DECODERS = ("lp", "omp", "amp")
GT_DECODERS = ("comp", "dd")


def _membership(design: PoolingDesign) -> np.ndarray:
    member = np.zeros((design.m, design.n), dtype=bool)
    rows = np.repeat(np.arange(design.m), np.diff(design.indptr))
    member[rows, design.entries] = True
    return member


def _one_shot(name: str, design: PoolingDesign, y: np.ndarray, k: int) -> np.ndarray:
    if name == "lp":
        return basis_pursuit_decode(design, y, k)
    if name == "omp":
        return omp_decode(design, y, k)
    if name == "amp":
        return amp_decode(design, y, k).sigma_hat
    binary = (np.asarray(y) > 0).astype(np.int8)
    gt = BernoulliORDesign(_membership(design))
    return comp_decode(gt, binary) if name == "comp" else dd_decode(gt, binary)


#: Queries of the paper-density fixture: few enough that LP, OMP and AMP
#: all miss part of a support, so its pinned supports are op-sequence sensitive.
M_PAPER = 20


@pytest.fixture(scope="module", params=["ragged", "gamma1", "paper"])
def instance(request):
    """One design family: naturally ragged pools, degenerate Γ=1, or the streamed Γ=n/2 design."""
    if request.param == "paper":
        rng = np.random.default_rng(17)
        compiled = compile_from_key(DesignKey.for_stream(N, M_PAPER, root_seed=17))
        design = compiled.design
    else:
        rng = np.random.default_rng(11 if request.param == "ragged" else 13)
        gamma = None if request.param == "ragged" else 1
        design = PoolingDesign.sample(N, M, rng, gamma=gamma)
        compiled = compile_design(design)
    sigmas = random_signals(N, K, BATCH, rng)
    Y = design.query_results(sigmas)
    noisy = Y + rng.integers(-1, 2, size=Y.shape)
    return design, compiled, Y, noisy


@pytest.mark.parametrize("name", FLOAT_DECODERS + GT_DECODERS)
class TestSingleSignalParity:
    """The one-shot functions and the registry decoders agree on every design."""

    def test_clean_bit_identical(self, name, instance):
        design, compiled, Y, _ = instance
        decoder = make_decoder(name).compile(compiled)
        for i in range(2):
            assert np.array_equal(decoder.decode(Y[i], K), _one_shot(name, design, Y[i], K))

    def test_noisy_bit_identical(self, name, instance):
        """Corrupted counts: identical outputs — or the identical failure.

        LP's equality constraints can go infeasible under corruption; the
        registry decoder must then fail exactly as the one-shot does.
        """
        design, compiled, _, noisy = instance
        decoder = make_decoder(name).compile(compiled)
        for i in range(2):
            try:
                expected = _one_shot(name, design, noisy[i], K)
            except RuntimeError:
                with pytest.raises(RuntimeError, match="basis pursuit"):
                    decoder.decode(noisy[i], K)
                continue
            assert np.array_equal(decoder.decode(noisy[i], K), expected)


#: Single-signal ``decode`` supports of the first two clean rows of each
#: fixture.  A mismatch means the LP/OMP/AMP float op sequence changed.  On
#: Γ=1 the zero-coverage columns tie exactly, so those supports also pin the
#: tie-break.
PINNED_SUPPORTS = {
    ("ragged", "lp"): [[75, 150, 241, 289], [53, 93, 134, 170]],
    ("ragged", "omp"): [[75, 150, 241, 289], [53, 93, 134, 170]],
    ("ragged", "amp"): [[75, 150, 241, 289], [53, 93, 134, 170]],
    ("gamma1", "lp"): [[0, 1, 2, 24], [0, 1, 2, 219]],
    ("gamma1", "omp"): [[1, 2, 3, 24], [1, 2, 3, 219]],
    ("gamma1", "amp"): [[0, 1, 2, 24], [0, 1, 2, 219]],
    ("paper", "lp"): [[32, 48, 220, 251], [63, 64, 230, 254]],
    ("paper", "omp"): [[14, 179, 220, 232], [34, 130, 154, 264]],
    ("paper", "amp"): [[48, 220, 251, 283], [28, 36, 88, 103]],
}


@pytest.mark.parametrize("name", FLOAT_DECODERS)
def test_pinned_single_signal_supports(name, instance, request):
    _, compiled, Y, _ = instance
    family = request.node.callspec.params["instance"]
    decoder = make_decoder(name).compile(compiled)
    got = [np.flatnonzero(decoder.decode(Y[i], K)).tolist() for i in range(2)]
    assert got == PINNED_SUPPORTS[family, name]


def test_float_decoders_share_the_counts_block(instance):
    """Every ``(m, n)`` array LP/OMP/AMP hold *is* the compiled counts block."""
    _, compiled, _, _ = instance
    counts = compiled.counts_block()
    for name in FLOAT_DECODERS:
        decoder = make_decoder(name).compile(compiled)
        held = [v for v in vars(decoder).values() if isinstance(v, np.ndarray) and v.size == compiled.m * compiled.n]
        assert held and all(v is counts for v in held), name
    # n=3, Γ=3: μ = 1 and item 0 sits once in every pool, so its centred
    # column is all zeros and the zero-norm guard must map its norm to 1.
    flat = compile_design(PoolingDesign(3, np.array([0, 1, 2, 0, 1, 1, 0, 2, 2, 0, 1, 2]), np.arange(0, 13, 3)))
    for design in (compiled, flat):
        omp = make_decoder("omp").compile(design)
        expected = np.linalg.norm(design.counts_block() - omp.mean, axis=0)
        expected[expected == 0] = 1.0
        np.testing.assert_allclose(omp.col_norms, expected, rtol=1e-12)
    assert omp.mean == 1.0 and (flat.counts_block()[:, 0] == 1.0).all() and omp.col_norms[0] == 1.0


@pytest.mark.parametrize("name", available_decoders())
def test_decode_is_the_one_row_batch(name, instance):
    """``decode(y, k)`` equals ``decode_batch(y[None], k)[0]`` bit for bit, clean and noisy."""
    _, compiled, Y, noisy = instance
    decoder = make_decoder(name).compile(compiled)
    for observed in (Y, noisy):
        for i in range(2):
            try:
                expected = decoder.decode_batch(observed[i][None], K)[0]
            except RuntimeError:  # LP infeasible under corruption: the same failure
                with pytest.raises(RuntimeError, match="basis pursuit"):
                    decoder.decode(observed[i], K)
                continue
            assert np.array_equal(decoder.decode(observed[i], K), expected)


@pytest.mark.parametrize("name", available_decoders())
def test_decode_rejects_all_but_one_vector_with_one_message(name, small):
    """A ``(1, m)`` array or a wrong-length vector gets one message in every family."""
    _, compiled, y = small
    decoder = make_decoder(name).compile(compiled)
    for bad in (y[None], y[:-1], np.append(y, 0)):
        with pytest.raises(ValueError, match=rf"^y must be one \(m={compiled.m},\) result vector, got shape \({bad.shape[0]},"):
            decoder.decode(bad, 3)


class TestAMPRun:
    """``run`` is row 0 of the one round loop ``decode_batch`` iterates."""

    @pytest.mark.parametrize("max_iter, tol", [(50, 1e-7), (3, 0.0), (50, 1e-2)])
    def test_run_is_row_zero_of_the_batch_rounds(self, instance, max_iter, tol):
        _, compiled, Y, noisy = instance
        decoder = make_decoder("amp", max_iter=max_iter, tol=tol).compile(compiled)
        for y in (Y[0], noisy[1]):
            result = decoder.run(y, K)
            X, _, iterations, converged, tau2 = decoder._iterate(y[None], K)
            assert np.array_equal(result.posterior, X[0])
            assert result.iterations == iterations[0] == len(result.tau_history) <= max_iter
            assert result.converged == converged[0]
            assert result.tau_history == tuple(tau2[:, 0])
            assert np.array_equal(result.sigma_hat, decoder.decode(y, K))
            if tol == 0.0:
                assert (result.iterations, result.converged) == (max_iter, False)

    def test_each_round_runs_two_products_and_nothing_runs_before_it(self, instance, monkeypatch):
        import repro.baselines.compiled as baselines_mod

        _, compiled, Y, noisy = instance
        decoder = make_decoder("amp", tol=1e-4).compile(compiled)
        real = baselines_mod._centred_product
        rows = []

        def counting(v, a, mean):
            rows.append(v.shape[0])
            return real(v, a, mean)

        monkeypatch.setattr(baselines_mod, "_centred_product", counting)
        _, _, _, _, tau2 = decoder._iterate(np.concatenate([Y, noisy]), K)
        # The residual and the pseudo-data product, each over the rows still active.
        assert rows == [int(active) for active in np.isfinite(tau2).sum(axis=1) for _ in range(2)]

    def test_rows_keep_their_own_round_count(self, instance):
        _, compiled, Y, noisy = instance
        decoder = make_decoder("amp", tol=1e-4).compile(compiled)
        batch = np.concatenate([Y, noisy])
        _, _, iterations, converged, tau2 = decoder._iterate(batch, K)
        assert tau2.shape == (iterations.max(), len(batch))
        for b, rounds in enumerate(iterations):
            # A row's history is its first ``rounds`` entries; it has stopped after them.
            assert np.isfinite(tau2[:rounds, b]).all() and np.isnan(tau2[rounds:, b]).all()
            assert converged[b] or rounds == decoder.decoder.max_iter


@pytest.mark.parametrize("name", GT_DECODERS)
class TestGTBatchParity:
    def test_batch_rows_bit_identical_to_legacy(self, name, instance):
        """Rows match the ``comp_decode``/``dd_decode`` reference on the OR view."""
        design, compiled, Y, noisy = instance
        decoder = make_decoder(name).compile(compiled)
        for observed in (Y, noisy):
            out = decoder.decode_batch(observed, K)
            assert out.shape == (BATCH, N)
            for i in range(BATCH):
                assert np.array_equal(out[i], _one_shot(name, design, observed[i], K))

    def test_b1_batch_equals_decode(self, name, instance):
        _, compiled, Y, _ = instance
        decoder = make_decoder(name).compile(compiled)
        assert np.array_equal(decoder.decode_batch(Y[:1], K)[0], decoder.decode(Y[0], K))


def _skip_if_tie_degenerate(name: str, request) -> None:
    """Skip greedy/iterative batch-parity checks on the tie-degenerate Γ=1 design.

    Γ=1 at n/m = 300/120 leaves 200+ columns with zero pool coverage; their
    centred correlations tie *exactly*, and OMP's argmax tie-break (and AMP's
    threshold crossing) among them is not stable across GEMMs of different
    batch shapes vs per-signal matvecs (~5e-15 rounding).  Support parity is
    only meaningful where the landscape is non-degenerate; Γ=1 stays covered
    by the B=1 bit-identical tests (LP included — its per-row ``linprog``
    replays identical ops at any batch size, so it is never skipped).
    """
    if name in ("omp", "amp") and request.node.callspec.params["instance"] == "gamma1":
        pytest.skip(f"{name} tie-breaking is degenerate on zero-coverage Γ=1 columns")


@pytest.mark.parametrize("name", FLOAT_DECODERS)
class TestFloatBatchParity:
    def test_batch_rows_support_identical(self, name, instance, request):
        """GEMM-vs-matvec rounding may differ in bits; supports must not."""
        _skip_if_tie_degenerate(name, request)
        _, compiled, Y, noisy = instance
        decoder = make_decoder(name).compile(compiled)
        # Corrupted counts can make LP's equality constraints infeasible
        # (an error, covered above) — batch-parity it only on clean counts.
        for observed in (Y,) if name == "lp" else (Y, noisy):
            out = decoder.decode_batch(observed, K)
            assert out.shape == (BATCH, N)
            for i in range(BATCH):
                single = decoder.decode(observed[i], K)
                assert np.array_equal(np.flatnonzero(out[i]), np.flatnonzero(single))

    def test_b1_batch_equals_decode(self, name, instance):
        _, compiled, Y, _ = instance
        decoder = make_decoder(name).compile(compiled)
        out = decoder.decode_batch(Y[:1], K)[0]
        assert np.array_equal(np.flatnonzero(out), np.flatnonzero(decoder.decode(Y[0], K)))


@pytest.mark.parametrize("name", ("omp", "amp"))
def test_ragged_k_batch(name, instance, request):
    """Per-row weights: each row decodes exactly as a scalar-k call would."""
    _skip_if_tie_degenerate(name, request)
    _, compiled, Y, _ = instance
    decoder = make_decoder(name).compile(compiled)
    ks = np.array([K, K - 1, K, K + 1, K - 2], dtype=np.int64)
    out = decoder.decode_batch(Y, ks)
    for i, k in enumerate(ks):
        expected = decoder.decode_batch(Y[i : i + 1], int(k))[0]
        assert np.array_equal(np.flatnonzero(out[i]), np.flatnonzero(expected))


class TestArtifactPathIndependence:
    def test_cache_and_store_read_through(self, tmp_path):
        """Direct compile, a cold store compile-and-publish and a warm store attach all decode identically."""
        key = DesignKey.for_stream(N, M, root_seed=5)
        compiled = compile_from_key(key)
        sigma = random_signal(N, K, np.random.default_rng(3))
        y = compiled.query_results(sigma)
        store = DesignStore(tmp_path / "store")
        for name in ("omp", "amp", "comp", "dd"):
            base = make_decoder(name).compile(compiled)
            cold = make_decoder(name).compile(resolve_compiled(key, store=store))
            warm = make_decoder(name).compile(resolve_compiled(key, store=store))
            expected = base.decode(y, K)
            assert np.array_equal(cold.decode(y, K), expected)
            assert np.array_equal(warm.decode(y, K), expected)
        assert store.stats.publishes == 1 and store.stats.hits == 7


class TestRegistry:
    def test_every_name_satisfies_the_protocols(self):
        compiled = compile_design(PoolingDesign.sample(40, 20, np.random.default_rng(0)))
        assert available_decoders()[0] == "mn"
        for name in available_decoders():
            decoder = make_decoder(name)
            assert isinstance(decoder, Decoder)
            compiled_decoder = decoder.compile(compiled)
            assert isinstance(compiled_decoder, CompiledDecoder)
            # Compiled decoders hold only the compiled design: nothing to release.
            for hook in ("close", "__enter__", "__exit__"):
                assert not hasattr(compiled_decoder, hook), (name, hook)

    def test_compile_binds_only_a_compiled_design(self):
        # One check for every family: a key or a materialised design must be
        # resolved (through the store, if any) before it is bound.
        key = DesignKey.for_stream(40, 20, root_seed=0)
        for name in available_decoders():
            for form in (key, compile_from_key(key).design):
                with pytest.raises(TypeError, match=r"^cannot compile a .*resolve_compiled\(design, store=\.\.\.\)"):
                    make_decoder(name).compile(form)

    def test_unknown_name_lists_the_menu(self):
        with pytest.raises(ValueError, match="unknown decoder 'nope'.*mn"):
            make_decoder("nope")


@pytest.fixture(scope="module")
def small():
    design = PoolingDesign.sample(60, 30, np.random.default_rng(1))
    sigma = random_signal(60, 3, np.random.default_rng(2))
    return design, compile_design(design), design.query_results(sigma)


class TestGuards:
    @pytest.mark.parametrize("legacy", [basis_pursuit_decode, omp_decode, amp_decode])
    def test_legacy_rejects_nonfinite_y(self, legacy, small):
        design, _, y = small
        bad = y.astype(np.float64)
        bad[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            legacy(design, bad, 3)

    @pytest.mark.parametrize("name", available_decoders())
    def test_compiled_rejects_nonfinite_y(self, name, small):
        _, compiled, y = small
        decoder = make_decoder(name).compile(compiled)
        for value in (np.nan, np.inf, -np.inf):
            bad = y.astype(np.float64)
            bad[-1] = value
            with pytest.raises(ValueError, match="finite"):
                decoder.decode(bad, 3)
            batch = np.tile(y.astype(np.float64), (2, 1))
            batch[1, 0] = value
            with pytest.raises(ValueError, match="finite"):
                decoder.decode_batch(batch, 3)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-3])
    def test_amp_rejects_bad_tol(self, tol, small):
        """A NaN ``tol`` would freeze ``decode_batch`` rows that ``run`` keeps iterating."""
        design, _, y = small
        with pytest.raises(ValueError, match="tol"):
            make_decoder("amp", tol=tol)
        with pytest.raises(ValueError, match="tol"):
            amp_decode(design, y, 3, tol=tol)

    @pytest.mark.parametrize("legacy", [omp_decode, amp_decode, basis_pursuit_decode])
    def test_legacy_rejects_k_zero(self, legacy, small):
        design, _, y = small
        with pytest.raises(ValueError):
            legacy(design, y, 0)

    @pytest.mark.parametrize("name", available_decoders())
    @pytest.mark.parametrize("k", [0, 61])
    def test_compiled_rejects_bad_k(self, name, k, small):
        """``k`` must lie in ``[1, n]`` for every family, COMP/DD included, though they never read it."""
        _, compiled, y = small
        decoder = make_decoder(name).compile(compiled)
        with pytest.raises(ValueError):
            decoder.decode(y, k)
        with pytest.raises(ValueError):
            decoder.decode_batch(np.tile(y, (2, 1)), k)

    @pytest.mark.parametrize("name", ["mn", *GT_DECODERS])
    @pytest.mark.parametrize("shift, match", [(0.7, "non-integral"), (1e30, "int64 range")])
    def test_count_decoders_reject_floats_that_are_not_counts(self, name, shift, match, small):
        """MN, COMP and DD raise on a float row the int64 cast would truncate or wrap."""
        _, compiled, y = small
        decoder = make_decoder(name).compile(compiled)
        bad = y + shift
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast warning on the way to the error
            with pytest.raises(ValueError, match=match):
                decoder.decode(bad, 3)
            with pytest.raises(ValueError, match=match):
                decoder.decode_batch(np.stack([y.astype(np.float64), bad]), 3)
        assert np.array_equal(decoder.decode(y.astype(np.float64), 3), decoder.decode(y, 3))  # integral floats are counts


ONE_SHOTS = [basis_pursuit_decode, omp_decode, amp_decode]


class TestOneShots:
    """The one-shot forms compile privately and share the compiled residency bound."""

    @pytest.fixture
    def ambient(self, tmp_path, monkeypatch):
        """Arm the ambient store, fresh for this test only."""
        monkeypatch.setenv("REPRO_DESIGN_STORE", str(tmp_path / "store"))
        reset_default_design_store()
        yield
        reset_default_design_store()

    @pytest.mark.parametrize("one_shot", ONE_SHOTS)
    def test_publishes_nothing_to_ambient_cache_or_store(self, one_shot, small, ambient):
        design, _, y = small
        one_shot(design, y, 3)
        store = resolve_design_store()
        assert len(store) == 0 and (store.stats.hits, store.stats.misses) == (0, 0)
        # Resolving the same design does publish — the ambient store is armed.
        make_decoder("omp").compile(resolve_compiled(design)).decode(y, 3)
        assert store.stats.misses == 1
        assert len(store) == 1

    @pytest.mark.parametrize("one_shot", ONE_SHOTS)
    def test_residency_bound_raises(self, one_shot, small, monkeypatch):
        design, _, y = small
        monkeypatch.setattr(compiled_mod, "BLOCK_RESIDENCY_LIMIT", 8 * design.m * design.n - 1)
        with pytest.raises(ValueError, match="residency"):
            one_shot(design, y, 3)

    def test_amp_result_matches_registry_decode(self, small):
        design, _, y = small
        result = amp_decode(design, y, 3, max_iter=7, tol=1e-3)
        compiled = make_decoder("amp", max_iter=7, tol=1e-3).compile(compile_design(design))
        assert np.array_equal(result.sigma_hat, compiled.decode(y, 3))
        assert result.iterations == len(result.tau_history) <= 7
