"""Cross-module property-based tests (hypothesis).

These encode the *model identities* of the paper as executable invariants
over randomly generated instances — the strongest guard against silent
drift between the design, the statistics, the decoders and the theory.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.design import PoolingDesign, stream_design_stats
from repro.core.mn import MNDecoder, mn_reconstruct
from repro.core.scores import mn_scores, phi_from_psi
from repro.core.signal import overlap_fraction, random_signal
from repro.core.thresholds import GAMMA, m_information_parallel, m_mn_threshold

instances = st.integers(0, 10**6)


def _draw_instance(seed, n_max=150, m_max=60):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, n_max))
    k = int(rng.integers(1, max(2, n // 4)))
    m = int(rng.integers(1, m_max))
    sigma = random_signal(n, k, rng)
    design = PoolingDesign.sample(n, m, rng)
    return design, sigma, k


class TestModelIdentities:
    @given(instances)
    @settings(max_examples=40, deadline=None)
    def test_y_bounded_by_pool_mass(self, seed):
        """0 ≤ y_j ≤ Γ always (a pool can at most be all ones)."""
        design, sigma, _ = _draw_instance(seed)
        y = design.query_results(sigma)
        assert (y >= 0).all()
        assert (y <= design.gamma).all()

    @given(instances)
    @settings(max_examples=40, deadline=None)
    def test_psi_bounded_by_dstar_gamma(self, seed):
        """Ψ_i sums Δ*_i results each ≤ Γ."""
        design, sigma, _ = _draw_instance(seed)
        stats = design.stats(sigma)
        assert (stats.psi <= stats.dstar * design.gamma).all()
        assert (stats.psi >= 0).all()

    @given(instances)
    @settings(max_examples=40, deadline=None)
    def test_mass_conservation(self, seed):
        """Σ_j y_j = Σ_{i: σ_i=1} Δ_i — every occurrence counted once."""
        design, sigma, _ = _draw_instance(seed)
        stats = design.stats(sigma)
        assert int(stats.y.sum()) == int((sigma.astype(np.int64) * stats.delta).sum())

    @given(instances)
    @settings(max_examples=40, deadline=None)
    def test_phi_strips_own_contribution(self, seed):
        """Φ = Ψ − 1{σ=1}·Δ exactly (definition in §II)."""
        design, sigma, _ = _draw_instance(seed)
        stats = design.stats(sigma)
        phi = phi_from_psi(stats, sigma)
        assert (phi <= stats.psi).all()
        recovered = phi + sigma.astype(np.int64) * stats.delta
        assert np.array_equal(recovered, stats.psi)

    @given(instances)
    @settings(max_examples=30, deadline=None)
    def test_streaming_equals_materialised_distribution_free_invariants(self, seed):
        """Streaming stats satisfy the same structural identities."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 120))
        k = int(rng.integers(1, max(2, n // 4)))
        m = int(rng.integers(1, 50))
        sigma = random_signal(n, k, rng)
        stats = stream_design_stats(sigma, m, root_seed=seed % 2**31)
        assert (stats.dstar <= stats.delta).all()
        assert (stats.dstar <= m).all()
        assert int(stats.delta.sum()) == m * stats.gamma


class TestDecoderProperties:
    @given(instances)
    @settings(max_examples=30, deadline=None)
    def test_estimate_weight_is_k(self, seed):
        """The MN output always has exactly k ones, success or not."""
        design, sigma, k = _draw_instance(seed)
        est = mn_reconstruct(design, design.query_results(sigma), k)
        assert int(est.sum()) == k

    @given(instances)
    @settings(max_examples=30, deadline=None)
    def test_decode_deterministic(self, seed):
        design, sigma, k = _draw_instance(seed)
        y = design.query_results(sigma)
        a = mn_reconstruct(design, y, k)
        b = mn_reconstruct(design, y, k)
        assert np.array_equal(a, b)

    @given(instances)
    @settings(max_examples=20, deadline=None)
    def test_scores_shift_invariance_in_k(self, seed):
        """Scores for different k differ by a Δ*-proportional shift only."""
        design, sigma, k = _draw_instance(seed)
        stats = design.stats(sigma)
        s1 = mn_scores(stats, 1)
        s2 = mn_scores(stats, 3)
        assert np.allclose(s1 - s2, stats.dstar * 1.0)  # (3-1)/2 = 1

    @given(instances)
    @settings(max_examples=15, deadline=None)
    def test_duplicate_queries_do_not_break_decoding(self, seed):
        """Appending an exact copy of every query preserves the estimate."""
        design, sigma, k = _draw_instance(seed, n_max=80, m_max=25)
        doubled = PoolingDesign(
            design.n,
            np.concatenate([design.entries, design.entries]),
            np.concatenate([design.indptr, design.indptr[1:] + design.entries.size]),
        )
        est1 = mn_reconstruct(design, design.query_results(sigma), k)
        est2 = mn_reconstruct(doubled, doubled.query_results(sigma), k)
        assert np.array_equal(est1, est2)


def _draw_key(seed):
    """A random valid DesignKey across the stream and sampled schemes."""
    from repro.designs import DesignKey

    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10**6))
    m = int(rng.integers(1, 10**4))
    root_seed = int(rng.integers(0, 2**31))
    if rng.integers(2):
        trial_key = tuple(int(t) for t in rng.integers(0, 2**31, size=int(rng.integers(0, 4))))
        return DesignKey.for_stream(n, m, root_seed=root_seed, trial_key=trial_key, batch_queries=int(rng.integers(1, 10**4)))
    return DesignKey.for_sampled(n, m, root_seed=root_seed, tag=int(rng.integers(0, 100)), index=int(rng.integers(0, 10**6)))


def _mutate(data: bytes, rng) -> bytes:
    """One random byte-level mutation: flip, delete or insert."""
    buf = bytearray(data)
    mode = int(rng.integers(3))
    pos = int(rng.integers(len(buf)))
    if mode == 0:
        buf[pos] ^= 1 << int(rng.integers(8))
    elif mode == 1:
        del buf[pos]
    else:
        buf.insert(pos, int(rng.integers(256)))
    return bytes(buf)


class TestKernelParity:
    """Dense kernels equal the legacy reference on arbitrary ragged designs.

    The ambient kernel (``REPRO_KERNEL``, dense by default) and the explicit
    dense generations are all checked, so each CI kernel leg runs its own
    tier here.
    """

    @given(instances)
    @settings(max_examples=60, deadline=None)
    def test_ragged_design_random_batch(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        m = int(rng.integers(1, 25))
        # Ragged pools: empty ones, singletons and multi-edges all occur.
        pools = [rng.integers(0, n, size=int(rng.integers(0, 2 * n + 1))) for _ in range(m)]
        design = PoolingDesign.from_pools(n, pools)
        density = float(rng.choice([0.0, 0.03, 0.2, 0.7, 1.0]))
        batch = (rng.random((int(rng.integers(1, 6)), n)) < density).astype(np.int8)
        y = rng.integers(0, 3 * n, size=(batch.shape[0], m))

        def fresh():
            return PoolingDesign(n, design.entries, design.indptr)

        expected_y = fresh().query_results(batch, kernel="legacy")
        expected_psi = fresh().psi(y, kernel="legacy")
        assert np.array_equal(expected_y, batch.astype(np.int64) @ design.dense_counts().T)
        for kernel in (None, "dense", "dense32"):
            assert np.array_equal(fresh().query_results(batch, kernel=kernel), expected_y), kernel
            assert np.array_equal(fresh().psi(y, kernel=kernel), expected_psi), kernel


class TestFusedStatsParity:
    """The fused query + Ψ/Δ* pass equals the legacy passes on ragged designs.

    ``materialised_stats`` of the ambient kernel (each CI kernel leg's own)
    and of both dense generations against legacy's query results, Ψ of
    those results and Δ*, each computed on its own.
    """

    @given(instances)
    @settings(max_examples=60, deadline=None)
    def test_ragged_design_random_batch(self, seed):
        from repro import kernels

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        m = int(rng.integers(1, 25))
        pools = [rng.integers(0, n, size=int(rng.integers(0, 2 * n + 1))) for _ in range(m)]
        design = PoolingDesign.from_pools(n, pools)
        density = float(rng.choice([0.0, 0.03, 0.2, 0.7, 1.0]))
        batch = (rng.random((int(rng.integers(1, 6)), n)) < density).astype(np.int8)

        reference = PoolingDesign(n, design.entries, design.indptr)
        want_y = reference.query_results(batch, kernel="legacy")
        want = (want_y, reference.psi(want_y, kernel="legacy"), reference.dstar(kernel="legacy"))
        for kernel in (None, "dense", "dense32"):
            got = kernels.dispatch(kernel).materialised_stats(PoolingDesign(n, design.entries, design.indptr), batch)
            for name, left, right in zip(("y", "psi", "dstar"), got, want):
                assert left.dtype == np.int64 and np.array_equal(left, right), (kernel, name)


class TestSerializationRoundTrips:
    """The design key's wire format: round-trip exactly, reject mutations.

    The store's correctness rests on content addressing — a key's digest
    *is* its identity — so serialization must never let mutated bytes
    masquerade as a different artifact: a mutation either fails loudly or
    yields an object whose digest differs (and therefore can never be
    attached under the original address).
    """

    @given(instances)
    @settings(max_examples=50, deadline=None)
    def test_design_key_roundtrip_is_exact(self, seed):
        from repro.designs import DesignKey
        from repro.designs.store import DesignStore

        key = _draw_key(seed)
        recovered = DesignKey.from_json(key.to_json())
        assert recovered == key
        assert recovered.to_json() == key.to_json()
        assert DesignStore.digest(recovered) == DesignStore.digest(key)

    @given(instances)
    @settings(max_examples=50, deadline=None)
    def test_mutated_key_bytes_never_mis_address(self, seed):
        from repro.designs import DesignKey
        from repro.designs.store import DesignStore

        rng = np.random.default_rng(seed)
        key = _draw_key(seed)
        payload = key.to_json().encode("ascii")
        mutated = _mutate(payload, rng)
        if mutated == payload:
            return
        try:
            parsed = DesignKey.from_json(mutated.decode("utf-8", errors="replace"))
        except ValueError:
            return  # rejected loudly: the common case
        # Accepted mutations must be semantic no-ops or re-address: a key
        # that differs from the original must hash to a different digest.
        if parsed != key:
            assert DesignStore.digest(parsed) != DesignStore.digest(key)

class TestSampledEntryRange:
    """Sampled and stream-regenerated designs skip the constructor's range scan.

    Both build through the checked-range path with the bound of their own
    ``integers(0, n)`` draws, so every entry must lie in ``[0, n)``, and
    the public constructor's own scan must accept the same arrays.
    """

    @given(st.integers(1, 400), st.integers(1, 30), st.integers(1, 80), instances)
    @settings(max_examples=60, deadline=None)
    def test_every_sampled_entry_lies_in_range(self, n, m, gamma, seed):
        design = PoolingDesign.sample(n, m, np.random.default_rng(seed), gamma=gamma)
        assert design.entries.size == m * gamma
        assert 0 <= design.entries.min() and design.entries.max() < n
        PoolingDesign(n, design.entries, design.indptr)

    @given(st.integers(2, 400), st.integers(1, 30), st.integers(1, 12), instances)
    @settings(max_examples=40, deadline=None)
    def test_every_stream_regenerated_entry_lies_in_range(self, n, m, batch_queries, seed):
        from repro.designs import DesignKey, compile_from_key

        design = compile_from_key(DesignKey.for_stream(n, m, root_seed=seed, batch_queries=batch_queries)).design
        assert 0 <= design.entries.min() and design.entries.max() < n
        PoolingDesign(n, design.entries, design.indptr)


class TestTheoryConsistency:
    @given(st.integers(50, 10**5), st.floats(0.1, 0.7))
    @settings(max_examples=50, deadline=None)
    def test_threshold_hierarchy(self, n, theta):
        """counting ≤ IT-parallel < MN for every admissible configuration."""
        from repro.core.signal import theta_to_k
        from repro.core.thresholds import m_counting_exact

        k = theta_to_k(n, theta)
        if k < 2 or k >= n:
            return
        assert m_counting_exact(n, k) <= m_information_parallel(n, k) * 1.01
        assert m_information_parallel(n, k) < m_mn_threshold(n, theta, k=k) * 5

    @given(st.floats(0.05, 0.9), st.floats(0.05, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_mn_constant_monotone(self, a, b):
        from repro.core.thresholds import mn_constant

        lo, hi = min(a, b), max(a, b)
        assert mn_constant(lo) <= mn_constant(hi) + 1e-12

    def test_gamma_matches_inclusion_probability(self):
        """γ = 1 − e^{−1/2} is the limit of P[entry in a pool] for Γ = n/2."""
        for n in (10**3, 10**5, 10**7):
            p = 1.0 - (1.0 - 1.0 / n) ** (n // 2)
            assert abs(p - GAMMA) < 2.0 / math.sqrt(n) + 1e-3

    @given(instances)
    @settings(max_examples=15, deadline=None)
    def test_overlap_monotone_in_information(self, seed):
        """More queries never (statistically) hurt: check on averages."""
        rng = np.random.default_rng(seed)
        n, k = 200, 4
        sigma = random_signal(n, k, rng)
        few = stream_design_stats(sigma, 10, root_seed=seed % 2**31, trial_key=(0,))
        many = stream_design_stats(sigma, 300, root_seed=seed % 2**31, trial_key=(1,))
        dec = MNDecoder()
        ov_few = overlap_fraction(sigma, dec.decode(few, k))
        ov_many = overlap_fraction(sigma, dec.decode(many, k))
        # Not a per-instance theorem; allow slack but catch inversions.
        assert ov_many >= ov_few - 0.5
