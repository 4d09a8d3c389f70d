"""Tests for the closed-form thresholds."""

import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.thresholds import (
    GAMMA,
    finite_size_factor,
    gt_rate,
    karimi_rate,
    log_binom,
    m_counting_exact,
    m_counting_sequential,
    m_information_parallel,
    m_mn_threshold,
    mn_constant,
    optimal_alpha,
    optimal_d,
    theta_star_gt,
)


class TestConstants:
    def test_gamma(self):
        assert GAMMA == pytest.approx(1 - math.exp(-0.5))

    def test_theta_star(self):
        assert theta_star_gt() == pytest.approx(math.log(2) / (1 + math.log(2)))
        assert 0.40 < theta_star_gt() < 0.41


class TestLogBinom:
    def test_small_exact(self):
        assert log_binom(10, 3) == pytest.approx(math.log(120))

    def test_edges(self):
        assert log_binom(5, 0) == pytest.approx(0.0)
        assert log_binom(5, 5) == pytest.approx(0.0)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            log_binom(5, 6)

    @pytest.mark.parametrize("module", ["repro", "repro.cli", "repro.serve.server"])
    def test_import_does_not_load_scipy(self, module):
        # SciPy is imported inside log_binom, so every cold start (CLI
        # call, server spawn) skips it until a threshold is computed.
        src = str(Path(__file__).resolve().parent.parent / "src")
        probe = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
            timeout=60,
            check=True,
        )
        assert out.stdout.strip() == "[]"


class TestCountingBounds:
    def test_exact_bound_distinguishability(self):
        # (k+1)^m >= C(n,k) at the exact bound.
        n, k = 1000, 8
        m = m_counting_exact(n, k)
        assert (k + 1) ** m >= math.comb(n, k) * 0.999

    def test_parallel_is_twice_sequential(self):
        n, k = 10_000, 16
        assert m_information_parallel(n, k) == pytest.approx(2 * m_counting_sequential(n, k))

    def test_sequential_requires_k_ge_2(self):
        with pytest.raises(ValueError):
            m_counting_sequential(100, 1)

    def test_theta_form(self):
        # m_IT = 2(1-θ)/θ·k when k = n^θ exactly.
        n, theta = 10**6, 0.5
        k = int(round(n**theta))
        assert m_information_parallel(n, k) == pytest.approx(2 * (1 - theta) / theta * k, rel=1e-9)


class TestMNThreshold:
    def test_known_value(self):
        # θ=0.3, n=1000, k=8: constant = 4γ(1+√θ)/(1−√θ) ≈ 5.386.
        assert mn_constant(0.3) == pytest.approx(5.3858, abs=1e-3)
        assert m_mn_threshold(1000, 0.3) == pytest.approx(5.3858 * 8 * math.log(125), rel=1e-3)

    def test_monotone_in_theta(self):
        values = [mn_constant(t) for t in (0.1, 0.2, 0.3, 0.4, 0.6)]
        assert values == sorted(values)

    def test_diverges_near_one(self):
        assert mn_constant(0.99) > 100

    def test_above_it_threshold(self):
        # The efficient algorithm needs more queries than IT recovery.
        for n, theta in ((1000, 0.3), (10_000, 0.2), (10**5, 0.4)):
            k = int(round(n**theta))
            assert m_mn_threshold(n, theta) > m_information_parallel(n, k)

    def test_explicit_k_override(self):
        a = m_mn_threshold(1000, 0.3, k=8)
        b = m_mn_threshold(1000, 0.3, k=7)
        assert a > b

    @given(st.floats(0.05, 0.9))
    @settings(max_examples=50, deadline=None)
    def test_property_positive(self, theta):
        assert mn_constant(theta) > 0


class TestAlpha:
    def test_range(self):
        for theta in (0.1, 0.3, 0.5, 0.8):
            alpha = optimal_alpha(optimal_d(theta))
            assert 0.0 < alpha < 0.5

    def test_theta_shortcut(self):
        assert optimal_alpha(0.0, theta=0.3) == optimal_alpha(optimal_d(0.3))

    def test_rejects_subcritical_d(self):
        with pytest.raises(ValueError):
            optimal_alpha(4 * GAMMA)


class TestFiniteSize:
    def test_greater_than_one(self):
        assert finite_size_factor(1000, 8, 200) > 1.0

    def test_decreases_with_m(self):
        assert finite_size_factor(1000, 8, 2000) < finite_size_factor(1000, 8, 200)

    def test_vanishes_for_large_instances(self):
        assert finite_size_factor(10**6, 1000, 10**6) < 1.01


class TestReferenceRates:
    def test_karimi_ordering(self):
        n, k = 10_000, 16
        assert karimi_rate(n, k, 1) < karimi_rate(n, k, 0)

    def test_karimi_variant_validation(self):
        with pytest.raises(ValueError):
            karimi_rate(100, 4, 2)

    def test_gt_beats_mn_small_theta(self):
        # §I-D: binary GT outperforms MN (and Karimi) for small θ.
        n = 10_000
        for theta in (0.1, 0.2, 0.3):
            k = int(round(n**theta))
            assert gt_rate(n, k) < m_mn_threshold(n, theta)

    def test_gt_below_karimi_too(self):
        n, k = 10_000, 16
        assert gt_rate(n, k) < karimi_rate(n, k, 1)
