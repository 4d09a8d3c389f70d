"""Tests for the one-call reconstruction facade."""

import warnings

import numpy as np
import pytest

from repro.core.reconstruction import reconstruct
from repro.core.signal import random_signal, random_signals
from repro.engine import reconstruct_batch, signals_oracle


def _oracle_for(sigma):
    def oracle(pools):
        return [int(sigma[p].sum()) for p in pools]

    return oracle


class TestReconstruct:
    def test_with_known_k(self):
        rng = np.random.default_rng(0)
        sigma = random_signal(600, 4, rng)
        report = reconstruct(600, 400, _oracle_for(sigma), k=4, rng=np.random.default_rng(1))
        assert np.array_equal(report.sigma_hat, sigma)
        assert not report.calibrated

    def test_with_calibration_query(self):
        rng = np.random.default_rng(2)
        sigma = random_signal(600, 4, rng)
        report = reconstruct(600, 400, _oracle_for(sigma), rng=np.random.default_rng(3))
        assert report.calibrated
        assert report.k == 4
        assert np.array_equal(report.sigma_hat, sigma)

    def test_oracle_receives_one_batch(self):
        rng = np.random.default_rng(4)
        sigma = random_signal(100, 2, rng)
        calls = []

        def counting_oracle(pools):
            calls.append(len(pools))
            return [int(sigma[p].sum()) for p in pools]

        reconstruct(100, 30, counting_oracle, k=2, rng=np.random.default_rng(5))
        assert calls == [30]  # all queries in a single parallel batch

    def test_calibration_adds_exactly_one_query(self):
        rng = np.random.default_rng(6)
        sigma = random_signal(100, 2, rng)
        calls = []

        def counting_oracle(pools):
            calls.append(len(pools))
            return [int(sigma[p].sum()) for p in pools]

        reconstruct(100, 30, counting_oracle, rng=np.random.default_rng(7))
        assert calls == [31]

    def test_rejects_wrong_result_count(self):
        with pytest.raises(ValueError, match="results"):
            reconstruct(50, 10, lambda pools: [0] * (len(pools) - 1), k=2)

    def test_rejects_negative_results(self):
        with pytest.raises(ValueError, match="negative"):
            reconstruct(50, 10, lambda pools: [-1] * len(pools), k=2)

    def test_rejects_zero_weight_calibration(self):
        sigma = np.zeros(50, dtype=np.int8)
        with pytest.raises(ValueError, match="no one-entries"):
            reconstruct(50, 10, _oracle_for(sigma))

    def test_rejects_impossible_calibration(self):
        with pytest.raises(ValueError, match="inconsistent"):
            reconstruct(50, 10, lambda pools: [60] * len(pools))

    def test_rejects_calibration_above_n_with_valid_pools(self):
        # k > n from the calibration query alone (pool results plausible).
        def oracle(pools):
            return [len(p) + 1 if len(p) == 50 else 0 for p in pools]

        with pytest.raises(ValueError, match="inconsistent"):
            reconstruct(50, 10, oracle)

    def test_rejects_float_k(self):
        with pytest.raises(TypeError, match="int"):
            reconstruct(50, 10, lambda pools: [0] * len(pools), k=2.0)

    def test_backend_equals_default_path(self):
        from repro.engine import SerialBackend

        rng = np.random.default_rng(10)
        sigma = random_signal(400, 4, rng)
        base = reconstruct(400, 300, _oracle_for(sigma), k=4, rng=np.random.default_rng(11))
        via_backend = reconstruct(
            400, 300, _oracle_for(sigma), k=4, rng=np.random.default_rng(11), backend=SerialBackend(kernel="legacy")
        )
        assert np.array_equal(base.sigma_hat, via_backend.sigma_hat)
        assert np.array_equal(base.y, via_backend.y)

    def test_report_supports_redecoding(self):
        rng = np.random.default_rng(8)
        sigma = random_signal(300, 3, rng)
        report = reconstruct(300, 250, _oracle_for(sigma), k=3, rng=np.random.default_rng(9))
        # The returned design and y reproduce the estimate.
        from repro.core.mn import mn_reconstruct

        again = mn_reconstruct(report.design, report.y, report.k)
        assert np.array_equal(again, report.sigma_hat)


def _single_answering(answer):
    return reconstruct(50, 10, lambda pools: [answer] * len(pools), k=2, rng=np.random.default_rng(0))


def _batch_answering(answer):
    return reconstruct_batch(50, 10, lambda pools: np.full((3, len(pools)), answer), 3, k=2, rng=np.random.default_rng(0))


FACADES = {"reconstruct": _single_answering, "reconstruct_batch": _batch_answering}


class TestOracleCounts:
    """Both facades take only non-negative integer counts from the oracle."""

    @pytest.mark.parametrize("facade", FACADES)
    @pytest.mark.parametrize(
        "answer, match",
        [
            (2.7, "non-integral"),
            (-0.5, "non-integral"),
            (np.nan, "non-finite"),
            (np.inf, "non-finite"),
            (1e30, "int64 range"),
        ],
    )
    def test_rejects_answers_that_are_not_counts(self, facade, answer, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast warning on the way to the error
            with pytest.raises(ValueError, match=match):
                FACADES[facade](answer)

    def test_integral_float_answers_are_counts(self):
        sigmas = random_signals(200, 3, 3, np.random.default_rng(12))
        ints = signals_oracle(sigmas)
        batch = reconstruct_batch(200, 120, lambda pools: ints(pools).astype(np.float64), 3, rng=np.random.default_rng(1))
        assert np.array_equal(batch.sigma_hat, sigmas)
        single = reconstruct(200, 120, lambda pools: [float(sigmas[0][p].sum()) for p in pools], rng=np.random.default_rng(1))
        assert np.array_equal(single.sigma_hat, sigmas[0])
