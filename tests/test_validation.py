"""Unit tests for repro.util.validation."""

import numpy as np
import pytest

from repro.util.validation import (
    check_array_1d,
    check_binary_batch,
    check_binary_signal,
    check_counts,
    check_in_open_unit_interval,
    check_nonneg_int,
    check_positive_int,
    check_probability,
)


class TestCheckPositiveInt:
    def test_accepts_python_int(self):
        assert check_positive_int(5, "x") == 5

    def test_accepts_numpy_int(self):
        assert check_positive_int(np.int64(7), "x") == 7
        assert isinstance(check_positive_int(np.int64(7), "x"), int)

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be >= 1"):
            check_positive_int(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive_int(-3, "x")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_rejects_float_even_integral(self):
        with pytest.raises(TypeError):
            check_positive_int(4.0, "x")

    def test_rejects_string(self):
        with pytest.raises(TypeError):
            check_positive_int("4", "x")


class TestCheckNonnegInt:
    def test_accepts_zero(self):
        assert check_nonneg_int(0, "x") == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_nonneg_int(-1, "x")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_nonneg_int(False, "x")


class TestOpenUnitInterval:
    @pytest.mark.parametrize("v", [0.1, 0.5, 0.999])
    def test_accepts_interior(self, v):
        assert check_in_open_unit_interval(v, "theta") == v

    @pytest.mark.parametrize("v", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_boundary_and_outside(self, v):
        with pytest.raises(ValueError):
            check_in_open_unit_interval(v, "theta")

    def test_rejects_non_numeric(self):
        with pytest.raises(TypeError):
            check_in_open_unit_interval("0.3", "theta")


class TestCheckProbability:
    def test_accepts_endpoints(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            check_probability(1.01, "p")


class TestCheckArray1d:
    def test_coerces_list(self):
        out = check_array_1d([1, 2, 3], "a")
        assert isinstance(out, np.ndarray)
        assert out.shape == (3,)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            check_array_1d(np.zeros((2, 2)), "a")

    def test_length_enforced(self):
        with pytest.raises(ValueError, match="length 5"):
            check_array_1d([1, 2], "a", length=5)

    def test_dtype_conversion(self):
        out = check_array_1d([1, 2], "a", dtype=np.float64)
        assert out.dtype == np.float64


class TestCheckBinarySignal:
    def test_accepts_binary(self):
        out = check_binary_signal([0, 1, 1, 0])
        assert out.dtype == np.int8

    def test_rejects_twos(self):
        with pytest.raises(ValueError, match="only 0/1"):
            check_binary_signal([0, 2])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_binary_signal([-1, 0])

    def test_empty_allowed(self):
        assert check_binary_signal([]).size == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            check_binary_signal([0, 1], length=3)


class TestBinaryChecksAgree:
    """Both binary checks reject the same cells with their own messages."""

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan], ids=["two", "minus-one", "half", "nan"])
    def test_signal_rejects(self, bad):
        with pytest.raises(ValueError, match=r"^sigma must contain only 0/1 entries$"):
            check_binary_signal(np.array([0, 1, bad, 1]))

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan], ids=["two", "minus-one", "half", "nan"])
    def test_batch_rejects(self, bad):
        arr = np.array([[0, 1, 1, 0], [1, 0, bad, 1]])
        with pytest.raises(ValueError, match=r"^sigmas must contain only 0/1 entries$"):
            check_binary_batch(arr, "sigmas")

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.int64, np.float32, np.float64])
    def test_accepts_every_zero_one_dtype(self, dtype):
        row = np.array([0, 1, 1, 0], dtype=dtype)
        signal = check_binary_signal(row)
        batch = check_binary_batch(np.stack([row, row[::-1]]))
        assert signal.dtype == batch.dtype == np.int8
        assert signal.tolist() == [0, 1, 1, 0]
        assert batch.tolist() == [[0, 1, 1, 0], [0, 1, 1, 0]]

    def test_string_arrays_rejected_with_value_error(self):
        with pytest.raises(ValueError, match=r"^sigma must contain only 0/1 entries$"):
            check_binary_signal(np.array(["0", "1"]))
        with pytest.raises(ValueError, match=r"^sigma must contain only 0/1 entries$"):
            check_binary_batch(np.array([["a", "b"]]))

    def test_accepts_all_zero_and_all_one(self):
        assert check_binary_batch(np.zeros((2, 3))).sum() == 0
        assert check_binary_batch(np.ones((2, 3))).sum() == 6

    def test_batch_shape_messages_unchanged(self):
        with pytest.raises(ValueError, match=r"must have shape \(B, n\) with B >= 1"):
            check_binary_batch(np.zeros(3))
        with pytest.raises(ValueError, match="must have row length 4, got 3"):
            check_binary_batch(np.zeros((2, 3)), length=4)


class TestCheckCounts:
    def test_int64_rows_pass_through_unscanned(self):
        y = np.array([[0, 3, -1]], dtype=np.int64)
        assert check_counts(y, "y") is y  # no copy, and the sign is the caller's
        assert check_counts(np.array([1, 2], dtype=np.uint32), "y").dtype == np.int64

    def test_integral_floats_are_counts(self):
        got = check_counts([2.0, 0.0, 7.0], "y")
        assert got.dtype == np.int64 and got.tolist() == [2, 0, 7]

    @pytest.mark.parametrize(
        "values, match",
        [
            (np.array([1.0, 2.5]), "non-integral"),
            (np.array([np.nan]), "non-finite"),
            (np.array([1e30]), "int64 range"),
            (np.array([2**63], dtype=np.uint64), "int64 range"),  # would wrap to -2**63
        ],
    )
    def test_values_the_cast_would_change_raise(self, values, match):
        with pytest.raises(ValueError, match=f"^y holds a .*{match}"):
            check_counts(values, "y")
