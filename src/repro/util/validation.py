"""Argument validation helpers.

Every public entry point in the library validates its inputs through these
functions so that error messages are uniform and informative.  They raise
:class:`ValueError` / :class:`TypeError` early instead of letting NumPy
produce an obscure broadcasting failure deep inside a kernel.
"""

from __future__ import annotations

import numbers
from typing import Any

import numpy as np

__all__ = [
    "check_positive_int",
    "check_nonneg_int",
    "check_in_open_unit_interval",
    "check_probability",
    "check_array_1d",
    "check_binary_signal",
    "check_binary_batch",
    "check_weight_vector",
]


def check_positive_int(value: Any, name: str) -> int:
    """Validate that ``value`` is an integer ``>= 1`` and return it as ``int``.

    Accepts Python ints and NumPy integer scalars; rejects bools, floats
    (even integral ones, to catch accidental ``n/2`` style bugs) and
    anything non-numeric.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    value = int(value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def check_nonneg_int(value: Any, name: str) -> int:
    """Validate that ``value`` is an integer ``>= 0`` and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    value = int(value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_in_open_unit_interval(value: Any, name: str) -> float:
    """Validate ``0 < value < 1`` (the sparsity exponent ``theta`` regime)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must lie strictly between 0 and 1, got {value}")
    return value


def check_probability(value: Any, name: str) -> float:
    """Validate ``0 <= value <= 1``."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_array_1d(value: Any, name: str, *, dtype=None, length: int | None = None) -> np.ndarray:
    """Coerce ``value`` to a 1-D :class:`numpy.ndarray` and validate its shape.

    Parameters
    ----------
    value:
        Array-like input.
    name:
        Parameter name used in error messages.
    dtype:
        Optional dtype to coerce to.
    length:
        If given, the required number of elements.
    """
    arr = np.asarray(value)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise ValueError(f"{name} must have length {length}, got {arr.shape[0]}")
    return arr


def check_weight_vector(value: Any, batch: int, *, n: int | None = None, name: str = "k") -> np.ndarray:
    """Validate a per-signal weight array: shape ``(batch,)``, ints ``>= 1``.

    The single contract for the batched engine's ragged-``k`` inputs
    (:func:`~repro.core.scores.mn_scores`, the MN decoder,
    :func:`~repro.engine.batch.reconstruct_batch`); returned as ``int64``.
    With ``n`` given, weights must also not exceed the signal length.
    """
    arr = np.asarray(value)
    if arr.shape != (batch,):
        raise ValueError(f"{name} must be a scalar or have shape (B={batch},), got {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer) or np.any(arr < 1):
        raise ValueError(f"every per-signal {name} must be a positive integer")
    if n is not None and np.any(arr > n):
        raise ValueError(f"{name}={int(arr.max())} exceeds n={n}")
    return arr.astype(np.int64)


def _is_binary(arr: np.ndarray) -> bool:
    """Whether every cell is 0 or 1: one ``O(size)`` comparison pass, no sort.

    NaN, 2, −1 and 0.5 all fail both comparisons; an empty array passes.
    ``np.all`` rather than ``.all()``: a NumPy that compares a string
    array to an int as the scalar ``False`` then rejects it cleanly.
    """
    return bool(np.all((arr == 0) | (arr == 1)))


def check_binary_signal(value: Any, name: str = "sigma", *, length: int | None = None) -> np.ndarray:
    """Validate a 0/1 signal vector and return it as ``int8``.

    The returned array is a defensive copy only when a dtype conversion is
    required; callers must not mutate it.
    """
    arr = check_array_1d(value, name, length=length)
    if not _is_binary(arr):
        raise ValueError(f"{name} must contain only 0/1 entries")
    return arr.astype(np.int8, copy=False)


def check_binary_batch(value: Any, name: str = "sigma", *, length: int | None = None) -> np.ndarray:
    """Validate a ``(B, n)`` stack of 0/1 signals and return it as ``int8``.

    The batched sibling of :func:`check_binary_signal` — one vectorised
    scan for the whole stack.  ``length`` constrains the row length ``n``.
    """
    arr = np.asarray(value)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError(f"{name} must have shape (B, n) with B >= 1, got {arr.shape}")
    if length is not None and arr.shape[1] != length:
        raise ValueError(f"{name} must have row length {length}, got {arr.shape[1]}")
    if not _is_binary(arr):
        raise ValueError(f"{name} must contain only 0/1 entries")
    return arr.astype(np.int8, copy=False)
