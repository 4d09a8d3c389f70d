"""Persisting designs and observations for audit and re-decoding.

A lab run is expensive; its artefacts (the pooling design actually
pipetted, the observed counts) must outlive the process that created them.
This module stores a :class:`~repro.core.design.PoolingDesign` plus
optional query results in a single compressed ``.npz`` with a format tag,
and validates everything on load — a corrupted or mismatched file raises
rather than silently decoding garbage.

Compiled artifacts (:class:`~repro.designs.compiled.CompiledDesign`) are
first-class: :func:`save_design` persists their precomputed ``Δ*``/``Δ``
vectors and :class:`~repro.designs.compiled.DesignKey` alongside the edge
structure, and :func:`load_compiled_design` restores a decode-ready
artifact — the ``repro design build|info|decode`` CLI round-trips deployed
designs through exactly this path.  Files written by older versions (no
compiled extras) stay loadable by both functions.
"""

from __future__ import annotations

import zipfile
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.design import PoolingDesign

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (designs builds on core)
    from repro.designs.compiled import CompiledDesign

__all__ = ["save_design", "load_design", "load_compiled_design", "FORMAT_VERSION"]

FORMAT_VERSION = 1


def save_design(path: "str | Path", design: "PoolingDesign | CompiledDesign", y: "np.ndarray | None" = None) -> Path:
    """Write a design (and optionally its observed results) to ``path``.

    ``design`` may be a plain :class:`PoolingDesign` or a
    :class:`~repro.designs.compiled.CompiledDesign`; the compiled form
    additionally persists ``Δ*``, ``Δ`` and the design key, so loading via
    :func:`load_compiled_design` skips recompilation.  Returns the final
    path (``.npz`` appended if missing).
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    compiled = None
    if not isinstance(design, PoolingDesign):
        from repro.designs.compiled import CompiledDesign

        if not isinstance(design, CompiledDesign):
            raise TypeError(f"cannot save a {type(design).__name__}; expected PoolingDesign or CompiledDesign")
        compiled = design
        design = compiled.design
    payload = {
        "format_version": np.asarray(FORMAT_VERSION, dtype=np.int64),
        "n": np.asarray(design.n, dtype=np.int64),
        "entries": design.entries,
        "indptr": design.indptr,
    }
    if compiled is not None:
        payload["compiled_dstar"] = compiled.dstar
        payload["compiled_delta"] = compiled.delta
        payload["compiled_key"] = np.asarray(compiled.key.to_json())
    if y is not None:
        y = np.asarray(y, dtype=np.int64)
        if y.shape != (design.m,):
            raise ValueError(f"y must have length m={design.m}, got {y.shape}")
        payload["y"] = y
    np.savez_compressed(path, **payload)
    return path


def _load_raw(path: "str | Path") -> "tuple[PoolingDesign, Optional[np.ndarray], dict]":
    path = Path(path)
    extras: dict = {}
    # A concurrent partial write (or a torn copy) must surface as a clean
    # ValueError, not a numpy/zipfile traceback: everything from "not a
    # zip" through "member truncated mid-array" funnels into one message.
    try:
        with np.load(path) as data:
            for field in ("format_version", "n", "entries", "indptr"):
                if field not in data:
                    raise ValueError(f"{path} is not a pooled-repro design file (missing {field!r})")
            version = int(data["format_version"])
            if version != FORMAT_VERSION:
                raise ValueError(f"unsupported design file version {version} (expected {FORMAT_VERSION})")
            design = PoolingDesign(int(data["n"]), data["entries"], data["indptr"])
            y = data["y"].astype(np.int64) if "y" in data else None
            if "compiled_key" in data:
                for field in ("compiled_dstar", "compiled_delta"):
                    if field not in data:
                        raise ValueError(f"{path} carries compiled extras but is missing {field!r}")
                extras = {
                    "dstar": data["compiled_dstar"].astype(np.int64),
                    "delta": data["compiled_delta"].astype(np.int64),
                    "key": str(data["compiled_key"]),
                }
    except (FileNotFoundError, PermissionError, IsADirectoryError):
        raise  # access problems are caller/operator errors, not corruption
    except (zipfile.BadZipFile, zlib.error, EOFError, OSError, KeyError) as exc:
        raise ValueError(f"{path} is truncated or corrupted (partial write?): {exc}") from exc
    if y is not None and y.shape != (design.m,):
        raise ValueError("stored y length does not match the stored design")
    return design, y, extras


def load_design(path: "str | Path") -> "tuple[PoolingDesign, Optional[np.ndarray]]":
    """Load a design saved by :func:`save_design`.

    Returns ``(design, y_or_None)``.  All structural invariants are
    re-validated by the :class:`PoolingDesign` constructor.  Compiled
    extras, when present, are ignored here — use
    :func:`load_compiled_design` for the decode-ready artifact.

    Raises
    ------
    ValueError
        On missing fields, wrong format version, or invariant violations.
    """
    design, y, _ = _load_raw(path)
    return design, y


def load_compiled_design(path: "str | Path") -> "tuple[CompiledDesign, Optional[np.ndarray]]":
    """Load a decode-ready :class:`~repro.designs.compiled.CompiledDesign`.

    Returns ``(compiled, y_or_None)``.  Files written from a compiled
    artifact restore the persisted ``Δ*``/``Δ``/key (with the cheap degree
    invariants re-validated); plain design files are compiled on load
    (content-addressed key).

    Raises
    ------
    ValueError
        On structural violations, or persisted degree vectors inconsistent
        with the stored edge structure.
    """
    from repro.designs.compiled import CompiledDesign

    design, y, extras = _load_raw(path)
    if not extras:
        return CompiledDesign(design), y
    dstar, delta = extras["dstar"], extras["delta"]
    if dstar.shape != (design.n,) or delta.shape != (design.n,):
        raise ValueError("stored degree vectors do not match the stored design")
    # Δ is cheap to recompute exactly; Δ* is only bounds-checked (a full
    # recompute would defeat the point of persisting the compilation).
    if not np.array_equal(delta, design.delta()):
        raise ValueError("stored delta is inconsistent with the stored edge structure")
    if np.any(dstar < 0) or np.any(dstar > np.minimum(delta, design.m)) or int(dstar.sum()) > design.entries.size:
        raise ValueError("stored dstar violates its degree bounds")
    from repro.designs.compiled import DesignKey

    key = DesignKey.from_json(extras["key"])
    # Older files may carry a ``compiled_block_dtype`` tag; it is ignored —
    # the resident Ψ block is always float32, exactness is checked per call.
    return CompiledDesign(design, dstar=dstar, delta=delta, key=key), y
