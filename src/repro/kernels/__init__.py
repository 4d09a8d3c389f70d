"""Hot-kernel implementations behind a single dispatch seam.

The engine's hot kernels — per-batch streaming statistics, materialised
``Ψ``/``Δ*`` accumulation, batched query evaluation, and the fused query +
``Ψ``/``Δ*`` pass of a noiseless batch — ship in two interchangeable
implementations:

* :mod:`repro.kernels.dense` — exploits the density of the paper's design
  (``Γ = n/2`` means every query touches ~39% of all entries *distinctly*):
  distinctness is resolved by scattering into a dense ``(b, n)`` incidence
  block (duplicate draws land on the same cell, so the scatter *is* the
  dedup) and ``Ψ`` becomes one BLAS GEMM against that block, with ``Δ*``
  as its all-ones row — in float32 whenever a per-call exactness budget
  proves the integer results cannot round, else float64, else exact
  integer matmul.
* :mod:`repro.kernels.legacy` — the historical sort-based dedup and
  per-row accumulation, kept as the bit-exact reference.

Both produce **bit-identical integer outputs** on the same sampled edges —
asserted by the parity test suite — so the kernel choice is a pure
performance knob that never perturbs the library's reproducibility
invariants (stream keys, ``batch_queries`` design-key semantics,
noise-corruption ordering).

Selection, in precedence order:

1. an explicit ``kernel=`` argument on a materialised-design method
   (:meth:`~repro.core.design.PoolingDesign.query_results`,
   :meth:`~repro.core.design.PoolingDesign.psi`, …);
2. the ``kernel`` field of the active
   :class:`~repro.engine.backend.Backend` — the only kernel choice of
   :func:`~repro.core.design.stream_design_stats` and the engine's
   entry points;
3. the ``REPRO_KERNEL`` environment variable;
4. the library default, :data:`DEFAULT_KERNEL` (``"dense"``).

Kernel-module contract (what :func:`dispatch` returns)
------------------------------------------------------

``NAME``
    The kernel's registry name.
``stream_batch(design, sigma, noise, noise_rng, psi, dstar, delta)``
    Fold one stream batch — its ``b`` queries of ``Γ`` draws each, as a
    regular :class:`~repro.core.design.PoolingDesign` — into the running
    ``Ψ/Δ*/Δ`` accumulators (in place) and return the batch's result
    vector ``y``.  With ``noise`` given, ``y`` is corrupted *before* its
    ``Ψ`` contribution — the streaming noise contract.
``materialised_psi(design, y, with_dstar=False)``
    ``(B, n)`` ``Ψ`` for a ``(B, m)`` int64 result batch against a
    materialised :class:`~repro.core.design.PoolingDesign`; optionally the
    shared ``Δ*`` in the same pass.
``materialised_dstar(design)``
    ``Δ*`` alone.
``query_results_batch(design, sigma_batch)``
    ``(B, m)`` additive query results for a validated ``(B, n)`` int8
    signal batch, multiplicities counted.
``materialised_stats(design, sigma_batch)``
    ``(y, Ψ, Δ*)`` for a validated ``(B, n)`` int8 signal batch: the
    ``query_results_batch`` results and their ``materialised_psi`` with
    ``Δ*``, which a kernel may compute in one walk over the draws.
"""

from __future__ import annotations

import importlib
import os
from types import ModuleType

__all__ = [
    "KERNEL_ENV",
    "DEFAULT_KERNEL",
    "available_kernels",
    "check_kernel",
    "resolve_kernel",
    "dispatch",
]

#: Environment variable overriding the default kernel for the process.
KERNEL_ENV = "REPRO_KERNEL"

#: Library default when neither argument, backend nor environment chooses.
DEFAULT_KERNEL = "dense"

#: Registry: kernel name → module implementing the contract above.  New
#: kernels register here (and only here) — dispatch, validation and the
#: parity-suite sweeps all derive from this dict.
_REGISTRY: "dict[str, str]" = {
    "dense": "repro.kernels.dense",
    "legacy": "repro.kernels.legacy",
}


def available_kernels() -> "tuple[str, ...]":
    """Registry names accepted by :func:`dispatch` and ``Backend(kernel=)``."""
    return tuple(_REGISTRY)


def check_kernel(name: "str | None", *, source: "str | None" = None) -> "str | None":
    """Validate a kernel name (``None`` = "decide later"), returning it.

    ``source`` names where a bad value came from (e.g. the ``REPRO_KERNEL``
    environment variable) so both validation paths share one message shape.
    """
    if name is not None and name not in _REGISTRY:
        what = f"unknown kernel {name!r}" if source is None else f"{source}={name!r} is not a known kernel"
        raise ValueError(f"{what}; available: {', '.join(_REGISTRY)}")
    return name


def resolve_kernel(name: "str | None" = None) -> str:
    """Concrete kernel name for ``name`` (argument > environment > default)."""
    if name is not None:
        return check_kernel(name)  # type: ignore[return-value]
    env = os.environ.get(KERNEL_ENV)
    if env:
        check_kernel(env, source=KERNEL_ENV)
        return env
    return DEFAULT_KERNEL


def dispatch(name: "str | None" = None) -> ModuleType:
    """The kernel module implementing the contract above for ``name``.

    ``None`` resolves through ``REPRO_KERNEL`` / :data:`DEFAULT_KERNEL`.
    Imports lazily so that ``repro.kernels`` itself stays import-cycle-free
    (the kernel modules import :mod:`repro.core.design` types for
    annotations only).
    """
    return importlib.import_module(_REGISTRY[resolve_kernel(name)])
