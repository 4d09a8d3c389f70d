"""The decoder registry: one name per servable decoder family.

Maps short wire/CLI names (``mn``, ``lp``, ``omp``, ``amp``, ``comp``,
``dd``) to factories producing configured
:class:`~repro.designs.protocol.Decoder` instances.  This is the seam the
serve layer, the ``design decode`` CLI and the experiment drivers share:
a request names its decoder, the registry builds it, and ``compile()``
binds it to the requested design — so one server process coalesces
micro-batches per ``(design_key, decoder)`` without hardcoding any
decoder class.

Factories are imported lazily so the registry can live in
:mod:`repro.designs` without pulling the baseline implementations (and
their SciPy dependency) into every design-layer import.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.designs.protocol import Decoder

__all__ = ["DEFAULT_DECODER", "available_decoders", "make_decoder", "register_decoder"]

#: The registry's (and the wire protocol's) default decoder name.
DEFAULT_DECODER = "mn"


def _mn(**options) -> "Decoder":
    from repro.core.mn import MNDecoder

    return MNDecoder(**options)


def _lp(**options) -> "Decoder":
    from repro.baselines.compiled import LPDecoder

    return LPDecoder(**options)


def _omp(**options) -> "Decoder":
    from repro.baselines.compiled import OMPDecoder

    return OMPDecoder(**options)


def _amp(**options) -> "Decoder":
    from repro.baselines.compiled import AMPDecoder

    return AMPDecoder(**options)


def _comp(**options) -> "Decoder":
    from repro.baselines.compiled import COMPDecoder

    return COMPDecoder(**options)


def _dd(**options) -> "Decoder":
    from repro.baselines.compiled import DDDecoder

    return DDDecoder(**options)


_FACTORIES: "dict[str, Callable[..., Decoder]]" = {
    "mn": _mn,
    "lp": _lp,
    "omp": _omp,
    "amp": _amp,
    "comp": _comp,
    "dd": _dd,
}


def available_decoders() -> "tuple[str, ...]":
    """Registered decoder names, in registration order (``mn`` first).

    Examples
    --------
    >>> from repro.designs import available_decoders
    >>> available_decoders()[:3]
    ('mn', 'lp', 'omp')
    """
    return tuple(_FACTORIES)


def make_decoder(name: str, **options) -> "Decoder":
    """Build the named decoder (``options`` forward to its constructor).

    Raises
    ------
    ValueError
        For an unknown name — listing the registered ones, so wire-level
        validation can surface the full menu to the client.

    Examples
    --------
    >>> from repro.designs import make_decoder
    >>> type(make_decoder("omp")).__name__
    'OMPDecoder'
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(_FACTORIES)
        raise ValueError(f"unknown decoder {name!r}; available: {known}") from None
    return factory(**options)


def register_decoder(name: str, factory: "Callable[..., Decoder]") -> None:
    """Register (or override) a decoder factory under ``name``.

    The extension hook for out-of-tree decoders: anything whose
    ``compile(compiled)`` binds a
    :class:`~repro.designs.compiled.CompiledDesign` and returns a
    :class:`~repro.designs.protocol.CompiledDecoder` can be served.
    """
    if not name or not isinstance(name, str):
        raise ValueError("decoder name must be a non-empty string")
    _FACTORIES[name] = factory
