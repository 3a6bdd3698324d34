"""Cached quantizer factory keyed by ``(format, rounding_mode)``.

A quantizer is a small stateless callable, but the policy layer used to
build four of them per layer on every ``attach`` — dozens of redundant
instances for a ResNet, re-created again for every sweep point.  This
factory memoizes one instance per ``(format, rounding)`` pair; formats are
frozen (hashable) dataclasses, so they key the cache directly.

Every quantizer is a :class:`FormatQuantizer`: the format's own
``quantize`` / ``to_bits`` / ``from_bits`` methods bound to one rounding
mode, so a quantizer call takes exactly the codec path (and the profiler
hook) that a direct format-method call takes.  Handing a quantizer out
builds its format's codec (:func:`~repro.formats.kernels.codec_for`), so a
codec's tables are allocated when a policy attaches, not at its first call.

Calls that carry an explicit random generator (seeded stochastic rounding)
bypass the cache: a shared generator across layers would entangle their
random streams, which is exactly what a caller passing ``rng`` is trying to
control.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .base import NumberFormat
from .kernels import codec_for, reference_ops
from .registry import parse_format

__all__ = ["FormatQuantizer", "get_quantizer", "clear_quantizer_cache",
           "quantizer_cache_info"]

#: (format, rounding) -> quantizer instance.
_QUANTIZER_CACHE: dict[tuple, "FormatQuantizer"] = {}


class FormatQuantizer:
    """A format's codec methods bound to one rounding mode and generator.

    ``rounding`` keeps the requested mode verbatim; each format family maps
    it onto what it supports (float and fixed point treat ``"zero"`` as
    round-to-nearest).
    """

    __slots__ = ("format", "rounding", "rng")

    def __init__(self, fmt: NumberFormat, rounding: str,
                 rng: Optional[np.random.Generator] = None):
        self.format = fmt
        self.rounding = rounding
        self.rng = rng

    def __call__(self, x) -> np.ndarray:
        """Quantize ``x`` onto the bound format's grid."""
        return self.format.quantize(x, self.rounding, self.rng)

    def to_bits(self, x) -> np.ndarray:
        """Quantize ``x`` and return storage bit patterns (``int64``)."""
        return self.format.to_bits(x, self.rounding, self.rng)

    def from_bits(self, bits) -> np.ndarray:
        """Decode storage bit patterns back to real values."""
        return self.format.from_bits(bits)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FormatQuantizer({self.format.spec()}, rounding={self.rounding!r})"


def _build(fmt: NumberFormat, rounding: str,
           rng: Optional[np.random.Generator]) -> FormatQuantizer:
    if not isinstance(fmt, NumberFormat):
        raise TypeError(f"unsupported format descriptor: {fmt!r} (not a NumberFormat)")
    ref = reference_ops(fmt)
    if ref is not None and ref.map_mode(rounding) is None:
        raise ValueError(f"unknown rounding mode {rounding!r} for {fmt.spec()}")
    # Build the codec's tables now, while the caller (typically a policy's
    # attach) holds little memory, not at the first quantize, which may come
    # in the middle of a backward pass with its whole graph alive.
    codec_for(fmt)
    return FormatQuantizer(fmt, rounding, rng)


def get_quantizer(fmt: Union[NumberFormat, str, None], rounding: str = "zero",
                  rng: Optional[np.random.Generator] = None) -> Optional[FormatQuantizer]:
    """Return a quantizer for ``fmt``, memoized per ``(format, rounding)``.

    ``fmt`` may be a :class:`NumberFormat`, a spec string (resolved through
    the registry), or ``None`` (meaning "no quantization" — returns ``None``,
    mirroring the policy layer's FP32 convention).  A rounding mode the
    format family does not know raises ``ValueError`` here, not on the
    first call.
    """
    if fmt is None:
        return None
    if isinstance(fmt, str):
        fmt = parse_format(fmt)
    if rng is not None:
        return _build(fmt, rounding, rng)
    key = (fmt, rounding)
    quantizer = _QUANTIZER_CACHE.get(key)
    if quantizer is None:
        quantizer = _build(fmt, rounding, None)
        _QUANTIZER_CACHE[key] = quantizer
    return quantizer


def clear_quantizer_cache() -> None:
    """Drop all memoized quantizers (mainly for tests and benchmarks)."""
    _QUANTIZER_CACHE.clear()


def quantizer_cache_info() -> dict:
    """Introspection: cache size and the currently cached keys."""
    return {
        "size": len(_QUANTIZER_CACHE),
        "keys": [(fmt.spec(), rounding) for fmt, rounding in _QUANTIZER_CACHE],
    }
