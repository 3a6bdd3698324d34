"""The :class:`NumberFormat` abstract interface.

Every number format in the library — :class:`~repro.posit.PositConfig`,
:class:`~repro.posit.FloatFormat`, and
:class:`~repro.formats.fixedpoint.FixedPointFormat` — presents the same
surface, so the quantization policies, the trainer, the analysis tooling,
and the hardware accounting can treat "a format" as one opaque value:

``quantize(x, mode=..., rng=...)``
    Snap an array onto the format's value grid (fake quantization).
``to_bits(x)`` / ``from_bits(bits)``
    The actual storage bit patterns (``int64`` codes), used by the hardware
    model and memory-traffic accounting.
``maxpos`` / ``minpos``
    Largest / smallest representable positive magnitude.
``bits``
    Total storage width in bits (including the sign bit).
``name``
    Human-readable label (may be empty for anonymous parametric formats).
``spec()``
    Canonical spec string that round-trips through
    :func:`~repro.formats.parse_format` (``parse_format(fmt.spec()) == fmt``).

A reusable callable bound to one rounding mode comes from the cached
:func:`~repro.formats.get_quantizer`, which calls these methods; formats
with ``bits <= 16`` serve them from the LUT codec kernels
(:mod:`repro.formats.kernels`), posit(32,x) and fp32 from its table-free
bit-field kernels, and other wide formats from their family's vectorized
module functions.

``PositConfig`` and ``FloatFormat`` predate this interface and are attached
as *virtual* subclasses (``NumberFormat.register``) to keep the dependency
direction ``repro.formats -> repro.posit``; ``FixedPointFormat`` inherits
directly.  Either way, ``isinstance(fmt, NumberFormat)`` identifies a format.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

__all__ = ["NumberFormat"]


class NumberFormat(ABC):
    """Abstract interface implemented by every number format family."""

    @abstractmethod
    def spec(self) -> str:
        """Canonical, registry-parseable spec string for this format."""

    @abstractmethod
    def quantize(self, x, mode: str = "nearest",
                 rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Snap ``x`` element-wise onto this format's value grid.

        Implementations MUST accept the ``mode`` and ``rng`` keywords (the
        analysis and policy layers pass them); they MAY choose a different
        default ``mode`` — posit defaults to ``"zero"`` (Algorithm 1) while
        float and fixed point default to ``"nearest"`` — and map unsupported
        modes onto the closest supported one.
        """

    @abstractmethod
    def to_bits(self, x, mode: str = "nearest",
                rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Quantize ``x`` and return the storage bit patterns (``int64``).

        Must accept ``mode``/``rng`` like :meth:`quantize` —
        :func:`repro.analysis.code_usage` calls ``to_bits(x, mode=...)``.
        """

    @abstractmethod
    def from_bits(self, bits) -> np.ndarray:
        """Decode storage bit patterns back to real values."""

    @property
    @abstractmethod
    def bits(self) -> int:
        """Total storage width in bits, including the sign bit."""

    @property
    @abstractmethod
    def maxpos(self) -> float:
        """Largest representable positive magnitude."""

    @property
    @abstractmethod
    def minpos(self) -> float:
        """Smallest representable positive magnitude."""
