"""The :class:`NumberFormat` abstract base class, the one codec entry point.

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
:func:`~repro.formats.get_quantizer`, which calls these methods.  The three
codec methods are defined here once, for every family, as one call through
:func:`~repro.formats.codec_for`: formats with ``bits <= 16`` are served by
the LUT codec kernels (:mod:`repro.formats.kernels`), posit(32,x) and fp32
by its table-free bit-field kernels, and other wide formats by their
family's vectorized module functions (:func:`~repro.formats.reference_ops`),
where each family's rounding-mode rules live.

All three families subclass :class:`NumberFormat`, so
``isinstance(fmt, NumberFormat)`` identifies a format.  The families import
this module, and :mod:`repro.formats.kernels` imports the families, so this
module binds the kernels module below the class body: whichever module an
import starts from, each family finds the class already defined.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

__all__ = ["NumberFormat"]


class NumberFormat(ABC):
    """Abstract base class of every number format family.

    A family supplies :meth:`spec`, :attr:`bits`, :attr:`maxpos` and
    :attr:`minpos`; the codec methods below serve every family.
    """

    @abstractmethod
    def spec(self) -> str:
        """Canonical, registry-parseable spec string for this format."""

    def quantize(self, x, mode: str = "zero",
                 rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Snap ``x`` element-wise onto this format's value grid.

        ``mode`` is ``"zero"``, ``"nearest"`` or ``"stochastic"``.  Posit
        rounds as named (``"zero"`` is Algorithm 1); float and fixed point
        round to nearest, ties to even, in every mode but ``"stochastic"``.
        So the one default, ``"zero"``, is Algorithm 1 for posit and
        round-to-nearest for float and fixed point.  ``rng`` drives
        stochastic rounding.
        """
        return _kernels.codec_for(self).quantize(x, mode, rng)

    def to_bits(self, x, mode: str = "zero",
                rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Quantize ``x`` as :meth:`quantize` does; return ``int64`` codes."""
        return _kernels.codec_for(self).to_bits(x, mode, rng)

    def from_bits(self, bits) -> np.ndarray:
        """Decode storage bit patterns back to real values."""
        return _kernels.codec_for(self).from_bits(bits)

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


# Bound after the class: the kernels module imports every family, and each
# family imports the class from this module.
from . import kernels as _kernels  # noqa: E402
