"""First-class fixed-point number format (Gupta et al. [7]).

The earliest limited-precision training work used fixed-point formats with
stochastic rounding.  The paper cites it as the class of "aggressive
approximation" methods that lose too much information on complex tasks, and
the ablation benchmarks use it as the weakest baseline.  Historically this
module lived in ``repro.baselines``; it is now part of the core format type
system so fixed point participates in policies, sweeps, and hardware
accounting exactly like posit and float formats (the
``repro.baselines.fixedpoint`` compatibility shim has been removed after
its deprecation window; ``repro.baselines`` still re-exports the names).

A fixed-point format ``Q(integer_bits, fraction_bits)`` represents values in
``[-2**integer_bits, 2**integer_bits - 2**-fraction_bits]`` with a uniform
step of ``2**-fraction_bits``.  Its canonical spec string is
``"fixed(bits,fraction_bits)"`` where ``bits`` is the total word size —
e.g. ``FixedPointFormat(2, 13)`` (Q2.13, a 16-bit word) is ``"fixed(16,13)"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .base import NumberFormat

# The kernels module imports this one and is still initializing when this
# line runs: bind the module, and look ``codec_for`` up per call.
from . import kernels as _kernels

__all__ = [
    "FixedPointFormat",
    "fixed_point_quantize",
    "fixed_point_to_bits",
    "fixed_point_from_bits",
]


@dataclass(frozen=True)
class FixedPointFormat(NumberFormat):
    """Signed fixed-point format with ``integer_bits``.``fraction_bits`` split.

    The sign bit is implicit (two's complement), so the total storage width
    is ``1 + integer_bits + fraction_bits``.
    """

    integer_bits: int
    fraction_bits: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.integer_bits < 0 or self.fraction_bits < 0:
            raise ValueError("field widths must be non-negative")
        if self.integer_bits + self.fraction_bits == 0:
            raise ValueError("format must have at least one magnitude bit")

    @property
    def bits(self) -> int:
        """Total storage width including the sign bit."""
        return 1 + self.integer_bits + self.fraction_bits

    @property
    def step(self) -> float:
        """Quantization step (value of one LSB)."""
        return 2.0 ** (-self.fraction_bits)

    @property
    def max_value(self) -> float:
        """Largest representable value."""
        return 2.0**self.integer_bits - self.step

    @property
    def min_value(self) -> float:
        """Smallest (most negative) representable value."""
        return -(2.0**self.integer_bits)

    @property
    def maxpos(self) -> float:
        """Largest representable positive magnitude (protocol surface)."""
        return self.max_value

    @property
    def minpos(self) -> float:
        """Smallest representable positive magnitude: one LSB."""
        return self.step

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name or f"Q{self.integer_bits}.{self.fraction_bits}"

    def spec(self) -> str:
        """Canonical spec string, ``fixed(<word bits>,<fraction bits>)``."""
        return f"fixed({self.bits},{self.fraction_bits})"

    def quantize(self, x, mode: str = "nearest",
                 rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Snap ``x`` onto the fixed-point grid.

        ``mode`` is ``"nearest"`` or ``"stochastic"``; ``"zero"`` (posit's
        Algorithm 1 truncation) is accepted and mapped to ``"nearest"``, the
        common hardware choice for fixed point.  Words of up to 16 bits
        decode through a LUT (:mod:`repro.formats.kernels`); encode is the
        module functions below.
        """
        return _kernels.codec_for(self).quantize(x, mode, rng)

    def to_bits(self, x, mode: str = "nearest",
                rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Quantize ``x`` and return two's-complement codes (``int64``)."""
        return _kernels.codec_for(self).to_bits(x, mode, rng)

    def from_bits(self, bits) -> np.ndarray:
        """Decode two's-complement codes back to real values."""
        return _kernels.codec_for(self).from_bits(bits)


def fixed_point_quantize(x, fmt: FixedPointFormat, rounding: str = "nearest",
                         rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Snap ``x`` onto the fixed-point grid of ``fmt`` with saturation.

    ``rounding`` is ``"nearest"`` (round half away from zero, the common
    hardware choice) or ``"stochastic"`` (Gupta et al.'s method).  Inputs
    are clipped to ``[min_value, max_value]`` before scaling, so ``±inf``
    and huge magnitudes saturate without overflow; NaN stays NaN.
    """
    arr = np.clip(np.asarray(x, dtype=np.float64), fmt.min_value, fmt.max_value)
    scaled = arr / fmt.step
    if rounding == "nearest":
        quantized = np.round(scaled)
    elif rounding == "stochastic":
        if rng is None:
            rng = np.random.default_rng()
        lower = np.floor(scaled)
        quantized = lower + (rng.random(arr.shape) < (scaled - lower))
    else:
        raise ValueError(f"unknown rounding mode {rounding!r}")
    # Both clip bounds lie on the grid, so rounding stays within them.
    return quantized * fmt.step


def fixed_point_to_bits(x, fmt: FixedPointFormat, rounding: str = "nearest",
                        rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Quantize ``x`` and return ``fmt.bits``-wide two's-complement codes.

    The returned array has dtype ``int64``; each element lies in
    ``[0, 2**bits)``.  ``fmt.max_value`` maps to ``2**(bits-1) - 1`` and
    ``fmt.min_value`` to ``2**(bits-1)`` (the most negative code).  The
    format has no NaN code: NaN stores as code 0.
    """
    values = fixed_point_quantize(x, fmt, rounding=rounding, rng=rng)
    arr = np.atleast_1d(np.asarray(values, dtype=np.float64))
    arr = np.where(np.isnan(arr), 0.0, arr)
    codes = np.rint(arr / fmt.step).astype(np.int64)
    mask = (np.int64(1) << fmt.bits) - 1
    bits = codes & mask
    return bits[0] if np.asarray(x).ndim == 0 else bits


def fixed_point_from_bits(bits, fmt: FixedPointFormat) -> np.ndarray:
    """Decode ``fmt.bits``-wide two's-complement codes to real values."""
    arr = np.atleast_1d(np.asarray(bits, dtype=np.int64))
    mask = (np.int64(1) << fmt.bits) - 1
    arr = arr & mask
    sign_bit = np.int64(1) << (fmt.bits - 1)
    signed = np.where(arr >= sign_bit, arr - (np.int64(1) << fmt.bits), arr)
    values = signed.astype(np.float64) * fmt.step
    return values[0] if np.asarray(bits).ndim == 0 else values
