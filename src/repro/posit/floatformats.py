"""Reduced-precision IEEE-style float quantizers (baseline formats).

The paper positions posit against reduced-precision floating point formats
used by prior mixed-precision training work: FP16 (Micikevicius et al. [9]),
FP8 (Wang et al. [10]), and plain FP32.  This module provides fake-quantizers
for those formats so that the benchmark harness can run the same training
recipes under float baselines and compare.

A ``FloatFormat`` is described by exponent bits, mantissa bits, and an
exponent bias; quantization is round-to-nearest-even with gradual underflow
(subnormals) and saturation at the maximum finite value (matching the
behaviour used by quantized-training literature rather than producing inf).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The kernels module imports this one and is still initializing when this
# line runs: bind the module, and look ``codec_for`` up per call.
from ..formats import kernels as _kernels

__all__ = [
    "FloatFormat",
    "FP32",
    "FP16",
    "BFLOAT16",
    "FP8_E4M3",
    "FP8_E5M2",
    "float_quantize",
    "float_to_bits",
    "float_from_bits",
]


@dataclass(frozen=True)
class FloatFormat:
    """Description of a binary floating-point format.

    Attributes
    ----------
    exponent_bits:
        Width of the exponent field.
    mantissa_bits:
        Width of the explicit mantissa (fraction) field.
    name:
        Human-readable format name used in reports.
    """

    exponent_bits: int
    mantissa_bits: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.exponent_bits < 2:
            raise ValueError("exponent_bits must be >= 2")
        if self.mantissa_bits < 0:
            raise ValueError("mantissa_bits must be >= 0")

    @property
    def bits(self) -> int:
        """Total storage width including the sign bit."""
        return 1 + self.exponent_bits + self.mantissa_bits

    @property
    def bias(self) -> int:
        """Exponent bias, ``2**(exponent_bits - 1) - 1``."""
        return (1 << (self.exponent_bits - 1)) - 1

    @property
    def max_exponent(self) -> int:
        """Largest unbiased exponent of a normal number."""
        return (1 << self.exponent_bits) - 2 - self.bias

    @property
    def min_exponent(self) -> int:
        """Smallest unbiased exponent of a normal number."""
        return 1 - self.bias

    @property
    def max_value(self) -> float:
        """Largest finite representable magnitude."""
        return float(2.0**self.max_exponent * (2.0 - 2.0 ** (-self.mantissa_bits)))

    @property
    def min_normal(self) -> float:
        """Smallest positive normal magnitude."""
        return float(2.0**self.min_exponent)

    @property
    def min_subnormal(self) -> float:
        """Smallest positive subnormal magnitude."""
        return float(2.0 ** (self.min_exponent - self.mantissa_bits))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name or f"fp{self.bits}(e{self.exponent_bits}m{self.mantissa_bits})"

    # ------------------------------------------------------------------ #
    # NumberFormat protocol surface (see repro.formats).
    # ------------------------------------------------------------------ #
    @property
    def code_count(self) -> int:
        """Number of *finite* bit patterns (code-space accounting).

        The all-ones exponent is reserved for NaN/infinity in both
        directions of the bit codec, so those ``2 * 2**mantissa_bits``
        patterns can never be produced by finite data.
        """
        return (1 << self.bits) - 2 * (1 << self.mantissa_bits)

    @property
    def maxpos(self) -> float:
        """Largest representable positive magnitude (protocol alias)."""
        return self.max_value

    @property
    def minpos(self) -> float:
        """Smallest representable positive magnitude (smallest subnormal)."""
        return self.min_subnormal

    def spec(self) -> str:
        """Canonical registry spec string.

        The standard constants round-trip through their short names
        (``"fp16"``, ``"fp8_e4m3"``, ...); anonymous parametric formats use
        ``"float(<exponent bits>,<mantissa bits>)"`` — note that parsing a
        parametric spec does not reconstruct a custom ``name``.
        """
        canonical = _CANONICAL_SPECS.get(self)
        if canonical is not None:
            return canonical
        return f"float({self.exponent_bits},{self.mantissa_bits})"

    def quantize(self, x, mode: str = "nearest",
                 rng: np.random.Generator | None = None) -> np.ndarray:
        """Snap ``x`` onto this float grid.

        ``mode`` is ``"nearest"`` or ``"stochastic"``; posit's ``"zero"``
        mode is accepted and mapped to ``"nearest"`` (the convention the
        policy layer has always used for float baselines).  Formats of up
        to 16 bits are served by a LUT kernel and the binary32 layout by a
        float32-cast kernel (:mod:`repro.formats.kernels`); other wide
        formats by the module functions.
        """
        return _kernels.codec_for(self).quantize(x, mode, rng)

    def to_bits(self, x, mode: str = "nearest",
                rng: np.random.Generator | None = None) -> np.ndarray:
        """Quantize ``x`` and return sign/exponent/mantissa bit patterns."""
        return _kernels.codec_for(self).to_bits(x, mode, rng)

    def from_bits(self, bits) -> np.ndarray:
        """Decode sign/exponent/mantissa bit patterns to real values."""
        return _kernels.codec_for(self).from_bits(bits)


#: Standard formats referenced by the paper and its baselines.
FP32 = FloatFormat(8, 23, "FP32")
FP16 = FloatFormat(5, 10, "FP16")
BFLOAT16 = FloatFormat(8, 7, "bfloat16")
FP8_E4M3 = FloatFormat(4, 3, "FP8-E4M3")
FP8_E5M2 = FloatFormat(5, 2, "FP8-E5M2")

#: Short registry specs for the standard constants (exact instance match,
#: including the cosmetic name, so spec round-tripping is unambiguous).
_CANONICAL_SPECS: dict[FloatFormat, str] = {
    FP32: "fp32",
    FP16: "fp16",
    BFLOAT16: "bfloat16",
    FP8_E4M3: "fp8_e4m3",
    FP8_E5M2: "fp8_e5m2",
}


def float_quantize(x, fmt: FloatFormat, rng: np.random.Generator | None = None,
                   rounding: str = "nearest") -> np.ndarray:
    """Snap ``x`` element-wise onto the value grid of ``fmt``.

    Parameters
    ----------
    x:
        Array-like of real values.
    fmt:
        Target float format.
    rounding:
        ``"nearest"`` (round-to-nearest-even) or ``"stochastic"``.
    rng:
        Random generator for stochastic rounding.

    Returns
    -------
    numpy.ndarray
        ``float64`` array of values exactly representable in ``fmt``.
        Out-of-range magnitudes saturate to the maximum finite value; NaN is
        propagated.
    """
    arr = np.asarray(x, dtype=np.float64)
    scalar_input = arr.ndim == 0
    arr = np.atleast_1d(arr).copy()

    # Only the binary32 layout itself may take the float32 cast: a wider
    # field would be rounded or overflowed by it.
    if fmt.exponent_bits == 8 and fmt.mantissa_bits == 23:
        with np.errstate(over="ignore"):
            result = arr.astype(np.float32).astype(np.float64)
        # The narrow-format path below saturates out-of-range magnitudes
        # (and infinite inputs) to the largest finite value; the float32
        # cast produces IEEE infs instead.  Saturate them the same way so
        # the documented contract — and the bit codec, which has no inf
        # representation — hold for every float format uniformly.
        result = np.where(np.isinf(result),
                          np.sign(result) * fmt.max_value, result)
        return result[0] if scalar_input else result

    sign = np.sign(arr)
    mag = np.abs(arr)
    out = np.zeros_like(arr)

    nan_mask = np.isnan(arr)
    inf_mask = np.isinf(arr)
    finite = ~nan_mask & ~inf_mask
    nonzero = finite & (mag > 0)

    if np.any(nonzero):
        m = mag[nonzero]
        # Effective quantization step: normals have a step of 2**(e - mant),
        # subnormals a fixed step of min_subnormal.
        exp = np.floor(np.log2(m))
        # Near the float64 maximum 2**(exp + 1) overflows to inf, and
        # inf <= m is rightly false; clamping exp would change the result.
        with np.errstate(over="ignore"):
            exp = np.where(2.0 ** (exp + 1) <= m, exp + 1, exp)
        exp = np.where(2.0**exp > m, exp - 1, exp)
        exp = np.maximum(exp, fmt.min_exponent)  # subnormal range shares min_exponent step
        step = 2.0 ** (exp - fmt.mantissa_bits)

        if rounding == "nearest":
            quantized = np.round(m / step) * step
        elif rounding == "stochastic":
            if rng is None:
                rng = np.random.default_rng()
            lower = np.floor(m / step)
            frac = m / step - lower
            up = rng.random(m.shape) < frac
            quantized = (lower + up.astype(np.float64)) * step
        else:
            raise ValueError(f"unknown rounding mode {rounding!r}")

        # Rounding up may cross into the next binade; that value is still
        # representable, so no correction is needed.  Saturate at max.
        quantized = np.minimum(quantized, fmt.max_value)
        # Values that round to below the smallest subnormal flush to zero.
        quantized = np.where(quantized < fmt.min_subnormal, 0.0, quantized)
        out[nonzero] = sign[nonzero] * quantized

    out[inf_mask] = sign[inf_mask] * fmt.max_value
    out[nan_mask] = np.nan

    return out[0] if scalar_input else out


def float_to_bits(x, fmt: FloatFormat, rounding: str = "nearest",
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Quantize ``x`` and return IEEE-style bit patterns (``int64``).

    Layout is ``[sign | exponent | mantissa]`` with the format's widths; the
    all-ones exponent is reserved (as in IEEE) and used to encode NaN.
    Because :func:`float_quantize` saturates infinities, every finite input
    maps to a normal, subnormal, or zero pattern.
    """
    values = float_quantize(x, fmt, rng=rng, rounding=rounding)
    arr = np.atleast_1d(np.asarray(values, dtype=np.float64))

    e_width, m_width = fmt.exponent_bits, fmt.mantissa_bits
    exp_all_ones = np.int64((1 << e_width) - 1)

    sign = (np.signbit(arr)).astype(np.int64)
    mag = np.abs(arr)
    # Canonical zero: values that quantize to zero encode as the all-zero
    # pattern regardless of which side they approached from, so the codec
    # is a stable fixed point (encode(decode(code)) == code) — the packed
    # artifact layer relies on this for byte-identical re-exports.
    sign[mag == 0] = 0
    exp_field = np.zeros(arr.shape, dtype=np.int64)
    mant_field = np.zeros(arr.shape, dtype=np.int64)

    nan_mask = np.isnan(arr)
    normal = ~nan_mask & (mag >= fmt.min_normal)
    subnormal = ~nan_mask & (mag > 0) & (mag < fmt.min_normal)

    if np.any(normal):
        m = mag[normal]
        exps = np.floor(np.log2(m)).astype(np.int64)
        # Repair float64 log2 off-by-one at binade boundaries (an overflow
        # to inf near the float64 maximum compares false, as it should).
        with np.errstate(over="ignore"):
            exps = np.where(np.power(2.0, (exps + 1).astype(np.float64)) <= m,
                            exps + 1, exps)
        exps = np.where(np.power(2.0, exps.astype(np.float64)) > m, exps - 1, exps)
        frac = m / np.power(2.0, exps.astype(np.float64)) - 1.0
        exp_field[normal] = exps + fmt.bias
        # Quantized values sit exactly on the grid, so this rint is exact.
        mant_field[normal] = np.rint(frac * (1 << m_width)).astype(np.int64)

    if np.any(subnormal):
        mant_field[subnormal] = np.rint(mag[subnormal] / fmt.min_subnormal).astype(np.int64)

    if np.any(nan_mask):
        sign[nan_mask] = 0
        exp_field[nan_mask] = exp_all_ones
        mant_field[nan_mask] = (1 << m_width) >> 1  # quiet-NaN style payload

    bits = (sign << (e_width + m_width)) | (exp_field << m_width) | mant_field
    return bits[0] if np.asarray(x).ndim == 0 else bits


def float_from_bits(bits, fmt: FloatFormat) -> np.ndarray:
    """Decode ``[sign | exponent | mantissa]`` bit patterns to real values.

    The all-ones exponent decodes to NaN (this codec never produces
    infinities — out-of-range magnitudes saturate on the encode side).
    """
    arr = np.atleast_1d(np.asarray(bits, dtype=np.int64))
    e_width, m_width = fmt.exponent_bits, fmt.mantissa_bits
    arr = arr & ((np.int64(1) << fmt.bits) - 1)

    sign = (arr >> (e_width + m_width)) & 1
    exp_field = (arr >> m_width) & ((np.int64(1) << e_width) - 1)
    mant_field = arr & ((np.int64(1) << m_width) - 1)

    exp_all_ones = (1 << e_width) - 1
    frac = mant_field.astype(np.float64) / (1 << m_width)
    # With 11 exponent bits the all-ones exponent overflows to inf here;
    # it decodes to NaN below.
    with np.errstate(over="ignore"):
        normal_values = (1.0 + frac) * np.power(2.0, (exp_field - fmt.bias).astype(np.float64))
    subnormal_values = mant_field.astype(np.float64) * fmt.min_subnormal

    out = np.where(exp_field == 0, subnormal_values, normal_values)
    out = np.where(sign == 1, -out, out)
    out = np.where(exp_field == exp_all_ones, np.nan, out)
    return out[0] if np.asarray(bits).ndim == 0 else out
