"""Vectorized posit quantization (Algorithm 1 of the paper).

The paper's training methodology never executes arithmetic natively in posit
hardware; instead every tensor flowing through the network is passed through
the transformation operator ``P_{n,es}(x)`` which snaps each FP32 value to the
nearest-below (round-to-zero) value representable in the target posit format
(Algorithm 1), and real arithmetic is then performed on those snapped values.
This module provides an exact, vectorized NumPy implementation of that
operator plus the round-to-nearest-even and stochastic-rounding variants used
in the ablation studies.

Two views of the quantized data are offered:

* :func:`quantize` — returns *real values* lying on the posit grid
  ("fake quantization", the form used during training).
* :func:`quantize_to_bits` / :func:`bits_to_float` — returns/consumes the
  actual bit patterns, used by the hardware model and the memory-traffic
  accounting.

All functions are validated against the scalar reference implementation in
:mod:`repro.posit.scalar` by exhaustive enumeration for small word sizes and
seeded sweeps of the 32-bit formats.  Formats with ``n <= 16`` are served in
production by the LUT kernels (:mod:`repro.formats.kernels`), whose tables
are built from these functions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .config import PositConfig

__all__ = [
    "ROUNDING_MODES",
    "quantize",
    "quantize_to_bits",
    "bits_to_float",
]

#: Supported rounding modes.  ``"zero"`` is Algorithm 1 (truncation toward
#: zero); ``"nearest"`` is round-to-nearest with ties to the even code (the
#: posit standard); ``"stochastic"`` rounds up with probability proportional
#: to the distance from the lower grid point.
ROUNDING_MODES = ("zero", "nearest", "stochastic")


def _as_float_array(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    return arr


def _encode_magnitudes_rtz(mag: np.ndarray, config: PositConfig) -> np.ndarray:
    """Encode positive magnitudes (clipped to [minpos, maxpos]) to codes.

    Returns the ``n - 1``-bit body codes (sign bit excluded) as ``int64``.
    Rounding is toward zero, i.e. the returned code is the largest code whose
    value does not exceed ``mag``.
    """
    n, es = config.n, config.es
    body_width = n - 1

    exp = np.floor(np.log2(mag)).astype(np.int64)
    # Repair off-by-one errors from floating-point log2 at power-of-two
    # boundaries.
    exp = np.where(np.power(2.0, exp + 1) <= mag, exp + 1, exp)
    exp = np.where(np.power(2.0, exp.astype(np.float64)) > mag, exp - 1, exp)
    exp = np.clip(exp, -config.max_exponent, config.max_exponent)

    k = exp >> es  # arithmetic shift == floor division by 2**es
    e = exp - (k << es)
    f = mag / np.power(2.0, exp.astype(np.float64)) - 1.0

    regime_width = np.where(k >= 0, k + 2, -k + 1)
    remaining = body_width - regime_width
    remaining_c = np.maximum(remaining, 0)
    eb = np.minimum(es, remaining_c)
    fb = np.maximum(remaining_c - es, 0)

    exp_field = e >> (es - eb)
    frac_field = np.floor(f * np.power(2.0, fb.astype(np.float64))).astype(np.int64)
    frac_max = (np.int64(1) << fb) - 1
    frac_field = np.minimum(frac_field, frac_max)

    regime_field = np.where(
        k >= 0,
        ((np.int64(1) << np.minimum(k + 1, body_width)) - 1) << 1,
        np.int64(1),
    )

    body = (regime_field << remaining_c) | (exp_field << fb) | frac_field
    # Saturating regimes (k == n - 2 gives remaining == -1): the pattern is
    # simply all ones after the sign bit (maxpos).
    body = np.where((k >= 0) & (remaining < 0), (np.int64(1) << body_width) - 1, body)
    body = np.minimum(body, (np.int64(1) << body_width) - 1)
    return body.astype(np.int64)


def _decode_bodies(codes: np.ndarray, config: PositConfig) -> np.ndarray:
    """Decode positive body codes (``1 <= code <= 2**(n-1) - 1``) to values."""
    n, es = config.n, config.es
    body_width = n - 1
    codes = codes.astype(np.int64)

    # The regime is the run of bits equal to the first body bit.  Inverting
    # bodies that start with a one turns every run into leading zeros, so
    # the run length is the body width minus the normalized bit length.
    first_bit = (codes >> (body_width - 1)) & 1
    normalized = np.where(first_bit == 1, ~codes & ((np.int64(1) << body_width) - 1), codes)
    # The frexp exponent of the float64 cast is the integer's bit length.
    bit_length = np.frexp(normalized.astype(np.float64))[1].astype(np.int64)
    if body_width > 53:
        # Above 2**53 the cast can round up to the next power of two.
        bit_length -= (bit_length > 0) & (normalized >> np.maximum(bit_length - 1, 0) == 0)
    run = body_width - bit_length

    k = np.where(first_bit == 1, run - 1, -run)
    regime_width = np.minimum(run + 1, body_width)
    remaining = body_width - regime_width
    eb = np.minimum(es, remaining)
    fb = np.maximum(remaining - es, 0)

    tail = codes & ((np.int64(1) << remaining) - 1)
    frac_bits = tail & ((np.int64(1) << fb) - 1)
    exp_bits = tail >> fb
    e = exp_bits << (es - eb)
    f = frac_bits / np.power(2.0, fb.astype(np.float64))

    scale = k * (1 << es) + e
    value = np.power(2.0, scale.astype(np.float64)) * (1.0 + f)
    return value


def _round_codes(
    mag: np.ndarray,
    config: PositConfig,
    rounding: str,
    rng: Optional[np.random.Generator],
) -> np.ndarray:
    """Round positive magnitudes (within [minpos, maxpos]) to body codes."""
    max_code = (np.int64(1) << (config.n - 1)) - 1
    lo = _encode_magnitudes_rtz(mag, config)
    if rounding == "zero":
        return lo

    lo_val = _decode_bodies(lo, config)
    exact = lo_val >= mag  # lo_val == mag up to float equality
    hi = np.minimum(lo + 1, max_code)
    hi_val = _decode_bodies(hi, config)

    if rounding == "nearest":
        mid = 0.5 * (lo_val + hi_val)
        pick_hi = mag > mid
        tie = mag == mid
        # Ties go to the even code.
        pick_hi = pick_hi | (tie & ((lo & 1) == 1))
    elif rounding == "stochastic":
        if rng is None:
            rng = np.random.default_rng()
        gap = hi_val - lo_val
        with np.errstate(divide="ignore", invalid="ignore"):
            prob = np.where(gap > 0, (mag - lo_val) / gap, 0.0)
        prob = np.clip(prob, 0.0, 1.0)
        pick_hi = rng.random(mag.shape) < prob
    else:
        raise ValueError(
            f"unknown rounding mode {rounding!r}; expected one of {ROUNDING_MODES}"
        )

    return np.where(exact, lo, np.where(pick_hi, hi, lo))


def quantize(
    x,
    config: PositConfig,
    rounding: str = "zero",
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Snap ``x`` element-wise onto the ``(n, es)`` posit value grid.

    This is the transformation operator ``P_{n,es}(x)`` of Algorithm 1 when
    ``rounding="zero"`` (the paper's hardware-friendly choice).

    Parameters
    ----------
    x:
        Array-like of real values (interpreted as FP32/FP64 reals).
    config:
        Target posit format.
    rounding:
        One of :data:`ROUNDING_MODES`.
    rng:
        Random generator used only by stochastic rounding.

    Returns
    -------
    numpy.ndarray
        Array of ``float64`` values, each exactly representable in the target
        posit format.  NaN and infinity map to NaN (NaR has no real value).

    Notes
    -----
    Underflow behaviour follows the selected mode: with ``"zero"`` rounding,
    magnitudes below ``minpos`` flush to 0 (Algorithm 1 lines 3-4); with
    ``"nearest"`` rounding they round to ``minpos`` when at least half of
    ``minpos`` (the posit standard never rounds a non-zero value to zero, but
    the fake-quantization training path benefits from flushing genuinely
    negligible values, so we use the midpoint rule); stochastic rounding
    chooses between 0 and ``minpos`` proportionally.
    """
    arr = _as_float_array(x)
    scalar_input = arr.ndim == 0
    arr = np.atleast_1d(arr)

    out = np.zeros_like(arr)
    sign = np.sign(arr)
    mag = np.abs(arr)

    nonfinite = ~np.isfinite(arr)
    nonzero = (mag > 0) & ~nonfinite

    if rounding == "zero":
        representable = nonzero & (mag >= config.minpos)
        underflow_to_min = np.zeros_like(representable)
    elif rounding == "nearest":
        representable = nonzero & (mag >= config.minpos)
        underflow_to_min = nonzero & (mag < config.minpos) & (mag >= config.minpos / 2.0)
    elif rounding == "stochastic":
        representable = nonzero & (mag >= config.minpos)
        small = nonzero & (mag < config.minpos)
        if rng is None:
            rng = np.random.default_rng()
        draw = rng.random(arr.shape)
        # Magnitudes past float64 max x minpos overflow to inf here; they
        # are not ``small``, so only the warning goes.
        with np.errstate(over="ignore"):
            underflow_to_min = small & (draw < mag / config.minpos)
    else:
        raise ValueError(
            f"unknown rounding mode {rounding!r}; expected one of {ROUNDING_MODES}"
        )

    if np.any(representable):
        clipped = np.clip(mag[representable], config.minpos, config.maxpos)
        codes = _round_codes(clipped, config, rounding, rng)
        out[representable] = sign[representable] * _decode_bodies(codes, config)

    if np.any(underflow_to_min):
        out[underflow_to_min] = sign[underflow_to_min] * config.minpos

    out[nonfinite] = np.nan

    if scalar_input:
        return out[0]
    return out


def quantize_to_bits(
    x,
    config: PositConfig,
    rounding: str = "zero",
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Quantize ``x`` and return the posit *bit patterns* (two's complement).

    The returned array has dtype ``int64``; each element lies in
    ``[0, 2**n)``.  NaN/inf map to the NaR pattern.
    """
    arr = np.atleast_1d(_as_float_array(x))
    values = np.atleast_1d(quantize(arr, config, rounding=rounding, rng=rng))

    n = config.n
    mask = (np.int64(1) << n) - 1
    bits = np.zeros(arr.shape, dtype=np.int64)

    nar = ~np.isfinite(values)
    bits[nar] = config.nar_pattern

    nonzero = (values != 0) & ~nar
    if np.any(nonzero):
        mags = np.abs(values[nonzero])
        bodies = _encode_magnitudes_rtz(mags, config)
        negative = values[nonzero] < 0
        patterns = np.where(negative, (-bodies) & mask, bodies)
        bits[nonzero] = patterns

    scalar_input = np.asarray(x).ndim == 0
    return bits[0] if scalar_input else bits


def bits_to_float(bits, config: PositConfig) -> np.ndarray:
    """Decode an array of posit bit patterns to real values.

    Zero decodes to 0.0 and NaR decodes to NaN.
    """
    arr = np.atleast_1d(np.asarray(bits, dtype=np.int64))
    n = config.n
    mask = (np.int64(1) << n) - 1
    arr = arr & mask

    out = np.zeros(arr.shape, dtype=np.float64)
    nar = arr == config.nar_pattern
    zero = arr == 0
    regular = ~nar & ~zero

    if np.any(regular):
        patterns = arr[regular]
        negative = (patterns >> (n - 1)) & 1 == 1
        bodies = np.where(negative, (-patterns) & mask, patterns) & ((np.int64(1) << (n - 1)) - 1)
        values = _decode_bodies(bodies, config)
        out[regular] = np.where(negative, -values, values)

    out[nar] = np.nan

    scalar_input = np.asarray(bits).ndim == 0
    return out[0] if scalar_input else out
