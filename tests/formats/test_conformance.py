"""Codec conformance across every registry format.

The serving stack's bit-identity guarantees (packed artifacts, the startup
guardrail, cross-worker identity) all reduce to three per-format codec
invariants, pinned here for *every* format the registry knows:

* **encode/decode is quantization**: ``from_bits(to_bits(x)) ==
  quantize(x)`` for arbitrary finite ``x`` — storing a tensor and reading
  it back is exactly fake quantization, nothing more;
* **grid points are fixed points**: every decodable value survives a
  quantize and an encode/decode round trip unchanged (exhaustive over all
  ``2**bits`` codes for widths <= 12, seeded random codes above);
* **zero is canonical**: ``0.0`` and ``-0.0`` both encode to the single
  canonical zero code and decode to exactly ``0.0`` (a second zero code
  would break byte-identical re-export and the guardrail's bit-identity).

Fixed point, which has no NaN or inf code, also pins what it does with them.
"""

import warnings

import numpy as np
import pytest

from repro.formats import available_formats, parse_format

#: Exhaustive sweeps cost 2**bits decodes; 4096 codes is still instant.
EXHAUSTIVE_MAX_BITS = 12
SAMPLED_CODES = 4096
RANDOM_VALUES = 2048


def registry_formats() -> list:
    """Every distinct registered format, one instance per canonical spec."""
    by_spec = {}
    for fmt in available_formats().values():
        by_spec.setdefault(fmt.spec(), fmt)
    return [by_spec[spec] for spec in sorted(by_spec)]


FORMATS = registry_formats()
FORMAT_IDS = [fmt.spec() for fmt in FORMATS]


def all_codes(fmt) -> np.ndarray:
    """Every bit pattern (exhaustive) or a seeded sample of them (wide)."""
    if fmt.bits <= EXHAUSTIVE_MAX_BITS:
        return np.arange(2 ** fmt.bits, dtype=np.int64)
    rng = np.random.default_rng(0xC0DEC ^ fmt.bits)
    sampled = rng.integers(0, 2 ** fmt.bits, size=SAMPLED_CODES, dtype=np.int64)
    # Always include the boundary patterns the random draw can miss.
    edges = np.array([0, 1, 2 ** (fmt.bits - 1) - 1, 2 ** (fmt.bits - 1),
                      2 ** fmt.bits - 1], dtype=np.int64)
    return np.unique(np.concatenate([sampled, edges]))


def random_values(fmt) -> np.ndarray:
    """Finite values spanning well past the format's dynamic range."""
    rng = np.random.default_rng(0xF0012 ^ fmt.bits)
    span = np.log2(fmt.maxpos) - np.log2(fmt.minpos)
    exponents = rng.uniform(np.log2(fmt.minpos) - 0.1 * span - 2,
                            np.log2(fmt.maxpos) + 0.1 * span + 2,
                            size=RANDOM_VALUES)
    values = np.ldexp(rng.uniform(1.0, 2.0, size=RANDOM_VALUES), 0) * 2.0 ** exponents
    signs = rng.choice([-1.0, 1.0], size=RANDOM_VALUES)
    extremes = np.array([0.0, -0.0, fmt.minpos, -fmt.minpos, fmt.maxpos,
                         -fmt.maxpos, fmt.maxpos * 4, fmt.minpos / 4])
    return np.concatenate([values * signs, extremes])


@pytest.mark.parametrize("fmt", FORMATS, ids=FORMAT_IDS)
class TestCodecConformance:
    def test_encode_decode_equals_quantize(self, fmt):
        values = random_values(fmt)
        decoded = np.asarray(fmt.from_bits(fmt.to_bits(values, mode="nearest")))
        quantized = np.asarray(fmt.quantize(values, mode="nearest"))
        assert np.array_equal(decoded, quantized), fmt.spec()

    def test_grid_points_are_fixed_points(self, fmt):
        codes = all_codes(fmt)
        decoded = np.asarray(fmt.from_bits(codes), dtype=np.float64)
        finite = decoded[np.isfinite(decoded)]
        # Every representable value quantizes to itself ...
        assert np.array_equal(np.asarray(fmt.quantize(finite, mode="nearest")),
                              finite), fmt.spec()
        # ... and survives an encode/decode round trip bit for bit.
        recoded = np.asarray(fmt.from_bits(fmt.to_bits(finite, mode="nearest")))
        assert np.array_equal(recoded, finite), fmt.spec()

    def test_round_trip_is_idempotent(self, fmt):
        """Second encode/decode pass changes nothing (codec is a projection)."""
        values = random_values(fmt)
        once = np.asarray(fmt.from_bits(fmt.to_bits(values, mode="nearest")))
        twice = np.asarray(fmt.from_bits(fmt.to_bits(once, mode="nearest")))
        assert np.array_equal(once, twice), fmt.spec()

    def test_zero_is_canonical(self, fmt):
        zeros = np.array([0.0, -0.0])
        codes = np.asarray(fmt.to_bits(zeros, mode="nearest"))
        # One canonical zero code, shared by both signed zeros ...
        assert codes[0] == codes[1], fmt.spec()
        decoded = np.asarray(fmt.from_bits(codes))
        # ... decoding to exactly +0.0 (no negative-zero bit pattern leaks).
        assert np.array_equal(decoded, np.zeros(2)), fmt.spec()
        assert not np.signbit(decoded).any(), fmt.spec()

    def test_decoded_codes_stay_in_range(self, fmt):
        """No decodable value escapes the format's dynamic range.

        Positive values are bounded by ``maxpos`` exactly; the negative
        bound allows one extra step below ``-maxpos`` for two's-complement
        formats (fixed point's most-negative code has no positive twin).
        """
        decoded = np.asarray(fmt.from_bits(all_codes(fmt)), dtype=np.float64)
        finite_nonzero = decoded[np.isfinite(decoded) & (decoded != 0.0)]
        assert np.abs(finite_nonzero).min() >= fmt.minpos, fmt.spec()
        assert finite_nonzero.max() <= fmt.maxpos, fmt.spec()
        assert finite_nonzero.min() >= -(fmt.maxpos + fmt.minpos), fmt.spec()


@pytest.mark.parametrize("mode", ["nearest", "stochastic"])
@pytest.mark.parametrize("spec", ["fixed(8,5)", "fixed(16,13)", "fixed(32,16)"])
def test_fixed_point_nan_and_inf(spec, mode):
    """Fixed point has no NaN or inf code.

    NaN stays NaN under ``quantize`` and stores as code 0; ``±inf`` and
    magnitudes far past the range saturate to the extreme codes.  Neither
    raises a floating-point warning.
    """
    fmt = parse_format(spec)
    x = np.array([np.nan, np.inf, -np.inf, 1e308, -1e308, np.finfo(np.float64).max])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        codes = fmt.to_bits(x, mode=mode, rng=np.random.default_rng(0))
        values = fmt.quantize(x, mode=mode, rng=np.random.default_rng(0))
    top, bottom = 2 ** (fmt.bits - 1) - 1, 2 ** (fmt.bits - 1)
    assert codes.tolist() == [0, top, bottom, top, bottom, top]
    assert np.isnan(values[0])
    hi, lo = fmt.max_value, fmt.min_value
    assert values[1:].tolist() == [hi, lo, hi, lo, hi]
    assert fmt.from_bits(codes).tolist() == [0.0, hi, lo, hi, lo, hi]
