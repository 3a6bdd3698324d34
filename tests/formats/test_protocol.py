"""The NumberFormat protocol: one surface across posit, float, and fixed point."""

import numpy as np
import pytest

from repro.formats import FixedPointFormat, NumberFormat, get_quantizer
from repro.posit import (
    FP8_E4M3,
    FP16,
    FP32,
    FloatFormat,
    PositConfig,
    float_from_bits,
    float_to_bits,
)

ALL_FAMILIES = [
    PositConfig(8, 1),
    PositConfig(16, 2),
    FP16,
    FP8_E4M3,
    FixedPointFormat(2, 5),
    FixedPointFormat(2, 13),
]


@pytest.fixture(params=ALL_FAMILIES, ids=lambda fmt: fmt.spec())
def fmt(request) -> NumberFormat:
    return request.param


class TestProtocolSurface:
    def test_isinstance_number_format(self, fmt):
        assert isinstance(fmt, NumberFormat)

    def test_bits_positive(self, fmt):
        assert isinstance(fmt.bits, int) and fmt.bits > 0

    def test_minpos_maxpos_ordering(self, fmt):
        assert 0 < fmt.minpos <= fmt.maxpos

    def test_name_is_string(self, fmt):
        assert isinstance(fmt.name, str)

    def test_spec_is_string(self, fmt):
        assert isinstance(fmt.spec(), str) and fmt.spec()

    def test_quantize_idempotent(self, fmt, rng):
        values = rng.standard_normal(500)
        once = np.asarray(fmt.quantize(values, mode="nearest"))
        twice = np.asarray(fmt.quantize(once, mode="nearest"))
        np.testing.assert_array_equal(once, twice)

    def test_quantize_preserves_zero(self, fmt):
        assert fmt.quantize(0.0) == 0.0

    def test_quantizer_matches_quantize(self, fmt, rng):
        values = rng.standard_normal(200)
        quantizer = get_quantizer(fmt, rounding="nearest")
        np.testing.assert_array_equal(
            np.asarray(quantizer(values)),
            np.asarray(fmt.quantize(values, mode="nearest")),
        )

    def test_quantizer_exposes_format(self, fmt):
        assert get_quantizer(fmt).format == fmt


class TestBitCodecs:
    def test_round_trip_matches_quantize(self, fmt, rng):
        values = np.concatenate([
            rng.standard_normal(300) * 0.02,
            rng.standard_normal(300) * 30.0,
            np.array([0.0, 1.0, -1.0, 1e12, -1e12]),
        ])
        expected = np.asarray(fmt.quantize(values))
        decoded = np.asarray(fmt.from_bits(fmt.to_bits(values)))
        np.testing.assert_allclose(decoded, expected, rtol=0, atol=0)

    def test_bits_fit_in_word(self, fmt, rng):
        bits = np.atleast_1d(fmt.to_bits(rng.standard_normal(200)))
        assert bits.dtype == np.int64
        assert bits.min() >= 0
        assert bits.max() < (1 << fmt.bits)

    def test_scalar_in_scalar_out(self, fmt):
        assert np.ndim(fmt.to_bits(1.25)) == 0
        assert np.ndim(fmt.from_bits(fmt.to_bits(1.25))) == 0


class TestFloatBitPatterns:
    """The float codec against well-known IEEE half-precision patterns."""

    @pytest.mark.parametrize("value,pattern", [
        (1.0, 0x3C00),
        (-2.0, 0xC000),
        (65504.0, 0x7BFF),     # FP16 max finite
        (2.0 ** -24, 0x0001),  # smallest subnormal
        (0.0, 0x0000),
    ])
    def test_known_fp16_patterns(self, value, pattern):
        assert int(float_to_bits(value, FP16)) == pattern
        assert float_from_bits(pattern, FP16) == value

    def test_nan_round_trips(self):
        assert np.isnan(float_from_bits(float_to_bits(np.nan, FP16), FP16))

    def test_saturation_encodes_max(self):
        assert float_from_bits(float_to_bits(1e30, FP16), FP16) == FP16.max_value

    def test_fp32_grid_is_float32(self, rng):
        values = rng.standard_normal(100).astype(np.float32).astype(np.float64)
        np.testing.assert_array_equal(float_from_bits(float_to_bits(values, FP32), FP32),
                                      values)


class TestFixedPointBitPatterns:
    def test_twos_complement_extremes(self):
        fmt = FixedPointFormat(2, 5)  # 8-bit word
        assert int(fmt.to_bits(fmt.max_value)) == 0x7F
        assert int(fmt.to_bits(fmt.min_value)) == 0x80
        assert int(fmt.to_bits(-fmt.step)) == 0xFF

    def test_protocol_aliases(self):
        fmt = FixedPointFormat(2, 13)
        assert fmt.maxpos == fmt.max_value
        assert fmt.minpos == fmt.step
        assert fmt.bits == 16


class TestPositProtocolAliases:
    def test_bits_is_word_size(self):
        assert PositConfig(16, 1).bits == 16

    def test_name_matches_spec(self):
        cfg = PositConfig(8, 2)
        assert cfg.name == cfg.spec() == "posit(8,2)"

    def test_quantize_method_matches_function(self, rng):
        from repro.posit import quantize

        cfg = PositConfig(8, 1)
        values = rng.standard_normal(300)
        np.testing.assert_array_equal(np.asarray(cfg.quantize(values)),
                                      np.asarray(quantize(values, cfg)))


class TestFloatFormatSpec:
    def test_named_constants_use_short_specs(self):
        assert FP32.spec() == "fp32"
        assert FP16.spec() == "fp16"
        assert FP8_E4M3.spec() == "fp8_e4m3"

    def test_parametric_formats_use_structural_spec(self):
        assert FloatFormat(5, 7).spec() == "float(5,7)"

    def test_code_count_excludes_reserved_exponent(self):
        # fp8_e4m3: 256 patterns minus 2 * 2**3 reserved (all-ones exponent).
        assert FP8_E4M3.code_count == 240
        assert FP16.code_count == (1 << 16) - 2 * (1 << 10)

    def test_coverage_uses_finite_code_count(self, rng):
        from repro.analysis import code_usage

        # Exercise essentially the whole finite fp8 grid; the fraction must
        # be able to approach 1.0, which it cannot if the reserved NaN/inf
        # patterns are counted as available code space.
        values = np.concatenate([rng.uniform(-FP8_E4M3.max_value, FP8_E4M3.max_value, 200000),
                                 rng.standard_normal(200000) * FP8_E4M3.min_normal])
        usage = code_usage(values, FP8_E4M3, rounding="nearest")
        assert usage["code_space_fraction"] > 0.95
