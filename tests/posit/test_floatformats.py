"""Tests for the reduced-precision float baseline formats."""

import warnings

import numpy as np
import pytest

from repro.posit import (
    BFLOAT16,
    FP8_E4M3,
    FP8_E5M2,
    FP16,
    FP32,
    FloatFormat,
    float_quantize,
    float_to_bits,
)
from repro.formats import get_quantizer, parse_format


class TestFormatConstants:
    def test_standard_widths(self):
        assert FP32.bits == 32
        assert FP16.bits == 16
        assert BFLOAT16.bits == 16
        assert FP8_E4M3.bits == 8
        assert FP8_E5M2.bits == 8

    def test_fp16_range(self):
        assert FP16.max_value == pytest.approx(65504.0)
        assert FP16.min_normal == pytest.approx(2.0**-14)
        assert FP16.min_subnormal == pytest.approx(2.0**-24)

    def test_bias(self):
        assert FP16.bias == 15
        assert FP32.bias == 127
        assert FP8_E4M3.bias == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            FloatFormat(1, 3)
        with pytest.raises(ValueError):
            FloatFormat(5, -1)


class TestFloatQuantize:
    def test_fp32_is_float32_cast(self, rng):
        values = rng.standard_normal(100)
        np.testing.assert_array_equal(float_quantize(values, FP32),
                                      values.astype(np.float32).astype(np.float64))

    def test_wider_mantissa_than_fp32_is_not_cast(self):
        fmt = parse_format("float(8,30)")
        assert fmt.quantize(1 + 2**-30) == 1 + 2**-30

    def test_wider_exponent_than_fp32_is_not_cast(self):
        # 1e39 overflows float32 but sits well inside float(9,23): it rounds
        # to a 24-bit significand instead of saturating.
        fmt = parse_format("float(9,23)")
        mantissa, exponent = np.frexp(1e39)
        expected = np.ldexp(np.round(np.ldexp(mantissa, 24)), exponent - 24)
        assert fmt.quantize(1e39) == expected
        assert expected == pytest.approx(1.0000000289e39, rel=1e-10)

    def test_fp16_matches_numpy_half(self, rng):
        values = rng.standard_normal(500) * 10
        ours = float_quantize(values, FP16)
        numpy_half = values.astype(np.float16).astype(np.float64)
        np.testing.assert_allclose(ours, numpy_half, rtol=0, atol=0)

    def test_exactly_representable_values_unchanged(self):
        values = np.array([0.5, 1.0, 1.5, -2.0, 0.0])
        for fmt in (FP16, BFLOAT16, FP8_E4M3, FP8_E5M2):
            np.testing.assert_array_equal(float_quantize(values, fmt), values)

    def test_saturation_at_max(self):
        assert float_quantize(1e6, FP8_E4M3) == FP8_E4M3.max_value
        assert float_quantize(-1e6, FP8_E4M3) == -FP8_E4M3.max_value
        assert float_quantize(np.inf, FP16) == FP16.max_value

    def test_flush_below_subnormal(self):
        tiny = FP8_E4M3.min_subnormal / 4
        assert float_quantize(tiny, FP8_E4M3) == 0.0

    def test_subnormals_kept(self):
        value = FP16.min_subnormal * 3
        assert float_quantize(value, FP16) == pytest.approx(value)

    def test_nan_propagates(self):
        assert np.isnan(float_quantize(np.nan, FP16))

    def test_fp8_precision_coarser_than_fp16(self, rng):
        values = rng.standard_normal(200)
        err8 = np.abs(float_quantize(values, FP8_E4M3) - values).mean()
        err16 = np.abs(float_quantize(values, FP16) - values).mean()
        assert err8 > err16

    def test_stochastic_rounding_unbiased(self):
        rng = np.random.default_rng(0)
        value = 1.0 + 2.0**-11  # halfway between FP16 grid points near 1
        samples = float_quantize(np.full(8000, value), FP16, rng=rng, rounding="stochastic")
        assert samples.mean() == pytest.approx(value, rel=1e-3)

    def test_unknown_rounding_rejected(self):
        with pytest.raises(ValueError):
            float_quantize(1.0, FP16, rounding="bogus")

    def test_scalar_shape(self):
        assert np.ndim(float_quantize(1.3, FP16)) == 0

    def test_near_float64_max_is_warning_free(self):
        """2**(exp + 1) overflows for magnitudes near the float64 maximum;
        the comparison is meant to be false there, silently."""
        x = np.array([1e308, -1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = float_quantize(x, FP16)
            codes = float_to_bits(x, FP16)
        np.testing.assert_array_equal(values, FP16.quantize(x))
        np.testing.assert_array_equal(codes, FP16.to_bits(x))
        np.testing.assert_array_equal(values, [65504.0, -65504.0])


class TestFactoryQuantizer:
    def test_callable(self, rng):
        quantizer = get_quantizer(FP16, "nearest")
        values = rng.standard_normal(10)
        np.testing.assert_array_equal(quantizer(values), float_quantize(values, FP16))

    def test_dynamic_range_ordering(self):
        # E5M2 trades precision for range compared to E4M3.
        assert FP8_E5M2.max_value > FP8_E4M3.max_value
        assert FP8_E5M2.mantissa_bits < FP8_E4M3.mantissa_bits
