"""Tests for the vectorized quantizer (Algorithm 1 and its rounding variants)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.formats import get_quantizer
from repro.posit import (
    PositConfig,
    bits_to_float,
    decode,
    encode,
    quantize,
    quantize_to_bits,
)

PAPER_FORMATS = [PositConfig(8, 0), PositConfig(8, 1), PositConfig(8, 2),
                 PositConfig(16, 1), PositConfig(16, 2)]


def _log_uniform(rng, size, low_exp=-25, high_exp=25):
    signs = rng.choice([-1.0, 1.0], size=size)
    return signs * np.exp2(rng.uniform(low_exp, high_exp, size=size)) * rng.uniform(1, 2, size=size)


class TestAgainstScalarReference:
    """The vectorized path must agree bit-for-bit with the scalar reference."""

    @pytest.mark.parametrize("cfg", PAPER_FORMATS, ids=str)
    @pytest.mark.parametrize("rounding", ["zero", "nearest"])
    def test_matches_scalar_encode(self, cfg, rounding, rng):
        values = _log_uniform(rng, 500)
        vectorized = quantize(values, cfg, rounding=rounding)
        reference = np.array(
            [decode(encode(float(v), cfg, rounding=rounding), cfg) for v in values]
        )
        np.testing.assert_array_equal(vectorized, reference)

    def test_matches_scalar_on_large_format(self, rng):
        # posit(32,3) exercises the algorithmic (non-grid) path.
        cfg = PositConfig(32, 3)
        values = _log_uniform(rng, 200, low_exp=-60, high_exp=60)
        vectorized = quantize(values, cfg, rounding="zero")
        reference = np.array([decode(encode(float(v), cfg, rounding="zero"), cfg) for v in values])
        np.testing.assert_array_equal(vectorized, reference)


class TestAlgorithm1Semantics:
    """Line-by-line behaviour of Algorithm 1 (round-to-zero operator)."""

    def test_zero_maps_to_zero(self, paper_config):
        assert quantize(0.0, paper_config) == 0.0

    def test_underflow_flushes_to_zero(self, paper_config):
        tiny = paper_config.minpos / 2
        assert quantize(tiny, paper_config, rounding="zero") == 0.0
        assert quantize(-tiny, paper_config, rounding="zero") == 0.0

    def test_overflow_clips_to_maxpos(self, paper_config):
        assert quantize(paper_config.maxpos * 100, paper_config) == paper_config.maxpos
        assert quantize(-paper_config.maxpos * 100, paper_config) == -paper_config.maxpos

    def test_truncation_never_increases_magnitude(self, paper_config, rng):
        values = _log_uniform(rng, 200)
        quantized = quantize(values, paper_config, rounding="zero")
        assert np.all(np.abs(quantized) <= np.abs(values) + 1e-15)

    def test_sign_preserved(self, paper_config, rng):
        values = _log_uniform(rng, 200)
        quantized = quantize(values, paper_config, rounding="zero")
        nonzero = quantized != 0
        assert np.all(np.sign(quantized[nonzero]) == np.sign(values[nonzero]))

    def test_exact_values_unchanged(self, paper_config):
        # Values already on the grid pass through untouched.
        exact = np.array([decode(c, paper_config) for c in (1, 5, 20, 63)])
        np.testing.assert_array_equal(quantize(exact, paper_config), exact)

    def test_nan_propagates(self, paper_config):
        result = quantize(np.array([1.0, np.nan, np.inf]), paper_config)
        assert result[0] == quantize(1.0, paper_config)
        assert np.isnan(result[1]) and np.isnan(result[2])

    def test_scalar_input_returns_scalar_shape(self, paper_config):
        result = quantize(3.14, paper_config)
        assert np.ndim(result) == 0

    def test_preserves_shape(self, paper_config, rng):
        values = rng.standard_normal((3, 4, 5))
        assert quantize(values, paper_config).shape == (3, 4, 5)

    def test_table1_example_values(self):
        # Quantizing to (5,1): 0.35 truncates to 1/4 ... wait 0.35 is between
        # 1/4 and 3/8, round-to-zero gives 1/4; 0.4 gives 3/8.
        cfg = PositConfig(5, 1)
        assert quantize(0.35, cfg, rounding="zero") == pytest.approx(0.25)
        assert quantize(0.4, cfg, rounding="zero") == pytest.approx(0.375)
        assert quantize(5.0, cfg, rounding="zero") == pytest.approx(4.0)


class TestRoundingModes:
    def test_nearest_picks_closest_grid_point(self, paper_config, rng):
        values = _log_uniform(rng, 200, low_exp=-5, high_exp=5)
        nearest = quantize(values, paper_config, rounding="nearest")
        truncated = quantize(values, paper_config, rounding="zero")
        assert np.all(np.abs(nearest - values) <= np.abs(truncated - values) + 1e-15)

    def test_stochastic_is_unbiased_on_midpoint(self):
        cfg = PositConfig(8, 1)
        lower, upper = 1.0, decode(encode(1.0, cfg) + 1, cfg)
        midpoint = (lower + upper) / 2
        rng = np.random.default_rng(7)
        samples = quantize(np.full(4000, midpoint), cfg, rounding="stochastic", rng=rng)
        fraction_up = np.mean(samples == upper)
        assert 0.4 < fraction_up < 0.6

    def test_stochastic_expectation_close_to_value(self):
        cfg = PositConfig(8, 1)
        value = 1.3
        rng = np.random.default_rng(3)
        samples = quantize(np.full(8000, value), cfg, rounding="stochastic", rng=rng)
        assert np.mean(samples) == pytest.approx(value, rel=0.02)

    def test_stochastic_only_uses_bracketing_values(self):
        cfg = PositConfig(8, 1)
        value = 2.7
        rng = np.random.default_rng(11)
        samples = np.unique(quantize(np.full(500, value), cfg, rounding="stochastic", rng=rng))
        assert len(samples) <= 2
        assert np.all(samples >= quantize(value, cfg, rounding="zero"))

    def test_unknown_mode_rejected(self, paper_config):
        with pytest.raises(ValueError):
            quantize(1.0, paper_config, rounding="bogus")


class TestBitConversion:
    def test_bits_roundtrip(self, paper_config, rng):
        values = _log_uniform(rng, 300)
        bits = quantize_to_bits(values, paper_config)
        recovered = bits_to_float(bits, paper_config)
        np.testing.assert_array_equal(recovered, quantize(values, paper_config))

    def test_bits_in_valid_range(self, paper_config, rng):
        bits = quantize_to_bits(_log_uniform(rng, 100), paper_config)
        assert np.all(bits >= 0)
        assert np.all(bits < paper_config.code_count)

    def test_nar_bits_for_nonfinite(self, paper_config):
        bits = quantize_to_bits(np.array([np.nan, np.inf]), paper_config)
        assert np.all(bits == paper_config.nar_pattern)

    def test_negative_values_use_twos_complement(self):
        cfg = PositConfig(8, 1)
        bits = quantize_to_bits(np.array([1.5, -1.5]), cfg)
        assert bits[1] == ((-bits[0]) & 0xFF)

    def test_scalar_bits(self, paper_config):
        assert np.ndim(quantize_to_bits(2.0, paper_config)) == 0


class TestFactoryQuantizer:
    def test_callable_interface(self, paper_config, rng):
        quantizer = get_quantizer(paper_config)
        values = rng.standard_normal(50)
        np.testing.assert_array_equal(quantizer(values), quantize(values, paper_config))

    def test_invalid_rounding_rejected(self, paper_config):
        with pytest.raises(ValueError):
            get_quantizer(paper_config, rounding="nope")

    def test_to_bits_matches_function(self, paper_config, rng):
        quantizer = get_quantizer(paper_config)
        values = rng.standard_normal(20)
        np.testing.assert_array_equal(quantizer.to_bits(values),
                                      quantize_to_bits(values, paper_config))


class TestHypothesisProperties:
    @given(values=hnp.arrays(np.float64, shape=st.integers(1, 64),
                             elements=st.floats(-1e8, 1e8, allow_nan=False)))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, values):
        """Quantization is a projection: applying it twice changes nothing."""
        cfg = PositConfig(8, 1)
        once = quantize(values, cfg, rounding="zero")
        twice = quantize(once, cfg, rounding="zero")
        np.testing.assert_array_equal(once, twice)

    @given(values=hnp.arrays(np.float64, shape=st.integers(1, 64),
                             elements=st.floats(-1e6, 1e6, allow_nan=False)))
    @settings(max_examples=100, deadline=None)
    def test_outputs_are_representable(self, values):
        """Every output value round-trips exactly through the bit encoding."""
        cfg = PositConfig(16, 2)
        quantized = quantize(values, cfg, rounding="nearest")
        bits = quantize_to_bits(quantized, cfg, rounding="nearest")
        np.testing.assert_array_equal(bits_to_float(bits, cfg), quantized)

    @given(values=hnp.arrays(np.float64, shape=st.integers(2, 64),
                             elements=st.floats(1e-4, 1e4, allow_nan=False)),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_monotone(self, values, data):
        """Quantization preserves ordering (monotone non-decreasing map)."""
        cfg = PositConfig(8, 2)
        ordered = np.sort(values)
        quantized = quantize(ordered, cfg, rounding="nearest")
        assert np.all(np.diff(quantized) >= 0)

    @given(scale_power=st.integers(-20, 20),
           values=hnp.arrays(np.float64, shape=st.integers(1, 32),
                             elements=st.floats(1e-6, 1e6, allow_nan=False)))
    @settings(max_examples=100, deadline=None)
    def test_power_of_two_scale_is_lossless_in_carrier(self, scale_power, values):
        """Dividing and re-multiplying by the Eq. (3) scale factor is exact.

        The scale factor S_f is a power of two precisely so that applying
        ``P(x / S_f) * S_f`` introduces no error beyond the posit rounding
        itself: the carrier-format scaling is lossless, and the quantized
        result is ``S_f`` times an exactly representable posit value.
        """
        cfg = PositConfig(16, 2)
        scale = 2.0**scale_power
        # Carrier-level round trip is exact.
        np.testing.assert_array_equal((values / scale) * scale, values)
        # The shifted quantization equals scale times a representable value.
        shifted = quantize(values / scale, cfg, rounding="zero") * scale
        np.testing.assert_array_equal(
            shifted / scale, quantize(shifted / scale, cfg, rounding="zero")
        )
