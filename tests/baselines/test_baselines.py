"""Tests for the fixed-point and low-bit float baseline schemes."""

import numpy as np
import pytest

from repro.baselines import (
    FixedPointFormat,
    fixed_point_policy,
    fixed_point_quantize,
    fp8_policy,
    fp16_policy,
    make_loss_scaler,
)
from repro.formats import get_quantizer
from repro.posit import FP8_E4M3, FP8_E5M2, FP16


class TestFixedPointFormat:
    def test_widths_and_step(self):
        fmt = FixedPointFormat(2, 13)
        assert fmt.bits == 16
        assert fmt.step == 2.0**-13
        assert fmt.max_value == pytest.approx(4.0 - 2.0**-13)
        assert fmt.min_value == -4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedPointFormat(-1, 3)
        with pytest.raises(ValueError):
            FixedPointFormat(0, 0)

    def test_str(self):
        assert str(FixedPointFormat(2, 5)) == "Q2.5"


class TestFixedPointQuantize:
    def test_grid_values_unchanged(self):
        fmt = FixedPointFormat(3, 4)
        values = np.array([0.0, 0.25, -1.5, 3.0625])
        np.testing.assert_array_equal(fixed_point_quantize(values, fmt), values)

    def test_nearest_rounding(self):
        fmt = FixedPointFormat(3, 2)  # step 0.25
        assert fixed_point_quantize(0.3, fmt) == pytest.approx(0.25)
        assert fixed_point_quantize(0.4, fmt) == pytest.approx(0.5)
        # Ties round half to even (np.round), not half away from zero.
        ties = np.array([0.125, 0.625, -0.625])
        np.testing.assert_array_equal(fmt.quantize(ties), [0.0, 0.5, -0.5])
        np.testing.assert_array_equal(fmt.to_bits(ties), [0, 2, 62])

    def test_saturation(self):
        fmt = FixedPointFormat(2, 4)
        assert fixed_point_quantize(100.0, fmt) == fmt.max_value
        assert fixed_point_quantize(-100.0, fmt) == fmt.min_value

    def test_uniform_step_everywhere(self, rng):
        """Unlike posit, fixed point has the same absolute error at all scales."""
        fmt = FixedPointFormat(4, 8)
        small = rng.uniform(0.01, 0.02, 1000)
        large = rng.uniform(10.0, 10.01, 1000)
        err_small = np.abs(fixed_point_quantize(small, fmt) - small).max()
        err_large = np.abs(fixed_point_quantize(large, fmt) - large).max()
        assert err_small == pytest.approx(err_large, abs=fmt.step)

    def test_stochastic_rounding_unbiased(self):
        fmt = FixedPointFormat(3, 3)
        value = 0.3  # between 0.25 and 0.375
        samples = fixed_point_quantize(np.full(8000, value), fmt, rounding="stochastic",
                                       rng=np.random.default_rng(0))
        assert samples.mean() == pytest.approx(value, rel=0.01)

    def test_unknown_rounding_rejected(self):
        with pytest.raises(ValueError):
            fixed_point_quantize(1.0, FixedPointFormat(2, 2), rounding="bogus")

    def test_factory_quantizer_rounds_zero_to_nearest(self):
        fmt = FixedPointFormat(2, 6)
        quantizer = get_quantizer(fmt, rounding="zero")
        assert quantizer.format == fmt
        np.testing.assert_array_equal(quantizer(np.array([0.1])),
                                      fixed_point_quantize(np.array([0.1]), fmt))


class TestBaselinePolicies:
    def test_fp16_policy_keeps_master_weights(self):
        policy = fp16_policy(keep_master_weights=True)
        assert policy.conv_formats.weight == FP16
        assert policy.conv_formats.weight_grad is None

    def test_fp16_policy_full_quantization(self):
        policy = fp16_policy(keep_master_weights=False)
        assert policy.conv_formats.weight_grad == FP16

    def test_fp8_policy_formats(self):
        policy = fp8_policy()
        assert policy.conv_formats.weight == FP8_E4M3
        assert policy.conv_formats.error == FP8_E5M2
        assert policy.conv_formats.weight_grad == FP16

    def test_fixed_point_policy_uses_stochastic_rounding(self):
        policy = fixed_point_policy()
        assert policy.rounding == "stochastic"
        assert policy.conv_formats.weight.bits == 16

    def test_policies_attach_to_models(self, rng):
        from repro.models import tiny_resnet

        for policy in (fp16_policy(), fp8_policy(), fixed_point_policy()):
            model = tiny_resnet(rng=rng)
            contexts = policy.attach(model)
            assert contexts

    def test_make_loss_scaler(self):
        scaler = make_loss_scaler(fp16_policy(), scale=256.0, dynamic=False)
        assert scaler.scale == 256.0
        assert not scaler.dynamic
