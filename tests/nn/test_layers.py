"""Tests for the layer classes, including their quantization hook points."""

import numpy as np
import pytest

from repro.core import LayerQuantContext
from repro.nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from repro.nn import init
from repro.formats import get_quantizer
from repro.posit import PositConfig
from repro.tensor import Tensor


class TestLinearLayer:
    def test_output_shape(self, rng):
        layer = Linear(6, 4, rng=rng)
        assert layer(Tensor(np.ones((3, 6)))).shape == (3, 4)

    def test_no_bias_option(self, rng):
        layer = Linear(6, 4, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradients_reach_parameters(self, rng):
        layer = Linear(3, 2, rng=rng)
        out = layer(Tensor(rng.standard_normal((4, 3))))
        out.sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestConvLayer:
    def test_output_shape_with_padding(self, rng):
        layer = Conv2d(3, 8, 3, stride=1, padding=1, rng=rng)
        assert layer(Tensor(np.ones((2, 3, 16, 16)))).shape == (2, 8, 16, 16)

    def test_output_shape_with_stride(self, rng):
        layer = Conv2d(3, 8, 3, stride=2, padding=1, rng=rng)
        assert layer(Tensor(np.ones((2, 3, 16, 16)))).shape == (2, 8, 8, 8)

    def test_bias_false_for_bn_style(self, rng):
        layer = Conv2d(3, 8, 3, bias=False, rng=rng)
        assert layer.bias is None

    def test_kaiming_initialization_scale(self):
        rng = np.random.default_rng(0)
        layer = Conv2d(16, 32, 3, rng=rng)
        fan_out = 32 * 9
        expected_std = np.sqrt(2.0 / fan_out)
        assert layer.weight.data.std() == pytest.approx(expected_std, rel=0.1)


class TestBatchNormLayer:
    def test_normalizes_in_training(self, rng):
        layer = BatchNorm2d(4)
        x = Tensor(rng.standard_normal((8, 4, 5, 5)) * 2 + 3)
        out = layer(x)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), np.zeros(4), atol=1e-7)

    def test_eval_mode_uses_running_statistics(self, rng):
        layer = BatchNorm2d(2)
        for _ in range(60):
            layer(Tensor(rng.standard_normal((16, 2, 4, 4)) + 5))
        layer.eval()
        x = rng.standard_normal((4, 2, 4, 4)) + 5
        out = layer(Tensor(x))
        # With converged running stats the eval output should be roughly centred.
        assert abs(out.data.mean()) < 1.0

    def test_affine_parameters_trainable(self):
        layer = BatchNorm2d(3)
        np.testing.assert_array_equal(layer.weight.data, np.ones(3))
        np.testing.assert_array_equal(layer.bias.data, np.zeros(3))


class TestSimpleLayers:
    def test_identity(self, rng):
        x = Tensor(rng.standard_normal((2, 3)))
        assert Identity()(x) is x

    def test_relu(self):
        out = ReLU()(Tensor(np.array([-1.0, 2.0])))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_max_pool_layer(self, rng):
        assert MaxPool2d(2)(Tensor(np.ones((1, 1, 4, 4)))).shape == (1, 1, 2, 2)

    def test_avg_pool_layer(self, rng):
        assert AvgPool2d(2)(Tensor(np.ones((1, 1, 4, 4)))).shape == (1, 1, 2, 2)

    def test_global_avg_pool_layer(self, rng):
        assert GlobalAvgPool2d()(Tensor(np.ones((2, 3, 4, 4)))).shape == (2, 3)

    def test_flatten_layer(self):
        assert Flatten()(Tensor(np.ones((2, 3, 4)))).shape == (2, 12)

    def test_dropout_respects_training_flag(self, rng):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((100, 100)))
        layer.eval()
        np.testing.assert_array_equal(layer(x).data, x.data)
        layer.train()
        assert np.any(layer(x).data == 0.0)


class TestSequential:
    def test_applies_in_order(self, rng):
        model = Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
        assert model(Tensor(np.ones((5, 4)))).shape == (5, 2)

    def test_len_getitem_iter(self, rng):
        model = Sequential(Linear(2, 2, rng=rng), ReLU())
        assert len(model) == 2
        assert isinstance(model[1], ReLU)
        assert len(list(iter(model))) == 2

    def test_children_parameters_registered(self, rng):
        model = Sequential(Linear(2, 3, rng=rng), Linear(3, 1, rng=rng))
        assert len(model.parameters()) == 4


class TestQuantizationHooks:
    """The Fig. 3 insertion points: weights, activations, errors."""

    def _context(self, config=PositConfig(8, 1)):
        quantizer = get_quantizer(config)
        return LayerQuantContext(
            "test",
            weight_quantizer=quantizer,
            activation_quantizer=quantizer,
            error_quantizer=get_quantizer(PositConfig(8, 2)),
        )

    def test_conv_output_is_quantized(self, rng):
        layer = Conv2d(2, 3, 3, padding=1, rng=rng)
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        baseline = layer(x).data
        layer.quant = self._context()
        quantized = layer(x).data
        config = PositConfig(8, 1)
        from repro.posit import quantize

        # Every output value must lie on the posit grid (the last P(.) in Fig. 3a).
        np.testing.assert_array_equal(quantized, np.asarray(quantize(quantized, config)))
        assert not np.array_equal(baseline, quantized)

    def test_linear_weights_quantized_in_forward(self, rng):
        layer = Linear(8, 4, rng=rng)
        layer.quant = self._context()
        x = Tensor(np.eye(8))
        out = layer(x).data  # rows of the (quantized) weight matrix plus bias
        # The full-precision weights themselves must be untouched (master copy).
        assert layer.weight.data.dtype == np.float64
        assert not np.array_equal(out - layer.bias.data, layer.weight.data.T)

    def test_error_path_quantizes_gradient(self, rng):
        from repro.posit import quantize

        layer = Linear(4, 4, rng=rng)
        layer.quant = LayerQuantContext(
            "test", error_quantizer=get_quantizer(PositConfig(8, 2)))
        x = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        layer(x).sum().backward()
        np.testing.assert_array_equal(
            x.grad, np.asarray(quantize(x.grad, PositConfig(8, 2))))

    def test_disabled_context_is_identity(self, rng):
        layer = Linear(4, 4, rng=rng)
        x = Tensor(rng.standard_normal((2, 4)))
        baseline = layer(x).data
        context = self._context()
        context.enabled = False
        layer.quant = context
        np.testing.assert_array_equal(layer(x).data, baseline)

    def test_bn_layer_honours_context(self, rng):
        from repro.posit import quantize

        layer = BatchNorm2d(2)
        layer.quant = self._context(PositConfig(16, 1))
        out = layer(Tensor(rng.standard_normal((4, 2, 3, 3)))).data
        np.testing.assert_array_equal(out, np.asarray(quantize(out, PositConfig(16, 1))))


class TestInitializers:
    def test_fans_for_conv_shape(self):
        fan_in, fan_out = init.compute_fans((32, 16, 3, 3))
        assert fan_in == 16 * 9
        assert fan_out == 32 * 9

    def test_fans_for_linear_shape(self):
        assert init.compute_fans((10, 20)) == (20, 10)

    def test_kaiming_normal_std(self):
        rng = np.random.default_rng(0)
        weights = init.kaiming_normal((256, 128, 3, 3), rng, mode="fan_out")
        assert weights.std() == pytest.approx(np.sqrt(2.0 / (256 * 9)), rel=0.05)

    def test_xavier_uniform_bound(self):
        rng = np.random.default_rng(0)
        weights = init.xavier_uniform((100, 200), rng)
        bound = np.sqrt(6.0 / 300)
        assert np.abs(weights).max() <= bound

    def test_constant_inits(self):
        np.testing.assert_array_equal(init.zeros_((3,)), np.zeros(3))
        np.testing.assert_array_equal(init.ones_((3,)), np.ones(3))

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            init.compute_fans(())
