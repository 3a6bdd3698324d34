"""Tests for the Fig. 3 quantization transforms and the per-layer context."""

import numpy as np
import pytest

from repro.core import (
    LayerQuantContext,
    ScaleEstimator,
    apply_scaled_quantization,
    fake_quantize,
    grad_quantize,
)
from repro.formats import get_quantizer
from repro.posit import PositConfig, quantize
from repro.tensor import Tensor


CFG_FWD = PositConfig(8, 1)
CFG_BWD = PositConfig(8, 2)


class TestApplyScaledQuantization:
    def test_equation_3(self, rng):
        """px = P(x / Sf) * Sf."""
        values = rng.standard_normal(100) * 0.01
        quantizer = get_quantizer(CFG_FWD)
        scale = 2.0**-5
        result = apply_scaled_quantization(values, quantizer, scale)
        np.testing.assert_array_equal(result, np.asarray(quantize(values / scale, CFG_FWD)) * scale)

    def test_unit_scale_shortcut(self, rng):
        values = rng.standard_normal(20)
        quantizer = get_quantizer(CFG_FWD)
        np.testing.assert_array_equal(
            apply_scaled_quantization(values, quantizer, 1.0),
            np.asarray(quantize(values, CFG_FWD)),
        )

    def test_shifting_improves_small_magnitude_fidelity(self, rng):
        """The whole point of Eq. (3): small-magnitude tensors lose less."""
        values = rng.standard_normal(2000) * 1e-4
        quantizer = get_quantizer(PositConfig(8, 0))
        direct = apply_scaled_quantization(values, quantizer, 1.0)
        from repro.core import compute_scale_factor

        scale = compute_scale_factor(values)
        shifted = apply_scaled_quantization(values, quantizer, scale)
        assert np.abs(shifted - values).mean() < np.abs(direct - values).mean()


class TestFakeQuantize:
    def test_forward_values_on_grid(self, rng):
        x = Tensor(rng.standard_normal(50), requires_grad=True)
        out = fake_quantize(x, get_quantizer(CFG_FWD))
        np.testing.assert_array_equal(out.data, np.asarray(quantize(x.data, CFG_FWD)))

    def test_straight_through_gradient(self, rng):
        x = Tensor(rng.standard_normal(50), requires_grad=True)
        out = fake_quantize(x, get_quantizer(CFG_FWD))
        upstream = rng.standard_normal(50)
        out.backward(upstream)
        np.testing.assert_array_equal(x.grad, upstream)

    def test_over_a_node_it_takes_the_producers_place(self, rng):
        """Over a layer output the quantized tensor keeps the producer's
        parents and closure, so the unquantized values can die; values and
        gradients equal those of a straight-through node over the producer,
        bit for bit (fails at the parent, whose output hung off the producer)."""
        quantizer, scale = get_quantizer(CFG_FWD), 0.25
        x_data, w_data = rng.standard_normal((4, 6)), rng.standard_normal((6, 3))
        upstream = rng.standard_normal((4, 3))

        def run(quantize):
            x = Tensor(x_data, requires_grad=True)
            w = Tensor(w_data, requires_grad=True)
            produced = x.matmul(w).relu()
            out = quantize(produced)
            shares = out._parents == produced._parents and out._backward is produced._backward
            out.backward(upstream)
            return out, x, w, shares

        out, x, w, shares = run(lambda produced: fake_quantize(produced, quantizer, scale))
        oracle = run(lambda produced: produced.apply(
            lambda values: apply_scaled_quantization(values, quantizer, scale),
            lambda grad, inputs, outputs: grad, name="fake_quantize"))
        assert shares and not oracle[3]
        np.testing.assert_array_equal(out.data, oracle[0].data)
        np.testing.assert_array_equal(x.grad, oracle[1].grad)
        np.testing.assert_array_equal(w.grad, oracle[2].grad)

    def test_over_a_leaf_it_is_a_straight_through_node(self, rng):
        w = Tensor(rng.standard_normal(8), requires_grad=True)
        out = fake_quantize(w, get_quantizer(CFG_FWD), 0.5)
        assert out._parents == (w,) and out.name == "fake_quantize"
        upstream = rng.standard_normal(8)
        out.backward(upstream)
        np.testing.assert_array_equal(w.grad, upstream)

    def test_scale_applied(self, rng):
        x = Tensor(rng.standard_normal(100) * 1e-4, requires_grad=True)
        scale = ScaleEstimator(sigma=2).scale_for(x.data)
        out = fake_quantize(x, get_quantizer(CFG_FWD), scale)
        np.testing.assert_array_equal(
            out.data, np.asarray(quantize(x.data / scale, CFG_FWD)) * scale
        )


class TestGradQuantize:
    def test_forward_is_identity(self, rng):
        x = Tensor(rng.standard_normal(30), requires_grad=True)
        out = grad_quantize(x, get_quantizer(CFG_BWD))
        np.testing.assert_array_equal(out.data, x.data)

    def test_backward_gradient_on_grid(self, rng):
        x = Tensor(rng.standard_normal(30), requires_grad=True)
        out = grad_quantize(x, get_quantizer(CFG_BWD))
        upstream = rng.standard_normal(30)
        out.backward(upstream)
        np.testing.assert_array_equal(x.grad, np.asarray(quantize(upstream, CFG_BWD)))

    def test_stats_recorded_on_backward(self, rng):
        from repro.core import RoleStats

        stats = RoleStats()
        x = Tensor(rng.standard_normal(30), requires_grad=True)
        out = grad_quantize(x, get_quantizer(CFG_BWD), stats=stats)
        out.backward(rng.standard_normal(30))
        assert stats.calls == 1
        assert stats.elements == 30


class CountingEstimator(ScaleEstimator):
    """A dynamic estimator that counts its ``scale_for`` calls."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls = 0

    def scale_for(self, x: np.ndarray) -> float:
        self.calls += 1
        return super().scale_for(x)


class TestLayerQuantContext:
    def make_context(self, **kwargs):
        return LayerQuantContext(
            "layer0",
            weight_quantizer=get_quantizer(CFG_FWD),
            activation_quantizer=get_quantizer(CFG_FWD),
            error_quantizer=get_quantizer(CFG_BWD),
            weight_grad_quantizer=get_quantizer(CFG_BWD),
            **kwargs,
        )

    def test_weight_and_activation_quantized(self, rng):
        context = self.make_context()
        w = Tensor(rng.standard_normal(40), requires_grad=True)
        assert np.array_equal(context.weight(w).data, np.asarray(quantize(w.data, CFG_FWD)))
        a = Tensor(rng.standard_normal(40))
        assert np.array_equal(context.activation(a).data, np.asarray(quantize(a.data, CFG_FWD)))

    def test_weight_grad_hook_uses_backward_format(self, rng):
        context = self.make_context()
        grad = rng.standard_normal(25)
        np.testing.assert_array_equal(context.weight_grad(grad),
                                      np.asarray(quantize(grad, CFG_BWD)))

    def test_param_hook_uses_forward_format(self, rng):
        context = self.make_context()
        data = rng.standard_normal(25)
        np.testing.assert_array_equal(context.param(data),
                                      np.asarray(quantize(data, CFG_FWD)))

    def test_disabled_context_passthrough(self, rng):
        context = self.make_context()
        context.enabled = False
        values = rng.standard_normal(10)
        tensor = Tensor(values)
        assert context.weight(tensor) is tensor
        np.testing.assert_array_equal(context.weight_grad(values), values)

    def test_none_quantizer_means_full_precision(self, rng):
        context = LayerQuantContext("fp_layer")
        values = rng.standard_normal(10)
        tensor = Tensor(values)
        assert context.weight(tensor) is tensor
        assert context.error(tensor) is tensor
        np.testing.assert_array_equal(context.param(values), values)

    def test_stats_accumulate(self, rng):
        context = self.make_context()
        context.weight(Tensor(rng.standard_normal(16)))
        context.weight(Tensor(rng.standard_normal(16)))
        assert context.stats["weight"].calls == 2
        assert context.stats["weight"].elements == 32

    def test_describe_reports_formats(self):
        description = self.make_context().describe()
        assert description["formats"]["weight"] == "posit(8,1)"
        assert description["formats"]["error"] == "posit(8,2)"
        # A context without quantizers reports fp32.
        assert LayerQuantContext("x").describe()["formats"]["weight"] == "fp32"

    def test_scalers_per_role(self, rng):
        context = LayerQuantContext(
            "scaled",
            weight_quantizer=get_quantizer(CFG_FWD),
            weight_scaler=ScaleEstimator(sigma=2),
        )
        weights = Tensor(rng.standard_normal(200) * 1e-3, requires_grad=True)
        quantized = context.weight(weights)
        # With shifting, small weights survive the 8-bit format much better.
        direct = np.asarray(quantize(weights.data, CFG_FWD))
        assert np.abs(quantized.data - weights.data).mean() <= np.abs(direct - weights.data).mean()

    def test_one_scale_per_quantized_tensor(self, rng):
        """Each insertion point asks its estimator for the scale exactly once."""
        scalers = {role: CountingEstimator(sigma=2) for role in LayerQuantContext.ROLES}
        context = self.make_context(**{f"{role}_scaler": scaler
                                       for role, scaler in scalers.items()})

        def calls():
            return tuple(scaler.calls for scaler in scalers.values())

        w = Tensor(rng.standard_normal(40) * 1e-2, requires_grad=True)
        quantized = context.weight(w)
        assert calls() == (1, 0, 0, 0)
        scale = context.stats["weight"].last_scale
        np.testing.assert_array_equal(
            quantized.data, apply_scaled_quantization(w.data, get_quantizer(CFG_FWD), scale))

        context.activation(Tensor(rng.standard_normal(40)))
        assert calls() == (1, 1, 0, 0)
        x = Tensor(rng.standard_normal(40), requires_grad=True)
        wrapped = context.error(x)
        assert calls() == (1, 1, 0, 0)
        wrapped.backward(rng.standard_normal(40) * 1e-4)
        assert calls() == (1, 1, 1, 0)
        context.weight_grad(rng.standard_normal(40) * 1e-5)
        assert calls() == (1, 1, 1, 1)
        context.param(w.data)
        assert calls() == (2, 1, 1, 1)
        assert [stats.calls for stats in context.stats.values()] == [1, 1, 1, 1]
