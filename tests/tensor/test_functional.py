"""Tests for functional ops: softmax, losses, batch norm, dropout, accuracy."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    accuracy,
    batch_norm,
    cross_entropy,
    dropout,
    linear,
    log_softmax,
    mse_loss,
    nll_loss,
    one_hot,
    softmax,
)
from repro.tensor.ops import concatenate, stack


class TestLinear:
    def test_matches_manual_affine(self, rng):
        x = rng.standard_normal((4, 3))
        w = rng.standard_normal((5, 3))
        b = rng.standard_normal(5)
        out = linear(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, x @ w.T + b)

    def test_gradcheck(self, rng, numgrad):
        x_data = rng.standard_normal((3, 4))
        w_data = rng.standard_normal((2, 4))

        def loss():
            return float((linear(Tensor(x_data), Tensor(w_data)) ** 2).sum().item())

        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        (linear(x, w) ** 2).sum().backward()
        np.testing.assert_allclose(x.grad, numgrad(loss, x_data), atol=1e-6)
        np.testing.assert_allclose(w.grad, numgrad(loss, w_data), atol=1e-6)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        logits = rng.standard_normal((5, 7))
        probs = softmax(Tensor(logits)).data
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5))
        assert np.all(probs >= 0)

    def test_shift_invariance(self, rng):
        logits = rng.standard_normal((3, 4))
        a = softmax(Tensor(logits)).data
        b = softmax(Tensor(logits + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_numerical_stability_with_large_logits(self):
        probs = softmax(Tensor(np.array([[1000.0, 0.0, -1000.0]]))).data
        assert np.all(np.isfinite(probs))
        assert probs[0, 0] == pytest.approx(1.0)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        logits = rng.standard_normal((4, 6))
        np.testing.assert_allclose(
            log_softmax(Tensor(logits)).data,
            np.log(softmax(Tensor(logits)).data),
            atol=1e-12,
        )


class TestCrossEntropy:
    def test_uniform_logits_give_log_num_classes(self):
        logits = Tensor(np.zeros((8, 10)))
        labels = np.arange(8) % 10
        assert cross_entropy(logits, labels).item() == pytest.approx(np.log(10))

    def test_perfect_prediction_has_low_loss(self):
        logits = np.full((4, 3), -50.0)
        labels = np.array([0, 1, 2, 0])
        logits[np.arange(4), labels] = 50.0
        assert cross_entropy(Tensor(logits), labels).item() == pytest.approx(0.0, abs=1e-8)

    def test_gradient_is_softmax_minus_onehot(self, rng):
        logits_data = rng.standard_normal((5, 4))
        labels = rng.integers(0, 4, 5)
        logits = Tensor(logits_data, requires_grad=True)
        cross_entropy(logits, labels).backward()
        probs = softmax(Tensor(logits_data)).data
        expected = (probs - one_hot(labels, 4)) / 5
        np.testing.assert_allclose(logits.grad, expected, atol=1e-10)

    def test_label_smoothing_increases_loss_of_perfect_prediction(self):
        logits = np.full((4, 3), -50.0)
        labels = np.array([0, 1, 2, 0])
        logits[np.arange(4), labels] = 50.0
        plain = cross_entropy(Tensor(logits), labels).item()
        smoothed = cross_entropy(Tensor(logits), labels, label_smoothing=0.1).item()
        assert smoothed > plain

    def test_nll_loss_consistent_with_cross_entropy(self, rng):
        logits = rng.standard_normal((6, 5))
        labels = rng.integers(0, 5, 6)
        via_ce = cross_entropy(Tensor(logits), labels).item()
        via_nll = nll_loss(log_softmax(Tensor(logits)), labels).item()
        assert via_ce == pytest.approx(via_nll)


class TestMSE:
    def test_zero_for_identical(self, rng):
        x = rng.standard_normal((3, 3))
        assert mse_loss(Tensor(x), x).item() == 0.0

    def test_value_and_gradient(self):
        pred = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = mse_loss(pred, np.array([0.0, 0.0]))
        assert loss.item() == pytest.approx(2.5)
        loss.backward()
        np.testing.assert_allclose(pred.grad, [1.0, 2.0])


class TestBatchNorm:
    def test_training_normalizes_batch(self, rng):
        x = rng.standard_normal((8, 4, 5, 5)) * 3 + 7
        gamma, beta = Tensor(np.ones(4)), Tensor(np.zeros(4))
        running_mean, running_var = np.zeros(4), np.ones(4)
        out = batch_norm(Tensor(x), gamma, beta, running_mean, running_var, training=True)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), np.zeros(4), atol=1e-7)
        np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)), np.ones(4), atol=1e-3)

    def test_running_stats_updated(self, rng):
        x = rng.standard_normal((8, 2, 4, 4)) + 5
        running_mean, running_var = np.zeros(2), np.ones(2)
        batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                   running_mean, running_var, training=True, momentum=0.5)
        assert np.all(running_mean > 1.0)

    def test_eval_uses_running_stats(self, rng):
        x = rng.standard_normal((4, 2, 3, 3))
        running_mean, running_var = np.full(2, 10.0), np.full(2, 4.0)
        out = batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                         running_mean, running_var, training=False)
        np.testing.assert_allclose(out.data, (x - 10.0) / np.sqrt(4.0 + 1e-5), atol=1e-10)

    def test_2d_input(self, rng):
        x = rng.standard_normal((10, 6))
        out = batch_norm(Tensor(x), Tensor(np.ones(6)), Tensor(np.zeros(6)),
                         np.zeros(6), np.ones(6), training=True)
        np.testing.assert_allclose(out.data.mean(axis=0), np.zeros(6), atol=1e-8)

    def test_invalid_rank_rejected(self):
        with pytest.raises(ValueError):
            batch_norm(Tensor(np.zeros((2, 3, 4))), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                       np.zeros(3), np.ones(3), training=True)

    def test_gradcheck(self, rng, numgrad):
        x_data = rng.standard_normal((3, 2, 3, 3))
        gamma_data = rng.standard_normal(2)
        beta_data = rng.standard_normal(2)

        def loss():
            out = batch_norm(Tensor(x_data), Tensor(gamma_data), Tensor(beta_data),
                             np.zeros(2), np.ones(2), training=True)
            return float((out * out).sum().item())

        x = Tensor(x_data, requires_grad=True)
        gamma = Tensor(gamma_data, requires_grad=True)
        beta = Tensor(beta_data, requires_grad=True)
        out = batch_norm(x, gamma, beta, np.zeros(2), np.ones(2), training=True)
        (out * out).sum().backward()
        np.testing.assert_allclose(x.grad, numgrad(loss, x_data), atol=1e-5)
        np.testing.assert_allclose(gamma.grad, numgrad(loss, gamma_data), atol=1e-5)
        np.testing.assert_allclose(beta.grad, numgrad(loss, beta_data), atol=1e-5)


def composite_batch_norm(x, gamma, beta, running_mean, running_var, training,
                         momentum=0.1, eps=1e-5):
    """Batch normalization composed from Tensor operations: the oracle that
    the single ``batch_norm`` node must match bit for bit."""
    axes, shape = ((0, 2, 3), (1, -1, 1, 1)) if x.ndim == 4 else ((0,), (1, -1))
    if training:
        mean = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean.data.reshape(-1)
        running_var *= 1.0 - momentum
        running_var += momentum * var.data.reshape(-1)
    else:
        mean = Tensor(running_mean.reshape(shape))
        var = Tensor(running_var.reshape(shape))
    x_hat = (x - mean) / (var + eps).sqrt()
    return x_hat * gamma.reshape(*shape) + beta.reshape(*shape)


class TestBatchNormNode:
    """``batch_norm`` is one graph node over ``(x, gamma, beta)`` whose
    output, gradients and running statistics are the composite's bits."""

    def _run(self, norm, x_data, gamma_data, beta_data, upstream, training, affine_grad):
        x = Tensor(x_data, requires_grad=True)
        gamma = Tensor(gamma_data, requires_grad=affine_grad)
        beta = Tensor(beta_data, requires_grad=affine_grad)
        channels = gamma_data.size
        running_mean = np.linspace(-0.5, 0.5, channels)
        running_var = np.linspace(0.5, 2.0, channels)
        out = norm(x, gamma, beta, running_mean, running_var, training=training,
                   momentum=0.3, eps=1e-3)
        out.backward(upstream)
        return out, x, gamma, beta, running_mean, running_var

    @pytest.mark.parametrize("affine_grad", [True, False], ids=["affine_grad", "affine_fixed"])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("x_shape", [(16, 8, 32, 32), (5, 3, 7, 9), (1, 4, 1, 6), (10, 6)],
                             ids=["cifar_layer1", "odd", "unit_dims", "2d"])
    def test_matches_the_composite_bit_for_bit(self, x_shape, training, affine_grad):
        rng = np.random.default_rng(29)
        x_data = rng.standard_normal(x_shape) * 3.0 + 0.7
        gamma_data = rng.standard_normal(x_shape[1])
        beta_data = rng.standard_normal(x_shape[1])
        upstream = rng.standard_normal(x_shape)
        fused = self._run(batch_norm, x_data, gamma_data, beta_data, upstream,
                          training, affine_grad)
        composite = self._run(composite_batch_norm, x_data, gamma_data, beta_data,
                              upstream, training, affine_grad)

        out, x, gamma, beta = fused[:4]
        assert out._parents == (x, gamma, beta) and out.name == "batch_norm"
        np.testing.assert_array_equal(out.data, composite[0].data)
        for got, want in zip(fused[4:], composite[4:]):  # running statistics
            np.testing.assert_array_equal(got, want)
        assert x.grad is not None and (gamma.grad is not None) == affine_grad
        for got, want in zip(fused[1:4], composite[1:4]):
            assert (got.grad is None) == (want.grad is None)
            if want.grad is not None:
                np.testing.assert_array_equal(got.grad, want.grad)

    def test_resnet_step_matches_the_composite(self, monkeypatch):
        """In a residual network every BN input feeds only its BN, so a whole
        training step's gradients and running statistics are unchanged."""
        from repro.models import tiny_resnet
        from repro.nn import layers
        from repro.tensor import cross_entropy

        rng = np.random.default_rng(3)
        images = rng.standard_normal((4, 3, 16, 16))
        labels = rng.integers(0, 10, 4)

        def step():
            model = tiny_resnet(base_width=4, rng=np.random.default_rng(0))
            cross_entropy(model(Tensor(images)), labels).backward()
            return ([p.grad for p in model.parameters()]
                    + list(model.state_dict().values()))

        fused = step()
        monkeypatch.setattr(layers, "batch_norm", composite_batch_norm)
        composite = step()
        assert len(fused) == len(composite)
        for got, want in zip(fused, composite):
            np.testing.assert_array_equal(got, want)


class TestDropout:
    def test_identity_in_eval_mode(self, rng):
        x = rng.standard_normal((5, 5))
        out = dropout(Tensor(x), 0.5, training=False)
        np.testing.assert_array_equal(out.data, x)

    def test_identity_with_zero_probability(self, rng):
        x = rng.standard_normal((5, 5))
        np.testing.assert_array_equal(dropout(Tensor(x), 0.0, training=True).data, x)

    def test_scaling_preserves_expectation(self):
        x = Tensor(np.ones((200, 200)))
        out = dropout(x, 0.3, training=True, rng=np.random.default_rng(0))
        assert out.data.mean() == pytest.approx(1.0, rel=0.02)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            dropout(Tensor(np.ones(3)), 1.5, training=True)


class TestAccuracyAndOneHot:
    def test_one_hot_shape_and_values(self):
        encoded = one_hot(np.array([0, 2]), 3)
        np.testing.assert_array_equal(encoded, [[1, 0, 0], [0, 0, 1]])

    def test_top1_accuracy(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_top5_accuracy(self, rng):
        logits = rng.standard_normal((10, 20))
        labels = np.argsort(-logits, axis=1)[:, 3]  # true label always ranked 4th
        assert accuracy(logits, labels, topk=5) == 1.0
        assert accuracy(logits, labels, topk=1) == 0.0

    def test_accepts_tensor_input(self):
        logits = Tensor(np.array([[1.0, 0.0]]))
        assert accuracy(logits, np.array([0])) == 1.0


class TestCombiningOps:
    def test_concatenate_values_and_gradients(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        out = concatenate([a, b], axis=0)
        assert out.shape == (6, 3)
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(b.grad, np.ones((4, 3)))

    def test_stack_values_and_gradients(self, rng):
        a = Tensor(rng.standard_normal((3,)), requires_grad=True)
        b = Tensor(rng.standard_normal((3,)), requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 3)
        (out * np.array([[1.0], [2.0]])).sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones(3))
        np.testing.assert_array_equal(b.grad, np.full(3, 2.0))
