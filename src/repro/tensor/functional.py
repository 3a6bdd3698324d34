"""Functional neural-network operations built on the autograd Tensor.

Provides numerically-stable softmax / log-softmax / cross-entropy, batch
normalization, dropout, and linear transforms — the remaining primitives the
layer classes in :mod:`repro.nn` are composed of.

:func:`batch_norm` is one graph node that keeps its input and two
per-channel vectors, not five full-size intermediates; it matches the same
normalization composed from Tensor operations bit for bit when its input
feeds nothing else, as in every model of :mod:`repro.models`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import Tensor, unbroadcast

__all__ = [
    "linear",
    "relu",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "batch_norm",
    "dropout",
    "one_hot",
    "accuracy",
]


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine transform ``x @ weight.T + bias``.

    ``x`` has shape ``(N, in_features)``, ``weight`` has shape
    ``(out_features, in_features)``.
    """
    out = x.matmul(weight.transpose())
    if bias is not None:
        out = out + bias
    return out


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a one-hot ``float64`` encoding of integer class labels."""
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.size, num_classes), dtype=np.float64)
    out[np.arange(labels.size), labels.ravel()] = 1.0
    return out.reshape(labels.shape + (num_classes,))


def nll_loss(log_probs: Tensor, labels: np.ndarray) -> Tensor:
    """Negative log-likelihood of integer ``labels`` under ``log_probs``."""
    labels = np.asarray(labels, dtype=np.int64)
    n, num_classes = log_probs.shape
    target = one_hot(labels, num_classes)
    picked = (log_probs * Tensor(target)).sum(axis=1)
    return -picked.mean()


def cross_entropy(logits: Tensor, labels: np.ndarray,
                  label_smoothing: float = 0.0) -> Tensor:
    """Cross-entropy between ``logits`` and integer class ``labels``.

    Parameters
    ----------
    logits:
        Tensor of shape ``(N, num_classes)``.
    labels:
        Integer array of shape ``(N,)``.
    label_smoothing:
        Optional label smoothing factor in ``[0, 1)``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n, num_classes = logits.shape
    log_probs = log_softmax(logits, axis=1)
    target = one_hot(labels, num_classes)
    if label_smoothing > 0.0:
        target = target * (1.0 - label_smoothing) + label_smoothing / num_classes
    loss = -(log_probs * Tensor(target)).sum(axis=1)
    return loss.mean()


def mse_loss(prediction: Tensor, target) -> Tensor:
    """Mean squared error between ``prediction`` and ``target``."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target
    return (diff * diff).mean()


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over the channel dimension of NCHW or NC input.

    In training mode the batch statistics are used and the running statistics
    are updated in place; in evaluation mode the running statistics are used.
    ``gamma`` and ``beta`` are the learnable affine parameters of shape
    ``(C,)``.

    One graph node over ``(x, gamma, beta)`` that keeps the per-channel mean
    and ``sqrt(var + eps)``; backward rebuilds ``x - mean`` and ``x_hat``
    from ``x``.  Values and gradients equal, bit for bit, those of the same
    normalization composed from Tensor operations, provided ``x`` feeds
    nothing but this node (another consumer's gradient could be added in
    another order).  Every ``BatchNorm2d`` in :mod:`repro.models` reads a
    ``Conv2d`` output and meets that.
    """
    if x.ndim == 4:
        axes = (0, 2, 3)
        shape = (1, -1, 1, 1)
    elif x.ndim == 2:
        axes = (0,)
        shape = (1, -1)
    else:
        raise ValueError(f"batch_norm expects 2-D or 4-D input, got shape {x.shape}")

    inv_count = 1.0 / (x.size // x.shape[1])
    if training:
        mean = x.data.sum(axis=axes, keepdims=True) * inv_count
        centered = x.data - mean
        var = (centered * centered).sum(axis=axes, keepdims=True) * inv_count
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean.reshape(-1)
        running_var *= 1.0 - momentum
        running_var += momentum * var.reshape(-1)
    else:
        # A copy: backward must see the statistics this forward used.
        mean = running_mean.reshape(shape).copy()
        var = running_var.reshape(shape)
        centered = x.data - mean
    std = np.sqrt(var + eps)
    gamma_shaped = gamma.data.reshape(shape)
    out = centered / std
    out *= gamma_shaped
    out += beta.data.reshape(shape)

    def _backward(upstream: np.ndarray) -> list:
        # Each partial as the composed Tensor operations compute it, and x's
        # four added in their backward's order: from x - mean, from the
        # mean's sum, from the variance's x - mu (both factors of its
        # square), from mu's sum.
        centered = x.data - mean
        results = []
        if x.requires_grad:
            grad_x_hat = upstream * gamma_shaped
            grad_x = grad_x_hat / std
            if training:
                grad_std = unbroadcast(-grad_x_hat * centered / (std * std), std.shape)
                grad_factor = centered * (grad_std * 0.5 / std * inv_count)
                grad_centered = grad_factor + grad_factor
                grad_x += unbroadcast(-grad_x, mean.shape) * inv_count
                grad_x += grad_centered
                grad_x += unbroadcast(-grad_centered, mean.shape) * inv_count
            results.append((x, grad_x))
        if gamma.requires_grad:
            results.append((gamma, unbroadcast(upstream * (centered / std), gamma_shaped.shape)
                            .reshape(gamma.shape)))
        if beta.requires_grad:
            results.append((beta, unbroadcast(upstream, gamma_shaped.shape).reshape(beta.shape)))
        return results

    return Tensor._make(out, (x, gamma, beta), _backward, name="batch_norm")


def dropout(x: Tensor, p: float, training: bool,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: zero each element with probability ``p`` during training."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if rng is None:
        rng = np.random.default_rng()
    mask = (rng.random(x.shape) >= p).astype(np.float64) / (1.0 - p)
    return x * Tensor(mask)


def accuracy(logits, labels: np.ndarray, topk: int = 1) -> float:
    """Top-k classification accuracy as a fraction in ``[0, 1]``.

    ``logits`` may be a Tensor or array of shape ``(N, num_classes)``.
    """
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if topk == 1:
        pred = data.argmax(axis=1)
        return float((pred == labels).mean())
    top = np.argsort(-data, axis=1)[:, :topk]
    correct = (top == labels[:, None]).any(axis=1)
    return float(correct.mean())
