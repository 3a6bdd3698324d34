"""Insertion of the posit transformation P(.) into the training flow (Fig. 3).

The paper inserts the transformation operator at four points of the training
computation graph:

* **Forward** (Fig. 3a): the weights ``W_p`` and the output activations
  ``A^l_p`` of every layer are quantized.
* **Backward** (Fig. 3b): the error ``E^{l-1}`` propagated to the previous
  layer and the weight gradient ``ΔW^l`` are quantized.
* **Weight update** (Fig. 3c): the updated weights are re-quantized back to
  posit before being stored.

This module provides the two autograd-level primitives that express the
forward-path and backward-path insertions on :class:`~repro.tensor.Tensor`
objects —

* :func:`fake_quantize` — quantize the *values* in the forward pass and pass
  the gradient through unchanged (straight-through estimator), used for
  weights and activations;
* :func:`grad_quantize` — identity in the forward pass, quantize the
  *gradient* in the backward pass, used on layer inputs so that the error
  flowing to the previous layer is quantized exactly as in Fig. 3b —

plus :class:`LayerQuantContext`, the per-layer object that the layers in
:mod:`repro.nn.layers` consult, and which also exposes the array-level hooks
(``weight_grad``/``param``) wired into the optimizer for the ΔW and
weight-update quantization of Fig. 3b/3c.

Every insertion point asks its :class:`~repro.core.scaling.ScaleEstimator`
for the Eq. (2) scale exactly once per quantized tensor, and
:class:`RoleStats` only counts, so a training step takes no log2 pass beyond
the one each scale needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..tensor import Tensor
from .scaling import ScaleEstimator

__all__ = [
    "Quantizer",
    "fake_quantize",
    "grad_quantize",
    "apply_scaled_quantization",
    "RoleStats",
    "LayerQuantContext",
]

#: Any callable mapping a float array onto a reduced-precision grid —
#: typically obtained from the cached :func:`repro.formats.get_quantizer`
#: factory for any :class:`~repro.formats.NumberFormat` (posit, float, or
#: fixed point).
Quantizer = Callable[[np.ndarray], np.ndarray]


def apply_scaled_quantization(values: np.ndarray, quantizer: Quantizer,
                              scale: float) -> np.ndarray:
    """Evaluate Eq. (3): ``P(x / S_f) * S_f``."""
    if scale == 1.0:
        return quantizer(values)
    return quantizer(values / scale) * scale


def fake_quantize(x: Tensor, quantizer: Quantizer, scale: float = 1.0) -> Tensor:
    """Quantize tensor values in the forward pass; straight-through backward.

    Used for weights and activations (Fig. 3a), with the Eq. (2) ``scale``
    the caller already computed.  The straight-through estimator keeps the
    gradient with respect to the full-precision master copy intact, which
    matches the paper's flow where the FP32 master weights are updated and
    then re-quantized.

    Over a graph node (a layer's output) the result takes the node's place:
    it keeps ``x``'s parents and backward closure, which serve its gradient
    unchanged, so ``x`` and its unquantized values die with the caller's
    reference.  Over a leaf (a parameter or an input) it is a new node that
    hands its gradient to ``x``.
    """
    quantized = apply_scaled_quantization(x.data, quantizer, scale)
    if x._parents:
        return Tensor._make(quantized, x._parents, x._backward, name=x.name)
    return Tensor._make(quantized, (x,), lambda upstream: [(x, upstream)],
                        name="fake_quantize")


def grad_quantize(x: Tensor, quantizer: Quantizer,
                  scaler: Optional[ScaleEstimator] = None,
                  stats: Optional["RoleStats"] = None) -> Tensor:
    """Identity forward; quantize the gradient in the backward pass.

    Applied to a layer's *input* tensor, this quantizes exactly the error
    ``E^{l-1}`` that the layer sends back to its predecessor (Fig. 3b).
    """

    def _forward(values: np.ndarray) -> np.ndarray:
        return values

    def _backward(upstream: np.ndarray, inputs: np.ndarray, outputs: np.ndarray) -> np.ndarray:
        scale = scaler.scale_for(upstream) if scaler is not None else 1.0
        quantized = apply_scaled_quantization(upstream, quantizer, scale)
        if stats is not None:
            stats.record(upstream, scale)
        return quantized

    return x.apply(_forward, _backward, name="grad_quantize")


@dataclass
class RoleStats:
    """How many tensors, and elements, one role has quantized, and the last scale.

    A counter only: it takes no pass over the values.  The log2 ranges of
    the quantized tensors are measured by
    :class:`~repro.core.range_analysis.RangeTracker` and
    :class:`~repro.analysis.distributions.DistributionRecorder` (Fig. 2).
    """

    calls: int = 0
    elements: int = 0
    last_scale: float = 1.0

    def record(self, values: np.ndarray, scale: float) -> None:
        """Count one quantized tensor."""
        self.calls += 1
        self.elements += int(values.size)
        self.last_scale = scale

    def as_dict(self) -> dict:
        """Return the statistics as a plain dictionary."""
        return {"calls": self.calls, "elements": self.elements,
                "last_scale": self.last_scale}


class LayerQuantContext:
    """Per-layer quantization context attached to a module (``module.quant``).

    Holds one quantizer and one scale estimator per tensor role and exposes
    the four insertion points of Fig. 3:

    * :meth:`weight` / :meth:`activation` — forward-path fake quantization,
      called from the layer's ``forward``;
    * :meth:`error` — backward-path gradient quantization, called from the
      layer's ``forward`` on its input;
    * :meth:`weight_grad` / :meth:`param` — array-level hooks installed into
      the optimizer by the trainer for ΔW and post-update W quantization.

    Any role may be ``None``, meaning that role stays in full precision —
    this is how partial-quantization ablations are expressed.
    """

    ROLES = ("weight", "activation", "error", "weight_grad")

    def __init__(
        self,
        name: str,
        weight_quantizer: Optional[Quantizer] = None,
        activation_quantizer: Optional[Quantizer] = None,
        error_quantizer: Optional[Quantizer] = None,
        weight_grad_quantizer: Optional[Quantizer] = None,
        weight_scaler: Optional[ScaleEstimator] = None,
        activation_scaler: Optional[ScaleEstimator] = None,
        error_scaler: Optional[ScaleEstimator] = None,
        weight_grad_scaler: Optional[ScaleEstimator] = None,
        enabled: bool = True,
    ):
        self.name = name
        self.enabled = enabled
        self.quantizers: dict[str, Optional[Quantizer]] = {
            "weight": weight_quantizer,
            "activation": activation_quantizer,
            "error": error_quantizer,
            "weight_grad": weight_grad_quantizer,
        }
        self.scalers: dict[str, Optional[ScaleEstimator]] = {
            "weight": weight_scaler,
            "activation": activation_scaler,
            "error": error_scaler,
            "weight_grad": weight_grad_scaler,
        }
        self.stats: dict[str, RoleStats] = {role: RoleStats() for role in self.ROLES}

    # ------------------------------------------------------------------ #
    # Forward-path (tensor-level) hooks
    # ------------------------------------------------------------------ #
    def weight(self, w: Tensor) -> Tensor:
        """Fake-quantize a weight/bias tensor for the forward computation."""
        quantizer = self.quantizers["weight"]
        if not self.enabled or quantizer is None:
            return w
        scaler = self.scalers["weight"]
        scale = scaler.scale_for(w.data) if scaler is not None else 1.0
        self.stats["weight"].record(w.data, scale)
        return fake_quantize(w, quantizer, scale)

    def activation(self, a: Tensor) -> Tensor:
        """Quantize an output activation tensor."""
        quantizer = self.quantizers["activation"]
        if not self.enabled or quantizer is None:
            return a
        scaler = self.scalers["activation"]
        scale = scaler.scale_for(a.data) if scaler is not None else 1.0
        self.stats["activation"].record(a.data, scale)
        return fake_quantize(a, quantizer, scale)

    def error(self, x: Tensor) -> Tensor:
        """Wrap a layer input so its backward error is quantized (Fig. 3b)."""
        quantizer = self.quantizers["error"]
        if not self.enabled or quantizer is None:
            return x
        return grad_quantize(x, quantizer, self.scalers["error"], stats=self.stats["error"])

    # ------------------------------------------------------------------ #
    # Array-level hooks (installed into the optimizer by the trainer)
    # ------------------------------------------------------------------ #
    def weight_grad(self, grad: np.ndarray, param=None) -> np.ndarray:
        """Quantize a weight gradient ΔW before the optimizer consumes it."""
        quantizer = self.quantizers["weight_grad"]
        if not self.enabled or quantizer is None:
            return grad
        scaler = self.scalers["weight_grad"]
        scale = scaler.scale_for(grad) if scaler is not None else 1.0
        self.stats["weight_grad"].record(grad, scale)
        return apply_scaled_quantization(grad, quantizer, scale)

    def param(self, data: np.ndarray, param=None) -> np.ndarray:
        """Quantize updated weights back to posit after the optimizer step (Fig. 3c)."""
        quantizer = self.quantizers["weight"]
        if not self.enabled or quantizer is None:
            return data
        scaler = self.scalers["weight"]
        scale = scaler.scale_for(data) if scaler is not None else 1.0
        return apply_scaled_quantization(data, quantizer, scale)

    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        """Summarize the context: formats per role and recorded statistics."""
        def _fmt(quantizer: Optional[Quantizer]) -> str:
            if quantizer is None:
                return "fp32"
            fmt = getattr(quantizer, "format", None)
            return fmt.spec() if fmt is not None else type(quantizer).__name__

        return {
            "name": self.name,
            "enabled": self.enabled,
            "formats": {role: _fmt(q) for role, q in self.quantizers.items()},
            "stats": {role: s.as_dict() for role, s in self.stats.items()},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        formats = self.describe()["formats"]
        return f"LayerQuantContext({self.name!r}, {formats})"
