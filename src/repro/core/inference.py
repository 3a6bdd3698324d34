"""Post-training quantization and low-bit posit inference.

The paper's related work (Deep Positron [12], Johnson's log-float [13])
studies posit for *inference*; the paper itself notes that a model trained in
posit can be deployed directly at the training precision.  This module covers
both paths:

* :func:`quantize_model_weights` — post-training quantization: snap a trained
  model's weights onto a posit (or float/fixed-point) grid in place, with
  optional Eq. (2)/(3) shifting, without touching the training pipeline.
* :func:`evaluate_quantized` — attach a policy (weights + activations only,
  no backward roles needed) for evaluation and report the accuracy.
* :func:`inference_sweep` — accuracy as a function of word size / es, the
  standard "how low can you go at inference time" study.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..data.loaders import ArrayDataLoader
from ..formats import get_quantizer
from ..nn import Module
from ..tensor import Tensor, accuracy, no_grad
from .policy import QuantizationPolicy, RoleFormats, TensorFormat, _as_role_format
from .scaling import compute_scale_factor
from .transform import apply_scaled_quantization

__all__ = ["quantize_model_weights", "evaluate_quantized", "inference_sweep"]

#: A format argument: a NumberFormat, a registry spec string, or None (FP32).
FormatLike = Union[TensorFormat, str]


def quantize_model_weights(model: Module, fmt: FormatLike, rounding: str = "nearest",
                           use_scaling: bool = True, sigma: int = 2) -> dict[str, float]:
    """Snap every parameter of ``model`` onto the grid of ``fmt`` in place.

    ``fmt`` may be a :class:`~repro.formats.NumberFormat` or a registry spec
    string like ``"posit(8,1)"``.  Returns the per-parameter scale factors
    that were applied (1.0 when scaling is disabled), so callers can
    reconstruct the stored representation.
    """
    quantizer = get_quantizer(_as_role_format(fmt), rounding, rng=None)
    scales: dict[str, float] = {}
    if quantizer is None:
        return scales
    for name, param in model.named_parameters():
        scale = compute_scale_factor(param.data, sigma=sigma) if use_scaling else 1.0
        param.data[...] = apply_scaled_quantization(param.data, quantizer, scale)
        scales[name] = scale
    return scales


def evaluate_quantized(model: Module, loader: ArrayDataLoader, fmt: FormatLike,
                       rounding: str = "nearest", use_scaling: bool = True,
                       quantize_activations: bool = True) -> float:
    """Evaluate ``model`` with weights and (optionally) activations in ``fmt``.

    The model's stored weights are left untouched: quantization is applied
    through a temporary per-layer policy, exactly as the forward path of
    Fig. 3a, and removed afterwards.  ``fmt`` accepts spec strings.
    """
    fmt = _as_role_format(fmt)
    formats = RoleFormats(weight=fmt, activation=fmt if quantize_activations else None)
    policy = QuantizationPolicy(conv_formats=formats, bn_formats=formats,
                                linear_formats=formats, rounding=rounding,
                                use_scaling=use_scaling)
    policy.attach(model)
    try:
        return _accuracy(model, loader)
    finally:
        QuantizationPolicy.detach(model)


def _accuracy(model: Module, loader: ArrayDataLoader) -> float:
    """Eval-mode accuracy of ``model`` over ``loader`` (0.0 when it is empty)."""
    model.train(False)
    total, correct = 0, 0.0
    with no_grad():
        for inputs, labels in loader:
            logits = model(Tensor(inputs))
            correct += accuracy(logits, labels) * len(labels)
            total += len(labels)
    return correct / total if total else 0.0


def inference_sweep(model: Module, loader: ArrayDataLoader,
                    formats: Optional[list[FormatLike]] = None,
                    rounding: str = "nearest", use_scaling: bool = True) -> list[dict]:
    """Accuracy of ``model`` under a sweep of inference number formats.

    Defaults to the posit formats the paper and Deep Positron [12] consider:
    (8,0), (8,1), (8,2), (16,1), plus the FP32 reference (``None``).  Sweep
    entries may be format objects or spec strings, so callers can drive the
    study from a plain config file.
    """
    from ..posit import PositConfig

    if formats is None:
        formats = [None, PositConfig(16, 1), PositConfig(8, 2), PositConfig(8, 1),
                   PositConfig(8, 0), PositConfig(6, 1)]
    rows = []
    for fmt in formats:
        fmt = _as_role_format(fmt)
        if fmt is None:
            acc = _accuracy(model, loader)
        else:
            acc = evaluate_quantized(model, loader, fmt, rounding=rounding,
                                     use_scaling=use_scaling)
        rows.append({"format": "fp32" if fmt is None else fmt.spec(), "accuracy": acc})
    return rows
