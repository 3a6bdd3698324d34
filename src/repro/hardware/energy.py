"""System-level memory and energy accounting (§IV introduction and §V claim).

The paper argues that using 8- or 16-bit posits instead of FP32 shrinks the
model by 4x or 2x, and that the "overhead caused by data communications can
be saved by 2-4x".  This module makes that accounting explicit for any model
built from :mod:`repro.nn` layers:

* parameter, activation, and gradient storage footprints under a
  :class:`~repro.core.policy.QuantizationPolicy`;
* per-training-step data movement (weights + activations forward, errors +
  weight gradients backward, weight update traffic);
* an energy estimate using standard per-byte DRAM/SRAM access energies and
  the per-MAC energies produced by the synthesis model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.policy import QuantizationPolicy
from ..formats import NumberFormat
from ..nn import BatchNorm2d, Conv2d, Linear, Module

__all__ = [
    "MemoryCosts",
    "TrafficReport",
    "format_bits",
    "model_size_bytes",
    "training_step_traffic",
    "communication_saving",
]

#: Representative access energies (picojoules per byte) for a 28 nm-class
#: system; absolute values only matter for the energy column, the savings
#: ratios depend on the byte counts alone.
DRAM_PJ_PER_BYTE = 160.0
SRAM_PJ_PER_BYTE = 6.0


@dataclass(frozen=True)
class MemoryCosts:
    """Byte footprints of one model under a given number-format assignment."""

    parameter_bytes: float
    activation_bytes_per_sample: float
    gradient_bytes: float

    @property
    def total_training_state_bytes(self) -> float:
        """Parameters + gradients (the persistent training state)."""
        return self.parameter_bytes + self.gradient_bytes


@dataclass(frozen=True)
class TrafficReport:
    """Per-training-step data movement and energy for one configuration."""

    label: str
    bytes_per_step: float
    dram_energy_uj: float
    model_bytes: float

    def as_dict(self) -> dict:
        """Row form used by the benchmark tables."""
        return {
            "label": self.label,
            "bytes_per_step": round(self.bytes_per_step, 1),
            "dram_energy_uj": round(self.dram_energy_uj, 3),
            "model_bytes": round(self.model_bytes, 1),
        }


def format_bits(fmt) -> int:
    """Storage width in bits of a format descriptor (None means FP32).

    Any :class:`~repro.formats.NumberFormat` — posit, float, or fixed point
    — is priced at its declared :attr:`~repro.formats.NumberFormat.bits`
    width, so memory/traffic accounting covers every format family.
    """
    if fmt is None:
        return 32
    if isinstance(fmt, NumberFormat):
        return int(fmt.bits)
    raise TypeError(f"unsupported format descriptor: {fmt!r}")


def model_size_bytes(model: Module, policy: Optional[QuantizationPolicy] = None) -> MemoryCosts:
    """Compute parameter/gradient byte footprints of ``model`` under ``policy``.

    Activation bytes are estimated per sample from the layer output channel
    counts assuming the activations are stored at the policy's activation
    format; layers the policy does not cover, or keeps in full precision
    (:meth:`~repro.core.QuantizationPolicy.layer_formats`), count at 32 bits.
    """
    covered = ({} if policy is None else
               {name: formats for name, _, formats in policy.layer_formats(model)})
    parameter_bits = 0.0
    gradient_bits = 0.0
    activation_bits = 0.0
    for name, module in model.named_modules():
        params = [p for p in module._parameters.values() if p is not None]
        if not params and not isinstance(module, (Conv2d, Linear, BatchNorm2d)):
            continue
        formats = covered.get(name)
        weight_bits = format_bits(formats.weight) if formats is not None else 32
        grad_bits = format_bits(formats.weight_grad) if formats is not None else 32
        act_bits = format_bits(formats.activation) if formats is not None else 32
        for param in params:
            parameter_bits += param.size * weight_bits
            gradient_bits += param.size * grad_bits
        if isinstance(module, Conv2d):
            activation_bits += module.out_channels * act_bits
        elif isinstance(module, Linear):
            activation_bits += module.out_features * act_bits
        elif isinstance(module, BatchNorm2d):
            activation_bits += module.num_features * act_bits
    return MemoryCosts(
        parameter_bytes=parameter_bits / 8.0,
        activation_bytes_per_sample=activation_bits / 8.0,
        gradient_bytes=gradient_bits / 8.0,
    )


def training_step_traffic(model: Module, policy: Optional[QuantizationPolicy],
                          batch_size: int, activation_multiplier: float = 256.0,
                          label: str = "") -> TrafficReport:
    """Estimate bytes moved to/from main memory for one training step.

    One step reads the weights once (forward), writes and re-reads the
    activations (forward + backward), reads the weights again and writes the
    errors (backward), and reads + writes the weights and gradients (update).
    ``activation_multiplier`` scales the per-layer channel counts to spatial
    feature-map sizes (it cancels in the savings ratios).
    """
    costs = model_size_bytes(model, policy)
    weights = costs.parameter_bytes
    grads = costs.gradient_bytes
    activations = costs.activation_bytes_per_sample * activation_multiplier * batch_size
    bytes_per_step = (
        2 * weights          # forward read + backward read
        + 2 * activations    # forward write + backward read
        + activations        # error write
        + 2 * grads          # gradient write + update read
        + 2 * weights        # update read + write
    )
    energy_uj = bytes_per_step * DRAM_PJ_PER_BYTE * 1e-6
    return TrafficReport(
        label=label or ("fp32" if policy is None else "quantized"),
        bytes_per_step=bytes_per_step,
        dram_energy_uj=energy_uj,
        model_bytes=costs.parameter_bytes,
    )


def communication_saving(model: Module, policy: QuantizationPolicy,
                         batch_size: int = 32) -> dict:
    """Quantify the §V claim: communication overhead saved by 2-4x.

    Returns the FP32 and quantized traffic reports plus the savings ratios
    for model size and per-step traffic.
    """
    fp32 = training_step_traffic(model, None, batch_size, label="fp32")
    quantized = training_step_traffic(model, policy, batch_size, label="posit")
    return {
        "fp32": fp32.as_dict(),
        "quantized": quantized.as_dict(),
        "model_size_ratio": fp32.model_bytes / quantized.model_bytes,
        "traffic_ratio": fp32.bytes_per_step / quantized.bytes_per_step,
        "energy_ratio": fp32.dram_energy_uj / quantized.dram_energy_uj,
    }
