"""First-order model of a posit DNN-training accelerator (§V outlook).

The paper concludes that the posit MAC "will benefit future low-power DNN
training accelerators" and lists building such an accelerator as future work.
This module provides the first-order analysis that statement rests on: it
counts the multiply-accumulate operations and data movement of a training
step for any model built from :mod:`repro.nn` layers, and combines those
counts with the per-MAC synthesis results (Table V) and the memory-energy
constants to estimate the energy per training step of a PE-array accelerator
built from FP32 MACs versus posit MACs.

The model is deliberately simple — a weight-stationary PE array with perfect
utilization and a single DRAM level — because the quantity of interest is the
*ratio* between the FP32 and posit configurations, which is dominated by the
per-MAC energy and the word width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.policy import QuantizationPolicy
from ..formats import NumberFormat
from ..nn import BatchNorm2d, Conv2d, Linear, Module
from .energy import DRAM_PJ_PER_BYTE, format_bits, model_size_bytes
from .gates import GENERIC_28NM, GateLibrary
from .mac import mac_unit_for_format
from .synthesis import TABLE5_CLOCK_MHZ, Calibration, calibrate_to_reference, synthesize

__all__ = ["LayerWorkload", "AcceleratorConfig", "count_training_macs",
           "training_step_report", "inference_step_report",
           "accelerator_comparison"]


@dataclass(frozen=True)
class LayerWorkload:
    """MAC and parameter counts of one layer for one training sample."""

    name: str
    kind: str
    forward_macs: float
    backward_macs: float
    parameters: int

    @property
    def total_macs(self) -> float:
        """Forward plus backward (input-gradient and weight-gradient) MACs."""
        return self.forward_macs + self.backward_macs


@dataclass(frozen=True)
class AcceleratorConfig:
    """A PE-array training accelerator configuration."""

    num_pes: int = 256
    clock_mhz: float = TABLE5_CLOCK_MHZ
    utilization: float = 0.75
    library: GateLibrary = GENERIC_28NM

    @property
    def macs_per_second(self) -> float:
        """Peak sustained MAC throughput."""
        return self.num_pes * self.clock_mhz * 1e6 * self.utilization


def count_training_macs(model: Module, input_hw: tuple[int, int] = (32, 32)) -> list[LayerWorkload]:
    """Count per-layer MACs of one training sample (forward + backward).

    Convolutions dominate; the backward pass costs roughly twice the forward
    pass (one convolution for the input gradient, one for the weight
    gradient).  Spatial sizes are propagated from ``input_hw`` through the
    strides of the conv/pool layers in declaration order, which is exact for
    the sequential ResNet/LeNet topologies in :mod:`repro.models`.
    """
    height, width = input_hw
    workloads: list[LayerWorkload] = []
    for name, module in model.named_modules():
        if isinstance(module, Conv2d):
            stride = module.stride if isinstance(module.stride, tuple) else (module.stride, module.stride)
            padding = module.padding if isinstance(module.padding, tuple) else (module.padding, module.padding)
            kh, kw = module.kernel_size
            out_h = (height + 2 * padding[0] - kh) // stride[0] + 1
            out_w = (width + 2 * padding[1] - kw) // stride[1] + 1
            forward = out_h * out_w * module.out_channels * module.in_channels * kh * kw
            params = module.out_channels * module.in_channels * kh * kw
            workloads.append(LayerWorkload(name, "conv", forward, 2.0 * forward, params))
            # Only the main stem path advances the spatial size; downsample
            # projections see the same input and produce the same output size.
            if "downsample" not in name:
                height, width = out_h, out_w
        elif isinstance(module, Linear):
            forward = module.in_features * module.out_features
            params = module.in_features * module.out_features
            workloads.append(LayerWorkload(name, "linear", forward, 2.0 * forward, params))
        elif isinstance(module, BatchNorm2d):
            # BN is element-wise: a handful of ops per activation, negligible
            # next to the convolutions but included for completeness.
            elements = module.num_features * height * width
            workloads.append(LayerWorkload(name, "batchnorm", 2.0 * elements,
                                           4.0 * elements, 2 * module.num_features))
    return workloads


def _per_mac_energy_pj(fmt: Optional[NumberFormat], calibration: Calibration,
                       library: GateLibrary, clock_mhz: float) -> float:
    """Energy per MAC operation in picojoules, from the synthesis model.

    Accepts any :class:`~repro.formats.NumberFormat` (or ``None`` for the
    FP32 baseline) via :func:`~repro.hardware.mac.mac_unit_for_format` —
    posit, reduced float, and fixed point each get their own datapath cost
    instead of being silently priced as FP32.
    """
    unit = mac_unit_for_format(fmt)
    result = synthesize(unit.cost(), library, clock_mhz, calibration)
    # power (mW) / frequency (MHz) = nJ per cycle; one MAC per cycle.
    return result.power_mw / clock_mhz * 1e3


def training_step_report(model: Module, policy: Optional[QuantizationPolicy],
                         batch_size: int = 32, input_hw: tuple[int, int] = (32, 32),
                         accelerator: Optional[AcceleratorConfig] = None,
                         calibration: Optional[Calibration] = None,
                         label: str = "") -> dict:
    """Estimate time and energy of one training step on the accelerator.

    ``policy=None`` models an FP32 accelerator (FP32 MACs, 32-bit storage);
    a posit policy selects the per-layer MAC format from its forward formats,
    with its first-/last-layer full-precision flags applied.
    """
    accelerator = accelerator or AcceleratorConfig()
    calibration = calibration or calibrate_to_reference(accelerator.library)
    workloads = count_training_macs(model, input_hw)
    total_macs = sum(w.total_macs for w in workloads) * batch_size

    # Compute energy: weight each layer's MACs by its MAC format's energy.
    covered = ({} if policy is None else
               {name: formats for name, _, formats in policy.layer_formats(model)})
    compute_energy_pj = 0.0
    for workload in workloads:
        formats = covered.get(workload.name)
        fmt = formats.weight if formats is not None else None
        energy = _per_mac_energy_pj(fmt, calibration, accelerator.library,
                                    accelerator.clock_mhz)
        compute_energy_pj += workload.total_macs * batch_size * energy

    # Memory energy: weights + gradients moved once per step at their storage width.
    memory = model_size_bytes(model, policy)
    memory_bytes = (2 * memory.parameter_bytes + 2 * memory.gradient_bytes)
    memory_energy_pj = memory_bytes * DRAM_PJ_PER_BYTE

    return {
        "label": label or ("fp32" if policy is None else "posit"),
        "total_macs": total_macs,
        "step_seconds": total_macs / accelerator.macs_per_second,
        "compute_energy_uj": compute_energy_pj * 1e-6,
        "memory_energy_uj": memory_energy_pj * 1e-6,
        "total_energy_uj": (compute_energy_pj + memory_energy_pj) * 1e-6,
    }


def inference_step_report(model: Module, fmt: Optional[NumberFormat] = None,
                          batch_size: int = 1, input_hw: tuple[int, int] = (32, 32),
                          accelerator: Optional[AcceleratorConfig] = None,
                          calibration: Optional[Calibration] = None) -> dict:
    """Estimate time and energy of one *inference* batch on the accelerator.

    The forward-only counterpart of :func:`training_step_report`, used by the
    serving engine (:mod:`repro.serve`) to price each coalesced batch: only
    the forward MACs run, priced at ``fmt``'s MAC datapath
    (:func:`~repro.hardware.mac.mac_unit_for_format`; ``None`` means FP32),
    and the memory term reads the packed weights once per batch at ``fmt``'s
    storage width — the §V deployment claim that an 8-bit posit model moves
    4x fewer weight bytes than FP32.
    """
    accelerator = accelerator or AcceleratorConfig()
    calibration = calibration or calibrate_to_reference(accelerator.library)
    workloads = count_training_macs(model, input_hw)
    forward_macs = sum(w.forward_macs for w in workloads) * batch_size
    energy_per_mac = _per_mac_energy_pj(fmt, calibration, accelerator.library,
                                        accelerator.clock_mhz)
    compute_energy_pj = forward_macs * energy_per_mac

    parameter_scalars = sum(p.size for p in model.parameters())
    weight_bytes = parameter_scalars * format_bits(fmt) / 8.0
    memory_energy_pj = weight_bytes * DRAM_PJ_PER_BYTE

    return {
        "label": "fp32" if fmt is None else fmt.spec(),
        "batch_size": batch_size,
        "forward_macs": forward_macs,
        "step_seconds": forward_macs / accelerator.macs_per_second,
        "weight_bytes": weight_bytes,
        "compute_energy_uj": compute_energy_pj * 1e-6,
        "memory_energy_uj": memory_energy_pj * 1e-6,
        "total_energy_uj": (compute_energy_pj + memory_energy_pj) * 1e-6,
    }


def accelerator_comparison(model: Module, policy: QuantizationPolicy,
                           batch_size: int = 32, input_hw: tuple[int, int] = (32, 32),
                           accelerator: Optional[AcceleratorConfig] = None) -> dict:
    """FP32 accelerator vs posit accelerator for one training step of ``model``."""
    accelerator = accelerator or AcceleratorConfig()
    calibration = calibrate_to_reference(accelerator.library)
    fp32 = training_step_report(model, None, batch_size, input_hw, accelerator,
                                calibration, label="fp32")
    posit = training_step_report(model, policy, batch_size, input_hw, accelerator,
                                 calibration, label="posit")
    return {
        "fp32": fp32,
        "posit": posit,
        "compute_energy_ratio": fp32["compute_energy_uj"] / posit["compute_energy_uj"],
        "memory_energy_ratio": fp32["memory_energy_uj"] / posit["memory_energy_uj"],
        "total_energy_ratio": fp32["total_energy_uj"] / posit["total_energy_uj"],
    }
