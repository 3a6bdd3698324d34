"""Tests for the first-order training-accelerator model (§V outlook)."""

import numpy as np
import pytest

from repro.core import QuantizationPolicy
from repro.hardware import (
    AcceleratorConfig,
    accelerator_comparison,
    count_training_macs,
    model_size_bytes,
    training_step_report,
)
from repro.models import MLP, ResNet, cifar_resnet8, tiny_resnet
from repro.nn import Conv2d, Sequential


class TestWorkloadCounting:
    def test_single_conv_layer_macs(self, rng):
        # 3x3 conv, 4->8 channels, 16x16 input with padding 1 -> 16x16 output.
        model = Sequential(Conv2d(4, 8, 3, padding=1, rng=rng))
        workloads = count_training_macs(model, input_hw=(16, 16))
        conv = workloads[0]
        assert conv.forward_macs == 16 * 16 * 8 * 4 * 9
        assert conv.backward_macs == 2 * conv.forward_macs
        assert conv.parameters == 8 * 4 * 9

    def test_stride_reduces_downstream_work(self, rng):
        strided = Sequential(Conv2d(3, 8, 3, stride=2, padding=1, rng=rng),
                             Conv2d(8, 8, 3, padding=1, rng=rng))
        unstrided = Sequential(Conv2d(3, 8, 3, stride=1, padding=1, rng=rng),
                               Conv2d(8, 8, 3, padding=1, rng=rng))
        macs_strided = count_training_macs(strided, (32, 32))[1].forward_macs
        macs_unstrided = count_training_macs(unstrided, (32, 32))[1].forward_macs
        assert macs_strided == macs_unstrided / 4

    def test_linear_layer_macs(self, rng):
        model = MLP(10, hidden=(20,), num_classes=5, rng=rng)
        workloads = count_training_macs(model)
        linear_macs = [w.forward_macs for w in workloads if w.kind == "linear"]
        assert linear_macs == [200, 100]

    def test_resnet_conv_dominates(self, rng):
        model = cifar_resnet8(base_width=8, rng=rng)
        workloads = count_training_macs(model, (32, 32))
        conv_macs = sum(w.total_macs for w in workloads if w.kind == "conv")
        other_macs = sum(w.total_macs for w in workloads if w.kind != "conv")
        assert conv_macs > 10 * other_macs

    def test_total_macs_scale_with_resolution(self, rng):
        model = tiny_resnet(base_width=8, rng=rng)
        small = sum(w.total_macs for w in count_training_macs(model, (16, 16)))
        large = sum(w.total_macs for w in count_training_macs(model, (32, 32)))
        assert large == pytest.approx(4 * small, rel=0.1)


class TestAcceleratorModel:
    def test_throughput(self):
        config = AcceleratorConfig(num_pes=128, clock_mhz=500, utilization=0.5)
        assert config.macs_per_second == 128 * 500e6 * 0.5

    def test_step_report_fields(self, rng):
        model = tiny_resnet(base_width=8, rng=rng)
        report = training_step_report(model, None, batch_size=8, input_hw=(16, 16))
        assert report["total_macs"] > 0
        assert report["step_seconds"] > 0
        assert report["total_energy_uj"] == pytest.approx(
            report["compute_energy_uj"] + report["memory_energy_uj"])

    def test_posit_step_cheaper_than_fp32(self, rng):
        model = tiny_resnet(base_width=8, rng=rng)
        comparison = accelerator_comparison(model, QuantizationPolicy.cifar_paper(),
                                            batch_size=8, input_hw=(16, 16))
        assert comparison["compute_energy_ratio"] > 1.2
        assert comparison["memory_energy_ratio"] > 1.5
        assert comparison["total_energy_ratio"] > 1.2

    def test_8bit_policy_saves_more_than_16bit(self, rng):
        model = tiny_resnet(base_width=8, rng=rng)
        ratio_8bit = accelerator_comparison(model, QuantizationPolicy.uniform(8),
                                            batch_size=4, input_hw=(16, 16))
        ratio_16bit = accelerator_comparison(model, QuantizationPolicy.imagenet_paper(),
                                             batch_size=4, input_hw=(16, 16))
        assert ratio_8bit["total_energy_ratio"] > ratio_16bit["total_energy_ratio"]

    def test_step_time_independent_of_format(self, rng):
        """The simple model assumes one MAC per PE per cycle regardless of width."""
        model = tiny_resnet(base_width=8, rng=rng)
        fp32 = training_step_report(model, None, batch_size=4, input_hw=(16, 16))
        posit = training_step_report(model, QuantizationPolicy.uniform(8),
                                     batch_size=4, input_hw=(16, 16))
        assert fp32["step_seconds"] == pytest.approx(posit["step_seconds"])


class TestFullPrecisionLayers:
    """The cost model prices the layers a policy keeps in FP32 at FP32."""

    def test_first_and_last_layer_flags_are_priced(self):
        # The cifar_resnet experiment model: conv1 (216 values) and fc (330).
        model = ResNet(num_classes=10, stage_blocks=(1, 1, 1), base_width=8,
                       stem="cifar", rng=np.random.default_rng(0))
        plain = QuantizationPolicy.uniform(8)
        flagged = QuantizationPolicy.uniform(8, first_layer_full_precision=True,
                                             last_layer_full_precision=True)
        kept = {name for name, fmt in flagged.export_formats(model).items() if fmt is None}
        assert kept == {"conv1.weight", "fc.weight", "fc.bias"}
        assert model_size_bytes(model, plain).parameter_bytes == 19_954
        # The 546 kept values cost 4 bytes each instead of 1.
        assert model_size_bytes(model, flagged).parameter_bytes == 21_592
        assert (training_step_report(model, flagged)["compute_energy_uj"]
                > training_step_report(model, plain)["compute_energy_uj"])
