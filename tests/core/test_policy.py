"""Tests for the quantization policies (Table III format assignments)."""

import numpy as np
import pytest

from repro.baselines import FixedPointFormat
from repro.core import QuantizationPolicy, RoleFormats
from repro.models import tiny_resnet
from repro.nn import BatchNorm2d, Conv2d, Linear
from repro.posit import FP16, PositConfig


class TestRoleFormats:
    def test_posit_helper_assigns_forward_and_backward(self):
        formats = RoleFormats.posit(PositConfig(8, 1), PositConfig(8, 2))
        assert formats.weight == PositConfig(8, 1)
        assert formats.activation == PositConfig(8, 1)
        assert formats.error == PositConfig(8, 2)
        assert formats.weight_grad == PositConfig(8, 2)

    def test_full_precision_all_none(self):
        formats = RoleFormats.full_precision()
        assert formats.weight is None and formats.error is None

    def test_as_dict_names(self):
        formats = RoleFormats.posit(PositConfig(16, 1), PositConfig(16, 2))
        assert formats.as_dict() == {
            "weight": "posit(16,1)",
            "activation": "posit(16,1)",
            "error": "posit(16,2)",
            "weight_grad": "posit(16,2)",
        }


class TestPaperPolicies:
    def test_cifar_policy_matches_table3_footnote1(self):
        """(8,1)/(8,2) for CONV, (16,1)/(16,2) for BN."""
        policy = QuantizationPolicy.cifar_paper()
        assert policy.conv_formats.weight == PositConfig(8, 1)
        assert policy.conv_formats.error == PositConfig(8, 2)
        assert policy.bn_formats.weight == PositConfig(16, 1)
        assert policy.bn_formats.error == PositConfig(16, 2)

    def test_imagenet_policy_matches_table3_footnote2(self):
        """(16,1) forward/update and (16,2) backward for every layer type."""
        policy = QuantizationPolicy.imagenet_paper()
        for formats in (policy.conv_formats, policy.bn_formats, policy.linear_formats):
            assert formats.weight == PositConfig(16, 1)
            assert formats.weight_grad == PositConfig(16, 2)

    def test_default_rounding_is_round_to_zero(self):
        """Algorithm 1 uses the hardware-friendly round-to-zero."""
        assert QuantizationPolicy.cifar_paper().rounding == "zero"

    def test_default_es_criterion(self):
        """Forward es=1, backward es=2 — the §III-B dynamic-range rule."""
        policy = QuantizationPolicy.uniform(16)
        assert policy.conv_formats.weight.es == 1
        assert policy.conv_formats.error.es == 2

    def test_uniform_policy(self):
        policy = QuantizationPolicy.uniform(8, es_forward=0, es_backward=1)
        assert policy.conv_formats.weight == PositConfig(8, 0)
        assert policy.bn_formats.error == PositConfig(8, 1)

    def test_float_baseline_policy(self):
        policy = QuantizationPolicy.float_baseline(FP16, FP16)
        assert policy.conv_formats.weight == FP16

    def test_full_precision_policy(self):
        policy = QuantizationPolicy.full_precision()
        assert policy.conv_formats.weight is None

    def test_with_overrides_copies(self):
        base = QuantizationPolicy.cifar_paper()
        changed = base.with_overrides(use_scaling=False, sigma=3)
        assert changed.use_scaling is False and changed.sigma == 3
        assert base.use_scaling is True and base.sigma == 2
        assert changed.conv_formats == base.conv_formats


class TestFormatsFor:
    def test_dispatch_by_layer_type(self, rng):
        policy = QuantizationPolicy.cifar_paper()
        assert policy.formats_for(Conv2d(3, 4, 3, rng=rng)).weight == PositConfig(8, 1)
        assert policy.formats_for(BatchNorm2d(4)).weight == PositConfig(16, 1)
        assert policy.formats_for(Linear(4, 4, rng=rng)).weight == PositConfig(8, 1)

    def test_unhandled_module_returns_none(self):
        from repro.nn import ReLU

        assert QuantizationPolicy.cifar_paper().formats_for(ReLU()) is None


class TestAttach:
    def test_attaches_context_to_every_quantizable_layer(self, rng):
        model = tiny_resnet(rng=rng)
        contexts = QuantizationPolicy.cifar_paper().attach(model)
        quantizable = [m for m in model.modules()
                       if isinstance(m, (Conv2d, BatchNorm2d, Linear))]
        assert len(contexts) == len(quantizable)
        assert all(m.quant is not None for m in quantizable)

    def test_bn_and_conv_get_different_formats(self, rng):
        model = tiny_resnet(rng=rng)
        QuantizationPolicy.cifar_paper().attach(model)
        conv = next(m for m in model.modules() if isinstance(m, Conv2d))
        bn = next(m for m in model.modules() if isinstance(m, BatchNorm2d))
        assert conv.quant.quantizers["weight"].format == PositConfig(8, 1)
        assert bn.quant.quantizers["weight"].format == PositConfig(16, 1)

    def test_first_and_last_layer_exemptions(self, rng):
        model = tiny_resnet(rng=rng)
        policy = QuantizationPolicy.uniform(8, first_layer_full_precision=True,
                                            last_layer_full_precision=True)
        contexts = policy.attach(model)
        ordered = list(contexts.values())
        assert ordered[0].quantizers["weight"] is None
        assert ordered[-1].quantizers["weight"] is None
        assert ordered[1].quantizers["weight"] is not None

    def test_detach_restores_full_precision(self, rng):
        model = tiny_resnet(rng=rng)
        QuantizationPolicy.cifar_paper().attach(model)
        QuantizationPolicy.detach(model)
        assert all(m.quant is None for m in model.modules())

    def test_set_enabled_toggles_all_contexts(self, rng):
        model = tiny_resnet(rng=rng)
        contexts = QuantizationPolicy.cifar_paper().attach(model)
        QuantizationPolicy.set_enabled(model, False)
        assert all(not c.enabled for c in contexts.values())
        QuantizationPolicy.set_enabled(model, True)
        assert all(c.enabled for c in contexts.values())

    def test_no_scaling_option_skips_scalers(self, rng):
        model = tiny_resnet(rng=rng)
        contexts = QuantizationPolicy.uniform(8, use_scaling=False).attach(model)
        assert all(c.scalers["weight"] is None for c in contexts.values())

    def test_fixed_point_format_supported_via_hook(self, rng):
        formats = RoleFormats(weight=FixedPointFormat(2, 5), activation=FixedPointFormat(2, 5),
                              error=FixedPointFormat(2, 5), weight_grad=FixedPointFormat(2, 5))
        policy = QuantizationPolicy(conv_formats=formats, use_scaling=False)
        model = tiny_resnet(rng=rng)
        contexts = policy.attach(model)
        conv_context = next(iter(contexts.values()))
        values = np.array([0.37, -1.22])
        quantized = conv_context.weight_grad(values)
        np.testing.assert_allclose(quantized, np.round(values * 32) / 32)

    def test_describe_round_trips_key_options(self):
        description = QuantizationPolicy.cifar_paper(use_scaling=False).describe()
        assert description["conv"]["weight"] == "posit(8,1)"
        assert description["use_scaling"] is False


class TestExportFormats:
    """Policy -> per-parameter storage-format mapping (artifact v2 export)."""

    def test_mixed_policy_assigns_weight_role_per_layer(self, rng):
        model = tiny_resnet(rng=rng)
        formats = QuantizationPolicy.cifar_paper().export_formats(model)
        by_module = {name: module for name, module in model.named_modules()}
        assert formats  # every quantizable layer contributes
        for qualified, fmt in formats.items():
            module_name = qualified.rsplit(".", 1)[0]
            module = by_module[module_name]
            if isinstance(module, (Conv2d, Linear)):
                assert fmt == PositConfig(8, 1), qualified
            elif isinstance(module, BatchNorm2d):
                assert fmt == PositConfig(16, 1), qualified
        assert len({fmt for fmt in formats.values()}) == 2

    def test_covers_every_parameter_of_quantizable_layers(self, rng):
        model = tiny_resnet(rng=rng)
        formats = QuantizationPolicy.cifar_paper().export_formats(model)
        quantizable_params = {
            f"{name}.{pname}" if name else pname
            for name, module in model.named_modules()
            if isinstance(module, (Conv2d, BatchNorm2d, Linear))
            for pname, _ in module.named_parameters()
        }
        assert set(formats) == quantizable_params

    def test_full_precision_roles_map_to_none(self, rng):
        model = tiny_resnet(rng=rng)
        formats = QuantizationPolicy.full_precision().export_formats(model)
        assert formats and all(fmt is None for fmt in formats.values())

    def test_first_and_last_layer_exemptions_apply(self, rng):
        model = tiny_resnet(rng=rng)
        policy = QuantizationPolicy.uniform(8, first_layer_full_precision=True,
                                            last_layer_full_precision=True)
        attach_order = [
            name for name, module in model.named_modules()
            if isinstance(module, (Conv2d, BatchNorm2d, Linear))
        ]
        formats = policy.export_formats(model)
        first, last = attach_order[0], attach_order[-1]
        assert formats[f"{first}.weight"] is None
        assert formats[f"{last}.weight"] is None
        middle = attach_order[1]
        assert formats[f"{middle}.weight"] == PositConfig(8, 1)
