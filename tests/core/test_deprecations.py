"""Removed names must stay *gone*.

The legacy ``Format`` union alias and the ``repro.baselines.fixedpoint``
module went through a two-PR deprecation window; these tests pin the other
side of that promise — the names no longer resolve, and the supported
replacements import cleanly without warnings.

The codec kept one path per format family and removed the alternatives
outright, with no aliases: the per-family quantizer classes (use
:func:`repro.formats.get_quantizer`), ``make_quantizer``, the
``REPRO_CODEC_KERNELS`` switch with ``set_kernels_enabled``, the posit
value-grid branch, and the profiler's quantizer proxy.  ``active_kernel``
went when :func:`repro.formats.codec_for` became the one codec decision.

``RoleStats`` became a counter: its log2 statistics are gone, with no switch
to bring them back; ``RangeTracker`` and ``DistributionRecorder`` measure
ranges.

Serving has one server and one controller over either backend:
``ModelServer`` and ``Controller`` take an ``InferenceEngine`` or a
``ServeCluster`` as it is, so the per-backend server, plant and adapter
classes are gone.
"""

import importlib
import warnings

import pytest

from repro.formats import NumberFormat


class TestFormatAliasRemoved:
    def test_core_format_is_gone(self):
        import repro.core

        with pytest.raises(AttributeError):
            repro.core.Format

    def test_policy_module_format_is_gone(self):
        from repro.core import policy

        with pytest.raises(AttributeError):
            policy.Format

    def test_format_not_reexported(self):
        import repro.core
        from repro.core import policy

        assert "Format" not in repro.core.__all__
        assert "Format" not in policy.__all__

    def test_tensor_format_replacement_is_silent(self):
        from typing import Optional

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.core import TensorFormat
            from repro.core.policy import TensorFormat as PolicyTensorFormat

        assert TensorFormat is PolicyTensorFormat
        assert TensorFormat == Optional[NumberFormat]


class TestFixedPointShimRemoved:
    def test_shim_module_is_gone(self):
        import sys

        sys.modules.pop("repro.baselines.fixedpoint", None)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.baselines.fixedpoint")

    def test_package_reexports_remain_and_are_silent(self):
        """``repro.baselines`` still re-exports the names, warning-free."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            baselines = importlib.import_module("repro.baselines")
        from repro.formats import FixedPointFormat

        assert baselines.FixedPointFormat is FixedPointFormat


class TestCodecAlternativesRemoved:
    @pytest.mark.parametrize("module, name", [
        ("repro", "PositQuantizer"),
        ("repro.posit", "PositQuantizer"),
        ("repro.posit.quantize", "PositQuantizer"),
        ("repro.posit", "FloatQuantizer"),
        ("repro.posit.floatformats", "FloatQuantizer"),
        ("repro.baselines", "FixedPointQuantizer"),
        ("repro.formats", "FixedPointQuantizer"),
        ("repro.formats.fixedpoint", "FixedPointQuantizer"),
        ("repro.formats", "KernelQuantizer"),
        ("repro.formats.kernels", "KernelQuantizer"),
        ("repro.formats", "set_kernels_enabled"),
        ("repro.formats.kernels", "set_kernels_enabled"),
        ("repro.formats.kernels", "_posit_decode_lut"),
        ("repro.formats", "active_kernel"),
        ("repro.formats.kernels", "active_kernel"),
        ("repro.posit.quantize", "positive_value_grid"),
        ("repro.posit.quantize", "_GRID_MAX_BITS"),
        ("repro.obs.profiler", "_ProfiledQuantizer"),
        ("repro.obs.profiler", "wrap_quantizer"),
        ("repro.core.policy", "_make_quantizer"),
    ])
    def test_name_is_gone(self, module, name):
        mod = importlib.import_module(module)
        assert not hasattr(mod, name)
        assert name not in getattr(mod, "__all__", ())

    def test_formats_have_no_make_quantizer(self):
        from repro.formats import FixedPointFormat
        from repro.posit import FP16, PositConfig

        assert "make_quantizer" not in NumberFormat.__abstractmethods__
        for fmt in (PositConfig(8, 1), FP16, FixedPointFormat(2, 13)):
            assert not hasattr(fmt, "make_quantizer")

    def test_kernel_switch_is_ignored(self, monkeypatch):
        from repro.formats import codec_for, get_kernel
        from repro.formats.kernels import kernels_enabled
        from repro.posit import POSIT_8_1

        monkeypatch.setenv("REPRO_CODEC_KERNELS", "0")
        assert kernels_enabled() is True
        assert codec_for(POSIT_8_1) is get_kernel(POSIT_8_1)


class TestRoleStatsAnalysisRemoved:
    @pytest.mark.parametrize("name", ["min_log2", "max_log2", "sum_log2_center",
                                      "mean_center", "log2_range"])
    def test_log2_statistic_is_gone(self, name):
        import numpy as np

        from repro.core import RoleStats

        stats = RoleStats()
        stats.record(np.array([0.25, 4.0]), 1.0)
        assert not hasattr(stats, name)
        assert name not in stats.as_dict()
        assert stats.as_dict() == {"calls": 1, "elements": 2, "last_scale": 1.0}


class TestServingAdaptersRemoved:
    @pytest.mark.parametrize("module, name", [
        ("repro.serve", "ClusterServer"),
        ("repro.serve.transport", "ClusterServer"),
        ("repro.serve.transport", "_EngineBackend"),
        ("repro.serve.transport", "_ClusterBackend"),
        ("repro.serve.transport", "_HTTPShell"),
        ("repro.serve.transport", "_predict_payload"),
        ("repro.serve", "EnginePlant"),
        ("repro.serve.control", "EnginePlant"),
        ("repro.serve", "ClusterPlant"),
        ("repro.serve.control", "ClusterPlant"),
    ])
    def test_name_is_gone(self, module, name):
        mod = importlib.import_module(module)
        assert not hasattr(mod, name)
        assert name not in getattr(mod, "__all__", ())

    def test_cluster_control_snapshot_is_now_observe(self):
        from repro.serve import ServeCluster

        assert not hasattr(ServeCluster, "control_snapshot")
        assert callable(ServeCluster.observe)
