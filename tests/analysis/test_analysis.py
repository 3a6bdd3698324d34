"""Tests for the analysis tooling: distributions (Fig. 2), errors, and coverage."""

import numpy as np
import pytest

from repro.analysis import (
    DistributionRecorder,
    bn_shift_magnitude,
    code_usage,
    compare_formats,
    coverage_report,
    default_tracked_parameters,
    histogram_summary,
    max_relative_error,
    mean_absolute_error,
    quantization_report,
    shifting_benefit,
    shifting_coverage_gain,
    sqnr_db,
)
from repro.models import tiny_resnet
from repro.formats import get_quantizer
from repro.posit import PositConfig, quantize


class TestHistogramSummary:
    def test_summary_fields(self, rng):
        summary = histogram_summary(rng.standard_normal(1000))
        assert summary["counts"].sum() == 1000
        assert len(summary["edges"]) == 51
        assert -0.2 < summary["mean"] < 0.2
        assert 0.8 < summary["std"] < 1.2

    def test_log2_center_of_scaled_tensor(self):
        summary = histogram_summary(np.full(100, 0.25))
        assert summary["log2_center"] == pytest.approx(-2.0)

    def test_empty_and_zero_tensors(self):
        assert histogram_summary(np.zeros(10))["log2_center"] == 0.0


class TestDistributionRecorder:
    def test_default_tracks_first_conv_and_bn(self, rng):
        model = tiny_resnet(rng=rng)
        names = default_tracked_parameters(model)
        assert len(names) == 2
        assert any("conv1" in name for name in names)
        assert any("bn1" in name for name in names)

    def test_records_per_epoch(self, rng):
        model = tiny_resnet(rng=rng)
        recorder = DistributionRecorder()
        for epoch in range(3):
            recorder.record_model(model, epoch)
        for snapshot in recorder.snapshots.values():
            assert snapshot.epochs == [0, 1, 2]
            assert len(snapshot.means) == 3

    def test_detects_distribution_shift(self, rng):
        """A parameter whose values change a lot shows a large total_shift (Fig. 2)."""
        model = tiny_resnet(rng=rng)
        bn_name = [n for n in default_tracked_parameters(model) if "bn" in n][0]
        recorder = DistributionRecorder(parameter_names=[bn_name])
        recorder.record_model(model, 0)
        # Simulate the early-training BN shift the paper observes.
        params = dict(model.named_parameters())
        params[bn_name].data *= 0.3
        params[bn_name].data += 0.5
        recorder.record_model(model, 1)
        shifts = bn_shift_magnitude(recorder)
        assert shifts[bn_name] > 1.0

    def test_stable_parameter_has_small_shift(self, rng):
        model = tiny_resnet(rng=rng)
        conv_name = default_tracked_parameters(model)[0]
        recorder = DistributionRecorder(parameter_names=[conv_name])
        recorder.record_model(model, 0)
        recorder.record_model(model, 1)
        assert bn_shift_magnitude(recorder)[conv_name] == pytest.approx(0.0, abs=1e-12)

    def test_unknown_parameter_rejected(self, rng):
        recorder = DistributionRecorder(parameter_names=["nope.weight"])
        with pytest.raises(KeyError):
            recorder.record_model(tiny_resnet(rng=rng), 0)

    def test_report_rows(self, rng):
        model = tiny_resnet(rng=rng)
        recorder = DistributionRecorder(keep_histograms=False)
        recorder.record_model(model, 0)
        report = recorder.report()
        assert len(report) == 2
        assert all("total_shift" in row for row in report)


class TestQuantErrorMetrics:
    def test_sqnr_infinite_for_exact(self, rng):
        values = rng.standard_normal(100)
        assert sqnr_db(values, values) == float("inf")

    def test_sqnr_decreases_with_noise(self, rng):
        values = rng.standard_normal(1000)
        low_noise = values + rng.standard_normal(1000) * 1e-4
        high_noise = values + rng.standard_normal(1000) * 1e-1
        assert sqnr_db(values, low_noise) > sqnr_db(values, high_noise)

    def test_relative_and_absolute_errors(self):
        original = np.array([1.0, 2.0, 0.0])
        quantized = np.array([1.1, 1.8, 0.0])
        assert max_relative_error(original, quantized) == pytest.approx(0.1)
        assert mean_absolute_error(original, quantized) == pytest.approx(0.1)

    def test_quantization_report(self, rng):
        values = rng.standard_normal(500)
        report = quantization_report(values, get_quantizer(PositConfig(8, 1)), label="p8")
        assert report["label"] == "p8"
        assert report["sqnr_db"] > 10

    def test_more_bits_give_higher_sqnr(self, rng):
        values = rng.standard_normal(2000)
        reports = compare_formats(values, {
            "posit8": get_quantizer(PositConfig(8, 1)),
            "posit16": get_quantizer(PositConfig(16, 1)),
        })
        by_label = {r["label"]: r for r in reports}
        assert by_label["posit16"]["sqnr_db"] > by_label["posit8"]["sqnr_db"] + 20

    def test_shifting_benefit_positive_for_small_magnitudes(self, rng):
        """Eq. (2)/(3) shifting recovers SQNR on badly-centred tensors."""
        values = rng.standard_normal(3000) * 1e-4
        result = shifting_benefit(values, PositConfig(8, 0))
        assert result["sqnr_gain_db"] > 3.0

    def test_shifting_benefit_scale_sweep(self, rng):
        values = rng.standard_normal(500) * 1e-3
        result = shifting_benefit(values, PositConfig(8, 1),
                                  scales=[2.0**-12, 2.0**-8, 1.0])
        assert len(result["scale_sweep"]) == 3


class TestCoverage:
    def test_code_usage_fields(self, rng):
        usage = code_usage(rng.standard_normal(5000), PositConfig(8, 1))
        assert 0 < usage["distinct_codes"] <= 256
        assert 0 < usage["code_space_fraction"] <= 1
        assert usage["normalized_entropy"] <= 1.0

    def test_badly_centred_tensor_uses_few_codes(self, rng):
        values = rng.standard_normal(5000) * 1e-6
        centred = rng.standard_normal(5000)
        off = code_usage(values, PositConfig(8, 1))
        on = code_usage(centred, PositConfig(8, 1))
        assert off["distinct_codes"] < on["distinct_codes"]

    def test_shifting_improves_coverage(self, rng):
        """The motivation for Eq. (2)/(3): shifting exercises more of the code space."""
        values = rng.standard_normal(5000) * 1e-5
        gain = shifting_coverage_gain(values, PositConfig(8, 1))
        assert gain["distinct_code_gain"] > 0
        assert gain["entropy_gain_bits"] > 0

    def test_coverage_report_multiple_formats(self, rng):
        values = rng.standard_normal(1000)
        rows = coverage_report(values, [PositConfig(8, 0), PositConfig(8, 2)])
        assert len(rows) == 2
