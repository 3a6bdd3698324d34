"""Tests for the distribution-based shifting of Eq. (2)/(3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ScaleEstimator, ScaleFactor, compute_scale_factor, log2_center


class TestLog2Center:
    def test_power_of_two_tensor(self):
        assert log2_center(np.full(100, 8.0)) == 3.0

    def test_mixed_signs_use_magnitude(self):
        assert log2_center(np.array([-4.0, 4.0, -4.0, 4.0])) == 2.0

    def test_zeros_ignored(self):
        assert log2_center(np.array([0.0, 0.0, 2.0])) == 1.0

    def test_all_zero_tensor(self):
        assert log2_center(np.zeros(10)) == 0.0

    def test_rounding_to_integer(self):
        # Geometric mean of 1 and 2 is 2**0.5 -> center rounds to 0 or 1; mean
        # of log2 values is 0.5 which rounds (banker's) to 0.
        assert log2_center(np.array([1.0, 2.0])) in (0.0, 1.0)

    def test_nonfinite_ignored(self):
        assert log2_center(np.array([np.nan, np.inf, 4.0])) == 2.0


def _compacted_center(x, rounded: bool) -> float:
    """``log2_center`` as a filter, a compaction and a mean: the oracle."""
    mag = np.abs(np.asarray(x, dtype=np.float64))
    mag = mag[np.isfinite(mag) & (mag > 0)]
    if mag.size == 0:
        return 0.0
    mean = np.mean(np.log2(mag))
    return float(np.round(mean)) if rounded else float(mean)


def _center_inputs():
    rng = np.random.default_rng(11)
    dense = rng.standard_normal(10_007) * 3e-3
    with_zeros = dense.copy()
    with_zeros[::7] = 0.0
    with_inf = dense.copy()
    with_inf[[3, 500]] = [np.inf, -np.inf]
    with_nan = dense.copy()
    with_nan[17] = np.nan
    subnormal = np.concatenate([dense[:100], [5e-324, -1e-310, 2.2e-308]])
    grid = rng.standard_normal((41, 67))
    return {
        "dense": dense, "with_zeros": with_zeros, "with_inf": with_inf,
        "with_nan": with_nan, "subnormal": subnormal,
        "only_subnormal": np.array([5e-324, 1e-320, -3e-315]),
        "all_zero": np.zeros(33), "negative_zero": np.array([-0.0, 1.5]),
        "empty": np.zeros(0), "scalar": np.float64(-0.37), "zero_d": np.array(6.0),
        "zero_d_zero": np.array(0.0), "transposed": grid.T,
        "strided": grid[::3, 1::2], "float32": dense[:999].astype(np.float32),
        "list": [0.5, -2.0, 8.0],
    }


class TestLog2CenterIsTheCompactedMean:
    """With every magnitude finite and nonzero, log2_center skips the
    compaction; rounded or not, its mean is the compacted mean's bits."""

    @pytest.mark.parametrize("name", sorted(_center_inputs()))
    def test_rounded_center_matches(self, name):
        x = _center_inputs()[name]
        assert log2_center(x) == _compacted_center(x, rounded=True)

    @pytest.mark.parametrize("name", sorted(_center_inputs()))
    def test_unrounded_mean_matches_bit_for_bit(self, name, monkeypatch):
        x = _center_inputs()[name]
        expected = _compacted_center(x, rounded=False)
        monkeypatch.setattr(np, "round", lambda value: value)
        assert np.float64(log2_center(x)).tobytes() == np.float64(expected).tobytes()


class TestComputeScaleFactor:
    def test_equation_2_with_default_sigma(self):
        """Sf = 2**(center + sigma), sigma = 2 as in the paper."""
        values = np.full(50, 2.0**-6)
        assert compute_scale_factor(values) == 2.0 ** (-6 + 2)

    def test_sigma_zero(self):
        values = np.full(50, 0.25)
        assert compute_scale_factor(values, sigma=0) == 0.25

    def test_scale_is_power_of_two(self, rng):
        values = rng.standard_normal(1000) * 0.037
        scale = compute_scale_factor(values)
        assert 2.0 ** round(np.log2(scale)) == scale

    def test_shifting_moves_center_towards_sigma(self, rng):
        """After dividing by Sf the distribution center lands near -sigma."""
        sigma = 2
        values = rng.standard_normal(5000) * 1e-3
        scale = compute_scale_factor(values, sigma=sigma)
        shifted_center = np.mean(np.log2(np.abs(values[values != 0]) / scale))
        assert shifted_center == pytest.approx(-sigma, abs=1.0)

    def test_scale_factor_record(self):
        record = ScaleFactor.from_tensor(np.full(10, 0.5), sigma=2)
        assert record.center == -1.0
        assert record.value == 2.0

    @given(exponent=st.integers(-30, 30))
    @settings(max_examples=60, deadline=None)
    def test_scale_tracks_magnitude(self, exponent):
        """Tensors concentrated at 2**e get Sf = 2**(e + sigma)."""
        values = np.full(64, 2.0**exponent)
        assert compute_scale_factor(values, sigma=2) == 2.0 ** (exponent + 2)


class TestScaleEstimator:
    def test_dynamic_mode_recomputes(self, rng):
        estimator = ScaleEstimator(sigma=2, mode="dynamic")
        small = np.full(10, 2.0**-8)
        large = np.full(10, 2.0**4)
        assert estimator.scale_for(small) == 2.0**-6
        assert estimator.scale_for(large) == 2.0**6

    def test_calibrated_mode_freezes_center(self):
        estimator = ScaleEstimator(sigma=2, mode="calibrated")
        estimator.calibrate(np.full(10, 2.0**-8))
        # Later tensors with a different magnitude still use the frozen center.
        assert estimator.scale_for(np.full(10, 2.0**4)) == 2.0**-6

    def test_calibrated_mode_without_calibration_falls_back(self):
        estimator = ScaleEstimator(sigma=2, mode="calibrated")
        assert estimator.scale_for(np.full(10, 2.0**3)) == 2.0**5

    def test_observe_uses_moving_average(self):
        estimator = ScaleEstimator(sigma=0, mode="calibrated", ema_momentum=0.5)
        estimator.observe(np.full(10, 2.0**0))
        estimator.observe(np.full(10, 2.0**4))
        assert estimator.calibrated_center == pytest.approx(2.0)
        assert estimator.num_observations == 2

    def test_disabled_estimator_returns_unity(self):
        estimator = ScaleEstimator(enabled=False)
        assert estimator.scale_for(np.full(10, 2.0**-9)) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ScaleEstimator(mode="bogus")
        with pytest.raises(ValueError):
            ScaleEstimator(sigma=-1)
