"""Tests for the export-time activation calibration pass."""

import numpy as np
import pytest

from repro.core import ScaleEstimator, log2_center
from repro.models import MLP
from repro.serve import calibrate_activation_centers
from repro.tensor import Tensor, no_grad


@pytest.fixture
def model():
    return MLP(2, hidden=(8,), num_classes=3, rng=np.random.default_rng(0))


@pytest.fixture
def batches():
    rng = np.random.default_rng(3)
    # The second batch sits 5 binades higher, so its center differs.
    return [(rng.standard_normal((16, 2)), None),
            (rng.standard_normal((16, 2)) * 32.0, None)]


def test_one_observation_per_quantized_tensor(model, batches, monkeypatch):
    observed = []
    original = ScaleEstimator.observe

    def counting(self, x):
        observed.append(x.shape)
        return original(self, x)

    monkeypatch.setattr(ScaleEstimator, "observe", counting)
    centers = calibrate_activation_centers(model, "posit(8,1)", batches, max_batches=2)
    # Two quantized layers, two batches: four activations.
    assert sorted(centers) == ["body.0", "body.2"]
    assert observed == [(16, 8), (16, 3)] * 2


def test_two_batch_center_is_one_ema_step(model, batches):
    """The first layer's activation does not depend on calibration."""
    first = model.body[0]
    with no_grad():
        c1, c2 = (log2_center(first(Tensor(inputs)).data) for inputs, _ in batches)
    assert c2 != c1
    centers = calibrate_activation_centers(model, "posit(8,1)", batches, max_batches=2)
    assert centers["body.0"] == pytest.approx(0.9 * c1 + 0.1 * c2, abs=1e-12)
    one = calibrate_activation_centers(model, "posit(8,1)", batches, max_batches=1)
    assert one["body.0"] == c1
