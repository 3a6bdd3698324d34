"""Distribution-based shifting: layer-wise scaling factors (Eq. (2)/(3)).

The precision of a posit format is highest for magnitudes near 1 and tapers
off toward ``maxpos`` and ``minpos``.  DNN tensors, however, concentrate
around layer-specific magnitudes that are usually far from 1 (weights around
1e-2, gradients around 1e-4 ...), so quantizing them directly wastes the
dense center of the posit code space.  The paper fixes the mismatch with a
layer-wise scaling factor

.. math::

    \\text{center} = \\mathrm{round}(\\mathrm{mean}(\\log_2 |x|)), \\qquad
    S_f = 2^{\\text{center} + \\sigma}

applied around the transformation operator: ``px = P(x / S_f) * S_f``
(Eq. (3)).  ``sigma`` (default 2, as in the paper) biases the shift so that
the *larger* values in the tensor — which the deep-compression literature
[15] identifies as the more important ones — land on the highest-precision
region of the format.

Because the scale is a power of two, multiplying and dividing by it is exact
in binary floating point and costs only an exponent adjustment in hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["log2_center", "compute_scale_factor", "ScaleFactor", "ScaleEstimator"]


def log2_center(x: np.ndarray) -> float:
    """Return ``round(mean(log2 |x|))`` over the non-zero elements of ``x``.

    Zeros carry no magnitude information and would send the mean to
    ``-inf``, so they are excluded; an all-zero tensor has center 0.
    """
    mag = np.abs(np.asarray(x, dtype=np.float64))
    if mag.size and mag.min() > 0 and mag.max() < np.inf:
        # Every magnitude is finite and nonzero (NaN fails both tests), so
        # the compaction below would keep them all, in this order.
        logs = mag.ravel()
        return float(np.round(np.mean(np.log2(logs, out=logs))))
    mag = mag[np.isfinite(mag) & (mag > 0)]
    if mag.size == 0:
        return 0.0
    return float(np.round(np.mean(np.log2(mag))))


def compute_scale_factor(x: np.ndarray, sigma: int = 2) -> float:
    """Compute the layer-wise scaling factor ``S_f = 2**(center + sigma)`` (Eq. (2)).

    Parameters
    ----------
    x:
        The tensor to be converted (weights, activations, errors, or weight
        gradients of one layer).
    sigma:
        The positive integer constant of Eq. (2); the paper uses 2.
    """
    center = log2_center(x)
    return float(2.0 ** (center + sigma))


@dataclass
class ScaleFactor:
    """A frozen scale factor together with the statistics it was derived from."""

    value: float
    center: float
    sigma: int

    @classmethod
    def from_tensor(cls, x: np.ndarray, sigma: int = 2) -> "ScaleFactor":
        """Compute Eq. (2) for ``x`` and record the intermediate center."""
        center = log2_center(x)
        return cls(value=float(2.0 ** (center + sigma)), center=center, sigma=sigma)


class ScaleEstimator:
    """Produces scale factors either dynamically or from calibrated statistics.

    Two operating modes:

    ``dynamic``
        Eq. (2) is evaluated on every tensor as it is quantized.  This is the
        most faithful reading of the paper's "x is a tensor to be converted"
        and needs no extra state, at the cost of a cheap log/mean per call.

    ``calibrated``
        The scale is frozen from statistics collected during/after the warm-up
        phase (via :meth:`calibrate` or an exponential moving average through
        :meth:`observe`), matching the paper's remark that "based on the
        warm-up trained model, the scaling factor of each layer can be
        calculated".

    A ``ScaleEstimator`` with ``enabled=False`` always returns 1.0, which is
    how the no-shifting ablation is expressed.
    """

    def __init__(self, sigma: int = 2, mode: str = "dynamic", enabled: bool = True,
                 ema_momentum: float = 0.1):
        if mode not in ("dynamic", "calibrated"):
            raise ValueError(f"mode must be 'dynamic' or 'calibrated', got {mode!r}")
        if sigma < 0:
            raise ValueError(f"sigma must be a non-negative integer, got {sigma}")
        self.sigma = int(sigma)
        self.mode = mode
        self.enabled = enabled
        self.ema_momentum = ema_momentum
        self._calibrated_center: Optional[float] = None
        self.num_observations = 0

    def calibrate(self, x: np.ndarray) -> float:
        """Freeze the center statistic from ``x`` and return the resulting scale."""
        self._calibrated_center = log2_center(x)
        self.num_observations += 1
        return self.scale_for(x)

    def observe(self, x: np.ndarray) -> None:
        """Update the calibrated center with an exponential moving average."""
        center = log2_center(x)
        if self._calibrated_center is None:
            self._calibrated_center = center
        else:
            self._calibrated_center = (
                (1.0 - self.ema_momentum) * self._calibrated_center
                + self.ema_momentum * center
            )
        self.num_observations += 1

    @property
    def calibrated_center(self) -> Optional[float]:
        """The frozen/averaged log2 center, or None if never calibrated."""
        return self._calibrated_center

    def set_center(self, center: Optional[float]) -> None:
        """Install a precomputed log2 center (e.g. restored from a checkpoint).

        The serving path (:mod:`repro.serve`) freezes activation centers at
        export time and re-installs them at load time so that serving-side
        quantization is independent of batch composition.
        """
        self._calibrated_center = None if center is None else float(center)

    def scale_for(self, x: np.ndarray) -> float:
        """Return the scale factor to use when quantizing ``x``."""
        if not self.enabled:
            return 1.0
        if self.mode == "calibrated" and self._calibrated_center is not None:
            return float(2.0 ** (round(self._calibrated_center) + self.sigma))
        return compute_scale_factor(x, sigma=self.sigma)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScaleEstimator(sigma={self.sigma}, mode={self.mode!r}, "
            f"enabled={self.enabled}, center={self._calibrated_center})"
        )
