"""Baseline quantized-training schemes the paper positions posit against.

The fixed-point *format* itself now lives in :mod:`repro.formats` (it is a
first-class :class:`~repro.formats.NumberFormat`); this package keeps the
baseline *recipes* — the policy builders that express each prior-work
training scheme — plus compatibility re-exports of the fixed-point names.
"""

from ..formats.fixedpoint import FixedPointFormat, fixed_point_quantize
from .lowbit_float import fixed_point_policy, fp8_policy, fp16_policy, make_loss_scaler

__all__ = [
    "FixedPointFormat",
    "fixed_point_quantize",
    "fp16_policy",
    "fp8_policy",
    "fixed_point_policy",
    "make_loss_scaler",
]
