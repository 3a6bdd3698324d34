"""Posit (type-3 unum) number system substrate.

This subpackage is a self-contained software implementation of the posit
number system as used by the paper: bit-exact scalar encode/decode and
arithmetic (:mod:`repro.posit.scalar`), fast vectorized quantization for
training (:mod:`repro.posit.quantize`, Algorithm 1), value-table generation
(:mod:`repro.posit.tables`, Table I), exact quire accumulation
(:mod:`repro.posit.quire`), and reduced-precision float baselines
(:mod:`repro.posit.floatformats`).
"""

from .config import (
    PAPER_FORMATS,
    POSIT_5_1,
    POSIT_8_0,
    POSIT_8_1,
    POSIT_8_2,
    POSIT_16_1,
    POSIT_16_2,
    POSIT_32_2,
    POSIT_32_3,
    PositConfig,
    get_config,
)
from .floatformats import (
    BFLOAT16,
    FP8_E4M3,
    FP8_E5M2,
    FP16,
    FP32,
    FloatFormat,
    float_from_bits,
    float_quantize,
    float_to_bits,
)
from .quantize import (
    ROUNDING_MODES,
    bits_to_float,
    quantize,
    quantize_to_bits,
)
from .quire import Quire, exact_dot, fused_dot
from .scalar import (
    PositFields,
    PositScalar,
    add,
    decode,
    decode_fields,
    div,
    encode,
    enumerate_positive_values,
    fma,
    mul,
    next_down,
    next_up,
    sub,
)
from .tables import PositTableRow, code_space_summary, format_table, positive_value_table

__all__ = [
    # config
    "PositConfig",
    "get_config",
    "PAPER_FORMATS",
    "POSIT_5_1",
    "POSIT_8_0",
    "POSIT_8_1",
    "POSIT_8_2",
    "POSIT_16_1",
    "POSIT_16_2",
    "POSIT_32_2",
    "POSIT_32_3",
    # scalar
    "PositFields",
    "PositScalar",
    "decode",
    "decode_fields",
    "encode",
    "enumerate_positive_values",
    "next_up",
    "next_down",
    "add",
    "sub",
    "mul",
    "div",
    "fma",
    # quantize
    "ROUNDING_MODES",
    "quantize",
    "quantize_to_bits",
    "bits_to_float",
    # quire
    "Quire",
    "exact_dot",
    "fused_dot",
    # tables
    "PositTableRow",
    "positive_value_table",
    "format_table",
    "code_space_summary",
    # float formats
    "FloatFormat",
    "float_quantize",
    "float_to_bits",
    "float_from_bits",
    "FP32",
    "FP16",
    "BFLOAT16",
    "FP8_E4M3",
    "FP8_E5M2",
]
