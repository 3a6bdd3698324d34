"""Unified number-format type system: one protocol, one registry, one factory.

The paper's methodology is precisely about *swapping number formats* per
layer and per tensor role.  This package gives every format family used by
the reproduction — posit, reduced-precision float, and fixed point — one
uniform surface:

* :class:`NumberFormat` — the abstract interface every format implements:
  ``quantize(x, mode=...)``, ``to_bits``/``from_bits``, ``maxpos``/
  ``minpos``/``bits``, ``name``, and ``spec()``.
  :class:`~repro.posit.PositConfig` and :class:`~repro.posit.FloatFormat`
  are registered as virtual subclasses; :class:`FixedPointFormat` (promoted
  here from ``repro.baselines``) inherits directly.
* the **format registry** — spec-string parsing and round-tripping
  (:func:`parse_format`, :func:`as_format`, :func:`register_format`,
  :func:`available_formats`), so policies and experiment configs can be
  built from plain strings like ``"posit(8,1)"``, ``"fp8_e4m3"``,
  ``"fixed(16,13)"``, or ``"fp32"``.
* the **cached quantizer factory** — :func:`get_quantizer` memoizes one
  :class:`FormatQuantizer` per ``(format, rounding)`` key so the training
  hot path stops re-instantiating them for every layer.  A quantizer calls
  its format's own codec methods, so there is one codec path per format.
* the **codec kernels** — :mod:`repro.formats.kernels` precomputes decode
  LUTs and grid-snap encode tables for every registry format with
  ``bits <= 16`` and serves ``quantize``/``to_bits``/``from_bits`` as
  whole-array numpy gathers; posits up to 32 bits and fp32 get table-free
  kernels that work on the float64 bit fields.  They are the only codec
  for those formats; other wide formats use their family's vectorized
  module functions.
  :func:`reference_ops` exposes those module functions as the test oracle.
"""

from .base import NumberFormat
from .factory import (
    FormatQuantizer,
    clear_quantizer_cache,
    get_quantizer,
    quantizer_cache_info,
)
from .kernels import (
    KERNEL_MAX_BITS,
    active_kernel,
    clear_kernel_cache,
    get_kernel,
    kernel_info,
    reference_ops,
)
from .fixedpoint import (
    FixedPointFormat,
    fixed_point_from_bits,
    fixed_point_quantize,
    fixed_point_to_bits,
)
from .registry import (
    FormatSpecError,
    as_format,
    available_formats,
    parse_format,
    register_format,
)

# PositConfig and FloatFormat predate this package and cannot import from it
# (repro.formats imports repro.posit); they join the protocol as virtual
# subclasses so `isinstance(fmt, NumberFormat)` holds for every family.
from ..posit.config import PositConfig as _PositConfig
from ..posit.floatformats import FloatFormat as _FloatFormat

NumberFormat.register(_PositConfig)
NumberFormat.register(_FloatFormat)

__all__ = [
    "NumberFormat",
    "FixedPointFormat",
    "fixed_point_quantize",
    "fixed_point_to_bits",
    "fixed_point_from_bits",
    "FormatSpecError",
    "parse_format",
    "as_format",
    "register_format",
    "available_formats",
    "FormatQuantizer",
    "get_quantizer",
    "clear_quantizer_cache",
    "quantizer_cache_info",
    "KERNEL_MAX_BITS",
    "active_kernel",
    "clear_kernel_cache",
    "get_kernel",
    "kernel_info",
    "reference_ops",
]
