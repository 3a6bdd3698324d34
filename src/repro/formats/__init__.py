"""Unified number-format type system: one protocol, one registry, one factory.

The paper's methodology is precisely about *swapping number formats* per
layer and per tensor role.  This package gives every format family used by
the reproduction — posit, reduced-precision float, and fixed point — one
uniform surface:

* :class:`NumberFormat` — the abstract base class of every format:
  ``quantize(x, mode=...)``, ``to_bits``/``from_bits``, ``maxpos``/
  ``minpos``/``bits``, ``name``, and ``spec()``.  It defines the three codec
  methods once; :class:`~repro.posit.PositConfig`,
  :class:`~repro.posit.FloatFormat` and :class:`FixedPointFormat` (promoted
  here from ``repro.baselines``) subclass it and supply the rest.
* the **format registry** — spec-string parsing and round-tripping
  (:func:`parse_format`, :func:`as_format`, :func:`register_format`,
  :func:`available_formats`), so policies and experiment configs can be
  built from plain strings like ``"posit(8,1)"``, ``"fp8_e4m3"``,
  ``"fixed(16,13)"``, or ``"fp32"``.
* the **cached quantizer factory** — :func:`get_quantizer` memoizes one
  :class:`FormatQuantizer` per ``(format, rounding)`` key so the training
  hot path stops re-instantiating them for every layer.  A quantizer calls
  its format's codec methods, so there is one codec path per format.
* the **codec kernels** — :mod:`repro.formats.kernels` precomputes decode
  LUTs and grid-snap encode tables for every registry format with
  ``bits <= 16`` and serves ``quantize``/``to_bits``/``from_bits`` as
  whole-array numpy gathers; posits up to 32 bits and fp32 get table-free
  kernels that work on the float64 bit fields.  Each codec method of
  :class:`NumberFormat` is one call through :func:`codec_for`, which
  returns the format's kernel, or for other wide formats their family's
  vectorized module functions (:func:`reference_ops`, also the test
  oracle).  The rounding-mode rules live only in :func:`reference_ops`; a
  kernel hands any mode or lane it does not compute to them.
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
    clear_kernel_cache,
    codec_for,
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
    "clear_kernel_cache",
    "codec_for",
    "get_kernel",
    "kernel_info",
    "reference_ops",
]
