"""Algebraic properties of the kernel codec path + oracle-preservation pins.

Complements the differential harness (``test_kernel_differential.py``): that
file proves kernel == oracle; this one proves the invariants every codec
path must satisfy, that array metadata survives the kernel's ravel/reshape
round trip, that the factory's quantizers dispatch to the kernels, and that
the module-level entry points stay alive and callable, because they *are*
the oracle.  The invariants run on the wide bitfield kernels (``posit(32,x)``
and fp32, above ``KERNEL_MAX_BITS``) as well.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats import kernels
from repro.formats import (
    KERNEL_MAX_BITS,
    FixedPointFormat,
    FormatQuantizer,
    available_formats,
    clear_kernel_cache,
    get_kernel,
    get_quantizer,
    kernel_info,
)
from repro.posit import FP32, POSIT_8_1, POSIT_16_1, POSIT_32_3, FloatFormat, PositConfig
from repro.posit import scalar as posit_scalar
from repro.posit.quantize import (
    bits_to_float,
    quantize as posit_quantize,
    quantize_to_bits,
)
from repro.posit.floatformats import BFLOAT16, FP16, float_from_bits, float_quantize, float_to_bits
from repro.formats.fixedpoint import (
    fixed_point_from_bits,
    fixed_point_quantize,
    fixed_point_to_bits,
)


#: Narrow formats outside the registry.
EXTRA_FORMATS = (PositConfig(12, 1), PositConfig(10, 3), FloatFormat(6, 5))


def _narrow_formats():
    seen, out = set(), list(EXTRA_FORMATS)
    for fmt in available_formats().values():
        if fmt.bits <= KERNEL_MAX_BITS and fmt not in seen:
            seen.add(fmt)
            out.append(fmt)
    return sorted(out, key=lambda f: f.spec())


NARROW_FORMATS = _narrow_formats()
FORMAT_IDS = [fmt.spec() for fmt in NARROW_FORMATS]
#: The registry formats above KERNEL_MAX_BITS, served by bitfield kernels.
WIDE_FORMATS = sorted({fmt for fmt in available_formats().values()
                       if fmt.bits > KERNEL_MAX_BITS}, key=lambda f: f.spec())
ALL_FORMATS = NARROW_FORMATS + WIDE_FORMATS
ALL_IDS = [fmt.spec() for fmt in ALL_FORMATS]


def _sample(fmt, size=2048, seed=42):
    rng = np.random.default_rng(seed)
    mag = np.exp(rng.uniform(np.log(float(fmt.minpos) / 4.0),
                             np.log(float(fmt.maxpos) * 4.0), size=size))
    sign = rng.choice([-1.0, 1.0], size=size)
    x = mag * sign
    x[:8] = [0.0, -0.0, np.inf, -np.inf, np.nan, fmt.minpos, -fmt.minpos, fmt.maxpos]
    return x


# --------------------------------------------------------------------------
# Algebraic invariants
# --------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["zero", "nearest"])
@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=ALL_IDS)
def test_round_trip_from_bits_of_to_bits_is_quantize(fmt, mode):
    x = _sample(fmt)
    if isinstance(fmt, FixedPointFormat):
        # Fixed point has no NaN code: quantize(NaN) stays NaN but to_bits
        # must produce *some* int, so the round trip only applies to inputs
        # the code space can express (oracle semantics, kernels included).
        x = x[~np.isnan(x)]
    via_bits = fmt.from_bits(fmt.to_bits(x, mode=mode))
    direct = fmt.quantize(x, mode=mode)
    assert np.array_equal(via_bits, direct, equal_nan=True)
    # Signed zeros are excluded on purpose: the storage code for zero is
    # canonical (always +0), while float ``quantize`` keeps -0.0 for
    # underflowed negatives — oracle behaviour the kernels reproduce.
    nonzero = np.isfinite(direct) & (direct != 0.0)
    assert np.array_equal(np.signbit(via_bits[nonzero]), np.signbit(direct[nonzero]))


@pytest.mark.parametrize("mode", ["zero", "nearest"])
@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=ALL_IDS)
def test_quantize_is_idempotent(fmt, mode):
    once = fmt.quantize(_sample(fmt), mode=mode)
    twice = fmt.quantize(once, mode=mode)
    assert np.array_equal(once, twice, equal_nan=True)
    # float quantize(-0.0) is +0.0 while quantize(-tiny) is -0.0, so the
    # zero *sign* is only stable from the second application on (oracle
    # semantics).  Nonzero signs must be exactly stable.
    nonzero = np.isfinite(once) & (once != 0.0)
    assert np.array_equal(np.signbit(once[nonzero]), np.signbit(twice[nonzero]))
    thrice = fmt.quantize(twice, mode=mode)
    assert np.array_equal(np.signbit(twice), np.signbit(thrice))


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=ALL_IDS)
def test_zero_encodes_canonically(fmt):
    """+0.0 and -0.0 map to the *same* storage code in every family."""
    bits = fmt.to_bits(np.array([0.0, -0.0]), mode="nearest")
    assert bits[0] == bits[1]
    decoded = fmt.from_bits(bits)
    assert decoded[0] == 0.0 and decoded[1] == 0.0


# --------------------------------------------------------------------------
# Array-metadata preservation through the ravel/gather/reshape round trip
# --------------------------------------------------------------------------

@pytest.mark.parametrize("fmt", [POSIT_8_1, POSIT_16_1, FP16, BFLOAT16,
                                 FixedPointFormat(2, 13), POSIT_32_3, FP32],
                         ids=lambda f: f.spec())
def test_shapes_dtypes_and_layouts_are_preserved(fmt):
    base = np.linspace(-2.0, 2.0, 24, dtype=np.float64)

    # 0-d input -> 0-d/scalar output, same as the oracle contract.
    scalar_q = fmt.quantize(np.float64(0.75), mode="nearest")
    assert np.ndim(scalar_q) == 0
    scalar_b = fmt.to_bits(np.float64(0.75), mode="nearest")
    assert np.ndim(scalar_b) == 0
    assert np.ndim(fmt.from_bits(scalar_b)) == 0

    # Empty input -> empty output of the right dtype.
    empty = fmt.quantize(np.empty((0, 3)), mode="nearest")
    assert empty.shape == (0, 3) and empty.dtype == np.float64
    empty_bits = fmt.to_bits(np.empty((0, 3)), mode="nearest")
    assert empty_bits.shape == (0, 3) and empty_bits.dtype == np.int64

    # Fortran-ordered 2-d input: element order must follow values, not memory.
    f_ordered = np.asfortranarray(base.reshape(4, 6))
    assert not f_ordered.flags["C_CONTIGUOUS"]
    q = fmt.quantize(f_ordered, mode="nearest")
    assert q.shape == (4, 6)
    assert np.array_equal(q, fmt.quantize(np.ascontiguousarray(f_ordered),
                                          mode="nearest"))

    # Non-contiguous strided view.
    strided = base.reshape(4, 6)[::2, ::3]
    assert not strided.flags["C_CONTIGUOUS"]
    qs = fmt.quantize(strided, mode="nearest")
    assert qs.shape == strided.shape
    assert np.array_equal(qs, fmt.quantize(strided.copy(), mode="nearest"))

    # Plain lists coerce like the oracle does.
    assert np.array_equal(fmt.to_bits([0.5, -0.5], mode="nearest"),
                          fmt.to_bits(np.array([0.5, -0.5]), mode="nearest"))


# --------------------------------------------------------------------------
# Dispatch
# --------------------------------------------------------------------------

def test_factory_quantizers_dispatch_to_the_kernel():
    q = get_quantizer(POSIT_8_1, "zero")
    assert isinstance(q, FormatQuantizer)
    # Equality, not identity: the quantizer cache is keyed by format
    # equality, so q.format may be an equal instance cached by whichever
    # test asked for posit(8,1) first.
    assert q.format == POSIT_8_1
    assert q.format.spec() == "posit(8,1)"
    assert q.rounding == "zero"
    kernel = get_kernel(POSIT_8_1)
    x = np.linspace(-3, 3, 64)
    assert np.array_equal(q(x), kernel.quantize(x, "zero"))
    assert np.array_equal(q.to_bits(x), kernel.to_bits(x, "zero"))
    assert np.array_equal(q.from_bits(q.to_bits(x)), q(x))


def test_oversized_bucket_table_falls_back_to_module_functions(monkeypatch):
    fmt = PositConfig(12, 1)  # needs 10,242 buckets
    monkeypatch.setattr(kernels, "_MAX_BUCKETS", 10_241)
    clear_kernel_cache()
    try:
        assert get_kernel(fmt) is None
        x = _sample(fmt)
        assert np.array_equal(fmt.to_bits(x, mode="nearest"),
                              quantize_to_bits(x, fmt, rounding="nearest"))
    finally:
        clear_kernel_cache()
    monkeypatch.undo()
    assert get_kernel(fmt) is not None


def test_every_wide_registry_format_has_a_bitfield_kernel():
    """So no wide check in the differential harness compares the module
    functions with themselves."""
    assert {fmt.spec() for fmt in WIDE_FORMATS} == {"fp32", "posit(32,2)", "posit(32,3)"}
    rows = {row["spec"]: row for row in kernel_info(WIDE_FORMATS)}
    for fmt in WIDE_FORMATS:
        assert get_kernel(fmt) is not None, fmt.spec()
        assert rows[fmt.spec()] == {"spec": fmt.spec(), "bits": 32, "kind": "bitfield",
                                    "decode_entries": 0, "line_entries": 0,
                                    "table_bytes": 0}
    # Dispatch goes to the kernel, bit-identical to the module function.
    x = np.linspace(-10, 10, 128)
    expected = posit_quantize(x, POSIT_32_3, rounding="zero")
    assert np.array_equal(POSIT_32_3.quantize(x, mode="zero"), expected)
    # Wider or other 32-bit layouts have no kernel and keep the module functions.
    for fmt in (PositConfig(40, 2), FloatFormat(11, 20), FixedPointFormat(15, 16)):
        assert get_kernel(fmt) is None, fmt.spec()


def test_kernel_info_reports_every_narrow_format():
    rows = {row["spec"]: row for row in kernel_info() + kernel_info(EXTRA_FORMATS)}
    for fmt in NARROW_FORMATS:
        row = rows[fmt.spec()]
        assert row["kind"] in ("line", "fixed")
        assert row["decode_entries"] == 1 << fmt.bits
        assert row["table_bytes"] > 0


# --------------------------------------------------------------------------
# Oracle preservation: the scalar entry points must stay alive (they are the
# ground truth the kernels are built from and verified against).
# --------------------------------------------------------------------------

def test_posit_scalar_entry_points_still_work():
    fmt = POSIT_8_1
    # Scalar single-value codec (the LUT build source).
    for code in (0, 1, fmt.nar_pattern - 1, fmt.nar_pattern, 200, 255):
        value = posit_scalar.decode(code, fmt)
        if not np.isnan(value):
            assert posit_scalar.encode(value, fmt) == code
    fields = posit_scalar.decode_fields(0b01000000, fmt)
    assert fields.sign == 0
    # Vectorized oracle module functions.
    x = np.linspace(-4, 4, 33)
    bits = quantize_to_bits(x, fmt, rounding="nearest")
    values = bits_to_float(bits, fmt)
    assert np.array_equal(values, posit_quantize(x, fmt, rounding="nearest"))


def test_float_and_fixed_module_oracles_still_work():
    x = np.linspace(-3, 3, 65)
    for fmt in (FP16, BFLOAT16):
        bits = float_to_bits(x, fmt, rounding="nearest")
        assert np.array_equal(float_from_bits(bits, fmt),
                              float_quantize(x, fmt, rounding="nearest"))
    fx = FixedPointFormat(2, 13)
    bits = fixed_point_to_bits(x, fx, rounding="nearest")
    assert np.array_equal(fixed_point_from_bits(bits, fx),
                          fixed_point_quantize(x, fx, rounding="nearest"))
