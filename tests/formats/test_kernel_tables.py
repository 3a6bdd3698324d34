"""LUT kernel tables against the whole-table oracle probes they replace.

A line kernel (:class:`repro.formats.kernels._LineKernel`) makes one bulk
oracle call, the decode of all ``2**bits`` codes, and derives its other
tables from that LUT: the sign/storage code table ``_code_out`` is the
decode LUT inverted, and the round-to-nearest thresholds ``_thr`` send a
midpoint tie to the even code.  A small fixed probe holds both to the
oracle at build time.  This file keeps the full derivations as the oracle:

* ``_code_out`` equals ``to_bits`` of every ``±line`` value, and ``_thr``
  equals the thresholds read off ``quantize`` of every midpoint, byte for
  byte and dtype included, for every narrow registry format and a few
  non-registry ones;
* a format whose ties do not follow the code's parity, at the ends of its
  table or only in the middle, or whose negative grid is not the positive
  one mirrored, gets no kernel: the build refuses it and the format is
  served by its reference ops;
* every narrow registry format still gets its table kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats import (
    KERNEL_MAX_BITS,
    FixedPointFormat,
    available_formats,
    clear_kernel_cache,
    get_kernel,
    kernel_info,
    kernels,
    reference_ops,
)
from repro.posit import BFLOAT16, POSIT_8_1, FloatFormat, PositConfig

#: Narrow formats outside the registry.
EXTRA_FORMATS = (PositConfig(12, 1), PositConfig(10, 3), FloatFormat(6, 5))


def _registry_narrow_formats():
    seen, out = set(), []
    for fmt in available_formats().values():
        if fmt.bits <= KERNEL_MAX_BITS and fmt not in seen:
            seen.add(fmt)
            out.append(fmt)
    return out


REGISTRY_NARROW = _registry_narrow_formats()
#: The formats served by a line kernel: every narrow one but fixed point.
LINE_FORMATS = sorted((fmt for fmt in REGISTRY_NARROW + list(EXTRA_FORMATS)
                       if not isinstance(fmt, FixedPointFormat)),
                      key=lambda f: f.spec())
LINE_IDS = [fmt.spec() for fmt in LINE_FORMATS]


def _assert_same_table(table: np.ndarray, expected: np.ndarray) -> None:
    assert table.dtype == expected.dtype
    assert table.shape == expected.shape
    assert table.tobytes() == expected.tobytes()


def _probed_code_out(line_vals: np.ndarray, ref) -> np.ndarray:
    """``to_bits`` of every ``+line`` then every ``-line`` value."""
    pos = np.asarray(ref.to_bits(line_vals, "nearest"), dtype=np.int64)
    neg = np.asarray(ref.to_bits(-line_vals, "nearest"), dtype=np.int64)
    return np.concatenate((pos, neg))


def _probed_thr(line_vals: np.ndarray, ref) -> np.ndarray:
    """Nearest thresholds with every midpoint's tie read off ``quantize``."""
    mids = 0.5 * (line_vals[:-1] + line_vals[1:])
    tie_hi = np.asarray(ref.quantize(mids, "nearest")) == line_vals[1:]
    return np.append(np.where(tie_hi, np.nextafter(mids, -np.inf), mids), np.inf)


@pytest.mark.parametrize("fmt", LINE_FORMATS, ids=LINE_IDS)
def test_code_out_is_to_bits_of_every_line_value(fmt):
    kernel = get_kernel(fmt)
    assert isinstance(kernel, kernels._LineKernel), fmt.spec()
    _assert_same_table(kernel._code_out,
                       _probed_code_out(kernel._line_vals, reference_ops(fmt)))


@pytest.mark.parametrize("fmt", LINE_FORMATS, ids=LINE_IDS)
def test_thr_is_the_full_midpoint_probe(fmt):
    kernel = get_kernel(fmt)
    assert isinstance(kernel, kernels._LineKernel), fmt.spec()
    _assert_same_table(kernel._thr, _probed_thr(kernel._line_vals, reference_ops(fmt)))


def test_every_narrow_registry_format_keeps_its_table_kernel():
    rows = {row["spec"]: row for row in kernel_info()}
    for fmt in REGISTRY_NARROW:
        expected = "fixed" if isinstance(fmt, FixedPointFormat) else "line"
        assert rows[fmt.spec()]["kind"] == expected, fmt.spec()


# --------------------------------------------------------------------------
# Formats the derivations do not fit: served by their reference ops
# --------------------------------------------------------------------------

def _grid(fmt) -> np.ndarray:
    """Zero and the positive values of ``fmt``, ascending."""
    values = reference_ops(fmt).from_bits(np.arange(1 << fmt.bits))
    return np.unique(np.abs(values[np.isfinite(values)]))


def _ties_up(fmt, lo=0.0, hi=np.inf):
    """``fmt``'s reference ops with the round-to-nearest ties of magnitudes
    in ``[lo, hi)`` going up.

    Each such input moves one ulp away from zero first, so a midpoint rounds
    to its upper neighbour and every other input rounds as before.
    """
    real = reference_ops(fmt)

    def away(x):
        x = np.asarray(x, dtype=np.float64)
        band = (np.abs(x) >= lo) & (np.abs(x) < hi)
        return np.where(band, np.nextafter(x, np.copysign(np.inf, x)), x)

    return kernels._ReferenceOps(
        fmt,
        lambda x, mode="nearest", rng=None: real.quantize(away(x), mode, rng),
        lambda x, mode="nearest", rng=None: real.to_bits(away(x), mode, rng),
        real.from_bits,
        real.map_mode,
    )


def _stretched_negatives(fmt, factor=1.5):
    """``fmt``'s reference ops with the negative grid stretched by ``factor``.

    Encode and decode agree with each other, but no negative value is the
    mirror of a positive one.
    """
    real = reference_ops(fmt)

    def squeeze(x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x < 0, x / factor, x)

    def stretch(v):
        v = np.asarray(v, dtype=np.float64)
        return np.where(v < 0, v * factor, v)

    return kernels._ReferenceOps(
        fmt,
        lambda x, mode="nearest", rng=None: stretch(real.quantize(squeeze(x), mode, rng)),
        lambda x, mode="nearest", rng=None: real.to_bits(squeeze(x), mode, rng),
        lambda bits: stretch(real.from_bits(bits)),
        real.map_mode,
    )


def _one_negative_short(fmt):
    """``fmt``'s reference ops with the code of ``-maxpos`` decoding to NaN,
    so the negative grid holds one value fewer than the positive one."""
    real = reference_ops(fmt)

    def from_bits(bits):
        v = np.asarray(real.from_bits(bits), dtype=np.float64)
        return np.where(v == -fmt.maxpos, np.nan, v)

    return kernels._ReferenceOps(fmt, real.quantize, real.to_bits, from_bits, real.map_mode)


@pytest.fixture
def serve_with(monkeypatch):
    """Build ``fmt``'s codec over the given reference ops; returns the codec."""
    real = kernels.reference_ops

    def serve(fmt, ops):
        monkeypatch.setattr(kernels, "reference_ops",
                            lambda f: ops if f == fmt else real(f))
        clear_kernel_cache()
        return kernels.codec_for(fmt)

    yield serve
    clear_kernel_cache()


@pytest.mark.parametrize("fmt", [POSIT_8_1, BFLOAT16], ids=["posit(8,1)", "bfloat16"])
def test_ties_that_always_round_up_get_no_kernel(serve_with, fmt):
    ops = _ties_up(fmt)
    assert serve_with(fmt, ops) is ops
    assert get_kernel(fmt) is None
    grid = _grid(fmt)
    mids = 0.5 * (grid[:-1] + grid[1:])
    np.testing.assert_array_equal(fmt.quantize(mids, mode="nearest"), grid[1:])


def test_ties_that_round_up_mid_table_get_no_kernel(serve_with):
    """Ties that go up only in the middle half of the table, which the
    probe's first and last 64 midpoints never reach."""
    fmt = PositConfig(12, 1)
    grid = _grid(fmt)
    ops = _ties_up(fmt, grid[grid.size // 4], grid[3 * grid.size // 4])
    assert serve_with(fmt, ops) is ops
    assert get_kernel(fmt) is None


@pytest.mark.parametrize("unmirror", [_stretched_negatives, _one_negative_short])
@pytest.mark.parametrize("fmt", [POSIT_8_1, BFLOAT16], ids=["posit(8,1)", "bfloat16"])
def test_a_negative_grid_that_is_not_mirrored_gets_no_kernel(serve_with, fmt, unmirror):
    ops = unmirror(fmt)
    assert serve_with(fmt, ops) is ops
    assert get_kernel(fmt) is None
    x = np.array([-fmt.maxpos, -1.0, -0.75, 1.0, 3.0])
    codes = fmt.to_bits(x, mode="nearest")
    np.testing.assert_array_equal(codes, ops.to_bits(x, "nearest"))
    np.testing.assert_array_equal(fmt.quantize(x, mode="nearest"), ops.quantize(x, "nearest"))
    np.testing.assert_array_equal(fmt.from_bits(codes), ops.from_bits(codes))
