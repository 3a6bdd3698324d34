"""Vectorized LUT codec kernels for every registry format with ``bits <= 16``.

These kernels are the only production codec for narrow formats: the format
classes' ``quantize`` / ``to_bits`` / ``from_bits`` methods dispatch here
whenever a kernel exists for the format and supports the requested rounding
mode, and every quantizer handed out by :func:`repro.formats.get_quantizer`
calls those methods.  Wider formats (fp32, posit(32,x)) use their family's
vectorized module functions.  Each kernel is built from precomputed tables:

* **decode LUT** — all ``2**bits`` codes decoded once through the family's
  vectorized ``from_bits`` function, so ``from_bits`` becomes a single
  masked gather.
* **encode bucket table** — the strictly positive representable values form
  one monotone "code line" shared by posit and float formats (line index 0
  is zero).  A non-negative float64's bit pattern read as an int64 is
  monotone in its value, and every positive grid value has the same ``sh``
  low fraction bits clear, so ``bits >> sh`` keys buckets that each start on
  a grid value or hold none.  The round-toward-zero line index is then one
  shift and one gather, ``bucket.take((bits >> sh) - key_lo, mode="clip")``:
  bucket 0 sits just below ``minpos`` and catches zero, subnormals and
  underflow, and the clip saturates keys past ``maxpos`` (NaN and inf
  included).  The table holds 16-bit line indices, ``np.searchsorted`` of
  each bucket's first value, computed once at build time; posit(16,x)
  needs 229,378 buckets and a table above ``2**20`` is refused.
* **rounding tables** — round-to-nearest folds the tie-to-even rule into a
  per-interval threshold (probed from the module functions, so ties behave
  bit-for-bit identically), and stochastic rounding reuses their own
  ``(mag - lo) / (hi - lo)`` probability expression via a gap table.
* **sign/storage LUTs** — the final code/value is one gather from a
  ``2 * L``-entry table indexed by ``line_index + L * signbit``, built by
  running the module ``to_bits`` over ``±line_vals`` — two's-complement
  posit negatives, IEEE sign bits, and canonical-zero encoding all come out
  of the probe rather than being re-implemented (and re-diverged) here.

Special values (NaN, ±inf, exact ±0) are likewise probed per family and
patched via masks; the all-finite fast path pays one ``isfinite().all()``
check.

:func:`reference_ops` binds the module functions directly and stays the
test oracle: ``tests/formats/test_kernel_differential.py`` proves the
kernels bit-identical to it for every supported format and rounding mode,
and checks posit decoding against the scalar :func:`repro.posit.scalar.decode`.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

import numpy as np

from ..posit.config import PositConfig
from ..posit.floatformats import FloatFormat
from .fixedpoint import FixedPointFormat

__all__ = [
    "KERNEL_MAX_BITS",
    "active_kernel",
    "clear_kernel_cache",
    "get_kernel",
    "kernel_info",
    "kernels_enabled",
    "reference_ops",
]

#: Kernels are built for formats up to this storage width: a full decode LUT
#: is at most 2**16 float64 entries (512 KiB) and the encode-side tables are
#: of the same order, so the whole registry costs a few MiB.
KERNEL_MAX_BITS = 16

#: format -> kernel instance (or None for unsupported formats).
_KERNEL_CACHE: dict = {}
_CACHE_LOCK = threading.Lock()

#: A line kernel whose bucket table would exceed this many entries is not
#: built (the format keeps its module functions).  Every 16-bit registry
#: format fits with room to spare: posit(16,x) needs 229,378 buckets.
_MAX_BUCKETS = 1 << 20

#: Width of the float64 fraction field.
_FRACTION_BITS = 52


class _KernelUnsupported(Exception):
    """Raised at build time when a format violates the table assumptions."""


def kernels_enabled() -> bool:
    """Always ``True``: the kernels are the only narrow-format codec path.

    Kept so callers that record the codec configuration next to their
    measurements (``perfbench/host.py``) keep working.
    """
    return True


def clear_kernel_cache() -> None:
    """Drop all built kernels (mainly for tests measuring build cost)."""
    with _CACHE_LOCK:
        _KERNEL_CACHE.clear()


class _ReferenceOps:
    """The module-function oracle for one format.

    These callables never go through the format methods (which dispatch
    into the kernels), so they are safe to use from kernel builds and
    from the differential conformance harness as the ground truth.
    """

    __slots__ = ("fmt", "quantize", "to_bits", "from_bits", "map_mode")

    def __init__(self, fmt, quantize: Callable, to_bits: Callable,
                 from_bits: Callable, map_mode: Callable[[str], Optional[str]]):
        self.fmt = fmt
        self.quantize = quantize
        self.to_bits = to_bits
        self.from_bits = from_bits
        self.map_mode = map_mode


def reference_ops(fmt) -> Optional[_ReferenceOps]:
    """Oracle ``quantize``/``to_bits``/``from_bits`` for ``fmt`` (or ``None``).

    ``map_mode`` mirrors each family's mode handling: posit supports
    ``zero``/``nearest``/``stochastic`` natively (anything else returns
    ``None`` — the caller falls back to the module function, which raises
    the canonical error); float and fixed point map every non-stochastic
    mode to ``nearest``.
    """
    if isinstance(fmt, PositConfig):
        # The package re-exports the quantize *function*, so import the
        # module explicitly to reach its siblings.
        from ..posit.quantize import (
            ROUNDING_MODES, bits_to_float, quantize, quantize_to_bits)

        def _map(mode: str) -> Optional[str]:
            return mode if mode in ROUNDING_MODES else None

        return _ReferenceOps(
            fmt,
            lambda x, mode="zero", rng=None: quantize(x, fmt, rounding=mode, rng=rng),
            lambda x, mode="zero", rng=None: quantize_to_bits(x, fmt, rounding=mode, rng=rng),
            lambda bits: bits_to_float(bits, fmt),
            _map,
        )
    if isinstance(fmt, FloatFormat):
        from ..posit import floatformats as _ff

        def _map(mode: str) -> Optional[str]:
            return "stochastic" if mode == "stochastic" else "nearest"

        return _ReferenceOps(
            fmt,
            lambda x, mode="nearest", rng=None: _ff.float_quantize(
                x, fmt, rng=rng, rounding=_map(mode)),
            lambda x, mode="nearest", rng=None: _ff.float_to_bits(
                x, fmt, rounding=_map(mode), rng=rng),
            lambda bits: _ff.float_from_bits(bits, fmt),
            _map,
        )
    if isinstance(fmt, FixedPointFormat):
        from . import fixedpoint as _fx

        def _map(mode: str) -> Optional[str]:
            return "stochastic" if mode == "stochastic" else "nearest"

        return _ReferenceOps(
            fmt,
            lambda x, mode="nearest", rng=None: _fx.fixed_point_quantize(
                x, fmt, rounding=_map(mode), rng=rng),
            lambda x, mode="nearest", rng=None: _fx.fixed_point_to_bits(
                x, fmt, rounding=_map(mode), rng=rng),
            lambda bits: _fx.fixed_point_from_bits(bits, fmt),
            _map,
        )
    return None


def _build_decode_lut(fmt, ref: _ReferenceOps) -> np.ndarray:
    codes = np.arange(1 << fmt.bits, dtype=np.int64)
    return np.asarray(ref.from_bits(codes), dtype=np.float64)


class _LineKernel:
    """LUT codec for sign-magnitude code lines (posit and float families).

    The strictly positive representable values, sorted ascending with a
    leading zero, form the "line" ``line_vals[0..L-1]``.  Every operation is
    line-index arithmetic followed by gathers; see the module docstring for
    the table layout.
    """

    def __init__(self, fmt, ref: _ReferenceOps):
        self.fmt = fmt
        self._ref = ref
        self._mask = (np.int64(1) << fmt.bits) - 1
        self._decode_lut = _build_decode_lut(fmt, ref)

        finite = np.isfinite(self._decode_lut)
        positive = np.sort(self._decode_lut[finite & (self._decode_lut > 0)])
        if positive.size == 0 or np.any(np.diff(positive) <= 0):
            raise _KernelUnsupported("positive values are not strictly increasing")
        line_vals = np.concatenate(([0.0], positive))
        self._line_vals = line_vals
        self._L = line_vals.size

        self._build_buckets(line_vals)
        self._build_rounding_tables(line_vals, ref)
        self._build_output_luts(line_vals, ref)
        self._self_check(line_vals)

    # -- build ------------------------------------------------------------

    def _build_buckets(self, line_vals: np.ndarray) -> None:
        # ``sh`` counts the low fraction bits clear in every positive grid
        # value, so each grid value starts a bucket (see the module docstring).
        bits = line_vals[1:].view(np.int64)
        low = int(np.bitwise_or.reduce(bits & ((1 << _FRACTION_BITS) - 1)))
        sh = (low & -low).bit_length() - 1 if low else _FRACTION_BITS
        key_lo = (int(bits[0]) >> sh) - 1  # bucket 0 sits just below minpos
        n = (int(bits[-1]) >> sh) - key_lo + 1
        if n > _MAX_BUCKETS:
            raise _KernelUnsupported(f"{n} buckets exceed {_MAX_BUCKETS}")
        starts = (np.arange(key_lo, key_lo + n, dtype=np.int64) << sh).view(np.float64)
        self._bucket = (np.searchsorted(line_vals, starts, side="right") - 1).astype(np.int16)
        self._sh = np.int64(sh)
        self._key_lo = np.int64(key_lo)

    def _build_rounding_tables(self, line_vals: np.ndarray, ref: _ReferenceOps) -> None:
        # Nearest: one threshold per interval [v_l, v_{l+1}).  The midpoint
        # uses the same float64 expression as the oracle, and the tie
        # direction (to the even code) is probed rather than re-derived:
        # quantizing the midpoint itself tells us which side wins.
        mids = 0.5 * (line_vals[:-1] + line_vals[1:])
        tie_hi = np.asarray(ref.quantize(mids, "nearest")) == line_vals[1:]
        thr = np.where(tie_hi, np.nextafter(mids, -np.inf), mids)
        self._thr = np.append(thr, np.inf)
        # Stochastic: P(hi) = (mag - lo) / gap, the oracle's own expression.
        self._gap = np.append(np.diff(line_vals), np.inf)

    def _build_output_luts(self, line_vals: np.ndarray, ref: _ReferenceOps) -> None:
        pos_codes = np.asarray(ref.to_bits(line_vals, "nearest"), dtype=np.int64)
        neg_codes = np.asarray(ref.to_bits(-line_vals, "nearest"), dtype=np.int64)
        if pos_codes[0] != neg_codes[0]:
            raise _KernelUnsupported("zero is not canonically encoded")
        self._code_out = np.concatenate((pos_codes, neg_codes))

        val_out = np.concatenate((line_vals, -line_vals))
        # The two zero slots hold what the oracle returns for magnitudes that
        # round to zero (posit: +0.0 for both signs; float: the sign is kept,
        # so a negative underflow yields -0.0).  Probed with a magnitude
        # deterministically below every mode's round-up region.
        tiny = 0.25 * line_vals[1]
        probe = np.asarray(ref.quantize(np.array([tiny, -tiny]), "nearest"))
        val_out[0], val_out[self._L] = probe[0], probe[1]
        self._val_out = val_out

        specials = np.array([np.nan, np.inf, -np.inf])
        codes = np.asarray(ref.to_bits(specials, "nearest"), dtype=np.int64)
        self._code_nan, self._code_pinf, self._code_ninf = (
            codes[0], codes[1], codes[2])
        vals = np.asarray(ref.quantize(specials, "nearest"))
        self._val_nan, self._val_pinf, self._val_ninf = vals[0], vals[1], vals[2]
        zeros = np.asarray(ref.quantize(np.array([0.0, -0.0]), "nearest"))
        self._val_pzero, self._val_nzero = zeros[0], zeros[1]

    def _self_check(self, line_vals: np.ndarray) -> None:
        # Round-toward-zero is exact on the tables iff every grid value maps
        # to itself and every value one ulp below maps to its lower
        # neighbour.  Checking both exhaustively at build time turns any
        # broken assumption into a clean fallback instead of silent drift.
        idx = self._line_index(line_vals)
        below = self._line_index(np.nextafter(line_vals[1:], 0.0))
        if (not np.array_equal(idx, np.arange(self._L))
                or not np.array_equal(below, np.arange(self._L - 1))):
            raise _KernelUnsupported("encode tables fail the grid self-map check")

    # -- hot path ---------------------------------------------------------

    def _line_index(self, mag: np.ndarray) -> np.ndarray:
        """Round-toward-zero line index of contiguous non-negative magnitudes.

        NaN/inf lanes land on the last line index; the caller patches them
        from the probed specials.
        """
        key = mag.view(np.int64) >> self._sh
        key -= self._key_lo
        return self._bucket.take(key, mode="clip")

    def _pick(self, mag: np.ndarray, mode: str,
              rng: Optional[np.random.Generator]) -> np.ndarray:
        eff = self._ref.map_mode(mode)
        lo = self._line_index(mag)
        if eff == "zero":
            return lo
        if eff == "nearest":
            return lo + (mag > self._thr.take(lo, mode="clip"))
        if eff == "stochastic":
            if rng is None:
                rng = np.random.default_rng()
            # inf lanes give (inf - maxpos) / inf = NaN, which never rounds
            # up; the caller patches them.
            with np.errstate(invalid="ignore"):
                prob = ((mag - self._line_vals.take(lo, mode="clip"))
                        / self._gap.take(lo, mode="clip"))
            return lo + (rng.random(mag.shape) < prob)
        raise ValueError(f"unknown rounding mode {mode!r}")

    def supports(self, mode: str) -> bool:
        return self._ref.map_mode(mode) is not None

    def quantize(self, x, mode: str, rng: Optional[np.random.Generator] = None):
        arr = np.asarray(x, dtype=np.float64)
        flat = arr.ravel()
        mag = np.abs(flat)
        neg = np.signbit(flat)
        clean = bool(np.isfinite(flat).all())
        pick = self._pick(mag, mode, rng)
        out = self._val_out.take(pick + neg * self._L, mode="clip")
        zero = mag == 0.0
        if zero.any():
            # Exact ±0 inputs bypass the underflow slots: the oracle returns
            # its canonical zero for them (e.g. float_quantize(-0.0) is +0.0
            # even though float_quantize(-tiny) is -0.0).
            out[zero] = np.where(neg[zero], self._val_nzero, self._val_pzero)
        if not clean:
            out[np.isnan(flat)] = self._val_nan
            out[flat == np.inf] = self._val_pinf
            out[flat == -np.inf] = self._val_ninf
        return out[0] if arr.ndim == 0 else out.reshape(arr.shape)

    def to_bits(self, x, mode: str, rng: Optional[np.random.Generator] = None):
        arr = np.asarray(x, dtype=np.float64)
        flat = arr.ravel()
        mag = np.abs(flat)
        neg = np.signbit(flat)
        clean = bool(np.isfinite(flat).all())
        pick = self._pick(mag, mode, rng)
        out = self._code_out.take(pick + neg * self._L, mode="clip")
        if not clean:
            out[np.isnan(flat)] = self._code_nan
            out[flat == np.inf] = self._code_pinf
            out[flat == -np.inf] = self._code_ninf
        return out[0] if arr.ndim == 0 else out.reshape(arr.shape)

    def from_bits(self, bits):
        arr = np.asarray(bits, dtype=np.int64)
        out = self._decode_lut[(arr.ravel() & self._mask)]
        return out[0] if arr.ndim == 0 else out.reshape(arr.shape)

    # -- reporting --------------------------------------------------------

    @property
    def table_nbytes(self) -> int:
        return sum(a.nbytes for a in (
            self._decode_lut, self._line_vals, self._thr, self._gap,
            self._code_out, self._val_out, self._bucket))

    def info(self) -> dict:
        return {
            "spec": self.fmt.spec(),
            "bits": self.fmt.bits,
            "kind": "line",
            "decode_entries": int(self._decode_lut.size),
            "line_entries": int(self._L),
            "table_bytes": int(self.table_nbytes),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"_LineKernel({self.fmt.spec()}, L={self._L})"


class _FixedKernel:
    """Decode-LUT kernel for fixed point.

    The fixed-point encode side is already pure numpy arithmetic at the
    floor the benchmark gate measures against, and its two's-complement code
    space is asymmetric (``-2**I`` has no positive twin), so only
    ``from_bits`` gains a table; :class:`FixedPointFormat` encodes with its
    module functions.
    """

    def __init__(self, fmt: FixedPointFormat, ref: _ReferenceOps):
        self.fmt = fmt
        self._mask = (np.int64(1) << fmt.bits) - 1
        self._decode_lut = _build_decode_lut(fmt, ref)

    def supports(self, mode: str) -> bool:
        """No rounding mode: this kernel only decodes."""
        return False

    def from_bits(self, bits):
        arr = np.asarray(bits, dtype=np.int64)
        out = self._decode_lut[(arr.ravel() & self._mask)]
        return out[0] if arr.ndim == 0 else out.reshape(arr.shape)

    @property
    def table_nbytes(self) -> int:
        return int(self._decode_lut.nbytes)

    def info(self) -> dict:
        return {
            "spec": self.fmt.spec(),
            "bits": self.fmt.bits,
            "kind": "fixed",
            "decode_entries": int(self._decode_lut.size),
            "line_entries": 0,
            "table_bytes": int(self.table_nbytes),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"_FixedKernel({self.fmt.spec()})"


def _build_kernel(fmt):
    ref = reference_ops(fmt)
    if ref is None or fmt.bits > KERNEL_MAX_BITS:
        return None
    try:
        if isinstance(fmt, FixedPointFormat):
            return _FixedKernel(fmt, ref)
        return _LineKernel(fmt, ref)
    except _KernelUnsupported:
        return None


def get_kernel(fmt):
    """The (cached, lazily built) kernel for ``fmt``, or ``None``.

    Unsupported formats — ``bits > 16``, unknown families, or formats whose
    value grid violates the table assumptions — cache ``None`` and keep the
    vectorized module functions.
    """
    kernel = _KERNEL_CACHE.get(fmt, False)
    if kernel is not False:
        return kernel
    with _CACHE_LOCK:
        kernel = _KERNEL_CACHE.get(fmt, False)
        if kernel is False:
            kernel = _build_kernel(fmt)
            _KERNEL_CACHE[fmt] = kernel
    return kernel


def active_kernel(fmt, mode: Optional[str] = None):
    """The kernel for ``fmt`` if it serves ``mode``, else ``None``."""
    kernel = get_kernel(fmt)
    if kernel is None or (mode is not None and not kernel.supports(mode)):
        return None
    return kernel


def kernel_info(formats=None) -> list:
    """Build (if needed) and describe kernels — the README memory-cost table.

    ``formats`` defaults to every distinct registry format; unsupported
    formats report ``kind="none"`` with zero table bytes.
    """
    if formats is None:
        from .registry import available_formats

        seen, formats = set(), []
        for fmt in available_formats().values():
            if fmt not in seen:
                seen.add(fmt)
                formats.append(fmt)
    rows = []
    for fmt in sorted(formats, key=lambda f: f.spec()):
        kernel = get_kernel(fmt)
        if kernel is None:
            rows.append({"spec": fmt.spec(), "bits": fmt.bits, "kind": "none",
                         "decode_entries": 0, "line_entries": 0, "table_bytes": 0})
        else:
            rows.append(kernel.info())
    return rows
