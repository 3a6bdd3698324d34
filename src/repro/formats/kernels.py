"""Vectorized codec kernels for every registry format.

These kernels are the production codec.  Each format class's ``quantize`` /
``to_bits`` / ``from_bits`` method is one call through :func:`codec_for`,
which returns the format's cached kernel, or for a kernel-less format its
:func:`reference_ops`; every quantizer handed out by
:func:`repro.formats.get_quantizer` calls those methods.  Every kernel
serves every rounding mode its family accepts, handing the modes and lanes
it does not compute to its own reference ops, and the mode rules live only
in :func:`reference_ops`: posit knows ``zero``/``nearest``/``stochastic``,
float and fixed point round to nearest in every mode but ``stochastic``.

Formats with ``bits <= 16`` get a LUT kernel.  Two table-free "bitfield"
kernels cover the wide registry formats (see :class:`_PositBitKernel` and
:class:`_Binary32Kernel`): posits with ``16 < n <= 32`` read the regime,
exponent and fraction straight off the float64 bit pattern, and the binary32
layout is a float32 cast.  Each LUT kernel is built from precomputed tables:

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
* **sign/storage LUTs** — the final code/value is one gather from a
  ``2 * L``-entry table indexed by ``line_index + L * signbit``.  The code
  table is the decode LUT inverted: each positive line value's code, then
  the code of each negative value by magnitude, so two's-complement posit
  negatives and IEEE sign bits come out of the decode rather than being
  re-implemented here.  Zero's two slots hold the oracle's canonical zero
  code, probed, and a build whose negative grid is not the positive one
  mirrored is refused.
* **rounding tables** — round-to-nearest folds the tie rule into a
  per-interval threshold at the oracle's own float64 midpoint.  A tie goes
  to the even code, up where the lower code is odd, except in interval 0
  (zero to ``minpos``), which follows each family's underflow rule and is
  probed.  Stochastic rounding reuses the oracle's ``(mag - lo) / (hi -
  lo)`` probability expression via a gap table.

The decode is the only bulk oracle call.  A small fixed probe holds both
derivations to the module functions at build time: ``quantize`` of the
first and last 64 midpoints and 256 hashed ones, and ``to_bits`` of the
``±line`` values at the same kind of indices.  A mismatch raises
:class:`_KernelUnsupported`, and the format keeps its reference ops.
Special values (NaN, ±inf, exact ±0) are likewise probed per family and
patched via masks; the all-finite fast path pays one ``isfinite().all()``
check.

:func:`reference_ops` binds the module functions directly and stays the
test oracle: ``tests/formats/test_kernel_differential.py`` proves the
kernels bit-identical to it for every supported format and rounding mode,
and checks posit coding against the scalar :mod:`repro.posit.scalar` codec.
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
    "clear_kernel_cache",
    "codec_for",
    "get_kernel",
    "kernel_info",
    "kernels_enabled",
    "reference_ops",
]

#: LUT kernels are built for formats up to this storage width: a full decode
#: LUT is at most 2**16 float64 entries (512 KiB) and the encode-side tables
#: are of the same order, so the whole registry costs a few MiB.  Wider
#: formats get a table-free kernel or none.
KERNEL_MAX_BITS = 16

#: format -> its codec: the kernel, or the reference ops of a kernel-less format.
_CODECS: dict = {}
_CACHE_LOCK = threading.Lock()

#: A line kernel whose bucket table would exceed this many entries is not
#: built (the format keeps its module functions).  Every 16-bit registry
#: format fits with room to spare: posit(16,x) needs 229,378 buckets.
_MAX_BUCKETS = 1 << 20

#: Width of the float64 fraction field.
_FRACTION_BITS = 52

#: The float64 exponent bias in place (``1.0``'s bit pattern), the magnitude
#: mask and the sign bit, all as int64.
_F64_BIAS = np.int64(1023 << _FRACTION_BITS)
_F64_ABS = np.int64((1 << 63) - 1)
_F64_SIGN = np.int64(-(1 << 63))

#: The posit bitfield kernel walks its input in blocks of this many elements:
#: each temporary is then 64 KiB, stays in cache and is recycled by the heap,
#: where whole-array temporaries would fault in fresh pages on every call.
_BLOCK = 8192

#: The widest posit the bitfield kernel serves (the differential harness pins
#: posit(32,x)); wider posits keep the module functions.
_POSIT_BITFIELD_MAX_BITS = 32

#: A LUT build checks the tables it derives against the oracle on the first
#: and last ``_PROBE_EDGE`` entries and ``_PROBE_DRAWS`` scattered ones: the
#: high words of ``k * _PROBE_HASH`` for ``k = 1.._PROBE_DRAWS`` (Fibonacci
#: hashing), a fixed sequence that needs no random generator.
_PROBE_EDGE = 64
_PROBE_DRAWS = 256
_PROBE_HASH = np.uint64(0x9E3779B97F4A7C15)

_SPECIALS = np.array([np.nan, np.inf, -np.inf])


class _KernelUnsupported(Exception):
    """Raised at build time when a format violates the table assumptions."""


def _probe_indices(n: int) -> np.ndarray:
    """Sorted table indices a build probes: both ends and scattered ones.

    A hash and a mask, not ``numpy.random`` and ``np.union1d``: in a process
    that has not imported them, the first costs ~2 MB of resident memory and
    ~6 ms, and the second imports ``numpy.ma`` for another 1.5 MB.
    """
    probed = np.zeros(n, dtype=bool)
    probed[:_PROBE_EDGE] = probed[-_PROBE_EDGE:] = True
    hashed = np.arange(1, _PROBE_DRAWS + 1, dtype=np.uint64) * _PROBE_HASH
    probed[(hashed >> np.uint64(32)) % np.uint64(n)] = True
    return np.flatnonzero(probed)


def kernels_enabled() -> bool:
    """Always ``True``: the kernels are the only narrow-format codec path.

    Kept so callers that record the codec configuration next to their
    measurements (``perfbench/host.py``) keep working.
    """
    return True


def clear_kernel_cache() -> None:
    """Drop every cached codec, kernels and reference ops alike (mainly for
    tests measuring build cost)."""
    with _CACHE_LOCK:
        _CODECS.clear()


class _ReferenceOps:
    """The module-function oracle for one format.

    These callables never go through the format methods (which call
    :func:`codec_for`), so they are safe to use from kernel builds and
    from the differential conformance harness as the ground truth.  They
    are also the codec of every format that has no kernel.
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

    ``map_mode`` is the one statement of each family's mode handling: posit
    knows ``zero``/``nearest``/``stochastic`` (anything else maps to
    ``None``, and the module function raises the canonical error); float
    and fixed point map every mode but ``stochastic`` to ``nearest``.
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

    def _map(mode: str) -> str:  # float and fixed point, posit's "zero" included
        return "stochastic" if mode == "stochastic" else "nearest"

    if isinstance(fmt, FloatFormat):
        from ..posit import floatformats as _ff

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
        # The inversion's temporaries are freed before the bucket build
        # allocates its larger ones: holding them across it raised
        # train_posit's peak RSS by 1.5 MB.
        self._invert_decode_lut(ref)
        line_vals = self._line_vals
        self._build_buckets(line_vals)
        self._build_rounding_tables(line_vals, ref)
        self._self_check(line_vals)

    # -- build ------------------------------------------------------------

    def _invert_decode_lut(self, ref: _ReferenceOps) -> None:
        """The line and the sign/storage LUTs, from the decode LUT inverted:
        the codes of the positive values in ascending order, then those of
        the negative ones by magnitude."""
        lut = self._decode_lut
        finite = np.isfinite(lut)
        pos_codes = np.flatnonzero(finite & (lut > 0))
        pos_codes = pos_codes[np.argsort(lut[pos_codes], kind="stable")]
        positive = lut[pos_codes]
        if positive.size == 0 or np.any(np.diff(positive) <= 0):
            raise _KernelUnsupported("positive values are not strictly increasing")
        neg_codes = np.flatnonzero(finite & (lut < 0))
        neg_codes = neg_codes[np.argsort(-lut[neg_codes], kind="stable")]
        if not np.array_equal(-lut[neg_codes], positive):
            raise _KernelUnsupported("the negative grid is not the positive one mirrored")
        self._line_vals = np.concatenate(([0.0], positive))
        self._L = self._line_vals.size
        self._build_output_luts(self._line_vals, pos_codes, neg_codes, ref)

    def _build_output_luts(self, line_vals: np.ndarray, pos_codes: np.ndarray,
                           neg_codes: np.ndarray, ref: _ReferenceOps) -> None:
        # Codes: the inverted decode LUT, zero's slots holding the oracle's
        # canonical zero code.  A probe of ``to_bits`` over ±line values
        # (zero and -0.0 among them) holds the inversion to the oracle.
        probe = _probe_indices(self._L)
        x = np.concatenate((line_vals[probe], -line_vals[probe], _SPECIALS))
        codes = np.asarray(ref.to_bits(x, "nearest"), dtype=np.int64)
        zero = codes[:1]                     # to_bits(0.0): probe[0] == 0
        self._code_out = np.concatenate((zero, pos_codes, zero, neg_codes))
        if not np.array_equal(codes[:-3], self._code_out[np.append(probe, probe + self._L)]):
            raise _KernelUnsupported("the inverted decode LUT disagrees with to_bits")
        self._code_nan, self._code_pinf, self._code_ninf = codes[-3:]

        val_out = np.concatenate((line_vals, -line_vals))
        # The two zero slots hold what the oracle returns for magnitudes that
        # round to zero (posit: +0.0 for both signs; float: the sign is kept,
        # so a negative underflow yields -0.0).  Probed with a magnitude
        # deterministically below every mode's round-up region.
        tiny = 0.25 * line_vals[1]
        vals = np.asarray(ref.quantize(
            np.concatenate(([tiny, -tiny, 0.0, -0.0], _SPECIALS)), "nearest"))
        val_out[0], val_out[self._L] = vals[0], vals[1]
        self._val_out = val_out
        self._val_pzero, self._val_nzero = vals[2], vals[3]
        self._val_nan, self._val_pinf, self._val_ninf = vals[4:]

    def _build_buckets(self, line_vals: np.ndarray) -> None:
        # ``sh`` counts the low fraction bits clear in every positive grid
        # value, so each grid value starts a bucket (see the module docstring).
        # Keep the searchsorted: it frees ~1.8 MB of temporaries (posit(16,x)),
        # which raises glibc's dynamic mmap and trim thresholds past the 1 MB
        # temporaries of a 2**17-element codec call.  A scatter plus
        # ``np.maximum.accumulate`` builds the same table without them, and a
        # fresh `codec` benchmark process then took 53-401 minor page faults
        # per call, against ~0.01 (README "Codec kernels").  Replace it only
        # once the hot paths no longer depend on heap history.
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
        # uses the same float64 expression as the oracle, and a tie goes to
        # the even code: up where the lower code is odd.  Interval 0 (zero
        # to minpos) follows the family's underflow rule instead, so its
        # tie is probed, and a probe of midpoints holds the rest to the
        # oracle.
        mids = 0.5 * (line_vals[:-1] + line_vals[1:])
        tie_hi = (self._code_out[:mids.size] & 1) == 1
        probe = _probe_indices(mids.size)
        probed = np.asarray(ref.quantize(mids[probe], "nearest")) == line_vals[probe + 1]
        tie_hi[0] = probed[0]                # probe[0] == 0
        if not np.array_equal(tie_hi[probe], probed):
            raise _KernelUnsupported("midpoint ties do not go to the even code")
        thr = np.where(tie_hi, np.nextafter(mids, -np.inf), mids)
        self._thr = np.append(thr, np.inf)
        # Stochastic: P(hi) = (mag - lo) / gap, the oracle's own expression.
        self._gap = np.append(np.diff(line_vals), np.inf)

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
    """Decode-LUT kernel for fixed point; encode is the module functions.

    Fixed-point encode is a few whole-array numpy passes, and its
    two's-complement code space is asymmetric (``-2**I`` has no positive
    twin), so only ``from_bits`` gains a table.  On a 2-vCPU Xeon VM, over
    2**17 normal draws (median of 200 calls; six runs, which moved with
    the host's state), fixed(16,13) encode cost about what posit(8,1)'s
    LUT encode does: ``quantize`` 3-11 and ``to_bits`` 11-18 ns per element
    against 6-16, while the decode LUT took 2-10 ns per element against
    16-20 for the arithmetic.  ``quantize`` and ``to_bits`` are the
    reference ops' own functions, bound without a call layer in between.
    """

    def __init__(self, fmt: FixedPointFormat, ref: _ReferenceOps):
        self.fmt = fmt
        self.quantize, self.to_bits = ref.quantize, ref.to_bits
        self._mask = (np.int64(1) << fmt.bits) - 1
        self._decode_lut = _build_decode_lut(fmt, ref)

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


class _BitfieldKernel:
    """Shared reporting of the table-free wide kernels."""

    def info(self) -> dict:
        return {
            "spec": self.fmt.spec(),
            "bits": self.fmt.bits,
            "kind": "bitfield",
            "decode_entries": 0,
            "line_entries": 0,
            "table_bytes": 0,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.fmt.spec()})"


class _PositBitKernel(_BitfieldKernel):
    """Table-free codec for posits with ``16 < n <= 32``, on the float64 bits.

    A magnitude's float64 pattern ``u`` reads as ``t = u - bits(1.0) =
    (E << 52) | fraction`` with ``E`` the unbiased exponent, so the regime is
    ``k = t >> (52 + es)`` and ``t``'s low ``52 + es`` bits are the posit's
    exponent field followed by its fraction.  The posit keeps all but the
    ``s = 52 + es - (remaining bits after the regime)`` lowest of them, so:

    * ``quantize`` rounds ``u`` itself at bit ``s`` and puts the sign back;
      a carry runs into the float64 exponent exactly as the posit code
      carries into the next exponent or regime;
    * ``to_bits`` adds the same rounded field to the regime's base code (a
      power of two below one, ``2**(n-1)`` minus a power of two from one
      up) and negates negatives in two's complement;
    * ``from_bits`` finds the regime run as the bit length of the
      first-bit-normalized body (via the float64 cast) and assembles
      ``((E + 1023) << 52) | fraction``.

    Round-to-nearest breaks ties toward the even *posit code*, whose last
    bit is bit ``s`` of ``t``.  That is the unbiased exponent's last bit when
    the posit keeps no fraction bits, the inverse of the biased float64 bit
    there (1023 is odd).

    The integer path serves the "fast" regimes, which keep every exponent
    bit and put the code's last bit inside the exponent|fraction field.  The
    remaining lanes are rare: zeros (code 0), and NaN, ±inf, magnitudes
    below ``minpos`` or at and above ``maxpos``, and the outermost regimes.
    Those regimes keep fewer than ``es`` exponent bits, so the oracle rounds
    at the arithmetic midpoint of two neighbours that are whole binades
    apart, not at a bit boundary.  They go through the module functions.
    Stochastic rounding (and an unknown mode's error) also stays there,
    with the caller's ``rng``, so a seeded run keeps its random stream.
    """

    def __init__(self, fmt: PositConfig, ref: _ReferenceOps):
        n, es = fmt.n, fmt.es
        body = n - 1
        self.fmt = fmt
        self._ref = ref
        # Fast regimes leave at least max(es, 1) bits after the regime: with
        # rw regime bits that is k in [k_lo, k_hi] below.
        keep = max(es, 1)
        k_lo, k_hi = keep + 1 - body, body - keep - 2
        lo = ((k_lo << es) + 1023) << _FRACTION_BITS
        hi = ((((k_hi + 1) << es) + 1023) << _FRACTION_BITS) - 1
        self._fast_lo = np.int64(lo)
        self._fast_span = np.uint64(hi - lo)
        self._field_bits = np.int64(_FRACTION_BITS + es)
        self._field = np.int64((1 << (_FRACTION_BITS + es)) - 1)
        # With run = k for k >= 0 and -k - 1 below (rw = run + 2 regime bits
        # either way), the dropped count is s = run + drop0 and the regime's
        # base code is 2**body - 2**(rem + 1) or 2**rem, rem = body - 2 - run.
        self._drop0 = np.int64(_FRACTION_BITS + es + 2 - body)
        self._rem1 = np.int64(body - 1)
        self._top = np.int64(1 << body)
        self._mask = np.int64((1 << n) - 1)
        # Decode: sign-extend the code from n bits and the body from n - 1.
        self._wrap = np.int64(64 - n)
        self._wrap_body = np.int64(65 - n)
        self._k0 = np.int64(body + 1022)
        self._shift0 = np.int64(_FRACTION_BITS + es + 1 + 1022)
        self._minpos_bits = np.float64(fmt.minpos).view(np.int64)

    # -- encode -----------------------------------------------------------

    def quantize(self, x, mode: str, rng: Optional[np.random.Generator] = None):
        if mode not in ("zero", "nearest"):
            return self._ref.quantize(x, mode, rng)
        return self._encode(x, mode, codes=False)

    def to_bits(self, x, mode: str, rng: Optional[np.random.Generator] = None):
        if mode not in ("zero", "nearest"):
            return self._ref.to_bits(x, mode, rng)
        return self._encode(x, mode, codes=True)

    def _encode(self, x, mode: str, codes: bool):
        arr = np.asarray(x, dtype=np.float64)
        raw = arr.ravel().view(np.int64)
        out = np.empty_like(raw)
        for start in range(0, raw.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            self._encode_block(raw[block], out[block], mode, codes)
        if not codes:
            out = out.view(np.float64)
        return out[0] if arr.ndim == 0 else out.reshape(arr.shape)

    def _encode_block(self, raw, out, mode: str, codes: bool) -> None:
        mag = raw & _F64_ABS
        odd = np.subtract(mag, self._fast_lo).view(np.uint64) > self._fast_span
        t = mag - _F64_BIAS
        run = t >> self._field_bits          # the regime k
        below_one = run >> 63                # -1 where k < 0
        run ^= below_one                     # k, or -k - 1
        drop = run + self._drop0
        acc = t & self._field if codes else mag
        if mode == "nearest":
            # Round half to even on the code: add half - 1 plus the code's
            # last bit (bit ``drop`` of t), then truncate.
            half = np.left_shift(1, drop - 1)
            t >>= drop
            t &= 1
            half += t
            half -= 1
            acc += half
        acc >>= drop
        if codes:
            base = np.left_shift(1, self._rem1 - run + below_one)
            np.invert(below_one, out=run)
            run &= self._top
            run -= base
            acc += np.abs(run, out=run)      # the regime's base code
            sign = raw >> 63
            acc ^= sign                      # two's complement negatives
            acc &= self._mask
            np.subtract(acc, sign, out=out)
        else:
            acc <<= drop
            np.bitwise_or(acc, raw & _F64_SIGN, out=out)
        if odd.any():
            lanes = np.flatnonzero(odd)
            out[lanes] = self._encode_edge(raw[lanes], mode, codes)

    def _encode_edge(self, raw, mode: str, codes: bool) -> np.ndarray:
        """Lanes outside the fast regimes: ±0 here, the rest via the oracle."""
        out = np.zeros(raw.size, dtype=np.int64)  # code 0 and +0.0 alike
        live = (raw & _F64_ABS) != 0
        if live.any():
            x = raw[live].view(np.float64)
            if codes:
                out[live] = self._ref.to_bits(x, mode)
            else:
                out[live] = np.asarray(self._ref.quantize(x, mode)).view(np.int64)
        return out

    # -- decode -----------------------------------------------------------

    def from_bits(self, bits):
        arr = np.asarray(bits, dtype=np.int64)
        flat = arr.ravel()
        out = np.empty(flat.size, dtype=np.int64)
        for start in range(0, flat.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            self._decode_block(flat[block], out[block])
        out = out.view(np.float64)
        return out[0] if arr.ndim == 0 else out.reshape(arr.shape)

    def _decode_block(self, bits, out) -> None:
        code = bits << self._wrap
        code >>= self._wrap                  # the n-bit code, sign-extended
        body = np.abs(code)                  # NaR's body reads 2**(n-1)
        run = body << self._wrap_body
        run >>= self._wrap_body              # negative iff the regime is ones
        ones = run >> 63
        run ^= ones                          # the regime as leading zeros
        # Bit length of the normalized body, + 1022: the float64 exponent
        # of its exact cast (clamped for the all-ones body, maxpos).
        width = run.astype(np.float64).view(np.int64)
        width >>= _FRACTION_BITS
        np.maximum(width, 1022, out=width)
        scale = width - self._k0
        scale ^= ones                        # k
        scale <<= self._field_bits
        np.subtract(self._shift0, width, out=width)
        np.left_shift(body, width, out=out)  # exponent | fraction at the top
        out &= self._field
        out += scale
        out += _F64_BIAS
        # Zero and NaR both assemble useed**-(n-1), below minpos.
        special = out < self._minpos_bits
        code &= _F64_SIGN
        out |= code
        if special.any():
            lanes = np.flatnonzero(special)
            zero = (bits[lanes] & self._mask) == 0
            out[lanes] = np.where(zero, 0.0, np.nan).view(np.int64)


class _Binary32Kernel(_BitfieldKernel):
    """Codec for the binary32 layout ``FloatFormat(8, 23)``: a float32 cast.

    It follows the oracle's binary32 branch of :func:`float_quantize`: the
    cast rounds, magnitudes past the float32 maximum (and ±inf) saturate to
    it, NaN stays NaN, and the rounding mode is ignored, so no mode draws
    from ``rng``.  ``to_bits`` is the float32 bit pattern with the oracle's
    canonical zero (``-0.0`` encodes as 0) and NaN code ``0x7FC00000``;
    ``from_bits`` decodes every all-ones exponent, ±inf included, to +NaN.
    """

    _NAN_CODE = 0x7FC00000

    def __init__(self, fmt: FloatFormat):
        self.fmt = fmt
        self._max = fmt.max_value

    def _cast(self, x):
        arr = np.asarray(x, dtype=np.float64)
        # Clipping first saturates what the cast would overflow to ±inf.
        with np.errstate(invalid="ignore"):  # signalling NaN inputs
            return arr, np.clip(arr.ravel(), -self._max, self._max).astype(np.float32)

    def quantize(self, x, mode: str, rng: Optional[np.random.Generator] = None):
        arr, single = self._cast(x)
        out = single.astype(np.float64)
        return out[0] if arr.ndim == 0 else out.reshape(arr.shape)

    def to_bits(self, x, mode: str, rng: Optional[np.random.Generator] = None):
        arr, single = self._cast(x)
        single += np.float32(0.0)            # -0.0 + 0.0 is +0.0
        out = single.view(np.uint32).astype(np.int64)
        nan = np.isnan(single)
        if nan.any():
            out[nan] = self._NAN_CODE
        return out[0] if arr.ndim == 0 else out.reshape(arr.shape)

    def from_bits(self, bits):
        arr = np.asarray(bits, dtype=np.int64)
        single = (arr.ravel() & 0xFFFFFFFF).astype(np.uint32).view(np.float32)
        with np.errstate(invalid="ignore"):  # signalling NaN codes
            out = single.astype(np.float64)
        finite = np.isfinite(single)
        if not finite.all():
            out[~finite] = np.nan
        return out[0] if arr.ndim == 0 else out.reshape(arr.shape)


def _build_codec(fmt):
    ref = reference_ops(fmt)
    if ref is None:
        return None
    if fmt.bits > KERNEL_MAX_BITS:
        if isinstance(fmt, PositConfig) and fmt.bits <= _POSIT_BITFIELD_MAX_BITS:
            return _PositBitKernel(fmt, ref)
        if isinstance(fmt, FloatFormat) and (fmt.exponent_bits, fmt.mantissa_bits) == (8, 23):
            return _Binary32Kernel(fmt)
        return ref
    try:
        if isinstance(fmt, FixedPointFormat):
            return _FixedKernel(fmt, ref)
        return _LineKernel(fmt, ref)
    except _KernelUnsupported:
        return ref


def codec_for(fmt):
    """The codec serving ``fmt``: its kernel, else its :func:`reference_ops`.

    Built on first use and cached.  Kernel-less formats — posits above 32
    bits, float layouts other than binary32 above 16 bits, fixed point above
    16 bits, and narrow formats whose value grid fails the table checks —
    are served by their family's vectorized module functions.  ``None`` for
    a format of no known family.
    """
    codec = _CODECS.get(fmt)
    if codec is None:
        with _CACHE_LOCK:
            codec = _CODECS.get(fmt)
            if codec is None:
                codec = _CODECS[fmt] = _build_codec(fmt)
    return codec


def get_kernel(fmt):
    """The (cached, lazily built) kernel for ``fmt``, or ``None`` when
    :func:`codec_for` serves it with the module functions."""
    codec = codec_for(fmt)
    return None if isinstance(codec, _ReferenceOps) else codec


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
