"""Differential conformance harness: every codec path vs its oracle.

Every registry format with ``bits <= 16`` is served by a LUT kernel
(:mod:`repro.formats.kernels`), which must behave **bit-for-bit**
identically to the family's vectorized module functions:

* ``from_bits`` — exhaustive over all ``2**bits`` codes, including NaR/NaN
  patterns and signed zeros (compared with ``signbit``, not just value).
  The kernels' decode tables are built from the module functions, so for
  posit the check goes one step further back, to the scalar
  :func:`repro.posit.scalar.decode`.
* ``to_bits`` / ``quantize`` — exhaustive over the representable grid, the
  float64 value one ulp below every grid value (the round-toward-zero
  bucket edge), every midpoint between adjacent representable values, the
  one-ulp neighbours of every midpoint (the tie-to-even boundary), seeded
  log-uniform and normal random draws, and the special values: ``±0``,
  ``±inf``, ``NaN``, the subnormal range, and magnitudes beyond ``maxpos``.
  For posit the same inputs also go to the scalar
  :func:`repro.posit.scalar.encode` (every input for ``n <= 8``, a seeded
  slice above).
* ``stochastic`` rounding — deterministic on exactly representable inputs,
  and compared distribution-wise (up-rounding frequency per probe point)
  under fixed seeds otherwise, since kernel and oracle consume their
  generators over different index sets.

Besides the registry formats, a few non-registry narrow formats run through
the same checks, so the kernel's table derivation is exercised on grids no
workload uses.

The oracle side goes through :func:`repro.formats.reference_ops`, which
binds the module-level functions directly; the kernel side goes through the
*format methods*, so the dispatch layer is exercised end-to-end, not just
the kernel object.

The wide registry formats have table-free bitfield kernels, held to the
same bit-identity against the module functions: posit(32,2) and posit(32,3)
in ``zero`` and ``nearest`` on seeded sweeps, every code of the outermost 64
bodies at each end with its midpoints and one-ulp neighbours (the regimes
that keep fewer than ``es`` exponent bits), and the exact ties where the
posit keeps no fraction bits; fp32 in every mode on its specials.  The posit
sweeps also go to the scalar :func:`~repro.posit.scalar.encode` /
:func:`~repro.posit.scalar.decode`.  The posit bitfield kernel hands
``stochastic`` to the module function, so a seeded call matches it draw for
draw.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats import (
    KERNEL_MAX_BITS,
    available_formats,
    get_kernel,
    reference_ops,
)
from repro.posit import FP32, POSIT_32_2, POSIT_32_3, FloatFormat, PositConfig
from repro.posit import scalar as posit_scalar

#: Narrow formats outside the registry.
EXTRA_FORMATS = (PositConfig(12, 1), PositConfig(10, 3), FloatFormat(6, 5))


def _narrow_formats():
    """Distinct registry formats with ``bits <= KERNEL_MAX_BITS``, plus
    :data:`EXTRA_FORMATS`."""
    seen, out = set(), list(EXTRA_FORMATS)
    for fmt in available_formats().values():
        if fmt.bits <= KERNEL_MAX_BITS and fmt not in seen:
            seen.add(fmt)
            out.append(fmt)
    return sorted(out, key=lambda f: f.spec())


NARROW_FORMATS = _narrow_formats()
FORMAT_IDS = [fmt.spec() for fmt in NARROW_FORMATS]

#: Deterministic rounding modes.  Posit distinguishes ``zero`` (Algorithm 1
#: truncation) from ``nearest``; float/fixed map ``zero`` onto ``nearest``,
#: and the harness runs both spellings so that mapping is pinned too.
DETERMINISTIC_MODES = ("zero", "nearest")


def _assert_same_values(kernel_vals, oracle_vals, context: str) -> None:
    kernel_vals = np.asarray(kernel_vals, dtype=np.float64)
    oracle_vals = np.asarray(oracle_vals, dtype=np.float64)
    assert np.array_equal(kernel_vals, oracle_vals, equal_nan=True), context
    # Value equality treats -0.0 == +0.0; the bit pattern must match too.
    assert np.array_equal(np.signbit(kernel_vals), np.signbit(oracle_vals)), (
        f"{context}: signed-zero mismatch"
    )


def _grid_values(fmt) -> np.ndarray:
    """Sorted unique finite representable values, via the oracle decoder."""
    ref = reference_ops(fmt)
    codes = np.arange(1 << fmt.bits, dtype=np.int64)
    values = np.asarray(ref.from_bits(codes), dtype=np.float64)
    return np.unique(values[np.isfinite(values)])


def _specials(fmt) -> np.ndarray:
    """±0, ±inf, NaN, the subnormal range, and beyond-maxpos magnitudes."""
    minpos, maxpos = float(fmt.minpos), float(fmt.maxpos)
    return np.array(
        [
            0.0, -0.0, np.inf, -np.inf, np.nan,
            1e308, -1e308, 5e-324, -5e-324,
            minpos, -minpos, minpos / 2.0, -minpos / 2.0,
            minpos / 4.0, -minpos / 4.0,
            np.nextafter(minpos / 2.0, 0.0), np.nextafter(minpos / 2.0, 1.0),
            maxpos, -maxpos, maxpos * 2.0, -maxpos * 2.0,
            np.nextafter(maxpos, np.inf), -np.nextafter(maxpos, np.inf),
        ]
    )


def _encode_sweep(fmt) -> np.ndarray:
    """Adversarial encode inputs: grid, one ulp below the grid (bucket
    edges), midpoints, tie neighbours, randoms and :func:`_specials`."""
    grid = _grid_values(fmt)
    mids = 0.5 * (grid[:-1] + grid[1:])
    neighbours = np.concatenate(
        [np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf)]
    )
    rng = np.random.default_rng(0x5EED + fmt.bits)
    minpos, maxpos = float(fmt.minpos), float(fmt.maxpos)
    log_mag = np.exp(
        rng.uniform(np.log(minpos / 8.0), np.log(maxpos * 8.0), size=4096)
    )
    randoms = np.concatenate(
        [log_mag, -log_mag, rng.normal(scale=max(1.0, maxpos / 16.0), size=1024)]
    )
    return np.concatenate([grid, np.nextafter(grid, 0.0), mids, neighbours,
                           randoms, _specials(fmt)])


def test_every_narrow_registry_format_has_a_kernel():
    """Every bits<=16 registry format (and every extra format) has a kernel,
    so no check below compares the module functions with themselves."""
    missing = [fmt.spec() for fmt in NARROW_FORMATS if get_kernel(fmt) is None]
    assert not missing, f"no kernel built for: {missing}"


def _scalar_decode(codes, fmt) -> np.ndarray:
    return np.array([posit_scalar.decode(int(code), fmt) for code in codes])


@pytest.mark.parametrize("fmt", NARROW_FORMATS, ids=FORMAT_IDS)
def test_from_bits_exhaustive(fmt):
    """All 2**bits codes decode identically through kernel and oracle."""
    codes = np.arange(1 << fmt.bits, dtype=np.int64)
    if isinstance(fmt, PositConfig):
        expected = _scalar_decode(codes, fmt)
    else:
        expected = reference_ops(fmt).from_bits(codes)
    _assert_same_values(fmt.from_bits(codes), expected, f"{fmt.spec()} from_bits")


@pytest.mark.parametrize("mode", DETERMINISTIC_MODES)
@pytest.mark.parametrize("fmt", NARROW_FORMATS, ids=FORMAT_IDS)
def test_to_bits_bit_identity(fmt, mode):
    ref = reference_ops(fmt)
    x = _encode_sweep(fmt)
    kernel_bits = fmt.to_bits(x, mode=mode)
    oracle_bits = ref.to_bits(x, mode=mode)
    np.testing.assert_array_equal(
        kernel_bits, oracle_bits, err_msg=f"{fmt.spec()} to_bits[{mode}]"
    )


@pytest.mark.parametrize("mode", DETERMINISTIC_MODES)
@pytest.mark.parametrize("fmt", NARROW_FORMATS, ids=FORMAT_IDS)
def test_quantize_bit_identity(fmt, mode):
    ref = reference_ops(fmt)
    x = _encode_sweep(fmt)
    _assert_same_values(
        fmt.quantize(x, mode=mode),
        ref.quantize(x, mode=mode),
        f"{fmt.spec()} quantize[{mode}]",
    )


def _assert_matches_scalar_encode(fmt, x, mode) -> None:
    """``to_bits``/``quantize`` of ``x`` equal the scalar encoder's codes and
    their scalar decodes."""
    codes = np.array([posit_scalar.encode(float(v), fmt, rounding=mode) for v in x])
    np.testing.assert_array_equal(fmt.to_bits(x, mode=mode), codes,
                                  err_msg=f"{fmt.spec()} to_bits[{mode}]")
    _assert_same_values(fmt.quantize(x, mode=mode), _scalar_decode(codes, fmt),
                        f"{fmt.spec()} quantize[{mode}]")


NARROW_POSITS = [fmt for fmt in NARROW_FORMATS if isinstance(fmt, PositConfig)]
NARROW_POSIT_IDS = [fmt.spec() for fmt in NARROW_POSITS]
#: Posits up to this width are checked against the scalar encoder on the
#: whole sweep; wider ones on a seeded slice of it, since a scalar
#: round-to-nearest encode costs tens of microseconds per value.
SCALAR_FULL_SWEEP_BITS = 8
SCALAR_SLICE = 4096


@pytest.mark.parametrize("mode", DETERMINISTIC_MODES)
@pytest.mark.parametrize("fmt", NARROW_POSITS, ids=NARROW_POSIT_IDS)
def test_narrow_posit_encode_matches_scalar(fmt, mode):
    x = _encode_sweep(fmt)
    if fmt.bits > SCALAR_FULL_SWEEP_BITS:
        rng = np.random.default_rng(0x5CA1 + fmt.bits)
        x = np.concatenate([rng.choice(x, size=SCALAR_SLICE, replace=False),
                            _specials(fmt)])
    _assert_matches_scalar_encode(fmt, x, mode)


@pytest.mark.parametrize("fmt", NARROW_FORMATS, ids=FORMAT_IDS)
def test_stochastic_is_deterministic_on_grid(fmt):
    """Exactly representable inputs round to themselves with probability 1,
    so stochastic mode must agree bit-for-bit on the grid (and on the
    specials the oracle handles deterministically)."""
    ref = reference_ops(fmt)
    grid = _grid_values(fmt)
    x = np.concatenate([grid, [0.0, -0.0, np.inf, -np.inf, np.nan]])
    kernel_bits = fmt.to_bits(x, mode="stochastic", rng=np.random.default_rng(1))
    oracle_bits = ref.to_bits(x, mode="stochastic", rng=np.random.default_rng(2))
    np.testing.assert_array_equal(
        kernel_bits, oracle_bits, err_msg=f"{fmt.spec()} stochastic grid"
    )
    _assert_same_values(
        fmt.quantize(x, mode="stochastic", rng=np.random.default_rng(3)),
        ref.quantize(x, mode="stochastic", rng=np.random.default_rng(4)),
        f"{fmt.spec()} stochastic grid quantize",
    )


@pytest.mark.parametrize("fmt", NARROW_FORMATS, ids=FORMAT_IDS)
def test_stochastic_distribution_matches(fmt):
    """Between grid points the two paths draw from their generators over
    different index sets, so seeds don't align call-for-call; compare the
    up-rounding frequency per probe point instead (law, not stream)."""
    ref = reference_ops(fmt)
    grid = _grid_values(fmt)
    positive = grid[grid > 0]
    rng = np.random.default_rng(99)
    idx = rng.choice(positive.size - 1, size=min(16, positive.size - 1),
                     replace=False)
    lo, hi = positive[idx], positive[idx + 1]
    fractions = np.array([0.25, 0.5, 0.75])[:, None]
    points = (lo + fractions * (hi - lo)).ravel()

    draws = 3000
    tiled = np.tile(points, draws)
    kernel_bits = fmt.to_bits(
        tiled, mode="stochastic", rng=np.random.default_rng(7)
    ).reshape(draws, points.size)
    oracle_bits = np.asarray(ref.to_bits(
        tiled, mode="stochastic", rng=np.random.default_rng(11)
    )).reshape(draws, points.size)

    # Each point has exactly two admissible codes; compare P(higher code).
    kernel_lo = kernel_bits.min(axis=0)
    oracle_lo = oracle_bits.min(axis=0)
    np.testing.assert_array_equal(kernel_lo, oracle_lo)
    np.testing.assert_array_equal(kernel_bits.max(axis=0),
                                  oracle_bits.max(axis=0))
    kernel_up = (kernel_bits != kernel_lo).mean(axis=0)
    oracle_up = (oracle_bits != oracle_lo).mean(axis=0)
    np.testing.assert_allclose(
        kernel_up, oracle_up, atol=0.04,
        err_msg=f"{fmt.spec()} stochastic up-probability",
    )


# --------------------------------------------------------------------------
# Wide formats: the bitfield kernels against the module functions, and the
# 32-bit posits against the scalar codec
# --------------------------------------------------------------------------

WIDE_POSITS = (POSIT_32_2, POSIT_32_3)
WIDE_IDS = [fmt.spec() for fmt in WIDE_POSITS]


def _wide_codes(fmt) -> np.ndarray:
    """Seeded codes over the whole word, plus the boundary patterns."""
    rng = np.random.default_rng(0x3200 + fmt.es)
    top = 1 << fmt.n
    edges = np.array([0, 1, 2, fmt.nar_pattern - 1, fmt.nar_pattern,
                      fmt.nar_pattern + 1, top - 1], dtype=np.int64)
    return np.concatenate([rng.integers(0, top, size=2048, dtype=np.int64), edges])


def _wide_values(fmt) -> np.ndarray:
    """Seeded log-uniform draws past both ends of the range, grid points,
    exact midpoints between neighbouring codes (the ties), and specials."""
    rng = np.random.default_rng(0x32 + fmt.es)
    span = fmt.max_exponent + 2
    mags = np.exp2(rng.uniform(-span, span, size=1024)) * rng.uniform(1.0, 2.0, size=1024)
    randoms = mags * rng.choice([-1.0, 1.0], size=mags.size)
    body = rng.integers(1, fmt.nar_pattern - 1, size=256)
    lo = _scalar_decode(body, fmt)
    hi = _scalar_decode(body + 1, fmt)
    mids = 0.5 * (lo + hi)
    minpos, maxpos = fmt.minpos, fmt.maxpos
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324,
                         minpos, -minpos, minpos / 2.0, np.nextafter(minpos / 2.0, 0.0),
                         maxpos, -maxpos, maxpos * 2.0])
    return np.concatenate([randoms, lo, -lo, mids, -mids, specials])


def _edge_bodies(fmt) -> np.ndarray:
    """The outermost 64 positive bodies at each end: minpos, maxpos and the
    regimes that keep fewer than ``es`` exponent bits."""
    top = fmt.nar_pattern - 1  # maxpos
    return np.concatenate([np.arange(1, 65), np.arange(top - 63, top + 1)]).astype(np.int64)


def _edge_values(fmt) -> np.ndarray:
    """Every edge body's value, the midpoints to its upper neighbour, and the
    one-ulp neighbours of both, with either sign."""
    bodies = _edge_bodies(fmt)
    lo = _scalar_decode(bodies, fmt)
    hi = _scalar_decode(np.minimum(bodies + 1, fmt.nar_pattern - 1), fmt)
    points = np.concatenate([lo, 0.5 * (lo + hi)])
    x = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, np.inf)])
    return np.concatenate([x, -x])


def _fraction_free_ties(fmt) -> np.ndarray:
    """Exact ties between neighbours one binade apart: the regimes where the
    posit keeps every exponent bit and no fraction bit.  The even code there
    is the one with an even *unbiased* exponent."""
    bodies = np.concatenate([np.arange(1, 4096), np.arange(fmt.nar_pattern - 4096,
                                                          fmt.nar_pattern - 1)])
    ref = reference_ops(fmt)
    lo, hi = ref.from_bits(bodies), ref.from_bits(bodies + 1)
    ties = 1.5 * lo[hi == 2.0 * lo]
    assert ties.size >= 2 * (1 << fmt.es), fmt.spec()  # one regime at each end
    return np.concatenate([ties, -ties])


def _wide_posit_sweep(fmt) -> np.ndarray:
    """``_wide_values`` plus the edge and tie sets above and a seeded sweep
    of the fast regimes: log-uniform draws, and random bodies' midpoints with
    their one-ulp neighbours."""
    rng = np.random.default_rng(0x32F + fmt.es)
    span = fmt.max_exponent
    draws = np.exp2(rng.uniform(-span, span, size=8192))
    ref = reference_ops(fmt)
    body = rng.integers(1, fmt.nar_pattern - 1, size=2048)
    mids = 0.5 * (ref.from_bits(body) + ref.from_bits(body + 1))
    fast = np.concatenate([draws, mids, np.nextafter(mids, 0.0), np.nextafter(mids, np.inf)])
    return np.concatenate([_wide_values(fmt), _edge_values(fmt), _fraction_free_ties(fmt),
                           fast, -fast])


@pytest.mark.parametrize("mode", DETERMINISTIC_MODES)
@pytest.mark.parametrize("fmt", WIDE_POSITS, ids=WIDE_IDS)
def test_wide_posit_kernel_bit_identity(fmt, mode):
    ref = reference_ops(fmt)
    x = _wide_posit_sweep(fmt)
    np.testing.assert_array_equal(fmt.to_bits(x, mode=mode), ref.to_bits(x, mode=mode),
                                  err_msg=f"{fmt.spec()} to_bits[{mode}]")
    _assert_same_values(fmt.quantize(x, mode=mode), ref.quantize(x, mode=mode),
                        f"{fmt.spec()} quantize[{mode}]")


@pytest.mark.parametrize("fmt", WIDE_POSITS, ids=WIDE_IDS)
def test_wide_posit_from_bits_matches_oracle(fmt):
    codes = np.concatenate([_wide_codes(fmt), _edge_bodies(fmt),
                            fmt.code_count - _edge_bodies(fmt)])
    _assert_same_values(fmt.from_bits(codes), reference_ops(fmt).from_bits(codes),
                        f"{fmt.spec()} from_bits")


@pytest.mark.parametrize("fmt", WIDE_POSITS, ids=WIDE_IDS)
def test_wide_posit_stochastic_stays_on_the_module_function(fmt):
    """The bitfield kernel hands posit stochastic rounding to the module
    function with the caller's generator, so one seed gives the module
    function's result draw for draw."""
    ref = reference_ops(fmt)
    x = _wide_values(fmt)
    np.testing.assert_array_equal(
        fmt.to_bits(x, mode="stochastic", rng=np.random.default_rng(5)),
        ref.to_bits(x, mode="stochastic", rng=np.random.default_rng(5)))
    _assert_same_values(
        fmt.quantize(x, mode="stochastic", rng=np.random.default_rng(6)),
        ref.quantize(x, mode="stochastic", rng=np.random.default_rng(6)),
        f"{fmt.spec()} quantize[stochastic]")


@pytest.mark.parametrize("fmt", WIDE_POSITS, ids=WIDE_IDS)
def test_wide_posit_from_bits_matches_scalar(fmt):
    codes = _wide_codes(fmt)
    _assert_same_values(fmt.from_bits(codes), _scalar_decode(codes, fmt),
                        f"{fmt.spec()} from_bits")


@pytest.mark.parametrize("mode", DETERMINISTIC_MODES)
@pytest.mark.parametrize("fmt", WIDE_POSITS, ids=WIDE_IDS)
def test_wide_posit_encode_matches_scalar(fmt, mode):
    _assert_matches_scalar_encode(fmt, _wide_values(fmt), mode)


def _binary32_values() -> np.ndarray:
    """fp32 specials: signed zeros, infinities and NaNs, float64 values past
    the float32 range, the float32 maximum and the float64 values that round
    to it or past it, ties at half the smallest subnormal, float64
    subnormals, plus seeded draws over the whole float32 range."""
    f32 = np.finfo(np.float32)
    top = float(f32.max)
    half_ulp = 2.0 ** (127 - 24)  # half the float32 ulp at the maximum
    tiny = FP32.min_subnormal
    edges = np.array([
        0.0, np.inf, np.nan, 1e308, 1e39, top,
        np.nextafter(top, np.inf), top + half_ulp,  # a tie: rounds past max
        np.nextafter(top + half_ulp, 0.0), np.nextafter(top + half_ulp, np.inf),
        tiny, tiny / 2.0, 1.5 * tiny, 2.5 * tiny,   # ties at half a subnormal
        np.nextafter(tiny / 2.0, 0.0), np.nextafter(tiny / 2.0, 1.0),
        float(f32.smallest_normal), 5e-324, 1e-310, 1e-45,
    ])
    rng = np.random.default_rng(0xF32)
    draws = np.exp2(rng.uniform(-152.0, 130.0, size=4096)) * rng.uniform(1.0, 2.0, size=4096)
    x = np.concatenate([edges, draws, rng.normal(size=1024)])
    return np.concatenate([x, -x])


@pytest.mark.parametrize("mode", ("zero", "nearest", "stochastic"))
def test_binary32_kernel_bit_identity(mode):
    """The oracle's binary32 branch ignores the mode and draws nothing; the
    kernel must do the same, for every mode."""
    ref = reference_ops(FP32)
    x = _binary32_values()
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    np.testing.assert_array_equal(FP32.to_bits(x, mode=mode, rng=rng),
                                  ref.to_bits(x, mode=mode),
                                  err_msg=f"fp32 to_bits[{mode}]")
    _assert_same_values(FP32.quantize(x, mode=mode, rng=rng), ref.quantize(x, mode=mode),
                        f"fp32 quantize[{mode}]")
    assert rng.bit_generator.state == state, "the fp32 kernel drew from rng"


def test_binary32_from_bits_matches_oracle():
    rng = np.random.default_rng(0xF32B)
    specials = np.array([0x7F800000, 0xFF800000, 0xFFC00000, 0x7FC00000, 0x80000000,
                         0x00000001, 0x807FFFFF, 0x7F7FFFFF, 0xFF7FFFFF, 0x7F800001])
    codes = np.concatenate([rng.integers(0, 1 << 32, size=4096), specials]).astype(np.int64)
    decoded = FP32.from_bits(codes)
    _assert_same_values(decoded, reference_ops(FP32).from_bits(codes), "fp32 from_bits")
    # Every all-ones exponent decodes to +NaN; the negative zero code to -0.0.
    for code in (0x7F800000, 0xFF800000, 0xFFC00000):
        value = FP32.from_bits(np.int64(code))
        assert np.isnan(value) and not np.signbit(value), hex(code)
    minus_zero = FP32.from_bits(np.int64(0x80000000))
    assert minus_zero == 0.0 and np.signbit(minus_zero)
