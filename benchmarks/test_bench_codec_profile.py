"""Codec hot-path scoreboard: per-format, per-op call cost, measured.

Regenerates ``benchmarks/results/codec_profile_baseline.json`` through the
:mod:`repro.obs` profiler's real hook — the same patched ``NumberFormat``
codec methods a traced serving engine uses — so the committed scoreboard
tracks what the production codec paths cost: the kernels of
:mod:`repro.formats.kernels`, LUTs for ``bits <= 16`` and bit-field
kernels for posit(32,x) and fp32.

It also **gates** the kernels in-run: posit(8,1)/posit(16,1) per-element
cost must land within 5x of the fixed-point numpy floor on every op, and
the same formats' module-function oracle (:func:`repro.formats.
reference_ops`, timed into a profiler the same way) must be at least 10x
slower on ``to_bits``.
"""

import time

import numpy as np
import pytest

from repro.formats import available_formats, kernel_info, reference_ops
from repro.obs import CodecProfiler

#: Array size per profiled call — big enough that per-element cost
#: dominates Python call + profiler overhead (which would otherwise tax the
#: ~10 ns/elem kernel path far more than the ~150+ ns/elem oracle path),
#: small enough to keep the sweep fast.
ELEMENTS = 16384
#: Repetitions per (format, op) so the ns figures average real work.
REPEATS = 3

#: The issue's acceptance formats and thresholds.
GATED_FORMATS = ("posit(8,1)", "posit(16,1)")
FLOOR_FORMATS = ("fixed(16,13)", "fixed(8,5)")
FLOOR_MULTIPLE = 5.0
MIN_TO_BITS_SPEEDUP = 10.0


def _profile_rows(formats, values):
    """Drive every format through the three codec ops under the profiler."""
    profiler = CodecProfiler()
    # Warm-up outside the timed region: first contact builds the LUTs and
    # primes numpy caches.
    for fmt in formats.values():
        fmt.from_bits(fmt.to_bits(values))
        fmt.quantize(values)
    with profiler:
        for fmt in formats.values():
            for _ in range(REPEATS):
                bits = fmt.to_bits(values)
                fmt.from_bits(bits)
                fmt.quantize(values)
    snapshot = profiler.snapshot()
    return profiler, snapshot, _rows(snapshot)


def _reference_rows(formats, values):
    """The same op sequence through each format's module-function oracle.

    :func:`reference_ops` bypasses the patched format methods, so each
    call is timed here and recorded into a profiler by hand.
    """
    profiler = CodecProfiler()
    for spec, fmt in formats.items():
        ref = reference_ops(fmt)
        ref.from_bits(ref.to_bits(values))
        ref.quantize(values)
        for _ in range(REPEATS):
            for op in ("to_bits", "from_bits", "quantize"):
                arg = bits if op == "from_bits" else values
                started = time.perf_counter_ns()
                out = getattr(ref, op)(arg)
                profiler.record(spec, op, time.perf_counter_ns() - started, arg.size)
                if op == "to_bits":
                    bits = out
    return _rows(profiler.snapshot())


def _rows(snapshot):
    rows = []
    for spec in sorted(snapshot["formats"]):
        for op, entry in sorted(snapshot["formats"][spec].items()):
            rows.append({
                "format": spec,
                "op": op,
                "calls": entry["calls"],
                "elements": entry["elements"],
                "total_ns": entry["ns"],
                "ns_per_element": entry["ns"] / entry["elements"],
            })
    return rows


def _ns_per_element(rows):
    return {(row["format"], row["op"]): row["ns_per_element"] for row in rows}


def test_bench_codec_profile_baseline(benchmark, save_result, bench_rng):
    formats = {}
    for fmt in available_formats().values():
        formats.setdefault(fmt.spec(), fmt)

    values = bench_rng.normal(size=ELEMENTS)
    profiler, snapshot, rows = _profile_rows(formats, values)
    table = profiler.format_table(snapshot)
    print("\n" + table)

    # Oracle counter-measurement of the gated formats only: two formats
    # in-run are enough to prove the speedup without doubling the run.
    gated = {spec: formats[spec] for spec in GATED_FORMATS}
    reference_rows = _reference_rows(gated, values)

    kernel_ns = _ns_per_element(rows)
    reference_ns = _ns_per_element(reference_rows)
    speedups = {
        f"{spec}:{op}": reference_ns[(spec, op)] / kernel_ns[(spec, op)]
        for spec, op in reference_ns
    }

    # Timed region: one full codec round trip for the paper's headline
    # format, through the profiled methods (the serving-path shape).
    posit8 = formats["posit(8,1)"]
    with profiler:
        benchmark(lambda: posit8.from_bits(posit8.to_bits(values)))

    save_result("codec_profile_baseline", {
        "elements_per_call": ELEMENTS,
        "repeats": REPEATS,
        "formats_profiled": len(formats),
        "table": table,
        "rows": rows,
        "reference_rows": reference_rows,
        "kernel_speedups": speedups,
        "kernels": kernel_info(list(formats.values())),
    })

    # The baseline is only a baseline if it measured something: every
    # registered format must show all three ops with non-zero cost.
    specs_seen = {row["format"] for row in rows}
    assert specs_seen == set(formats), (specs_seen, set(formats))
    for spec in formats:
        ops = snapshot["formats"][spec]
        assert set(ops) == {"quantize", "to_bits", "from_bits"}, (spec, ops)
        for op, entry in ops.items():
            assert entry["calls"] >= REPEATS, (spec, op, entry)
            assert entry["elements"] >= REPEATS * ELEMENTS, (spec, op, entry)
            assert entry["ns"] > 0, (spec, op, entry)

    # Gate 1: kernel-backed posits land within FLOOR_MULTIPLE of the
    # fixed-point numpy floor on every op.  The floor is the fixed family's
    # codec cost envelope — its slowest (format, op) in this same run — so
    # the budget tracks what plain whole-array numpy costs on this machine
    # rather than a sub-ns razor edge like fixed quantize (one clip+round).
    floor = max(kernel_ns[(spec, op)] for spec in FLOOR_FORMATS
                for op in ("quantize", "to_bits", "from_bits"))
    budget = FLOOR_MULTIPLE * floor
    for spec in GATED_FORMATS:
        for op in ("quantize", "to_bits", "from_bits"):
            measured = kernel_ns[(spec, op)]
            assert measured <= budget, (
                f"{spec} {op}: {measured:.1f} ns/elem exceeds "
                f"{FLOOR_MULTIPLE}x fixed-point floor ({floor:.1f} -> "
                f"budget {budget:.1f})"
            )

    # Gate 2: >= 10x on to_bits for both gated formats against their
    # module-function oracle measured in this run.
    for spec in GATED_FORMATS:
        ratio = speedups[f"{spec}:to_bits"]
        assert ratio >= MIN_TO_BITS_SPEEDUP, (
            f"{spec} to_bits speedup {ratio:.1f}x < {MIN_TO_BITS_SPEEDUP}x "
            f"(oracle {reference_ns[(spec, 'to_bits')]:.1f} ns/elem, kernel "
            f"{kernel_ns[(spec, 'to_bits')]:.1f} ns/elem)"
        )
