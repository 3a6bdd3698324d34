"""Workload ``codec``: the three codec ops over six formats on a 2^17-element array.

2^17 elements is one real activation or gradient tensor: a 64x2048 serving
batch, or a batch-16 ResNet activation.  The wide paths (posit(32,2), fp32
``to_bits``) run in no other workload, and array size moves the per-element
cost, so it is fixed.  Calls are interleaved round-robin over the 18
(format, op) cells until the time is up; each cell reports its median call.
"""

from __future__ import annotations

import time

import numpy as np

from repro.formats import clear_quantizer_cache, parse_format, reference_ops
from repro.formats.kernels import clear_kernel_cache
from repro.obs import disable_profiling, enable_profiling, profile_snapshot, reset_profile

from .harness import Context, Outcome, Phase, repeated_setup
from .host import peak_rss_mb
from .stats import geomean, median, tail

FORMATS = ("posit(8,1)", "posit(16,1)", "posit(32,2)", "fp32", "bfloat16", "fixed(16,13)")
OPS = ("quantize", "to_bits", "from_bits")
ELEMENTS = 1 << 17
#: Every cell rounds to nearest, the serving mode, on both the measured
#: path and the oracle.
MODE = "nearest"
ORACLE_SLICE = 2048


def cell_name(spec: str, op: str) -> str:
    """``posit(32,2)``, ``to_bits`` -> ``codec.posit32_2.to_bits_ns``."""
    tag = spec.replace("(", "").replace(")", "").replace(",", "_")
    return f"codec.{tag}.{op}_ns"


def cell_metrics(snapshot: dict) -> dict:
    """ns per element of every benchmarked cell the codec profiler saw."""
    metrics = {}
    for spec in FORMATS:
        for op, entry in snapshot["formats"].get(spec, {}).items():
            if op in OPS and entry["elements"]:
                metrics[cell_name(spec, op)] = entry["ns"] / entry["elements"]
    return metrics


class Cells:
    """The 18 (format, op) calls and their inputs.

    Methods are looked up on every call, so the codec profiler's patched
    format methods are the ones timed while it is enabled.
    """

    def __init__(self, values: np.ndarray):
        self.values = values
        self.calls = {}
        for spec in FORMATS:
            fmt = parse_format(spec)
            codes = fmt.to_bits(values, mode=MODE)
            self.calls[(spec, "quantize")] = (fmt, (values,), {"mode": MODE})
            self.calls[(spec, "to_bits")] = (fmt, (values,), {"mode": MODE})
            self.calls[(spec, "from_bits")] = (fmt, (codes,), {})

    def warm(self) -> None:
        for (_, op), (fmt, args, kwargs) in self.calls.items():
            getattr(fmt, op)(*args, **kwargs)

    def sweep(self, seconds: float) -> dict:
        """Round-robin timed calls until ``seconds`` pass; ns per call by cell."""
        times = {cell: [] for cell in self.calls}
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or min(map(len, times.values())) <= 10:
            for (spec, op), (fmt, args, kwargs) in self.calls.items():
                call = getattr(fmt, op)
                started = time.perf_counter_ns()
                call(*args, **kwargs)
                times[(spec, op)].append(time.perf_counter_ns() - started)
        return times

    def check(self) -> dict[str, bool]:
        """Round trip in every cell, and a seeded slice against the scalar oracle."""
        results = {}
        part = self.values[:ORACLE_SLICE]
        for spec in FORMATS:
            fmt = parse_format(spec)
            quantized = fmt.quantize(self.values, mode=MODE)
            codes = fmt.to_bits(self.values, mode=MODE)
            oracle = reference_ops(fmt)
            results[spec] = bool(
                np.array_equal(fmt.from_bits(codes), quantized)
                and np.array_equal(oracle.quantize(part, mode=MODE), quantized[:ORACLE_SLICE])
                and np.array_equal(oracle.to_bits(part, mode=MODE), codes[:ORACLE_SLICE])
                and np.array_equal(oracle.from_bits(codes[:ORACLE_SLICE]),
                                   quantized[:ORACLE_SLICE]))
        return results


def _build(ctx: Context):
    # Drop every LUT and quantizer so each set-up pays the table builds.
    clear_kernel_cache()
    clear_quantizer_cache()
    cells = Cells(ctx.rng(1).normal(size=ELEMENTS))
    cells.warm()
    return cells, {}


def _summary(times: dict) -> dict:
    per_call_ms = [median(ns) / 1e6 for ns in times.values()]
    tail_ms = [tail(ns)[0] / 1e6 for ns in times.values()]
    return {"p50_ms": geomean(per_call_ms), "tail_ms": geomean(tail_ms),
            "ns_per_elem": geomean(per_call_ms) * 1e6 / ELEMENTS,
            "calls": sum(map(len, times.values()))}


def run(ctx: Context) -> Outcome:
    cells, setup_s, _ = repeated_setup(lambda: _build(ctx), lambda _: None)
    if ctx.trace:
        return _traced(ctx, cells)
    times = cells.sweep(ctx.seconds)
    summary = _summary(times)
    checks = cells.check()
    return Outcome(
        metrics={
            "latency_p50_ms": summary["p50_ms"],
            "latency_tail_ms": summary["tail_ms"],
            "throughput_per_s": 1e9 / summary["ns_per_elem"],
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": setup_s,
        },
        phases={"sweep": Phase(attempted=summary["calls"], succeeded=summary["calls"])},
        checks={f"roundtrip_and_oracle[{spec}]": ok for spec, ok in checks.items()},
        report={"codec_ns_per_elem": summary["ns_per_elem"],
                **{cell_name(*cell): median(ns) / ELEMENTS for cell, ns in times.items()}})


def _traced(ctx: Context, cells: Cells) -> Outcome:
    """Untraced sweep, then the same sweep under the codec profiler."""
    plain = _summary(cells.sweep(0.5 * ctx.seconds))
    reset_profile()
    enable_profiling()
    try:
        traced = _summary(cells.sweep(0.5 * ctx.seconds))
    finally:
        disable_profiling()
    checks = cells.check()
    metrics = {
        **cell_metrics(profile_snapshot()),
        "trace.overhead_pct": 100.0 * (traced["p50_ms"] / plain["p50_ms"] - 1.0),
    }
    return Outcome(
        metrics=metrics,
        phases={"sweep": Phase(attempted=plain["calls"], succeeded=plain["calls"]),
                "sweep_traced": Phase(attempted=traced["calls"], succeeded=traced["calls"])},
        checks={f"roundtrip_and_oracle[{spec}]": ok for spec, ok in checks.items()},
        report={"codec_ns_per_elem": plain["ns_per_elem"],
                "traced_codec_ns_per_elem": traced["ns_per_elem"]})
