"""Which workload measures which per-layer metric.

``BENCHMARK.json`` names the metrics; this table says whose traced run
produces each per-layer one.  A traced run reports every per-layer metric:
one whose layer its workload does not run reads 0.  The ``codec.<fmt>.<op>_ns``
cells are guaranteed on ``codec``; the training run also reports the cells
its own steps reach.
"""

from __future__ import annotations

import json
from pathlib import Path

WORKLOADS = ("serve_http", "train_posit", "codec")

_CODEC_CELLS = tuple(
    f"codec.{fmt}.{op}_ns"
    for fmt in ("posit8_1", "posit16_1", "posit32_2", "fp32", "bfloat16", "fixed16_13")
    for op in ("quantize", "to_bits", "from_bits"))

MEASURED_BY: dict[str, tuple[str, ...]] = {
    **{name: ("train_posit",) for name in (
        "scale.ms_per_step", "scale.calls_per_step", "stats.ms_per_step",
        "codec.ms_per_step", "codec.elements_per_step", "train.forward_ms",
        "train.backward_ms", "train.update_ms", "train.forward_self_ms",
        "train.backward_self_ms", "train.data_wait_ms")},
    **{name: ("serve_http",) for name in (
        "engine.queue_wait_p99_ms", "engine.batch_size_mean",
        "http.transport_p50_ms", "http.dispatch_p50_ms", "http.worker_compute_p50_ms",
        "http.worker_queue_p50_ms", "http.worker_share_min",
        "setup.export_s", "setup.ready_s")},
    **{name: ("codec",) for name in _CODEC_CELLS},
    "trace.overhead_pct": WORKLOADS,
}


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def required(workload: str) -> set[str]:
    """Per-layer metrics ``workload``'s traced run must measure itself."""
    return {name for name, owners in MEASURED_BY.items() if workload in owners}
