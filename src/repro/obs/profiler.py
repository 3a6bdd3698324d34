"""Codec hot-path profiler: per-format, per-op call counts and time.

For each number format, how many times do we call ``quantize`` /
``to_bits`` / ``from_bits`` and how many nanoseconds do they cost?  While
enabled, :class:`CodecProfiler` patches those three methods on the concrete
format classes (posit, float, fixed point).  That one hook sees every codec
call: the quantizers from :func:`repro.formats.get_quantizer` call the
format methods, and so do the artifact save/load weight codec and the
serving engine.  Each call is counted exactly once, including calls made
through quantizers that were built before profiling started.

``enable``/``disable`` are refcounted so nested scopes (a traced engine
inside a profiled benchmark) compose; stats survive disable until
:func:`reset_profile`.  All counters live in one process — cluster
workers each profile their own engine and report through their own
``/stats``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional

import numpy as np

__all__ = [
    "CodecProfiler",
    "profiler",
    "enable_profiling",
    "disable_profiling",
    "reset_profile",
    "profile_snapshot",
    "format_table",
]

#: The codec entry points we account, in scoreboard column order.
OPS = ("quantize", "to_bits", "from_bits")


class CodecProfiler:
    """Aggregates ``(format spec, op) -> calls / elements / nanoseconds``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stats: Dict[tuple, Dict[str, int]] = {}
        self._refcount = 0
        self._patched: list = []  # (cls, op, original) for restore
        self._total_ns = 0

    # -- lifecycle --------------------------------------------------------

    @property
    def active(self) -> bool:
        return self._refcount > 0

    def enable(self) -> "CodecProfiler":
        """Turn accounting on (refcounted); patches format classes once."""

        with self._lock:
            self._refcount += 1
            if self._refcount == 1:
                self._patch_formats()
        return self

    def disable(self) -> None:
        """Undo one :meth:`enable`; restores format classes at zero."""

        with self._lock:
            if self._refcount == 0:
                return
            self._refcount -= 1
            if self._refcount == 0:
                for cls, op, original in self._patched:
                    setattr(cls, op, original)
                self._patched.clear()

    def __enter__(self) -> "CodecProfiler":
        return self.enable()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.disable()

    # -- accounting -------------------------------------------------------

    def record(self, spec: str, op: str, ns: int, elements: int) -> None:
        with self._lock:
            entry = self._stats.get((spec, op))
            if entry is None:
                entry = {"calls": 0, "elements": 0, "ns": 0}
                self._stats[(spec, op)] = entry
            entry["calls"] += 1
            entry["elements"] += elements
            entry["ns"] += ns
            self._total_ns += ns

    def total_ns(self) -> int:
        """Cumulative profiled nanoseconds — cheap, for per-batch deltas."""

        return self._total_ns

    def reset(self) -> None:
        with self._lock:
            self._stats.clear()
            self._total_ns = 0

    # -- reporting --------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """``{"active", "total_ns", "formats": {spec: {op: {...}}}}``."""

        with self._lock:
            formats: Dict[str, Dict[str, Dict[str, int]]] = {}
            for (spec, op), entry in self._stats.items():
                formats.setdefault(spec, {})[op] = dict(entry)
            return {
                "active": self._refcount > 0,
                "total_ns": self._total_ns,
                "formats": formats,
            }

    def format_table(self, snapshot: Optional[Dict[str, Any]] = None) -> str:
        """The baseline scoreboard: one row per (format, op), aligned text."""

        snap = snapshot if snapshot is not None else self.snapshot()
        rows = [("format", "op", "calls", "elements", "total_ms", "ns/elem")]
        for spec in sorted(snap["formats"]):
            ops = snap["formats"][spec]
            for op in OPS:
                entry = ops.get(op)
                if entry is None:
                    continue
                per_elem = entry["ns"] / entry["elements"] if entry["elements"] else 0.0
                rows.append((
                    spec,
                    op,
                    str(entry["calls"]),
                    str(entry["elements"]),
                    f"{entry['ns'] / 1e6:.3f}",
                    f"{per_elem:.1f}",
                ))
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
                 for row in rows]
        lines.insert(1, "  ".join("-" * w for w in widths))
        return "\n".join(lines)

    # -- format-class patching -------------------------------------------

    def _patch_formats(self) -> None:
        # Caller holds the lock.  Imported here (not at module top) so the
        # obs package never participates in formats' import cycle.
        from repro.formats.fixedpoint import FixedPointFormat
        from repro.posit.config import PositConfig
        from repro.posit.floatformats import FloatFormat

        for cls in (PositConfig, FloatFormat, FixedPointFormat):
            for op in OPS:
                original = cls.__dict__.get(op)
                if original is None or getattr(original, "_repro_profiled", False):
                    continue
                wrapper = _profiled_method(self, op, original)
                setattr(cls, op, wrapper)
                self._patched.append((cls, op, original))


def _profiled_method(prof: CodecProfiler, op: str, original):
    def wrapper(self, values, *args, **kwargs):
        if not prof.active:
            return original(self, values, *args, **kwargs)
        t0 = time.perf_counter_ns()
        out = original(self, values, *args, **kwargs)
        ns = time.perf_counter_ns() - t0
        prof.record(self.spec(), op, ns, int(np.size(values)))
        return out

    wrapper._repro_profiled = True
    wrapper.__name__ = getattr(original, "__name__", op)
    wrapper.__doc__ = getattr(original, "__doc__", None)
    wrapper.__wrapped__ = original
    return wrapper


#: Process-wide profiler instance; the module-level helpers below and the
#: serving/CLI layers all talk to this one.
profiler = CodecProfiler()


def enable_profiling() -> CodecProfiler:
    return profiler.enable()


def disable_profiling() -> None:
    profiler.disable()


def reset_profile() -> None:
    profiler.reset()


def profile_snapshot() -> Dict[str, Any]:
    return profiler.snapshot()


def format_table(snapshot: Optional[Dict[str, Any]] = None) -> str:
    return profiler.format_table(snapshot)
