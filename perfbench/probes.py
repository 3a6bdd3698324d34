"""Layer probes: spans around calls into the repository's public layer functions.

Each layer is measured from outside.  A probe replaces one public method
(``ScaleEstimator.scale_for``, ``RoleStats.record``) with a wrapper that
records a span around the call, and the benchmark's own loops open spans
around the calls they make (forward, ``backward()``, ``optimizer.step()``).
Spans go to a :class:`repro.obs.Tracer` held in memory and are written out
once, when the run ends.  Parents come from one span stack, so a
``scale_for`` span nests under the forward pass that called it; probed calls
must therefore all run on one thread.

A span opened with ``codec=True`` is annotated with the nanoseconds the
process-wide codec profiler (:func:`repro.obs.enable_profiling`) accrued
while it was open.
"""

from __future__ import annotations

import contextlib
import functools
from pathlib import Path

from repro.obs import ActiveSpan, TraceConfig, Tracer, new_trace_id, profiler, write_jsonl


class Probes:
    """Installs timing wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.tracer = Tracer(TraceConfig(enabled=True, capacity=1 << 20,
                                         profile_codec=False))
        self.trace_id = new_trace_id()
        self._stack: list[ActiveSpan] = []
        self._patches: list = []

    @contextlib.contextmanager
    def span(self, name: str, codec: bool = False):
        stack = self._stack
        active = ActiveSpan(self.tracer, name, trace_id=self.trace_id,
                            parent_id=stack[-1].span_id if stack else None)
        codec_start = profiler.total_ns() if codec else 0
        stack.append(active)
        try:
            yield active
        finally:
            stack.pop()
            if codec:
                active.annotations["codec_ns"] = profiler.total_ns() - codec_start
            active.finish()

    def patch(self, owner: type, attr: str, name: str) -> None:
        """Wrap the class attribute ``owner.attr`` in a ``name`` span."""
        original = owner.__dict__[attr]
        span = self.span

        @functools.wraps(original)
        def timed(*args, **kwargs):
            with span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, timed)
        self._patches.append((owner, attr, original))

    def close(self) -> None:
        """Restore every patched attribute (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self) -> list:
        return self.tracer.spans()

    def write(self, path: Path) -> None:
        write_jsonl(self.tracer.spans(), str(path))


def breakdown(spans: list, name: str) -> list[dict]:
    """Per ``name`` span: its duration, codec time and direct children, in ms.

    ``self_ms`` is the span's duration minus its codec time and minus the
    time its direct child spans cover.
    """
    children: dict[str, list] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    rows = []
    for span in spans:
        if span.name != name:
            continue
        row = {"start_s": span.start_s, "end_s": span.end_s,
               "ms": span.duration_ms,
               "codec_ms": span.annotations.get("codec_ns", 0) / 1e6,
               "child_ms": {}, "child_calls": {}}
        for child in children.get(span.span_id, ()):
            row["child_ms"][child.name] = row["child_ms"].get(child.name, 0.0) + child.duration_ms
            row["child_calls"][child.name] = row["child_calls"].get(child.name, 0) + 1
        row["self_ms"] = row["ms"] - row["codec_ms"] - sum(row["child_ms"].values())
        rows.append(row)
    rows.sort(key=lambda row: row["start_s"])
    return rows
