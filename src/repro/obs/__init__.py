"""repro.obs — end-to-end request tracing and codec hot-path profiling.

The serving tier's aggregate metrics (:mod:`repro.serve.metrics`) answer
"how is the fleet doing"; this package answers the two questions aggregates
cannot: *where did this one slow request spend its time*, and *which codec
path is hot enough to be worth rewriting*.

Three layers, usable independently:

* :mod:`repro.obs.tracing` — a span-based tracer: :class:`Tracer` records
  :class:`Span` trees (monotonic ``time.perf_counter`` clocks, explicit
  parent ids so spans recorded from different threads and processes still
  nest) into a bounded in-memory ring, with head-based probabilistic
  sampling so the hot path pays one ``random()`` per request when tracing
  is on and a single attribute check when it is off.  Trace context is a
  plain JSON-able dict, so it survives HTTP headers
  (``X-Repro-Trace-Id``) and cluster worker pipes unchanged.
* :mod:`repro.obs.profiler` — the codec hot-path profiler: per-format,
  per-op (``quantize`` / ``to_bits`` / ``from_bits``) call counts, element
  counts, and cumulative nanoseconds, collected by instrumenting the
  format classes' codec methods, which every quantizer calls.  Its
  :func:`~repro.obs.profiler.format_table` is the per-format codec
  scoreboard.
* :mod:`repro.obs.export` — exporters: spans serialize to JSONL (one span
  per line, the ``repro trace`` CLI's interchange format) and to the
  Chrome trace-event format, which loads directly in Perfetto /
  ``chrome://tracing``; :func:`~repro.obs.export.validate_chrome_trace`
  schema-checks an exported document (required keys, monotonic
  timestamps, matched B/E pairs) so CI can gate on well-formedness.

The serving integration lives in :mod:`repro.serve`: engines stamp
admission → queue → batch → codec → forward → respond spans, clusters
carry trace context across worker pipes (one client trace covers a
transparent failover retry, both attempts annotated), and ``/predict``
responses echo the trace id so load generators can link slow requests to
exported traces.
"""

from .export import (
    read_jsonl,
    span_to_chrome_event,
    summarize_traces,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from .profiler import (
    CodecProfiler,
    disable_profiling,
    enable_profiling,
    format_table,
    profiler,
    profile_snapshot,
    reset_profile,
)
from .tracing import (
    TRACE_HEADER,
    ActiveSpan,
    Span,
    TraceConfig,
    Tracer,
    new_span_id,
    new_trace_id,
)

__all__ = [
    "TRACE_HEADER",
    "ActiveSpan",
    "Span",
    "TraceConfig",
    "Tracer",
    "new_span_id",
    "new_trace_id",
    "CodecProfiler",
    "profiler",
    "enable_profiling",
    "disable_profiling",
    "reset_profile",
    "profile_snapshot",
    "format_table",
    "span_to_chrome_event",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "read_jsonl",
    "summarize_traces",
]
