"""repro.serve — packed posit model artifacts + batched inference serving.

The deployment subsystem the paper's §V outlook points at: a model trained
in posit is *served* in posit.  Four layers, composable separately:

* :mod:`repro.serve.packing` / :mod:`repro.serve.artifact` — the storage
  format: every parameter packed through its
  :class:`~repro.formats.NumberFormat` ``to_bits`` into dense n-bit buffers
  (sub-byte widths included) behind a checksummed JSON manifest;
  bit-identical round trips, and the paper's 4x-vs-FP32 memory claim made
  measurable on real checkpoints (:func:`~repro.serve.artifact.save_model`,
  :func:`~repro.serve.artifact.load_model`).  Since artifact **v2.0** the
  format is per tensor — mixed-precision exports mirror the training
  policy's :class:`~repro.core.policy.RoleFormats` assignment — and every
  tensor lives in its own SHA-256-checksummed segment, so loads stream one
  tensor at a time, in chunks (:func:`~repro.serve.artifact.iter_tensors`,
  :func:`~repro.serve.artifact.segment_table`), with ~1.5 MB of decode
  scratch, and ``load_model`` decodes straight into the model's arrays;
  v1.0/v1.1 artifacts load bit-identically (golden fixtures under
  ``tests/serve/fixtures/`` pin this).
* :mod:`repro.serve.engine` — :class:`InferenceEngine`: loads one artifact,
  caches decoded weights + activation quantizers, and serves through
  dynamic micro-batching (coalesce up to ``max_batch`` requests, waiting
  at most ``max_wait_ms`` and only while company is likely) with
  per-request latency and hardware-model energy accounting.
* :mod:`repro.serve.transport` — one JSON-over-HTTP server on plain
  sockets, :class:`ModelServer` (``/predict``, ``/healthz``, ``/stats``,
  ``/metrics``, ``/traces``), over either backend: an engine (through the
  in-process :class:`LocalClient`) or a cluster as it is.  The cluster,
  :class:`LocalClient` and the urllib :class:`HTTPClient` share one client
  contract.
* :mod:`repro.serve.cluster` — :class:`ServeCluster`: N engine worker
  *processes* (the single process is GIL-bound) behind one dispatcher with
  round-robin + least-outstanding routing, crash detection/restart, and
  aggregated stats; each worker independently replays the artifact's v1.1
  startup **guardrail** (a held-out calibration batch with its expected
  logits and reference accuracy) and refuses to serve on any drift
  (:class:`GuardrailError`).  Each worker's BLAS thread pool is sized to
  its share of the cores (:mod:`repro.serve.host`), so N workers do not
  each run one BLAS thread per core.
* :mod:`repro.serve.control` / :mod:`repro.serve.metrics` — the adaptive
  control plane: a lock-cheap rolling-window metrics collector sampled by
  every engine (arrivals, rejects, batch occupancy, per-stage latency
  histograms, which merge exactly across workers) feeds ``/stats``,
  ``/metrics`` and a periodic :class:`Controller`.  The controller takes
  an engine or a cluster as it is: it autoscales the cluster between
  ``min_workers``/``max_workers`` (capped at the cores the process may
  use, :func:`~repro.serve.host.effective_cores` — two workers on one core
  is slower than one), AIMD-tunes ``max_wait_ms`` against a p99 SLO, and
  grades load as ok/busy/overloaded.  Overflowing the bounded admission
  queue is backpressure, not failure: :class:`AdmissionError` maps to HTTP
  429 + ``Retry-After``.
* :mod:`repro.obs` (cross-cutting) — optional request tracing: pass a
  :class:`~repro.obs.TraceConfig` as ``tracing=`` to
  :class:`InferenceEngine` or :class:`ServeCluster` and every sampled
  request is recorded as one span tree (admission → queue → batch → codec
  → forward → respond), exposed at ``/traces``, echoed via
  ``X-Repro-Trace-Id``, and exportable as Chrome trace-event JSON.
* :mod:`repro.serve.export` — training-stack integration:
  :func:`export_experiment`, :func:`train_and_export`, and
  :func:`serve_best` (promote a sweep store's winner to an artifact);
  :mod:`repro.serve.loadgen` closes the loop with a concurrent
  load-generator for benchmarks and CI.

Quickstart::

    from repro.api import ExperimentConfig
    from repro.serve import train_and_export, InferenceEngine

    config = ExperimentConfig(dataset="blobs", model="mlp", policy="posit(8,1)")
    train_and_export(config, "model.rpak")
    with InferenceEngine("model.rpak") as engine:
        logits = engine.predict(sample)

or, from the shell: ``repro export --config exp.json --output model.rpak``
then ``repro serve model.rpak --port 8000``.
"""

from .artifact import (
    ARTIFACT_MINOR_VERSION,
    ARTIFACT_VERSION,
    SUPPORTED_VERSIONS,
    ArtifactError,
    artifact_info,
    format_breakdown,
    fp32_state_nbytes,
    iter_tensors,
    load_model,
    load_state,
    read_manifest,
    resolve_format_map,
    save_model,
    segment_table,
)
from .cluster import ClusterConfig, ClusterError, ServeCluster
from .control import ControlConfig, Controller
# The load classifier is exported as ``classify_load``: ``load_state`` at
# package level is the artifact state loader above.
from .control import load_state as classify_load
from .engine import AdmissionError, BatchingConfig, GuardrailError, InferenceEngine
from .export import (
    build_guardrail,
    calibrate_activation_centers,
    default_export_format,
    default_export_format_map,
    export_experiment,
    pick_best_record,
    serve_best,
    train_and_export,
)
from .loadgen import LoadReport, run_load
from .metrics import MetricsCollector, merge_snapshots, render_prometheus
from .packing import pack_codes, packed_nbytes, unpack_codes
from .transport import HTTPClient, LocalClient, ModelServer, ServeClientError

__all__ = [
    "ARTIFACT_VERSION",
    "ARTIFACT_MINOR_VERSION",
    "SUPPORTED_VERSIONS",
    "ArtifactError",
    "GuardrailError",
    "ClusterConfig",
    "ClusterError",
    "ServeCluster",
    "build_guardrail",
    "save_model",
    "load_model",
    "load_state",
    "iter_tensors",
    "artifact_info",
    "read_manifest",
    "segment_table",
    "format_breakdown",
    "resolve_format_map",
    "fp32_state_nbytes",
    "pack_codes",
    "unpack_codes",
    "packed_nbytes",
    "AdmissionError",
    "BatchingConfig",
    "InferenceEngine",
    "Controller",
    "ControlConfig",
    "classify_load",
    "MetricsCollector",
    "merge_snapshots",
    "render_prometheus",
    "ModelServer",
    "LocalClient",
    "HTTPClient",
    "ServeClientError",
    "export_experiment",
    "train_and_export",
    "serve_best",
    "pick_best_record",
    "default_export_format",
    "default_export_format_map",
    "calibrate_activation_centers",
    "run_load",
    "LoadReport",
]
