"""Batched inference engine over packed posit artifacts.

The serving counterpart of :func:`repro.core.inference.evaluate_quantized`:
an :class:`InferenceEngine` loads one packed artifact
(:mod:`repro.serve.artifact`), keeps the decoded weights and the activation
quantizer cached for its lifetime, and serves predictions through **dynamic
micro-batching** — single-sample requests are queued and coalesced into
batches of up to ``max_batch`` samples.  The batcher waits for batch-mates
only while company is likely: requests were already queued behind the
first, or the previous batch found company.  ``max_wait_ms`` caps that
wait; a lone request runs at once.  One forward pass then serves the whole
batch, which is where the throughput comes from: the NumPy forward pass and
the posit quantization kernels are vectorized, so a batch of 32 costs far
less than 32 single-sample passes.

Correctness invariant: the model runs in eval mode (BatchNorm uses frozen
running statistics, Dropout is identity), so every sample's logits are
independent of which batch it landed in — batched predictions are
bit-identical to single-sample ones, which the test suite and the CI smoke
job assert.

Accounting: each request records queue + compute latency and each
coalesced batch counts once, all in the engine's one
:class:`~repro.serve.metrics.MetricsCollector`; batches are priced through
the hardware model (:func:`repro.hardware.inference_step_report` — the
artifact format's MAC datapath and packed-weight memory traffic), giving
the per-request energy column of :meth:`InferenceEngine.stats`.

Startup guardrail (artifact v1.1): when the manifest carries a
``guardrail`` block (a held-out calibration batch with its expected
serving-path logits and reference accuracy), the engine replays it before
accepting any traffic.  A replay that is not bit-identical to the recorded
logits, or whose accuracy drifts beyond the recorded tolerance, raises
:class:`GuardrailError` from the constructor — a process that cannot
reproduce its training-time numbers refuses to serve rather than silently
returning wrong answers.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from ..core.policy import QuantizationPolicy, RoleFormats
from ..formats import NumberFormat, parse_format
from ..nn import Module
from ..obs.profiler import profiler as _codec_profiler
from ..obs.tracing import TraceConfig, Tracer
from ..tensor import Tensor, no_grad
from .artifact import format_breakdown, load_model
from .control import load_state as classify_load, observation
from .host import blas_threads
from .metrics import MetricsCollector

__all__ = ["AdmissionError", "BatchingConfig", "GuardrailError",
           "InferenceEngine"]


class GuardrailError(RuntimeError):
    """The artifact's startup guardrail was violated; the process must not serve.

    Raised when replaying the manifest's held-out calibration batch either
    produces logits that are not bit-identical to the recorded ones, or an
    accuracy outside ``reference_accuracy ± tolerance``.
    """


class AdmissionError(RuntimeError):
    """The bounded admission queue is full; the request was rejected.

    Backpressure, not failure: the transport maps this to HTTP **429** with
    a ``Retry-After`` header derived from :attr:`retry_after_s` (the
    measured time for the queue to drain back to half), so well-behaved
    clients pace themselves instead of stacking onto a blown tail.
    Subclasses ``RuntimeError`` so pre-control-plane callers that caught
    the old queue-full ``RuntimeError`` keep working.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


@dataclass(frozen=True)
class BatchingConfig:
    """Micro-batching knobs.

    ``max_batch`` bounds the coalesced batch size; ``max_wait_ms`` caps
    how long the first request of a batch waits for company (the
    latency/throughput trade-off), a wait the batcher takes only while
    company is likely; ``queue_size`` bounds admission (a full queue
    rejects instead of buffering unboundedly).
    """

    max_batch: int = 32
    max_wait_ms: float = 2.0
    queue_size: int = 4096

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.queue_size < 1:
            # queue.Queue(maxsize=0) has no bound: admission would never shed.
            raise ValueError(f"queue_size must be >= 1, got {self.queue_size}")


class _Request:
    """One queued sample: input array + future + enqueue timestamp.

    ``trace`` carries the request's root :class:`~repro.obs.tracing.ActiveSpan`
    (or ``None`` for untraced requests — the common case, so every trace
    touch downstream is a single ``is not None`` check); ``picked_at`` is
    the batcher's pickup timestamp, recorded only for traced requests so
    queue-wait and batch-assembly spans can be reconstructed after the
    fact.  Spans are recorded retroactively from these timestamps because
    submit and the batch loop run on different threads.
    """

    __slots__ = ("inputs", "future", "enqueued_at", "trace", "picked_at")

    def __init__(self, inputs: np.ndarray):
        self.inputs = inputs
        self.future: Future = Future()
        self.enqueued_at = time.perf_counter()
        self.trace = None
        self.picked_at: Optional[float] = None


#: Wakes a batcher blocked on an empty queue (stop, a between-batches call).
_WAKE = object()


class InferenceEngine:
    """Serve predictions from a packed artifact with dynamic micro-batching.

    Parameters
    ----------
    artifact:
        Path to a packed artifact file (``save_model``/``export_experiment``
        output).
    batching:
        A :class:`BatchingConfig`; ``None`` uses the defaults.
    quantize_activations:
        Quantize layer activations in the artifact's format during the
        forward pass (the Fig. 3a inference path).  The stored weights are
        already on the format grid, so no weight re-quantization happens at
        serving time.
    input_hw:
        Spatial size assumed by the hardware energy model for conv layers.
    verify_guardrail:
        Replay the manifest's v1.1 ``guardrail`` block (when present)
        before the engine is usable; a violation raises
        :class:`GuardrailError`.  ``False`` skips the replay (debugging
        and the export path, which writes the block in the first place).

    Use as a context manager (or call :meth:`start`/:meth:`stop`)::

        with InferenceEngine("model.rpak") as engine:
            logits = engine.predict(sample)
    """

    def __init__(self, artifact: Union[str, os.PathLike],
                 batching: Optional[BatchingConfig] = None,
                 quantize_activations: bool = True,
                 input_hw: tuple[int, int] = (32, 32),
                 verify_guardrail: bool = True,
                 tracing: Optional[TraceConfig] = None):
        self.artifact_path = os.fspath(artifact)
        self.batching = batching or BatchingConfig()
        #: Request tracing (repro.obs): disabled by default, in which case
        #: the hot path pays one attribute check per submit and nothing else.
        self.tracer = Tracer(tracing)
        self._codec_profiling = False
        if self.tracer.enabled and self.tracer.config.profile_codec:
            # Enabled before the artifact loads so the weight-decode
            # (from_bits) cost of startup lands in the codec profile too.
            _codec_profiler.enable()
            self._codec_profiling = True
        self.model, self.manifest = load_model(self.artifact_path)
        #: The artifact's *default* format — the activation-quantization
        #: grid and the MAC datapath the energy model prices.  Weights are
        #: decoded per tensor onto each tensor's own format grid (v2 mixed
        #: precision); :attr:`tensor_formats` holds that assignment.
        self.format: NumberFormat = parse_format(self.manifest["format"])
        self.tensor_formats: dict[str, str] = {
            entry["name"]: entry["format"]
            for entry in self.manifest["tensors"]
            if entry.get("kind") == "param"}
        #: True when the artifact stores parameters in more than one format.
        self.mixed_precision = len(set(self.tensor_formats.values())) > 1
        self.quantize_activations = quantize_activations
        self._policy: Optional[QuantizationPolicy] = None
        if quantize_activations:
            self._attach_serving_policy()
        self.model.eval()

        self._queue: queue.Queue = queue.Queue(maxsize=self.batching.queue_size)
        #: Runtime-tunable coalescing wait (the control plane's AIMD knob);
        #: seeded from the immutable BatchingConfig.
        self._max_wait_ms = float(self.batching.max_wait_ms)
        #: Rolling-window signals the controller steers from (arrival and
        #: completion rates, queue depth, per-stage latency, rejects), and
        #: the lifetime totals ``stats()`` reports.
        self.metrics = MetricsCollector()
        self._stop_event = threading.Event()
        self._worker: Optional[threading.Thread] = None
        #: (fn, future) pairs the batcher runs before its next batch.
        self._calls: deque = deque()
        #: Whether the last batch found company; the batcher only waits for
        #: batch-mates while company is likely, and starts out assuming it.
        self._found_company = True
        model_block = self.manifest.get("model") or {}
        shape = model_block.get("input_shape")
        self._input_shape = tuple(int(dim) for dim in shape) if shape else None
        self._started_at = time.perf_counter()
        #: Written by the batcher thread only.
        self._max_observed_batch = 0
        self._compute_uj_per_sample, self._memory_uj_per_batch = (
            self._price_sample(input_hw))
        self.guardrail_status = "absent"
        #: Replay summary from the last successful :meth:`run_guardrail`;
        #: ``None`` when no replay has passed (absent block, skipped,
        #: or failed).
        self.guardrail_report: Optional[dict] = None
        if self.manifest.get("guardrail"):
            if verify_guardrail:
                self.run_guardrail()
            else:
                self.guardrail_status = "skipped"

    def _attach_serving_policy(self) -> None:
        """Attach batch-invariant activation quantization in the artifact format.

        Serving-side scales must be frozen constants: a dynamically computed
        Eq. (2) scale depends on the whole activation tensor, i.e. on which
        requests the micro-batcher happened to coalesce.  When the manifest
        carries export-time calibration centers they are installed into
        calibrated-mode estimators; otherwise activations quantize unscaled
        (pure element-wise), which is equally batch-invariant.
        """
        calibration = self.manifest.get("activation_calibration") or {}
        centers = calibration.get("centers") or {}
        formats = RoleFormats(weight=None, activation=self.format)
        # Rounding must be deterministic at serving time whatever the
        # artifact was encoded with — stochastic activation rounding would
        # break both repeatability and the batched == single invariant.
        rounding = self.manifest.get("rounding", "nearest")
        if rounding == "stochastic":
            rounding = "nearest"
        policy = QuantizationPolicy(
            conv_formats=formats, bn_formats=formats, linear_formats=formats,
            rounding=rounding,
            use_scaling=bool(centers),
            sigma=int(calibration.get("sigma", self.manifest.get("sigma", 2))),
            scale_mode="calibrated")
        contexts = policy.attach(self.model)
        for name, context in contexts.items():
            scaler = context.scalers.get("activation")
            if scaler is None:
                continue
            if name in centers:
                scaler.set_center(float(centers[name]))
            else:
                # No frozen center for this layer: unscaled beats dynamic
                # (dynamic would re-introduce batch dependence).
                scaler.enabled = False
        self._policy = policy

    # ------------------------------------------------------------------ #
    # Startup guardrail
    # ------------------------------------------------------------------ #
    def run_guardrail(self) -> dict:
        """Replay the manifest's guardrail batch; raise on any violation.

        Three independent checks — accuracy alone can survive numerics
        drift on an easy batch, and bit-identity alone says nothing about
        whether the recorded reference was any good:

        * **per-tensor formats** — when the block records ``tensor_formats``
          (v2 exports), the manifest's current per-tensor specs must match
          exactly; a mixed-precision artifact whose tensor table was
          rewritten to different widths is refused before any replay;
        * **bit-identity** — the serving-path forward pass over the
          recorded inputs must reproduce the recorded logits exactly;
        * **accuracy tolerance** — the replayed accuracy over the batch
          must lie within ``tolerance`` of ``reference_accuracy``.

        Returns a summary dict on success and records it as
        :attr:`guardrail_report`; raises :class:`GuardrailError` otherwise
        (and marks :attr:`guardrail_status` ``"failed"``).
        """
        block = self.manifest.get("guardrail")
        if not block:
            self.guardrail_status = "absent"
            return {"status": "absent"}
        recorded_formats = block.get("tensor_formats")
        if recorded_formats is not None and dict(recorded_formats) != self.tensor_formats:
            drifted = sorted(
                name for name in set(recorded_formats) | set(self.tensor_formats)
                if recorded_formats.get(name) != self.tensor_formats.get(name))
            self.guardrail_status = "failed"
            self.guardrail_report = None
            raise GuardrailError(
                f"guardrail violated for {self.artifact_path}: per-tensor "
                f"format specs drifted from the recorded export "
                f"({', '.join(drifted)}); refusing to serve")
        recorded_quant = bool(block.get("quantize_activations", True))
        if recorded_quant != self.quantize_activations:
            # The reference logits were recorded under a different
            # activation-quantization setting; a bit-identity comparison
            # would be meaningless, and refusing to serve would make the
            # explicit --no-activation-quant escape hatch unusable.
            self.guardrail_status = "skipped"
            return {"status": "skipped",
                    "reason": "activation-quantization setting differs from "
                              "the recorded guardrail"}
        inputs = np.asarray(block["inputs"], dtype=np.float64)
        expected = np.asarray(block["logits"], dtype=np.float64)
        labels = np.asarray(block.get("labels", ()), dtype=np.int64)
        tolerance = float(block.get("tolerance", 0.0))
        reference = block.get("reference_accuracy")
        logits = self._forward(inputs)
        bit_identical = (logits.shape == expected.shape
                         and np.array_equal(logits, expected))
        accuracy = None
        if labels.size:
            accuracy = float(np.mean(np.argmax(logits, axis=1) == labels))
        report = {
            "samples": int(inputs.shape[0]),
            "bit_identical": bool(bit_identical),
            "accuracy": accuracy,
            "reference_accuracy": reference,
            "tolerance": tolerance,
        }
        if not bit_identical:
            self.guardrail_status = "failed"
            self.guardrail_report = None
            mismatches = (int(np.sum(logits != expected))
                          if logits.shape == expected.shape else -1)
            raise GuardrailError(
                f"guardrail violated for {self.artifact_path}: replayed logits "
                f"are not bit-identical to the manifest's recorded logits "
                f"({mismatches} mismatched elements over "
                f"{int(inputs.shape[0])} samples); refusing to serve")
        if (accuracy is not None and reference is not None
                and abs(accuracy - float(reference)) > tolerance):
            self.guardrail_status = "failed"
            self.guardrail_report = None
            raise GuardrailError(
                f"guardrail violated for {self.artifact_path}: replayed "
                f"accuracy {accuracy:.4f} is outside the recorded reference "
                f"{float(reference):.4f} ± {tolerance}; refusing to serve")
        self.guardrail_status = "passed"
        self.guardrail_report = report
        return report

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "InferenceEngine":
        """Start the micro-batcher thread (idempotent)."""
        if (self.tracer.enabled and self.tracer.config.profile_codec
                and not self._codec_profiling):
            # Re-arm codec profiling after a stop()/start() cycle (the
            # constructor enabled it the first time, to cover weight decode).
            _codec_profiler.enable()
            self._codec_profiling = True
        if self._worker is None or not self._worker.is_alive():
            self._stop_event.clear()
            self._worker = threading.Thread(target=self._batch_loop,
                                            name="repro-serve-batcher", daemon=True)
            self._worker.start()
        return self

    def stop(self) -> None:
        """Drain already-queued requests, then stop the micro-batcher thread."""
        if self._codec_profiling:
            # Balance this engine's enable so profiling doesn't leak past
            # the engine's lifetime (the profiler refcounts).
            _codec_profiler.disable()
            self._codec_profiling = False
        if self._worker is not None and self._worker.is_alive():
            self._stop_event.set()
            self._wake()
            self._worker.join(timeout=10.0)
        self._worker = None
        self._run_calls()  # any posted after the batcher's last pass

    def _wake(self) -> None:
        # Best-effort wake-up for a batcher blocked on an empty queue; a
        # full queue needs no nudge (the batcher is busy and polls the
        # event and the posted calls between batches).
        try:
            self._queue.put_nowait(_WAKE)
        except queue.Full:
            pass

    def __enter__(self) -> "InferenceEngine":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Prediction paths
    # ------------------------------------------------------------------ #
    def submit(self, inputs, trace: Optional[dict] = None) -> Future:
        """Enqueue one sample; returns a future resolving to its logits row.

        ``trace`` is an optional propagated trace context
        (``{"trace_id", "parent_id", "sampled"}`` — see
        :mod:`repro.obs.tracing`): when the engine's tracer is enabled the
        request becomes the ``engine`` root span (or a child of the
        propagated parent) and every pipeline stage it crosses —
        admission, queue wait, batch assembly, codec, forward, respond —
        is recorded into the trace.  An upstream ``sampled`` decision is
        honored verbatim; without a context the engine rolls its own
        sampling dice.

        Raises :class:`AdmissionError` (a ``RuntimeError``) when the
        bounded admission queue is full — carrying a measured
        ``retry_after_s`` so the transport can answer 429 + ``Retry-After``
        — and plain ``RuntimeError`` when the engine is not started.
        """
        if self._worker is None or not self._worker.is_alive():
            raise RuntimeError("engine is not started; use start() or a with-block")
        sample = np.asarray(inputs, dtype=np.float64)
        if self._input_shape is not None and sample.shape != self._input_shape:
            # Reject at admission: a malformed sample must fail its own
            # request, never the batch-mates it would be coalesced with.
            raise ValueError(
                f"sample shape {sample.shape} does not match the model's "
                f"input shape {self._input_shape}")
        request = _Request(sample)
        if self.tracer.enabled:
            request.trace = (
                self.tracer.adopt(trace, "engine", start_s=request.enqueued_at)
                if trace is not None
                else self.tracer.begin("engine", start_s=request.enqueued_at))
        self.metrics.count("arrivals")
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            self.metrics.count("rejected")
            if request.trace is not None:
                now = time.perf_counter()
                request.trace.record_child(
                    "admission", request.enqueued_at, now, rejected=True)
                request.trace.finish(now, error="admission-rejected")
            raise AdmissionError(
                f"request queue full ({self.batching.queue_size} in flight)",
                retry_after_s=self.retry_after_s()) from None
        self.metrics.gauge("queue_depth", self._queue.qsize())
        if request.trace is not None:
            request.trace.record_child(
                "admission", request.enqueued_at, time.perf_counter(),
                queue_depth=self._queue.qsize())
        return request.future

    def predict(self, inputs, timeout: Optional[float] = 30.0) -> np.ndarray:
        """Blocking single-sample prediction through the micro-batcher."""
        return self.submit(inputs).result(timeout=timeout)

    def predict_batch(self, inputs) -> np.ndarray:
        """Direct synchronous batch prediction, bypassing the queue.

        The reference path: the micro-batcher produces exactly these logits
        for each member row, whatever batch it coalesced.
        """
        batch = np.asarray(inputs, dtype=np.float64)
        return self._forward(batch)

    def call_between_batches(self, fn: Callable[[], object]) -> Future:
        """Run ``fn`` on the batcher thread before its next batch.

        The safe point for work that must not overlap a forward pass, such
        as resizing the BLAS thread pool: the batcher runs every queued
        request's forward, so none is inside BLAS while ``fn`` runs.
        Without a running batcher ``fn`` runs at once.  The returned
        future resolves to ``fn``'s result or exception.
        """
        future: Future = Future()
        self._calls.append((fn, future))
        if self._worker is None or not self._worker.is_alive():
            self._run_calls()
        else:
            self._wake()
        return future

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _run_calls(self) -> None:
        while self._calls:
            try:
                fn, future = self._calls.popleft()
            except IndexError:  # another thread drained it first
                return
            try:
                future.set_result(fn())
            except Exception as exc:  # noqa: BLE001 - delivered to the caller
                future.set_exception(exc)

    def _forward(self, batch: np.ndarray) -> np.ndarray:
        with no_grad():
            logits = self.model(Tensor(batch))
        return np.asarray(logits.data, dtype=np.float64)

    def _price_sample(self, input_hw: tuple[int, int]) -> tuple[float, float]:
        """Hardware-model energy split: (compute uJ/sample, memory uJ/batch).

        Compute energy scales with every sample in a batch; the packed
        weights are read from memory once per coalesced *batch* — which is
        exactly the energy argument for micro-batching, and why
        ``stats()['energy_uj_total']`` drops as the realized batch size
        grows.

        The hardware model prices the whole model at the default format;
        for a mixed-precision artifact the memory term is rescaled to the
        bytes the blob *actually* packs (each tensor at its own width), so
        exporting the fat BatchNorm tensors wider no longer reads like a
        uniform-width artifact's traffic.
        """
        from ..hardware import inference_step_report

        report = inference_step_report(self.model, self.format, batch_size=1,
                                       input_hw=input_hw)
        memory_uj = float(report["memory_energy_uj"])
        uniform_bytes = (sum(param.size for param in self.model.parameters())
                         * self.format.bits / 8.0)
        packed_bytes = sum(int(entry["nbytes"])
                           for entry in self.manifest["tensors"]
                           if entry.get("kind") == "param")
        if uniform_bytes > 0 and packed_bytes > 0:
            memory_uj *= packed_bytes / uniform_bytes
        return float(report["compute_energy_uj"]), memory_uj

    def _collect_batch(self) -> Optional[list]:
        """Block for the first request, then coalesce while company is likely.

        The batcher waits for batch-mates, up to the ``max_wait_ms`` cap,
        only when requests were already queued behind the first or the
        previous batch found company.  Otherwise it sweeps what is queued
        and returns, so a lone request runs at once.

        Returns ``None`` when the engine is stopping and the queue has been
        drained — already-queued requests are always served before exit.
        The wake sentinel is only a nudge; the stop event is the source of
        truth (a sentinel re-queue could block forever on a saturated
        queue).  Posted :meth:`call_between_batches` work runs here, before
        each wait for a batch's first request.
        """
        first = None
        while first is None:
            self._run_calls()
            try:
                first = self._queue.get(timeout=0.05)
            except queue.Empty:
                if self._stop_event.is_set():
                    return None
                continue
            if first is _WAKE:
                first = None
        if first.trace is not None:
            first.picked_at = time.perf_counter()
        batch = [first]
        company_likely = self._found_company or not self._queue.empty()
        deadline = time.perf_counter() + self._max_wait_ms / 1000.0
        while len(batch) < self.batching.max_batch:
            remaining = deadline - time.perf_counter()
            if not company_likely or remaining <= 0:
                # No company expected, or the deadline passed: still sweep
                # anything already queued, so a burst that landed during the
                # forward pass coalesces even with max_wait_ms=0.
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
            else:
                try:
                    item = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
            if item is _WAKE:
                continue
            if item.trace is not None:
                item.picked_at = time.perf_counter()
            batch.append(item)
        self._found_company = len(batch) > 1
        return batch

    def _serve_batch(self, batch: list) -> Optional[np.ndarray]:
        """Forward one coalesced batch; isolate a poisoned member on failure.

        Shapes are validated at admission, so the fallback only triggers on
        genuinely exceptional inputs — each request is then run alone and
        only the offending one receives the exception.
        """
        try:
            return self._forward(np.stack([request.inputs for request in batch]))
        except Exception:  # noqa: BLE001 - re-run individually to isolate
            rows = []
            for request in batch:
                try:
                    rows.append(self._forward(request.inputs[None])[0])
                except Exception as exc:  # noqa: BLE001 - this request's fault
                    request.future.set_exception(exc)
                    rows.append(None)
            return rows

    def _batch_loop(self) -> None:
        while True:
            batch = self._collect_batch()
            if batch is None:
                return
            traced = [r for r in batch if r.trace is not None]
            # Codec time is measured as the profiler's cumulative-ns delta
            # around the forward pass — the activation quantize/to_bits
            # calls are interleaved with the matmuls, so a batch-aggregated
            # child span is the honest granularity.
            codec_mark = (_codec_profiler.total_ns()
                          if traced and _codec_profiler.active else None)
            forward_start = time.perf_counter()
            logits = self._serve_batch(batch)
            if not isinstance(logits, np.ndarray):
                # Fallback path: drop requests whose future already failed.
                survivors = [(request, row)
                             for request, row in zip(batch, logits)
                             if row is not None]
                for request, row in zip(batch, logits):
                    if row is None and request.trace is not None:
                        request.trace.finish(error="forward-failed")
                if not survivors:
                    continue
                batch = [request for request, _ in survivors]
                logits = np.stack([row for _, row in survivors])
                traced = [r for r in batch if r.trace is not None]
            done = time.perf_counter()
            self.metrics.count("completed", len(batch))
            self.metrics.count("batches")
            self.metrics.gauge("batch_size", len(batch))
            self.metrics.gauge("batch_occupancy",
                               len(batch) / self.batching.max_batch)
            self.metrics.gauge("queue_depth", self._queue.qsize())
            compute_s = done - forward_start
            for request in batch:
                self.metrics.observe("queue", forward_start - request.enqueued_at)
                self.metrics.observe("compute", compute_s)
                self.metrics.observe("total", done - request.enqueued_at)
            self._max_observed_batch = max(self._max_observed_batch, len(batch))
            if traced:
                codec_ns = (None if codec_mark is None
                            else _codec_profiler.total_ns() - codec_mark)
                self._record_batch_spans(traced, len(batch), forward_start,
                                         done, codec_ns)
            for row, request in enumerate(batch):
                # Close the trace *before* resolving the future: a caller
                # collecting spans right after .result() (the cluster
                # worker reply path) must see a complete trace.
                if request.trace is not None:
                    now = time.perf_counter()
                    request.trace.record_child("respond", done, now)
                    request.trace.finish(now, batch_size=len(batch))
                request.future.set_result(logits[row])

    def _record_batch_spans(self, traced: list, batch_size: int,
                            forward_start: float, done: float,
                            codec_ns: Optional[int]) -> None:
        """Retroactively emit queue/batch/codec/forward spans for a batch.

        Stage boundaries come from timestamps the pipeline collected:
        enqueue -> pickup is queue wait, pickup -> forward start is batch
        assembly (waiting for company), then the shared forward pass with
        its batch-aggregated codec child.
        """
        for request in traced:
            root = request.trace
            picked = request.picked_at if request.picked_at is not None else forward_start
            root.record_child("queue", request.enqueued_at, picked)
            root.record_child("batch", picked, forward_start,
                              batch_size=batch_size)
            fwd = root.record_child("forward", forward_start, done,
                                    batch_size=batch_size)
            if codec_ns:
                self.tracer.record_span(
                    "codec", forward_start, forward_start + codec_ns / 1e9,
                    trace_id=root.trace_id, parent_id=fwd.span_id,
                    annotations={"scope": "batch", "codec_ns": int(codec_ns)})

    # ------------------------------------------------------------------ #
    # Control surface
    # ------------------------------------------------------------------ #
    @property
    def max_wait_ms(self) -> float:
        """The *current* coalescing wait (the controller may have moved it)."""
        return self._max_wait_ms

    def set_max_wait_ms(self, value: float) -> float:
        """Retune the coalescing wait online (clamped to >= 0).

        The AIMD actuator: longer waits buy batch occupancy (throughput),
        shorter waits buy tail latency; the batcher reads the new value on
        its next coalescing deadline, so no request in flight is disturbed.
        """
        self._max_wait_ms = max(0.0, float(value))
        return self._max_wait_ms

    def observe(self) -> dict:
        """One controller reading of this engine's metrics and queue."""
        return observation(self.metrics.snapshot(),
                           queue_depth=self.queue_depth,
                           queue_capacity=self.batching.queue_size,
                           workers=1, workers_alive=1)

    def scale_to(self, target: int) -> int:
        """A single engine has no workers to scale: applies nothing, returns 0."""
        return 0

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a batch (approximate, lock-free)."""
        return self._queue.qsize()

    def retry_after_s(self) -> float:
        """Measured backoff hint for rejected clients.

        Time for the queue to drain to half at the observed completion
        rate; clamped to [0.05 s, 5 s], defaulting to 1 s before any
        completions have been measured.
        """
        rate = self.metrics.rate("completed", 2.0)
        if rate <= 0:
            return 1.0
        return float(min(5.0, max(0.05, (self.batching.queue_size / 2) / rate)))

    def load_state(self) -> str:
        """``ok`` / ``busy`` / ``overloaded`` from queue depth and rejects.

        Rejections observed in the last second keep the state
        ``overloaded`` (clients are being turned away *now*); utilization
        alone grades ``ok`` -> ``busy`` -> ``overloaded``.
        """
        utilization = self._queue.qsize() / self.batching.queue_size
        return classify_load(utilization,
                             self.metrics.count_in("rejected", 1.0))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Counters + latency percentiles + hardware-model energy totals,
        all read from one metrics snapshot (percentiles: its window)."""
        snapshot = self.metrics.snapshot()
        lifetime = snapshot["lifetime"]
        requests = lifetime.get("completed", 0)
        batches = lifetime.get("batches", 0)
        total = snapshot["latency_ms"].get("total", {})
        energy = (self._compute_uj_per_sample * requests
                  + self._memory_uj_per_batch * batches)
        payload = {
            "artifact": self.artifact_path,
            "format": self.format.spec(),
            "mixed_precision": self.mixed_precision,
            # The compact per-format summary only: the full per-parameter
            # assignment (engine.tensor_formats) is static after load and
            # would bloat every /stats poll O(params) for nothing.
            "formats": format_breakdown(self.manifest),
            "model": (self.manifest.get("model") or {}).get("model"),
            "guardrail": self.guardrail_status,
            "requests": requests,
            "rejected": lifetime.get("rejected", 0),
            "batches": batches,
            "mean_batch_size": (requests / batches) if batches else 0.0,
            "max_batch_seen": self._max_observed_batch,
            "max_batch": self.batching.max_batch,
            "max_wait_ms": self._max_wait_ms,
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self.batching.queue_size,
            "load_state": self.load_state(),
            "metrics": snapshot,
            "latency_p50_ms": total.get("p50", 0.0),
            "latency_p99_ms": total.get("p99", 0.0),
            "energy_uj_per_sample": (self._compute_uj_per_sample
                                     + self._memory_uj_per_batch),
            "energy_uj_compute_per_sample": self._compute_uj_per_sample,
            "energy_uj_memory_per_batch": self._memory_uj_per_batch,
            "energy_uj_total": energy,
            "energy_uj_per_request_observed": (energy / requests) if requests else 0.0,
            # Read back from OpenBLAS (None when numpy is not on it): a
            # cluster worker's share of the cores, else the process default.
            "blas_threads": blas_threads(),
            "uptime_s": time.perf_counter() - self._started_at,
            "tracing": self.tracer.summary(),
        }
        if self._codec_profiling:
            payload["codec_profile"] = _codec_profiler.snapshot()
        return payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"InferenceEngine({self.artifact_path!r}, "
                f"format={self.format.spec()}, "
                f"max_batch={self.batching.max_batch})")
