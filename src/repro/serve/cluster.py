"""Multi-worker serving: N engine processes behind one dispatcher.

The single-process :class:`~repro.serve.engine.InferenceEngine` is
thread-safe but GIL-bound: its NumPy forward passes release the GIL only
partially, so one process cannot use more than roughly one core of MAC
throughput.  :class:`ServeCluster` is the scale-out tier the ROADMAP asks
for: a supervisor forks ``workers`` engine processes, each of which loads
the packed artifact *independently* (and therefore replays the artifact's
v1.1 startup guardrail independently — a worker that cannot reproduce the
recorded logits exits non-zero and never serves), and dispatches requests
over per-worker :func:`multiprocessing.Pipe` pairs.

Dispatch is round-robin with a least-outstanding fallback: the rotor picks
the next live worker, but when that worker already has more requests in
flight than the least-loaded one (a slow batch, a GC pause), the request is
routed to the least-loaded worker instead — cheap balancing that keeps one
stuck worker from queueing the world.

Supervision: a monitor thread watches worker processes.  A crashed worker
(segfault, OOM kill, operator ``kill -9``) has its in-flight requests
failed over to the surviving workers (one transparent retry per request),
and is restarted up to ``max_restarts`` times — the restarted process
re-runs the guardrail before rejoining the rotation.  Workers that *refuse*
to start (guardrail violation) are not restarted: the failure is
deterministic, so a restart loop would only burn CPU.

Shutdown drains: :meth:`ServeCluster.stop` stops admitting new requests,
sends every worker a shutdown message (each worker drains its engine's
queued requests before exiting), then joins — escalating to ``terminate``
only for workers that fail to exit in time.

The cluster speaks the transports' client contract itself
(``predict``/``healthz``/``stats``/``traces``/``metrics``), so
:func:`repro.serve.loadgen.run_load` drives it directly and
:class:`repro.serve.transport.ModelServer` puts it behind one HTTP
listener; it answers the :class:`~repro.serve.control.Controller` as an
engine does (``observe``, ``max_wait_ms``, ``set_max_wait_ms``,
``scale_to``).
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing as mp
import os
import signal
import threading
import time
from concurrent.futures import Future, TimeoutError as FuturesTimeout
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ..obs.tracing import TraceConfig, Tracer
from .control import load_state as classify_load, observation
from .engine import AdmissionError, BatchingConfig, GuardrailError, InferenceEngine
from .host import blas_budget, blas_threads, effective_cores, set_blas_threads
from .metrics import MetricsCollector, merge_snapshots, render_prometheus

__all__ = ["ClusterConfig", "ServeCluster", "ClusterError", "WorkerCrashed"]


class ClusterError(RuntimeError):
    """Cluster-level failure (no live workers, failed startup, stopped)."""


class WorkerCrashed(RuntimeError):
    """A request was in flight on a worker that died (internal; retried)."""


#: Worker states tracked by the supervisor.  ``retired`` is terminal and
#: voluntary: the autoscaler drained the worker and shut it down — never
#: restarted, never dispatched to, not a liveness defect.
_STARTING, _READY, _FAILED, _DEAD, _RETIRED = (
    "starting", "ready", "failed", "dead", "retired")

def _cluster_context(name: Optional[str]) -> mp.context.BaseContext:
    """Start-method context: ``fork`` where available (fast, inherits the
    loaded library), else ``spawn``; overridable for platform debugging."""
    if name is not None:
        return mp.get_context(name)
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _worker_main(index: int, artifact: str, batching: Optional[dict],
                 quantize_activations: bool, verify_guardrail: bool,
                 blas_threads_budget: int, conn,
                 tracing: Optional[dict] = None) -> None:
    """Engine worker process body.

    The BLAS thread budget applies first, so the engine loads and replays
    the guardrail on the pool it will serve with; a forked child inherits
    the supervisor's pool and a spawned one starts its own, and both are
    resized here.  Then the handshake: construct the engine (which replays
    the guardrail) and report ``ready`` or ``failed`` — a guardrail
    violation makes the worker exit with a non-zero status without ever
    serving a request.

    Then the receive loop serves the pipe with no handler threads: it
    submits a ``predict`` message's samples to the engine itself, and the
    done-callback of whichever of their futures resolves last sends the
    reply, on the batcher thread.  A ``blas_threads`` control replies the
    same way from its between-batches call; ``stats`` (the engine's stats,
    metrics snapshot included: every supervisor poll reads it), ``ping``
    and the rest of ``control`` are answered inline.  Every message gets
    exactly one reply: a rejected submit (``AdmissionError``,
    ``ValueError``) or a reply that fails to build becomes an error reply.
    On shutdown the engine drains its queued requests, whose callbacks
    still reply.
    """
    set_blas_threads(blas_threads_budget)
    # A terminal Ctrl-C signals the whole foreground process group; shutdown
    # is the supervisor's job (via the pipe), so workers must not die — or
    # spray KeyboardInterrupt tracebacks — on the operator's SIGINT.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread/platform
        pass

    send_lock = threading.Lock()

    def reply(payload: dict) -> None:
        with send_lock:
            try:
                conn.send(payload)
            except (BrokenPipeError, OSError):  # supervisor is gone
                pass

    try:
        engine = InferenceEngine(
            artifact,
            BatchingConfig(**batching) if batching else None,
            quantize_activations=quantize_activations,
            verify_guardrail=verify_guardrail,
            tracing=TraceConfig.from_dict(tracing) if tracing else None)
    except BaseException as exc:  # noqa: BLE001 - report, then refuse to serve
        reply({"kind": "failed", "worker": index,
               "etype": type(exc).__name__, "error": str(exc)})
        conn.close()
        raise SystemExit(1)

    reply({"kind": "ready", "worker": index, "pid": os.getpid(),
           "guardrail": engine.guardrail_status,
           "blas_threads": blas_threads()})
    engine.start()

    def error_reply(message: dict, exc: Exception) -> dict:
        payload = {"id": message["id"], "ok": False,
                   "etype": type(exc).__name__, "error": str(exc)}
        retry_after = getattr(exc, "retry_after_s", None)
        if retry_after is not None:
            # Backpressure must survive the pipe: the supervisor
            # rebuilds a typed AdmissionError so the transport can
            # answer 429 + Retry-After.
            payload["retry_after_s"] = float(retry_after)
        return payload

    def respond(message: dict, futures: list,
                build: Callable[[list], dict]) -> None:
        """Reply ``build(results)``, or the error a future or ``build`` raised."""
        try:
            payload = {"id": message["id"], "ok": True,
                       "result": build([future.result() for future in futures])}
        except Exception as exc:  # noqa: BLE001 - errors travel the pipe
            payload = error_reply(message, exc)
        reply(payload)

    def when_done(futures: list, then: Callable[[], None]) -> None:
        """Run ``then`` once every future is done: on the thread that
        finishes the last one, or at once when none is pending."""
        pending = [future for future in futures if not future.done()]
        if pending:
            pending[-1].add_done_callback(lambda _: when_done(pending, then))
        else:
            then()

    def predicted(trace_ctx: Optional[dict], logits: list) -> dict:
        result = {
            "predictions": [int(np.argmax(row)) for row in logits],
            "logits": [np.asarray(row, dtype=np.float64).tolist()
                       for row in logits],
            "worker": index,
        }
        if trace_ctx and trace_ctx.get("sampled", True):
            # Ship this request's worker-side spans back with the reply;
            # the supervisor merges them into one trace.  Safe to collect
            # here: the engine closes a request's spans before resolving
            # its future.
            result["trace_spans"] = [
                span.to_dict() for span in
                engine.tracer.spans(trace_ctx.get("trace_id"))]
        return result

    def handle(message: dict) -> tuple[list, Callable[[list], dict]]:
        """Start one message's work: (futures to await, reply builder)."""
        kind = message["kind"]
        if kind == "predict":
            trace_ctx = message.get("trace")
            futures = [engine.submit(sample, trace=trace_ctx)
                       for sample in message["samples"]]
            return futures, lambda logits: predicted(trace_ctx, logits)
        if kind == "stats":
            return [], lambda _: {**engine.stats(), "worker": index,
                                  "pid": os.getpid()}
        if kind == "control":
            # Actuation from the supervisor's controller.
            if "max_wait_ms" in message:
                engine.set_max_wait_ms(message["max_wait_ms"])
            futures = []
            if "blas_threads" in message:
                # Between batches: never resize the pool under a forward.
                threads = message["blas_threads"]
                futures.append(engine.call_between_batches(
                    lambda: set_blas_threads(threads)))
            return futures, lambda _: {"worker": index,
                                       "max_wait_ms": engine.max_wait_ms}
        if kind == "ping":
            return [], lambda _: {"worker": index, "pid": os.getpid()}
        raise ValueError(f"unknown message kind {kind!r}")

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message.get("kind") == "shutdown":
                break
            try:
                futures, build = handle(message)
            except Exception as exc:  # noqa: BLE001 - errors travel the pipe
                reply(error_reply(message, exc))
                continue
            when_done(futures, functools.partial(respond, message, futures,
                                                 build))
    finally:
        engine.stop()  # drains already-queued requests before exit
        conn.close()


class ClusterConfig:
    """Knobs for :class:`ServeCluster` (kept JSON-able for the CLI)."""

    def __init__(self, workers: int = 2, max_restarts: int = 2,
                 start_timeout_s: float = 120.0,
                 monitor_interval_s: float = 0.2,
                 mp_context: Optional[str] = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        self.workers = int(workers)
        self.max_restarts = int(max_restarts)
        self.start_timeout_s = float(start_timeout_s)
        self.monitor_interval_s = float(monitor_interval_s)
        self.mp_context = mp_context


class _WorkerHandle:
    """Supervisor-side view of one worker process."""

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.conn = None
        self.state = _STARTING
        self.ready_event = threading.Event()
        self.failure: Optional[str] = None
        self.guardrail: Optional[str] = None
        self.pid: Optional[int] = None
        self.restarts = 0
        self.dispatched = 0
        #: Incremented on every (re)spawn; reader threads tag themselves
        #: with it so a stale reader (previous incarnation's pipe) cannot
        #: mutate the state of a restarted worker.
        self.epoch = 0
        self.send_lock = threading.Lock()
        self.pending_lock = threading.Lock()
        self.pending: dict[int, Future] = {}
        self.reader: Optional[threading.Thread] = None

    @property
    def outstanding(self) -> int:
        """Requests sent to this worker and not yet answered."""
        return len(self.pending)

    def send(self, message: dict) -> None:
        """Write one message down the pipe; ``OSError`` once it is closed."""
        with self.send_lock:
            if self.conn is None:
                raise OSError(f"worker {self.index} pipe is closed")
            self.conn.send(message)

    def close_conn(self) -> None:
        """Close the supervisor's end of the pipe; only one caller does.

        ``Connection.close`` is not thread-safe: two closers can both find
        the pipe open and close its descriptor twice (``EBADF``, or worse,
        a descriptor already reused).  Swapping ``conn`` out under the
        send lock hands the pipe to exactly one closer, never mid-send.
        """
        with self.send_lock:
            conn, self.conn = self.conn, None
        if conn is not None:
            conn.close()

    def fail_pending(self, reason: str) -> None:
        with self.pending_lock:
            pending, self.pending = self.pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(WorkerCrashed(reason))


class ServeCluster:
    """Supervise N engine worker processes behind one dispatch surface.

    Parameters mirror :class:`~repro.serve.engine.InferenceEngine` where
    they overlap; ``config`` holds the cluster-level knobs.  Use as a
    context manager (or call :meth:`start`/:meth:`stop`)::

        with ServeCluster("model.rpak", ClusterConfig(workers=4)) as cluster:
            payload = cluster.predict([sample])

    :meth:`start` raises :class:`GuardrailError` when *every* worker
    refuses to serve because of a guardrail violation (the acceptance
    condition for a corrupted artifact), and :class:`ClusterError` when no
    worker comes up for any other reason.
    """

    def __init__(self, artifact: Union[str, os.PathLike],
                 config: Optional[ClusterConfig] = None,
                 batching: Optional[BatchingConfig] = None,
                 quantize_activations: bool = True,
                 verify_guardrail: bool = True,
                 tracing: Optional[TraceConfig] = None):
        self.artifact_path = os.fspath(artifact)
        self.config = config or ClusterConfig()
        self.batching = batching
        self.quantize_activations = quantize_activations
        self.verify_guardrail = verify_guardrail
        #: Request tracing (repro.obs).  The supervisor owns the sampling
        #: decision (head-based, once per request); workers receive the
        #: same config at spawn and record spans only for requests whose
        #: pipe message carries a sampled trace context, which the reply
        #: ships back for the supervisor to merge — one request, one trace,
        #: across processes.
        self.tracing = tracing
        self.tracer = Tracer(tracing)
        self._ctx = _cluster_context(self.config.mp_context)
        self._handles: list[_WorkerHandle] = []
        #: Workers the autoscaler removed: kept until drained so their
        #: in-flight replies still resolve, swept on stop().
        self._retired: list[_WorkerHandle] = []
        #: Guards handle-list mutations (autoscaling) against the monitor,
        #: dispatch, and introspection walking the list concurrently.
        self._handles_lock = threading.Lock()
        self._rotor = itertools.count()
        self._next_index = itertools.count(self.config.workers)
        self._target_workers = self.config.workers
        self._ids = itertools.count(1)
        self._id_lock = threading.Lock()
        self._started = False
        self._stopping = False
        self._monitor: Optional[threading.Thread] = None
        self._monitor_stop = threading.Event()
        self._started_at = time.perf_counter()
        self._format_summary: Optional[dict] = None
        #: Supervisor-side rolling counters: the admission rejects relayed
        #: from workers (the cheap signal healthz grades load from without a
        #: worker round trip) and scale moves.
        self._supervisor_metrics = MetricsCollector()
        self._max_wait_ms = float((batching or BatchingConfig()).max_wait_ms)
        self._queue_size = int((batching or BatchingConfig()).queue_size)
        #: The CPU budget every worker's BLAS pool is sized from: cores
        #: this process may use, and its own pool size, which caps the
        #: per-worker share (see :attr:`blas_threads_budget`).
        self.effective_cores = effective_cores()
        self._blas_pool = blas_threads()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _batching_payload(self) -> dict:
        """Worker BatchingConfig kwargs, with the *tuned* coalescing wait.

        A worker spawned after the controller moved ``max_wait_ms`` (a
        crash restart, an autoscale add) must join at the tuned operating
        point, not the startup guess.
        """
        payload = dict(self.batching.__dict__) if self.batching else {}
        payload["max_wait_ms"] = self._max_wait_ms
        return payload

    def _spawn(self, handle: _WorkerHandle) -> None:
        """(Re)start one worker: fresh pipe, process, and reader thread."""
        if handle.reader is not None:
            # A restart: the dead worker's reader is at EOF; close its pipe
            # once the reader is off it.
            handle.reader.join(timeout=5.0)
            handle.close_conn()
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(handle.index, self.artifact_path,
                  self._batching_payload(),
                  self.quantize_activations, self.verify_guardrail,
                  self.blas_threads_budget, child_conn,
                  self.tracing.to_dict() if self.tracing else None),
            name=f"repro-serve-worker-{handle.index}",
            daemon=True)
        handle.conn = parent_conn
        handle.process = process
        handle.state = _STARTING
        handle.ready_event.clear()
        handle.failure = None
        handle.epoch += 1
        process.start()
        child_conn.close()  # the child's end lives in the child now
        handle.reader = threading.Thread(
            target=self._read_loop, args=(handle, parent_conn, handle.epoch),
            name=f"repro-serve-reader-{handle.index}", daemon=True)
        handle.reader.start()

    def _read_loop(self, handle: _WorkerHandle, conn, epoch: int) -> None:
        """Pump one worker's pipe: handshakes and request replies."""
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message.get("kind")
            if kind == "ready":
                handle.pid = message.get("pid")
                handle.guardrail = message.get("guardrail")
                if handle.state != _RETIRED:
                    # A worker retired while still starting must not
                    # re-enter the rotation on its late handshake.
                    handle.state = _READY
                budget = self.blas_threads_budget
                if message.get("blas_threads") not in (None, budget):
                    # The target moved while this worker started (scale_to
                    # re-budgets only live workers).  Reply goes unread.
                    try:
                        self._send(handle, {"kind": "control",
                                            "blas_threads": budget})
                    except WorkerCrashed:
                        pass
                handle.ready_event.set()
                continue
            if kind == "failed":
                handle.failure = f"{message.get('etype')}: {message.get('error')}"
                handle.state = _FAILED
                handle.ready_event.set()
                continue
            with handle.pending_lock:
                future = handle.pending.pop(message.get("id"), None)
            if future is None:
                continue
            if message.get("ok"):
                future.set_result(message["result"])
            elif message.get("etype") == "AdmissionError":
                # Typed backpressure: rebuild the engine's rejection with
                # its Retry-After hint and tally it supervisor-side so
                # healthz can report 'overloaded' without a worker poll.
                self._supervisor_metrics.count("rejected")
                future.set_exception(AdmissionError(
                    message.get("error", "request queue full"),
                    retry_after_s=float(message.get("retry_after_s", 1.0))))
            else:
                exc_type = {"ValueError": ValueError,
                            "TypeError": TypeError}.get(
                                message.get("etype"), RuntimeError)
                future.set_exception(exc_type(message.get("error", "worker error")))
        # Pipe closed: the worker exited or crashed.  Startup refusals keep
        # their 'failed' state (deterministic, never restarted); anything
        # else becomes 'dead' and is the monitor's problem.  A stale reader
        # (the handle has already been respawned under a newer epoch) must
        # not touch the new incarnation's state or pending requests.
        if handle.epoch != epoch:
            return
        if handle.state not in (_FAILED, _RETIRED):
            handle.state = _DEAD
        handle.ready_event.set()
        handle.fail_pending(f"worker {handle.index} exited mid-request")

    def start(self, timeout: Optional[float] = None) -> "ServeCluster":
        """Start every worker and wait for their startup handshakes."""
        if self._started:
            return self
        timeout = self.config.start_timeout_s if timeout is None else timeout
        self._target_workers = self.config.workers
        self._handles = [_WorkerHandle(index)
                         for index in range(self.config.workers)]
        for handle in self._handles:
            self._spawn(handle)
        deadline = time.monotonic() + timeout
        for handle in self._handles:
            remaining = max(0.0, deadline - time.monotonic())
            if not handle.ready_event.wait(remaining):
                handle.failure = "startup handshake timed out"
                handle.state = _FAILED
        ready = [handle for handle in self._handles if handle.state == _READY]
        if not ready:
            failures = "; ".join(
                f"worker {handle.index}: {handle.failure or handle.state}"
                for handle in self._handles)
            self._terminate_all()
            if all("GuardrailError" in (handle.failure or "")
                   for handle in self._handles):
                raise GuardrailError(
                    f"every worker refused to serve {self.artifact_path}: "
                    f"{failures}")
            raise ClusterError(
                f"no worker of {self.config.workers} started for "
                f"{self.artifact_path}: {failures}")
        self._started = True
        self._stopping = False
        self._monitor_stop.clear()
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="repro-serve-monitor",
                                         daemon=True)
        self._monitor.start()
        return self

    def _monitor_loop(self) -> None:
        """Detect crashed workers and restart them within budget."""
        while not self._monitor_stop.wait(self.config.monitor_interval_s):
            with self._handles_lock:
                handles = list(self._handles)
            for handle in handles:
                if self._stopping:
                    return
                process = handle.process
                if (handle.state in (_READY, _DEAD)
                        and process is not None and not process.is_alive()):
                    if handle.state == _READY:
                        handle.state = _DEAD
                        handle.fail_pending(
                            f"worker {handle.index} died (pid {handle.pid})")
                    if handle.restarts < self.config.max_restarts:
                        handle.restarts += 1
                        self._spawn(handle)

    def _terminate_all(self) -> None:
        with self._handles_lock:
            handles = list(self._handles) + list(self._retired)
        for handle in handles:
            if handle.process is not None and handle.process.is_alive():
                handle.process.terminate()
            if handle.process is not None:
                handle.process.join(timeout=5.0)
            handle.close_conn()

    def stop(self, drain_timeout_s: float = 10.0) -> None:
        """Drain and stop every worker, then the monitor (idempotent)."""
        if not self._started:
            return
        self._stopping = True
        self._monitor_stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
        with self._handles_lock:
            handles = list(self._handles)
        for handle in handles:
            if handle.state == _READY:
                try:
                    handle.send({"kind": "shutdown"})
                except OSError:
                    pass
        deadline = time.monotonic() + drain_timeout_s
        for handle in handles:
            if handle.process is not None:
                handle.process.join(timeout=max(0.1, deadline - time.monotonic()))
        self._terminate_all()
        self._started = False

    def __enter__(self) -> "ServeCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _live_handles(self) -> list[_WorkerHandle]:
        with self._handles_lock:
            return [handle for handle in self._handles
                    if handle.state == _READY]

    def _pick_worker(self, exclude: frozenset = frozenset()) -> _WorkerHandle:
        """Round-robin over live workers, least-outstanding fallback.

        The worker set is dynamic under autoscaling, so the rotor is a
        plain counter over the *current* live list rather than a cycle of
        startup indices.  ``exclude`` holds worker indices a failed-over
        request already tried; they are avoided while any other live
        worker exists (the reader thread may not have noticed the crash
        yet, and handing the retry back to the same dying worker would
        waste the one failover).
        """
        live = self._live_handles()
        if not live:
            raise ClusterError("no live workers (all crashed or refused to serve)")
        if exclude:
            preferred = [handle for handle in live
                         if handle.index not in exclude]
            if preferred:
                live = preferred
        choice = live[next(self._rotor) % len(live)]
        least = min(live, key=lambda handle: handle.outstanding)
        if choice.outstanding > least.outstanding:
            return least
        return choice

    def _send(self, handle: _WorkerHandle, message: dict) -> Future:
        """Send one message to one worker; the future resolves to its reply."""
        with self._id_lock:
            request_id = next(self._ids)
        message = {**message, "id": request_id}
        future: Future = Future()
        with handle.pending_lock:
            handle.pending[request_id] = future
        try:
            handle.send(message)
        except OSError as exc:
            with handle.pending_lock:
                handle.pending.pop(request_id, None)
            # A broken pipe means the worker is gone even if its reader
            # thread has not hit EOF yet; mark it dead now so dispatch
            # stops routing to it and the monitor restarts it promptly.
            if handle.state == _READY:
                handle.state = _DEAD
                handle.fail_pending(f"worker {handle.index} pipe closed")
            raise WorkerCrashed(f"worker {handle.index} pipe closed") from exc
        if message["kind"] == "predict":
            handle.dispatched += 1
        return future

    def _request(self, handle: _WorkerHandle, message: dict,
                 timeout: float) -> dict:
        """Send one message to one worker and wait for its reply."""
        return self._send(handle, message).result(timeout=timeout)

    def predict(self, samples: Sequence, timeout: float = 60.0,
                trace_id: Optional[str] = None) -> dict:
        """Transport-contract prediction: route one request to one worker.

        A request whose worker dies mid-flight is retried once on a
        surviving worker — the failover that makes ``kill -9`` of a worker
        invisible to well-behaved clients.  With tracing enabled (and the
        request sampled) the supervisor opens the ``request`` root span,
        wraps each attempt in a ``dispatch`` child (a failover retry is
        the *same* trace, second dispatch annotated ``retry=True``), ships
        the context to the worker in the pipe message, merges the worker's
        spans from the reply, and echoes ``trace_id`` in the payload.
        ``trace_id`` lets a client (the HTTP header path) supply its own.

        Raises ``ValueError`` for malformed input (mapped to HTTP 400),
        :class:`ClusterError` when no workers are live (503), and
        :class:`concurrent.futures.TimeoutError` on timeout (504).
        """
        if not self._started or self._stopping:
            raise ClusterError("cluster is not running; use start() or a with-block")
        if (not isinstance(samples, (list, tuple, np.ndarray))
                or not len(samples)):
            raise ValueError("'inputs' must be a non-empty list of samples")
        payload = [np.asarray(sample, dtype=np.float64) for sample in samples]
        root = self.tracer.begin("request", trace_id=trace_id,
                                 annotations={"samples": len(payload)})
        # An explicitly unsampled context stops worker engines from rolling
        # their own dice on this request — the supervisor's decision is the
        # only one, so a trace is always whole or absent.
        ctx_unsampled = {"sampled": False} if self.tracer.enabled else None
        last_error: Optional[BaseException] = None
        tried: set[int] = set()
        for attempt in range(2):
            try:
                handle = self._pick_worker(exclude=frozenset(tried))
            except ClusterError:
                if root is not None:
                    root.finish(error="no live workers")
                raise
            tried.add(handle.index)
            message = {"kind": "predict", "samples": payload}
            dispatch = None
            if root is not None:
                dispatch = root.child("dispatch", annotations={
                    "worker": handle.index, "attempt": attempt,
                    "retry": attempt > 0})
                message["trace"] = dispatch.context()
            elif ctx_unsampled is not None:
                message["trace"] = ctx_unsampled
            try:
                result = self._request(handle, message, timeout)
            except WorkerCrashed as exc:
                if dispatch is not None:
                    dispatch.finish(error=str(exc))
                last_error = exc
                continue
            except BaseException as exc:
                if dispatch is not None:
                    dispatch.finish(error=repr(exc))
                if root is not None:
                    root.finish(error=repr(exc))
                raise
            if dispatch is not None:
                dispatch.finish()
            if root is not None:
                self.tracer.ingest(result.pop("trace_spans", ()))
                root.finish()
                result.setdefault("trace_id", root.trace_id)
            else:
                result.pop("trace_spans", None)
            return result
        if root is not None:
            root.finish(error=f"failed over twice: {last_error}")
        raise ClusterError(
            f"request failed over twice without a survivor: {last_error}")

    def predict_on(self, worker_index: int, samples: Sequence,
                   timeout: float = 60.0) -> dict:
        """Pin one prediction to one worker (cross-worker identity checks)."""
        for handle in self._live_handles():
            if handle.index == worker_index:
                payload = [np.asarray(sample, dtype=np.float64)
                           for sample in samples]
                return self._request(handle, {"kind": "predict",
                                              "samples": payload}, timeout)
        raise ClusterError(f"worker {worker_index} is not live")

    # ------------------------------------------------------------------ #
    # Control surface (the autoscaler's actuators and sensors)
    # ------------------------------------------------------------------ #
    @property
    def running(self) -> bool:
        return self._started and not self._stopping

    @property
    def target_workers(self) -> int:
        """The worker count the cluster is currently steering toward."""
        return self._target_workers

    @property
    def max_wait_ms(self) -> float:
        """The tuned coalescing wait last broadcast to the workers."""
        return self._max_wait_ms

    @property
    def blas_threads_budget(self) -> int:
        """BLAS threads per worker: ``max(1, min(P, C // W))``.

        ``C`` is :attr:`effective_cores`, ``W`` the target worker count and
        ``P`` this process's own OpenBLAS pool, so an operator's lower
        ``OPENBLAS_NUM_THREADS`` still wins.  W workers that each kept a
        pool of C threads would time-slice W x C threads on C cores.
        """
        return blas_budget(self._target_workers, self.effective_cores,
                           self._blas_pool)

    def _broadcast_control(self, **fields) -> None:
        """Send one ``control`` message to every live worker engine."""
        for handle in self._live_handles():
            try:
                self._request(handle, {"kind": "control", **fields},
                              timeout=5.0)
            except (WorkerCrashed, FuturesTimeout, ClusterError, RuntimeError):
                continue

    def set_max_wait_ms(self, value: float) -> float:
        """Broadcast a new coalescing wait to every live worker engine."""
        value = max(0.0, float(value))
        self._max_wait_ms = value  # recorded first: restarts inherit it
        self._broadcast_control(max_wait_ms=value)
        return value

    def scale_to(self, target: int) -> int:
        """Grow or shrink the worker set to ``target`` with zero drops.

        Growing spawns fresh workers that join the rotation once their
        startup handshake (guardrail replay included) lands.  Shrinking
        *retires* the least-loaded workers: they leave the dispatch
        rotation immediately, their in-flight requests complete and reply
        normally, and only then does a background drain send the shutdown
        message — an autoscale-down is invisible to clients.  A new target
        moves the per-worker BLAS budget: new workers start with it and the
        live ones are re-budgeted before this returns.  Returns the delta
        actually applied (0 when already at target).
        """
        target = int(target)
        if target < 1:
            raise ValueError(f"target workers must be >= 1, got {target}")
        if not self.running:
            raise ClusterError("cluster is not running; use start() or a with-block")
        budget = self.blas_threads_budget
        with self._handles_lock:
            self._target_workers = target  # first: new workers spawn with it
            active = [handle for handle in self._handles
                      if handle.state in (_STARTING, _READY)]
            delta = target - len(active)
            if delta > 0:
                for _ in range(delta):
                    handle = _WorkerHandle(next(self._next_index))
                    self._handles.append(handle)
                    self._spawn(handle)
            elif delta < 0:
                # Ready workers first (their drain is observable), ordered
                # by least outstanding work so retirement is cheapest.
                ready = sorted((h for h in active if h.state == _READY),
                               key=lambda h: h.outstanding)
                starting = [h for h in active if h.state == _STARTING]
                for handle in (ready + starting)[:-delta]:
                    handle.state = _RETIRED
                    self._handles.remove(handle)
                    self._retired.append(handle)
                    threading.Thread(
                        target=self._drain_retired, args=(handle,),
                        name=f"repro-serve-retire-{handle.index}",
                        daemon=True).start()
        if self.blas_threads_budget != budget:
            self._broadcast_control(blas_threads=self.blas_threads_budget)
        if delta:
            self._supervisor_metrics.count("scale_up" if delta > 0
                                           else "scale_down")
        return delta

    def _drain_retired(self, handle: _WorkerHandle,
                       drain_timeout_s: float = 30.0) -> None:
        """Finish a retired worker: wait out its in-flight work, then stop it."""
        deadline = time.monotonic() + drain_timeout_s
        while handle.outstanding > 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        try:
            handle.send({"kind": "shutdown"})
        except OSError:
            pass
        if handle.process is not None:
            handle.process.join(timeout=10.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
        handle.close_conn()
        with self._handles_lock:
            if handle in self._retired:
                self._retired.remove(handle)

    def worker_metrics(self, timeout: float = 5.0) -> list[dict]:
        """Every live worker's engine ``stats()`` row (queue depth, tuned
        wait, metrics snapshot); a worker failing the poll is left out."""
        rows = []
        for handle in self._live_handles():
            try:
                rows.append(self._request(handle, {"kind": "stats"}, timeout))
            except (WorkerCrashed, FuturesTimeout, ClusterError, RuntimeError):
                continue
        return rows

    def metrics_snapshot(self, timeout: float = 5.0) -> dict:
        """Cluster-level rolling-window snapshot (the ``/metrics`` view).

        Engine-side windows merged across live workers, plus the
        supervisor's own counters (relayed rejects, scale events) under
        ``supervisor``.
        """
        rows = self.worker_metrics(timeout)
        merged = merge_snapshots([row["metrics"] for row in rows])
        merged["supervisor"] = self._supervisor_metrics.snapshot()
        return merged

    def observe(self, timeout: float = 5.0) -> Optional[dict]:
        """One controller reading over the whole cluster; ``None`` while
        the cluster is not running."""
        if not self.running:
            return None
        rows = self.worker_metrics(timeout)
        return observation(
            merge_snapshots([row["metrics"] for row in rows]),
            queue_depth=sum(row["queue_depth"] for row in rows),
            queue_capacity=max(1, sum(row["queue_capacity"] for row in rows)),
            workers=self._target_workers,
            workers_alive=len(self._live_handles()))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def healthz(self) -> dict:
        """Liveness + load summary, graded worst-first:

        ``down`` (no live worker), ``degraded`` (fewer live than the
        current target — crashes or a scale-up still starting),
        ``overloaded`` / ``busy`` (admission queues rejecting / filling,
        from supervisor-visible signals: relayed 429s in the last second
        and outstanding dispatches vs. admission capacity), else ``ok``.
        Cheap by design — no worker round trips, so load balancers can
        poll it aggressively.
        """
        with self._handles_lock:
            handles = list(self._handles)
        states = [handle.state for handle in handles]
        alive = states.count(_READY)
        target = self._target_workers
        if alive == 0:
            status = "down"
        elif alive < target:
            status = "degraded"
        else:
            outstanding = sum(handle.outstanding for handle in handles
                              if handle.state == _READY)
            capacity = max(1, alive * self._queue_size)
            status = classify_load(outstanding / capacity,
                                   self._supervisor_metrics.count_in(
                                       "rejected", 1.0))
        return {
            "status": status,
            "artifact": self.artifact_path,
            "workers": target,
            "alive": alive,
            "worker_states": states,
            "guardrail": [handle.guardrail for handle in handles],
        }

    def traces(self) -> dict:
        """The supervisor's merged (cross-process) traces: ``/traces``."""
        return {"tracing": self.tracer.summary(),
                "spans": [span.to_dict() for span in self.tracer.spans()]}

    def metrics(self) -> str:
        """Prometheus text of :meth:`metrics_snapshot`: ``/metrics``."""
        health = self.healthz()
        return render_prometheus(
            self.metrics_snapshot(),
            extra={"workers": health["workers"],
                   "workers_alive": health["alive"],
                   "max_wait_ms_now": self.max_wait_ms})

    def _artifact_formats(self) -> dict:
        """Cached per-tensor format summary of the served artifact.

        Read once from the manifest header (no blob traffic) — every worker
        serves the same file, so the supervisor can answer the ``/stats``
        format-breakdown question without a worker round trip.
        """
        if self._format_summary is None:
            from .artifact import format_breakdown, read_manifest

            try:
                manifest = read_manifest(self.artifact_path)
            except (OSError, ValueError):
                self._format_summary = {}
            else:
                param_specs = {entry["format"]
                               for entry in manifest["tensors"]
                               if entry.get("kind") == "param"}
                self._format_summary = {
                    "format": manifest.get("format"),
                    "formats": format_breakdown(manifest),
                    "mixed_precision": len(param_specs) > 1,
                }
        return self._format_summary

    def stats(self, timeout: float = 10.0) -> dict:
        """Aggregate worker stats plus supervisor-side dispatch counters.

        The live workers' metrics snapshots merge into ``metrics``, and the
        top-level requests/rejected/batches and latency percentiles are read
        from that merge: the percentiles are those of every worker's
        requests together, exact to a histogram bin (1.6%).  Energy sums
        over the workers; the per-worker rows are included as they came.
        """
        per_worker = self.worker_metrics(timeout)
        metrics = merge_snapshots([row["metrics"] for row in per_worker])
        lifetime = metrics["lifetime"]
        requests = lifetime.get("completed", 0)
        batches = lifetime.get("batches", 0)
        total = metrics["latency_ms"].get("total", {})
        with self._handles_lock:
            handles = list(self._handles)
        return {
            "artifact": self.artifact_path,
            **self._artifact_formats(),
            "workers": self._target_workers,
            "alive": len(self._live_handles()),
            "effective_cores": self.effective_cores,
            "blas_threads_budget": self.blas_threads_budget,
            "load_state": self.healthz()["status"],
            "max_wait_ms": self._max_wait_ms,
            "restarts": sum(handle.restarts for handle in handles),
            "dispatched": [handle.dispatched for handle in handles],
            "requests": requests,
            "rejected": lifetime.get("rejected", 0),
            "batches": batches,
            "mean_batch_size": (requests / batches) if batches else 0.0,
            "latency_p50_ms": total.get("p50", 0.0),
            "latency_p99_ms": total.get("p99", 0.0),
            "energy_uj_total": sum(row["energy_uj_total"] for row in per_worker),
            "uptime_s": time.perf_counter() - self._started_at,
            "metrics": metrics,
            # The supervisor's ring holds the merged (cross-process) traces,
            # so its summary — not the per-worker ones — carries the
            # slow-request exemplars clients should start from.
            "tracing": self.tracer.summary(),
            "per_worker": per_worker,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ServeCluster({self.artifact_path!r}, "
                f"workers={self.config.workers}, "
                f"alive={len(self._live_handles())})")
