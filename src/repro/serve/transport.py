"""Dependency-free JSON-over-HTTP transport for the serving backends.

A thin stdlib (:mod:`http.server`) shell, no web framework, so the server
runs anywhere the library does.  :class:`ModelServer` serves one backend
that speaks the client contract below: a multi-worker
:class:`~repro.serve.cluster.ServeCluster` as it is, or one in-process
:class:`~repro.serve.engine.InferenceEngine` through a :class:`LocalClient`.

``POST /predict``
    Body ``{"inputs": [[...sample...], ...]}`` (always a *list of samples*;
    one sample is a one-element list).  Every sample is submitted to an
    engine individually, so concurrent HTTP clients coalesce in the
    micro-batcher exactly like in-process callers.  Response:
    ``{"predictions": [argmax...], "logits": [[...]...]}`` (a cluster adds
    the serving worker's index).
``GET /healthz``
    ``{"status": ..., "artifact": ..., ...}``: liveness and load; HTTP 503
    only when the status is ``down``.
``GET /stats``, ``GET /traces``, ``GET /metrics``
    The backend's stats dict, its recorded spans, and its Prometheus text.

The client contract is ``predict(samples, trace_id=None) -> dict``,
``healthz() -> dict``, ``stats()``, ``traces()`` and ``metrics() -> str``.
:class:`LocalClient` speaks it in process, :class:`HTTPClient` over
:mod:`urllib`, and :class:`~repro.serve.cluster.ServeCluster` directly, so
tests and the load generator run against any of them unchanged.
"""

from __future__ import annotations

import json
import math
import threading
import urllib.error
import urllib.request
from concurrent.futures import TimeoutError as FuturesTimeout
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Sequence

import numpy as np

from ..obs.tracing import TRACE_HEADER
from .engine import AdmissionError, InferenceEngine
from .metrics import render_prometheus

__all__ = ["ModelServer", "LocalClient", "HTTPClient", "ServeClientError"]


def _controller_metrics(controller) -> str:
    """Prometheus text for an attached controller's decision counters."""
    counts = getattr(controller, "decision_counts", None)
    if not counts:
        return ""
    return render_prometheus({}, families=[{
        "name": "repro_controller_decisions_total",
        "type": "counter",
        "help": "Control-loop decisions taken, by action "
                "(scale_up/scale_down/wait_increase/wait_backoff).",
        "samples": [({"action": action}, float(value))
                    for action, value in sorted(counts.items())],
    }])


class ServeClientError(RuntimeError):
    """A client-visible request failure (HTTP status + server message).

    ``retry_after`` carries the server's ``Retry-After`` hint in seconds
    when the failure was backpressure (HTTP 429), ``None`` otherwise — the
    load generator uses it to pace rejected clients.
    """

    def __init__(self, status: int, message: str,
                 retry_after: Optional[float] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.retry_after = retry_after


def _client_error(exc: BaseException) -> Optional[ServeClientError]:
    """The client-visible form of a request failure; ``None`` if unexpected.

    The one exception-to-status table: the HTTP handler replies with it and
    :class:`LocalClient` raises it.  :class:`ServeClientError` and
    :class:`AdmissionError` subclass ``RuntimeError``, so they are matched
    before it.
    """
    if isinstance(exc, ServeClientError):
        return exc
    if isinstance(exc, FuturesTimeout):  # wedged/overloaded batcher
        return ServeClientError(504, f"prediction timed out: {exc}")
    if isinstance(exc, (ValueError, TypeError)):  # malformed request
        return ServeClientError(400, str(exc))
    if isinstance(exc, AdmissionError):
        # Backpressure, not failure: the admission queue is full, so tell
        # the client *when* to come back.
        return ServeClientError(429, str(exc), retry_after=exc.retry_after_s)
    if isinstance(exc, RuntimeError):  # engine stopped / no workers
        return ServeClientError(503, str(exc))
    return None


class LocalClient:
    """In-process client over one :class:`InferenceEngine`.

    Drives the engine's micro-batcher directly — the load generator and the
    tests use it to exercise batching without socket overhead, and
    :class:`ModelServer` serves an engine through one.  A request failure
    raises :class:`ServeClientError` with the status HTTP answers; an
    unexpected exception passes through.
    """

    def __init__(self, engine: InferenceEngine):
        self.engine = engine

    def start(self) -> None:
        self.engine.start()

    def stop(self) -> None:
        self.engine.stop()

    def predict(self, samples: Sequence,
                trace_id: Optional[str] = None) -> dict:
        """Fan the samples out to the micro-batcher, gather, reply.

        When the engine's tracer is enabled (and this request is sampled) a
        ``request`` root span wraps the whole fan-out and its trace id is
        echoed in the payload, so HTTP clients can correlate a slow response
        with an exported trace.  ``trace_id`` lets the caller (the
        ``X-Repro-Trace-Id`` header path) supply the id.
        """
        engine = self.engine
        root = None
        try:
            if (not isinstance(samples, (list, tuple, np.ndarray))
                    or not len(samples)):
                raise ValueError("'inputs' must be a non-empty list of samples")
            tracer = engine.tracer
            root = tracer.begin("request", trace_id=trace_id,
                                annotations={"samples": len(samples)})
            # An explicitly unsampled context keeps the engine from
            # re-rolling the sampling dice per sample: this decision is the
            # request's.
            ctx = (root.context() if root is not None
                   else ({"sampled": False} if tracer.enabled else None))
            futures = [engine.submit(np.asarray(sample, dtype=np.float64),
                                     trace=ctx)
                       for sample in samples]
            logits = [future.result(timeout=60.0) for future in futures]
        except BaseException as exc:
            if root is not None:
                root.finish(error=repr(exc))
            error = _client_error(exc)
            if error is None:
                raise
            raise error from exc
        payload = {
            "predictions": [int(np.argmax(row)) for row in logits],
            "logits": [np.asarray(row, dtype=np.float64).tolist()
                       for row in logits],
        }
        if root is not None:
            root.finish()
            payload["trace_id"] = root.trace_id
        return payload

    def healthz(self) -> dict:
        # Load states for a single engine: ok / busy / overloaded from its
        # admission queue (the process answering at all proves liveness).
        engine = self.engine
        return {
            "status": engine.load_state(),
            "artifact": engine.artifact_path,
            "format": engine.format.spec(),
            "guardrail": engine.guardrail_status,
        }

    def stats(self) -> dict:
        return self.engine.stats()

    def traces(self) -> dict:
        tracer = self.engine.tracer
        return {"tracing": tracer.summary(),
                "spans": [span.to_dict() for span in tracer.spans()]}

    def metrics(self) -> str:
        engine = self.engine
        return render_prometheus(
            engine.metrics.snapshot(),
            extra={"queue_depth_now": engine.queue_depth,
                   "max_wait_ms_now": engine.max_wait_ms,
                   "workers": 1})


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Buffer each response and send it in one write when the request ends:
    # sent as headers, then body, Nagle's algorithm holds a kept-alive
    # connection's body until the client's delayed ACK, ~40 ms a request.
    # TCP_NODELAY spares a reply longer than one segment the same wait.
    wbufsize = -1
    disable_nagle_algorithm = True

    def handle_expect_100(self) -> bool:
        # The interim 100 Continue must leave now, not with the response:
        # the client sends the body only after it arrives.
        proceed = super().handle_expect_100()
        self.wfile.flush()
        return proceed

    # Silence per-request stderr logging; stats live in /stats.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _reply(self, status: int, payload: dict,
               headers: Optional[dict] = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _reply_text(self, status: int, text: str,
                    content_type: str = "text/plain; version=0.0.4") -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    @property
    def owner(self) -> "ModelServer":
        return self.server.owner  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 - stdlib signature
        server = self.owner
        if self.path == "/healthz":
            payload = server.backend.healthz()
            # No live worker is an outage, not a server; every other state
            # (busy/overloaded/degraded) still answers 200 so load balancers
            # keep it in rotation — overload is signalled per request via
            # 429, not by failing the health probe.
            self._reply(503 if payload["status"] == "down" else 200, payload)
        elif self.path == "/stats":
            payload = server.backend.stats()
            if server.controller is not None:
                payload["controller"] = server.controller.describe()
            self._reply(200, payload)
        elif self.path == "/traces":
            self._reply(200, server.backend.traces())
        elif self.path == "/metrics":
            try:
                self._reply_text(200, server.backend.metrics()
                                 + _controller_metrics(server.controller))
            except Exception as exc:  # noqa: BLE001 - a scrape must not kill
                # the listener thread; degrade to an empty exposition.
                self._reply_text(200, f"# metrics unavailable: {exc}\n")
        else:
            self._reply(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib signature
        if self.path != "/predict":
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0:
            # The body's extent is unknown: reading it would wait for EOF,
            # so answer now and close the connection unread.
            self._reply(400, {"error": "Content-Length must be a "
                                       "non-negative integer"},
                        headers={"Connection": "close"})
            return
        try:
            document = json.loads(self.rfile.read(length) or b"")
            if not isinstance(document, dict):
                raise ValueError("request body must be a JSON object")
            # Trace-context propagation: a client-supplied X-Repro-Trace-Id
            # names the request's trace; the response echoes the id (header
            # + payload) whenever the request was traced.
            trace_id = self.headers.get(TRACE_HEADER) or None
            payload = self.owner.backend.predict(document.get("inputs"),
                                                 trace_id=trace_id)
        except Exception as exc:  # noqa: BLE001 - every failure gets a reply
            error = _client_error(exc)
            if error is None:
                # A JSON 500 beats a dropped connection: unexpected backend
                # failures must still honour the transport's error contract.
                self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})
                return
            body, headers = {"error": error.message}, None
            if error.retry_after is not None:
                # Retry-After is integer delta-seconds per RFC 9110
                # (rounded up, never 0).
                retry_after = max(0.05, float(error.retry_after))
                body["retry_after_s"] = retry_after
                headers = {"Retry-After": str(max(1, math.ceil(retry_after)))}
            self._reply(error.status, body, headers=headers)
            return
        headers = ({TRACE_HEADER: payload["trace_id"]}
                   if payload.get("trace_id") else None)
        self._reply(200, payload, headers=headers)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # The socketserver default backlog (5) drops connections the moment a
    # few dozen closed-loop clients connect at once; size it for the
    # concurrency the micro-batcher is built to absorb.
    request_queue_size = 256


class ModelServer:
    """Threaded HTTP server over one serving backend.

    ``backend`` is a :class:`~repro.serve.cluster.ServeCluster`, a
    :class:`LocalClient`, or any object with the client contract plus
    ``start()``/``stop()``; an :class:`InferenceEngine` is wrapped in a
    :class:`LocalClient`.  With a cluster the listener threads only parse
    and frame JSON: the MAC work runs in the worker processes.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`
    after construction) — the test- and CI-friendly default.  The server
    owns the backend's lifecycle: :meth:`start` starts it, :meth:`stop`
    shuts both down.  ``controller`` (optional) is a control loop whose
    decisions ride along in ``/stats`` and whose decision counters become
    the ``repro_controller_decisions_total`` Prometheus family.
    """

    def __init__(self, backend, host: str = "127.0.0.1", port: int = 0,
                 controller=None):
        if isinstance(backend, InferenceEngine):
            backend = LocalClient(backend)
        self.backend = backend
        self.controller = controller
        self._httpd = _Server((host, port), _Handler)
        self._httpd.owner = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        # "idle" -> "entered" -> "stopped".  ``shutdown()`` waits for a
        # ``serve_forever`` to return, so ``stop()`` calls it only once a
        # serve loop has been entered, and no loop is entered after it.
        self._loop_lock = threading.Lock()
        self._loop = "idle"

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should target."""
        return f"http://{self.host}:{self.port}"

    def _enter_loop(self) -> bool:
        """Whether a serve loop may start now (not once :meth:`stop` ran)."""
        with self._loop_lock:
            if self._loop == "stopped":
                return False
            self._loop = "entered"
            return True

    def start(self) -> "ModelServer":
        """Start the backend and serve requests on a background thread."""
        self.backend.start()
        if (self._thread is None or not self._thread.is_alive()) and self._enter_loop():
            self._thread = threading.Thread(target=self._httpd.serve_forever,
                                            name="repro-serve-http", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting requests, then stop the backend.

        Returns at once when no serve loop ran (``start()`` never called, or
        its backend failed to start), and ends a blocking
        :meth:`serve_forever` running on another thread.
        """
        with self._loop_lock:
            entered, self._loop = self._loop == "entered", "stopped"
        if entered:
            self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._thread = None
        self._httpd.server_close()
        self.backend.stop()

    def serve_forever(self) -> None:
        """Blocking serve loop (the ``repro serve`` CLI path)."""
        self.backend.start()
        try:
            if self._enter_loop():
                self._httpd.serve_forever()
        finally:
            self._httpd.server_close()
            self.backend.stop()

    def __enter__(self) -> "ModelServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def attach_controller(self, controller) -> None:
        """Expose a control loop's decisions via /stats and /metrics."""
        self.controller = controller


class HTTPClient:
    """Minimal :mod:`urllib` client for a running :class:`ModelServer`."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _request(self, path: str, payload: Optional[dict] = None,
                 headers: Optional[dict] = None) -> dict:
        url = f"{self.base_url}{path}"
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        request_headers = dict(headers or {})
        if data:
            request_headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data,
                                         headers=request_headers)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read()).get("error", "")
            except Exception:  # noqa: BLE001 - best-effort error body
                message = exc.reason
            retry_after = None
            header = exc.headers.get("Retry-After") if exc.headers else None
            if header is not None:
                try:
                    retry_after = float(header)
                except ValueError:
                    retry_after = None
            raise ServeClientError(exc.code, str(message),
                                   retry_after=retry_after) from exc

    def predict(self, samples: Sequence,
                trace_id: Optional[str] = None) -> dict:
        samples = [np.asarray(sample, dtype=np.float64).tolist()
                   for sample in samples]
        headers = {TRACE_HEADER: trace_id} if trace_id else None
        return self._request("/predict", {"inputs": samples},
                             headers=headers)

    def healthz(self) -> dict:
        return self._request("/healthz")

    def stats(self) -> dict:
        return self._request("/stats")

    def traces(self) -> dict:
        return self._request("/traces")

    def metrics(self) -> str:
        url = f"{self.base_url}/metrics"
        request = urllib.request.Request(url)
        with urllib.request.urlopen(request, timeout=self.timeout) as response:
            return response.read().decode("utf-8")
