"""Dependency-free JSON-over-HTTP transport for the serving backends.

A small HTTP/1.1 listener of its own on plain sockets, no web framework,
so the server runs anywhere the library does.  :class:`ModelServer` serves
one backend that speaks the client contract below: a multi-worker
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

Thread model.  The listener owns the listening socket and a pool of
threads.  Each pool thread blocks in ``accept()`` and serves the
connection it gets until that connection closes; the last idle thread
starts one more before it serves, so one thread always waits in
``accept()``, and the pool holds at most the peak number of concurrent
connections plus one.  Once the pool covers that peak, a request starts no
thread and no thread hands a connection to another.  That matters because
a client commonly opens one connection per request (:class:`HTTPClient`
does), and a thread started for each, or an accept loop handing each to a
waiting thread, costs the supervisor CPU and a wake-up on every request.
Each request is parsed here, line by line, into a case-insensitive header
mapping (at most 100 headers, 64 KiB a line), and each reply leaves in one
send.  :meth:`ModelServer.stop` shuts the listening socket down, which
wakes every blocked ``accept()`` at once.
"""

from __future__ import annotations

import json
import math
import re
import socket
import threading
import time
import traceback
import urllib.error
import urllib.request
from concurrent.futures import TimeoutError as FuturesTimeout
from email.utils import formatdate
from http import HTTPStatus
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


#: Pending connections the kernel queues for the pool.  A backlog of 5
#: drops connections the moment a few dozen closed-loop clients connect at
#: once; size it for the concurrency the micro-batcher is built to absorb.
_BACKLOG = 256
#: Longest request or header line in bytes, and most header lines a request
#: may carry: longer gets 414 (request line) or 431 (headers).
_MAX_LINE = 65536
_MAX_HEADERS = 100
_VERSION = re.compile(rb"HTTP/(\d{1,10})\.(\d{1,10})")
_END_OF_HEADERS = (b"\r\n", b"\n", b"")
_REASONS = {status.value: status.phrase for status in HTTPStatus}


class _Headers(dict):
    """A request's header fields by lower-cased name; the first of a
    repeated field wins."""

    def get(self, name: str, default=None):
        return super().get(name.lower(), default)


class _Handler:
    """One client connection: parse each HTTP/1.1 request on it, dispatch
    it, and send each reply in one write.

    Sent as headers, then body, a reply on a kept-alive connection would
    leave its body to Nagle's algorithm until the client's delayed ACK,
    ~40 ms a request; TCP_NODELAY spares a reply longer than one segment
    the same wait.
    """

    def __init__(self, connection: socket.socket, server: "_Server"):
        self.connection = connection
        self.server = server
        self.owner = server.owner
        self.rfile = connection.makefile("rb")
        self.close_connection = False
        self.released = False

    def handle(self) -> None:
        """Serve requests until the client or a reply closes the connection."""
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            while not self.close_connection:
                self.handle_one_request()
        finally:
            self.rfile.close()

    def release(self) -> None:
        """Count the serving thread idle again, once per connection."""
        if not self.released:
            self.released = True
            self.server.release()

    def handle_one_request(self) -> None:
        line = self.rfile.readline(_MAX_LINE + 1)
        if not line:
            self.close_connection = True
            return
        if len(line) > _MAX_LINE:
            self._refuse(414, "request line too long")
            return
        words = line.split()
        version = _VERSION.fullmatch(words[2]) if len(words) == 3 else None
        if version is None:
            self._refuse(400, "bad request line "
                         f"{line[:100].decode('iso-8859-1')!r}")
            return
        version = (int(version[1]), int(version[2]))
        if version >= (2, 0):
            self._refuse(505, "HTTP/2 and later are not supported")
            return
        headers = _Headers()
        for _ in range(_MAX_HEADERS + 1):
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self._refuse(431, "header line too long")
                return
            if line in _END_OF_HEADERS:
                break
            name, colon, value = line.decode("iso-8859-1").partition(":")
            if not colon:
                self._refuse(400, f"malformed header line {name[:100]!r}")
                return
            headers.setdefault(name.strip().lower(), value.strip())
        else:
            self._refuse(431, f"more than {_MAX_HEADERS} header lines")
            return
        connection = headers.get("Connection", "").lower()
        self.close_connection = connection == "close" or (
            version < (1, 1) and connection != "keep-alive")
        if (version >= (1, 1)
                and headers.get("Expect", "").lower() == "100-continue"):
            # The interim reply must leave now: the client sends the body
            # only after it arrives.
            self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        method, self.path, self.headers = (
            words[0], words[1].decode("iso-8859-1"), headers)
        if method == b"GET":
            self.do_GET()
        elif method == b"POST":
            self.do_POST()
        else:
            self._refuse(501, "unsupported method "
                         f"{method[:100].decode('iso-8859-1')!r}")

    def _refuse(self, status: int, message: str) -> None:
        """Answer a request this server cannot parse or serve, and close."""
        self.close_connection = True
        self._reply(status, {"error": message})

    def _send(self, status: int, body: bytes, content_type: str,
              headers: Optional[dict] = None) -> None:
        head = [f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n",
                self.server.date_line(),
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"]
        for name, value in (headers or {}).items():
            if name.lower() == "connection":
                self.close_connection |= value.lower() == "close"
            else:
                head.append(f"{name}: {value}\r\n")
        if self.close_connection:
            head.append("Connection: close\r\n")
            # Idle before the last reply leaves: a client that gets it may
            # connect again at once, and should find this thread free.
            self.release()
        head.append("\r\n")
        self.connection.sendall("".join(head).encode("latin-1") + body)

    def _reply(self, status: int, payload: dict,
               headers: Optional[dict] = None) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"),
                   "application/json", headers)

    def _reply_text(self, status: int, text: str,
                    content_type: str = "text/plain; version=0.0.4") -> None:
        self._send(status, text.encode("utf-8"), content_type)

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


class _Server:
    """The listening socket and the pool of threads that accept on it, as
    the module docstring's thread model describes.  The last thread to
    leave the pool closes the socket, so no thread can call ``accept()`` on
    a descriptor the process has since reused.
    """

    def __init__(self, address: tuple, owner: "ModelServer"):
        self.owner = owner
        self.socket = socket.create_server(address, backlog=_BACKLOG)
        self.server_address = self.socket.getsockname()[:2]
        self._lock = threading.Lock()
        self._members = 0  # pool threads, serving or waiting in accept()
        self._idle = 0  # of those, the ones not serving a connection
        self._closed = False
        self._date = (0, "")

    def date_line(self) -> str:
        """The ``Date`` header line, formatted once per second."""
        now = int(time.time())
        second, line = self._date
        if second != now:
            line = f"Date: {formatdate(now, usegmt=True)}\r\n"
            self._date = (now, line)
        return line

    def start(self) -> None:
        """Start the pool's first thread, unless it has one or is closed."""
        with self._lock:
            if self._members or self._closed:
                return
            self._members = self._idle = 1
        self._spawn()

    def serve(self) -> None:
        """Serve on the calling thread, as one more pool member, until
        :meth:`close` (or an exception such as ``KeyboardInterrupt``)."""
        with self._lock:
            if self._closed:
                return
            self._members += 1
            self._idle += 1
        self._run()

    def close(self) -> None:
        """Stop accepting: wake every thread blocked in ``accept()``.

        A thread serving a connection leaves the pool once it closes."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            last = not self._members
        # Closing a socket wakes no thread blocked in accept() on it;
        # shutting it down does, and fails every later accept() at once.
        self.socket.shutdown(socket.SHUT_RDWR)
        if last:
            self.socket.close()

    def release(self) -> None:
        """Count one serving thread idle again."""
        with self._lock:
            self._idle += 1

    def _spawn(self) -> None:
        threading.Thread(target=self._run, name="repro-serve-http",
                         daemon=True).start()

    def _run(self) -> None:
        try:
            while not self._closed:
                try:
                    connection, _ = self.socket.accept()
                except OSError:  # shut down, or a connection aborted
                    continue
                with connection:
                    self._serve(connection)
        finally:
            with self._lock:
                self._members -= 1
                self._idle -= 1
                last = self._closed and not self._members
            if last:
                self.socket.close()

    def _serve(self, connection: socket.socket) -> None:
        with self._lock:
            self._idle -= 1
            grow = not self._idle and not self._closed
            if grow:
                self._members += 1
                self._idle += 1
        handler = _Handler(connection, self)
        try:
            if grow:
                self._spawn()
            handler.handle()
        except OSError:
            pass  # the client went away
        except Exception:  # noqa: BLE001 - a failed request must not end
            # the pool thread: report it and drop the connection.
            traceback.print_exc()
        finally:
            handler.release()


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
        self._listener = _Server((host, port), self)

    @property
    def host(self) -> str:
        return self._listener.server_address[0]

    @property
    def port(self) -> int:
        return self._listener.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should target."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ModelServer":
        """Start the backend and serve requests on background threads."""
        self.backend.start()
        self._listener.start()
        return self

    def stop(self) -> None:
        """Stop accepting requests, then stop the backend.

        Returns at once, whether or not a serve loop ran, and ends a
        blocking :meth:`serve_forever` running on another thread.
        """
        self._listener.close()
        self.backend.stop()

    def serve_forever(self) -> None:
        """Blocking serve loop (the ``repro serve`` CLI path)."""
        self.backend.start()
        try:
            self._listener.serve()
        finally:
            self._listener.close()
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
                 headers: Optional[dict] = None, decode=json.loads):
        """The reply body through ``decode``; an HTTP error status raises
        :class:`ServeClientError`."""
        url = f"{self.base_url}{path}"
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        request_headers = dict(headers or {})
        if data:
            request_headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data,
                                         headers=request_headers)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return decode(response.read())
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
        return self._request("/metrics", decode=bytes.decode)
