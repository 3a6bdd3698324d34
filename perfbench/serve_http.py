"""Workload ``serve_http``: ``repro serve --workers 2`` driven over HTTP.

The server runs as a subprocess, exactly as an operator starts it:
``python -m repro serve <artifact> --workers 2 --no-control``.  Two
closed-loop clients send single-sample ``/predict`` requests through the
repository's :class:`~repro.serve.HTTPClient`: callers that wait for each
reply make a closed loop.  With at most two requests in flight there is
little to batch, so most of the work is HTTP transport, supervisor -> pipe
-> worker dispatch, and the two workers' BLAS pools competing for the cores.

``HTTPClient`` opens one connection per request.  A kept-alive connection
would instead stall ~40 ms on every request: the server writes a reply's
headers and body in two sends, and Nagle's algorithm holds the body until
the client's delayed ACK.

The harness passes its environment to the server unchanged apart from
``PYTHONPATH``; in particular it never sets the BLAS thread count.
"""

from __future__ import annotations

import http.client
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional

import numpy as np

from repro.api import ExperimentConfig
from repro.obs import read_jsonl
from repro.serve import HTTPClient, InferenceEngine, train_and_export

from .harness import Context, Outcome, Phase, repeated_setup
from .host import alive, children, vm_hwm_mb
from .stats import median, split_windows, tail

#: The serve-bench model: one forward pass is ~2 M multiply-adds, so the
#: workers carry real work per request.
MODEL = ExperimentConfig(
    name="serve_bench", dataset="blobs", model="mlp", policy="posit(8,1)",
    epochs=1, train_size=128, test_size=64, batch_size=32, num_classes=3,
    model_kwargs={"hidden": [2048, 1024]})
WORKERS = 2
CLIENTS = 2
POOL = 256
PROBES = 16
#: The report also gives the p99 per window of this many seconds, median
#: over the windows: a figure that a stall in one window does not move.
WINDOW_S = 2.0
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


def export_model(path: Path) -> float:
    """Train and export the serve-bench model; returns the seconds it took."""
    started = time.perf_counter()
    train_and_export(MODEL, path)
    return time.perf_counter() - started


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve`` subprocess and its forked workers."""

    def __init__(self, root: Path, artifact: Path, log: Path,
                 trace_file: Optional[Path] = None):
        port = _free_port()
        command = [sys.executable, "-m", "repro", "serve", str(artifact),
                   "--workers", str(WORKERS), "--no-control", "--port", str(port)]
        if trace_file is not None:
            command += ["--trace", "--trace-file", str(trace_file)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.client = HTTPClient(f"http://127.0.0.1:{port}")
        self._log = open(log, "ab")
        # A session of its own: the terminal's Ctrl-C does not reach it, and
        # a failed stop can signal the whole group.
        self.process = subprocess.Popen(command, env=env, cwd=root, stdout=self._log,
                                        stderr=subprocess.STDOUT, start_new_session=True)
        self.worker_pids: list[int] = []
        self._stopped: Optional[bool] = None

    def wait_ready(self) -> None:
        """Until both workers are up with their guardrail passed."""
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.process.returncode}")
            try:
                health = self.client.healthz()
            except (OSError, ValueError):
                time.sleep(0.05)
                continue
            if health.get("alive") == WORKERS and health.get("guardrail") == ["passed"] * WORKERS:
                self.worker_pids = children(self.process.pid)
                return
            time.sleep(0.05)
        raise RuntimeError("repro serve did not become ready")

    def peak_rss_mb(self) -> float:
        return sum(vm_hwm_mb(pid) for pid in [self.process.pid] + self.worker_pids)

    def stop(self) -> bool:
        """SIGINT, the graceful path; True when it exited 0 and no worker outlived it.

        Idempotent.  Anything still running after the grace period is killed.
        """
        if self._stopped is not None:
            return self._stopped
        clean = True
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGINT)
                try:
                    self.process.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    clean = False
                    os.killpg(self.process.pid, signal.SIGKILL)
                    self.process.wait(timeout=STOP_TIMEOUT_S)
            deadline = time.perf_counter() + 5.0
            while any(alive(pid) for pid in self.worker_pids) and time.perf_counter() < deadline:
                time.sleep(0.05)
            orphans = [pid for pid in self.worker_pids if alive(pid)]
            for pid in orphans:
                os.kill(pid, signal.SIGKILL)
            clean = clean and not orphans and self.process.returncode == 0
        finally:
            self._log.close()
        self._stopped = clean
        return clean


class _Client(threading.Thread):
    """One closed-loop client."""

    def __init__(self, client: HTTPClient, pool: np.ndarray, picks: np.ndarray,
                 started: float, seconds: float):
        super().__init__(daemon=True)
        self.client, self.pool, self.picks = client, pool, picks
        self.started, self.deadline = started, started + seconds
        #: (pick, finished offset s, latency s, worker, trace id, logits row)
        self.records: list[tuple] = []
        self.failed = 0

    def run(self) -> None:
        for pick in self.picks:
            begun = time.perf_counter()
            if begun >= self.deadline:
                return
            try:
                reply = self.client.predict([self.pool[pick]])
            except (OSError, RuntimeError, ValueError, http.client.HTTPException):
                self.failed += 1
                continue
            ended = time.perf_counter()
            self.records.append((int(pick), ended - self.started, ended - begun,
                                 reply.get("worker"), reply.get("trace_id"),
                                 reply["logits"][0]))


class Load:
    """Closed-loop load for a fixed time, with per-request records."""

    def __init__(self, server: Server, pool: np.ndarray, seconds: float,
                 rng: np.random.Generator):
        self.seconds = seconds
        per_client = int(seconds * 2000) + 1  # more picks than any host can send
        started = time.perf_counter()
        clients = [_Client(server.client, pool, rng.integers(0, len(pool), size=per_client),
                           started, seconds) for _ in range(CLIENTS)]
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=seconds + 60.0)
        self.records = sorted((record for client in clients for record in client.records),
                              key=lambda record: record[1])
        failed = sum(client.failed for client in clients)
        hung = sum(client.is_alive() for client in clients)
        self.counts = Phase(attempted=len(self.records) + failed + hung,
                            succeeded=len(self.records), failed=failed + hung)

    def _windows(self) -> list[np.ndarray]:
        offsets = np.array([record[1] for record in self.records])
        latency_ms = np.array([record[2] * 1e3 for record in self.records])
        return split_windows(offsets, latency_ms, self.seconds, WINDOW_S)

    def p50(self) -> float:
        return median([record[2] * 1e3 for record in self.records])

    def tail(self) -> tuple[float, float]:
        """``(ms, percentile)``: the tail rule over every request of the phase."""
        return tail([record[2] * 1e3 for record in self.records])

    def window_p99(self) -> float:
        """Median over windows of each window's tail latency, for the report."""
        return median([tail(window)[0] for window in self._windows()])

    def throughput(self) -> float:
        """Requests completed per second over the whole phase."""
        return len(self.records) / self.seconds

    def worker_share_min(self) -> float:
        counts = [sum(record[3] == index for record in self.records)
                  for index in range(WORKERS)]
        return min(counts) / max(1, sum(counts))


def _check(server: Server, reference: np.ndarray, pool: np.ndarray, load: Load) -> dict:
    """``/predict`` logits equal the in-process ``predict_batch``; both workers served."""
    served = [server.client.predict([pool[i]])["logits"][0] for i in range(PROBES)]
    return {
        "probes_equal_predict_batch": all(
            np.array_equal(np.asarray(row), reference[i]) for i, row in enumerate(served)),
        "load_rows_equal_predict_batch": all(
            np.array_equal(np.asarray(record[5]), reference[record[0]])
            for record in load.records),
        "both_workers_served": {record[3] for record in load.records} == set(range(WORKERS)),
    }


def run(ctx: Context) -> Outcome:
    artifact = ctx.out / "serve_http.rpak"
    log = ctx.out / "serve_http-server.log"
    servers = []

    def build():
        export_s = export_model(artifact)
        started = time.perf_counter()
        server = Server(ctx.root, artifact, log)
        servers.append(server)
        server.wait_ready()
        server.client.predict([[0.0, 0.0]] * 4)
        return server, {"export_s": export_s, "ready_s": time.perf_counter() - started}

    pool = ctx.rng(1).normal(size=(POOL, 2))
    try:
        server, setup_s, parts = repeated_setup(build, Server.stop)
        # The in-process reference: same artifact, no queue, no HTTP.
        reference = InferenceEngine(artifact).predict_batch(pool)
        if ctx.trace:
            return _traced(ctx, server, servers, artifact, pool, reference, parts)
        load = Load(server, pool, ctx.seconds, ctx.rng(2))
        checks = _check(server, reference, pool, load)
        rss = server.peak_rss_mb()
    finally:
        clean = [server.stop() for server in servers]
    checks["workers_exit_with_supervisor"] = all(clean)
    tail_ms, tail_at = load.tail()
    return Outcome(
        metrics={
            "latency_p50_ms": load.p50(),
            "latency_tail_ms": tail_ms,
            "throughput_per_s": load.throughput(),
            "peak_rss_mb": rss,
            "setup_s": setup_s,
        },
        phases={"load": load.counts},
        checks=checks,
        report={"latency_p50_ms": load.p50(), "tail_percentile": tail_at,
                "window_p99_ms": load.window_p99(),
                "window_p99": f"p99 per {WINDOW_S:g} s window, median over windows",
                "throughput_rps": load.throughput(),
                "worker_share_min": load.worker_share_min(),
                **{f"setup.{key}": value for key, value in parts.items()}})


def _traced(ctx, plain_server, servers, artifact, pool, reference, parts) -> Outcome:
    """The same load untraced, then against a server started with ``--trace``."""
    half = 0.5 * ctx.seconds
    plain = Load(plain_server, pool, half, ctx.rng(2))
    plain_server.stop()
    trace_file = ctx.out / f"serve_http-seed{ctx.seed}-spans.jsonl"
    trace_file.unlink(missing_ok=True)
    server = Server(ctx.root, artifact, ctx.out / "serve_http-server.log", trace_file)
    servers.append(server)
    server.wait_ready()
    load = Load(server, pool, half, ctx.rng(3))
    checks = _check(server, reference, pool, load)
    stats = server.client.stats()
    checks["workers_exit_with_supervisor"] = all(server.stop() for server in servers)
    spans = read_jsonl(str(trace_file))
    by_trace: dict[str, dict] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, {})[span.name] = span
    transport, dispatch = [], []
    for record in load.records:
        trace = by_trace.get(record[4], {})
        if {"request", "dispatch", "engine"} <= trace.keys():
            transport.append(record[2] * 1e3 - trace["request"].duration_ms)
            dispatch.append(trace["dispatch"].duration_ms - trace["engine"].duration_ms)
    # The supervisor keeps its most recent spans; enough requests must match.
    checks["spans_matched"] = len(transport) >= min(100, len(load.records))
    rows = stats["per_worker"]
    served = sum(row["requests"] for row in rows)

    def worker_mean(value) -> float:
        """Request-weighted mean of a per-worker figure."""
        return sum(value(row) * row["requests"] for row in rows) / served

    def worker_p50(stage: str) -> float:
        return worker_mean(lambda row: row["metrics"]["latency_ms"][stage]["p50"])

    metrics = {
        "http.transport_p50_ms": median(transport),
        "http.dispatch_p50_ms": median(dispatch),
        "http.worker_compute_p50_ms": worker_p50("compute"),
        "http.worker_queue_p50_ms": worker_p50("queue"),
        "http.worker_share_min": load.worker_share_min(),
        "engine.queue_wait_p99_ms": worker_mean(
            lambda row: row["metrics"]["latency_ms"]["queue"]["p99"]),
        "engine.batch_size_mean": worker_mean(lambda row: row["mean_batch_size"]),
        "setup.export_s": parts["export_s"],
        "setup.ready_s": parts["ready_s"],
        "trace.overhead_pct": 100.0 * (load.p50() / plain.p50() - 1.0),
    }
    return Outcome(metrics=metrics,
                   phases={"load": plain.counts, "load_traced": load.counts},
                   checks=checks,
                   report={"latency_p50_ms": plain.p50(), "traced_latency_p50_ms": load.p50(),
                           "spans": len(spans), "requests_with_spans": len(transport)})
