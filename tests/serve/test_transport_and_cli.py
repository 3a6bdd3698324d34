"""Tests for the HTTP transport, the load generator, and the serve/export CLI."""

import http.client
import json
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import Future, TimeoutError as FuturesTimeout
from pathlib import Path

import numpy as np
import pytest

from repro.api import ExperimentConfig
from repro.cli import main as cli_main
from repro.serve import (
    AdmissionError,
    BatchingConfig,
    HTTPClient,
    InferenceEngine,
    LocalClient,
    ModelServer,
    ServeClientError,
    load_model,
    pick_best_record,
    run_load,
    serve_best,
    train_and_export,
)
from repro.sweeps import ResultStore

SRC = str(Path(__file__).resolve().parents[2] / "src")

def small_config(**overrides) -> ExperimentConfig:
    base = dict(name="transport_test", dataset="blobs", model="mlp",
                policy="posit(8,1)", epochs=1, train_size=64, test_size=32,
                batch_size=16, num_classes=3, model_kwargs={"hidden": [16]})
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("transport") / "model.rpak"
    train_and_export(small_config(), path)
    return str(path)


@pytest.fixture
def server(artifact):
    engine = InferenceEngine(artifact, BatchingConfig(max_batch=16,
                                                      max_wait_ms=5.0))
    with ModelServer(engine) as running:
        yield running


@pytest.fixture
def samples():
    return np.random.default_rng(5).normal(size=(12, 2))


# --------------------------------------------------------------------- #
# HTTP endpoints
# --------------------------------------------------------------------- #
def test_healthz_and_stats(server):
    client = HTTPClient(server.url)
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["format"] == "posit(8,1)"
    stats = client.stats()
    assert stats["requests"] == 0


def test_predict_matches_in_process(server, samples):
    client = HTTPClient(server.url)
    response = client.predict(samples[:5])
    direct = server.backend.engine.predict_batch(samples[:5])
    assert np.array_equal(np.asarray(response["logits"]), direct)
    assert response["predictions"] == [int(np.argmax(row)) for row in direct]


def test_local_client_same_contract(server, samples):
    local = LocalClient(server.backend.engine)
    http = HTTPClient(server.url)
    assert local.predict(samples[:3]) == http.predict(samples[:3])
    assert local.healthz() == http.healthz()

    def families(text):
        return [line.split()[2] for line in text.splitlines()
                if line.startswith("# TYPE ")]

    names = families(local.metrics())
    assert names == families(http.metrics())
    assert "repro_serve_batches_total" in names


def test_malformed_request_is_400(server):
    client = HTTPClient(server.url)
    with pytest.raises(ServeClientError) as excinfo:
        client._request("/predict", {"inputs": []})
    assert excinfo.value.status == 400
    request = urllib.request.Request(
        f"{server.url}/predict", data=b"{not json",
        headers={"Content-Type": "application/json"})
    with pytest.raises(urllib.error.HTTPError) as http_error:
        urllib.request.urlopen(request, timeout=10)
    assert http_error.value.code == 400


def test_unknown_path_is_404(server):
    with pytest.raises(ServeClientError) as excinfo:
        HTTPClient(server.url)._request("/nope")
    assert excinfo.value.status == 404


def test_keep_alive_requests_do_not_stall(artifact, samples):
    """Sequential requests on one kept-alive connection answer promptly.

    A response written as two sends (headers, then body) held its body
    back under Nagle's algorithm until the client's delayed ACK, ~40 ms
    per request.
    """
    engine = InferenceEngine(artifact, BatchingConfig(max_batch=1,
                                                      max_wait_ms=0.0))
    body = json.dumps({"inputs": [samples[0].tolist()]})
    latencies = []
    with ModelServer(engine) as server:
        connection = http.client.HTTPConnection(server.host, server.port,
                                                timeout=10)
        try:
            for _ in range(12):
                started = time.perf_counter()
                connection.request("POST", "/predict", body=body, headers={
                    "Content-Type": "application/json"})
                response = connection.getresponse()
                payload = json.loads(response.read())
                latencies.append(time.perf_counter() - started)
                assert response.status == 200, payload
        finally:
            connection.close()
    assert statistics.median(latencies) < 0.020, latencies


def test_expect_100_continue_is_answered_before_the_body(server, samples):
    body = json.dumps({"inputs": [samples[0].tolist()]}).encode()
    head = (f"POST /predict HTTP/1.1\r\nHost: test\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nExpect: 100-continue\r\n\r\n")
    with socket.create_connection((server.host, server.port),
                                  timeout=10) as sock:
        sock.sendall(head.encode())
        assert sock.recv(64).startswith(b"HTTP/1.1 100")
        sock.sendall(body)
        assert sock.recv(4096).startswith(b"HTTP/1.1 200")


@pytest.mark.parametrize("length", ["-1", "abc"])
def test_bad_content_length_is_400_and_closes(server, samples, length):
    """A body of unknown extent is not read: reading it would wait for EOF
    and pin the handler thread while the client waits for a reply."""
    head = (f"POST /predict HTTP/1.1\r\nHost: test\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {length}\r\n\r\n")
    with socket.create_connection((server.host, server.port),
                                  timeout=3) as sock:
        sock.sendall(head.encode())
        reply = b""
        while chunk := sock.recv(4096):  # until the server closes
            reply += chunk
    assert reply.startswith(b"HTTP/1.1 400")
    assert b"Connection: close" in reply
    # Other connections are still served.
    response = HTTPClient(server.url).predict([samples[0]])
    assert len(response["logits"]) == 1


def test_concurrent_http_load(server, samples):
    """64 concurrent closed-loop HTTP clients: all 200s, batching engaged."""
    report = run_load(HTTPClient(server.url), samples, concurrency=64,
                      requests_per_client=2,
                      client_factory=lambda: HTTPClient(server.url))
    assert report["failed"] == 0, report["errors"]
    assert report["completed"] == 128
    assert report["throughput_rps"] > 0
    stats = server.backend.engine.stats()
    assert stats["requests"] >= 128
    assert stats["mean_batch_size"] > 1.0


# --------------------------------------------------------------------- #
# serve_best over a sweep store
# --------------------------------------------------------------------- #
def fake_store(tmp_path, rows) -> ResultStore:
    store = ResultStore(tmp_path / "store.jsonl")
    for row in rows:
        store.append(row)
    return store


def record(run_id, accuracy=None, energy=None, status="ok", index=0):
    entry = {"run_id": run_id, "status": status, "index": index,
             "name": f"run/{run_id}",
             "config": small_config(name=f"run/{run_id}").to_dict()}
    if accuracy is not None:
        entry["metrics"] = {"final_val_accuracy": accuracy}
    if energy is not None:
        entry["energy"] = {"total_energy_uj": energy}
    return entry


def test_pick_best_record_objectives(tmp_path):
    store = fake_store(tmp_path, [
        record("a", accuracy=0.7, energy=3.0),
        record("b", accuracy=0.9, energy=5.0),
        record("c", accuracy=0.8, energy=1.0),
        record("d", accuracy=0.99, status="failed"),
    ])
    assert pick_best_record(store, "accuracy")["run_id"] == "b"
    assert pick_best_record(store, "energy")["run_id"] == "c"
    with pytest.raises(ValueError, match="unknown objective"):
        pick_best_record(store, "latency")


def test_pick_best_requires_metric(tmp_path):
    store = fake_store(tmp_path, [record("a", accuracy=0.7)])
    with pytest.raises(ValueError, match="collect_energy"):
        pick_best_record(store, "energy")


def test_serve_best_retrains_and_exports(tmp_path):
    store = fake_store(tmp_path, [record("a", accuracy=0.7),
                                  record("b", accuracy=0.9)])
    path = tmp_path / "best.rpak"
    manifest, winner = serve_best(store, path, objective="accuracy")
    assert winner["run_id"] == "b"
    assert manifest["metadata"]["sweep_run_id"] == "b"
    model, _ = load_model(path)
    logits = model(np.zeros((1, 2)))
    assert logits.data.shape == (1, 3)


# --------------------------------------------------------------------- #
# CLI: export + serve wiring
# --------------------------------------------------------------------- #
def test_cli_export_config_and_artifact(tmp_path, capsys):
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(small_config().to_dict()))
    out = tmp_path / "model.rpak"
    code = cli_main(["export", "--config", str(config_path),
                     "--output", str(out)])
    assert code == 0
    assert os.path.getsize(out) > 0
    printed = capsys.readouterr().out
    assert "posit(8,1)" in printed
    model, manifest = load_model(out)
    assert manifest["metadata"]["final_val_accuracy"] is not None


def test_cli_export_store_best(tmp_path, capsys):
    store = fake_store(tmp_path, [record("a", accuracy=0.6),
                                  record("b", accuracy=0.8)])
    out = tmp_path / "best.rpak"
    code = cli_main(["export", "--store", store.path, "--output", str(out)])
    assert code == 0
    assert "run/b" in capsys.readouterr().out


def test_cli_export_format_map_mixed_precision(tmp_path, capsys):
    """``--format-map`` overrides land per tensor and are reported."""
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(small_config().to_dict()))
    out = tmp_path / "mixed.rpak"
    code = cli_main(["export", "--config", str(config_path),
                     "--output", str(out),
                     "--format-map", "body.0.weight=posit(6,1)",
                     "--format-map", "body.2.bias=posit(16,1)"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "per-tensor formats:" in printed
    assert "posit(6,1)" in printed
    from repro.serve import artifact_info

    manifest = artifact_info(out)
    specs = {t["name"]: t["format"] for t in manifest["tensors"]
             if t["kind"] == "param"}
    assert specs["body.0.weight"] == "posit(6,1)"
    assert specs["body.2.bias"] == "posit(16,1)"
    assert len(set(specs.values())) >= 3
    # The mixed artifact serves: engine stats expose the breakdown.
    engine = InferenceEngine(out)
    stats = engine.stats()
    assert stats["mixed_precision"] is True
    assert set(stats["formats"]) >= set(specs.values())


def test_cli_export_rejects_malformed_format_map(tmp_path, capsys):
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(small_config().to_dict()))
    code = cli_main(["export", "--config", str(config_path),
                     "--output", str(tmp_path / "x.rpak"),
                     "--format-map", "not-a-mapping"])
    assert code == 2
    assert "NAME=SPEC" in capsys.readouterr().err


def test_cli_export_rejects_duplicate_format_map_name(tmp_path, capsys):
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(small_config().to_dict()))
    code = cli_main(["export", "--config", str(config_path),
                     "--output", str(tmp_path / "x.rpak"),
                     "--format-map", "body.0.weight=posit(16,1)",
                     "--format-map", "body.0.weight=posit(6,1)"])
    assert code == 2
    assert "given twice" in capsys.readouterr().err


def test_cli_export_rejects_unmatched_format_map_entry(tmp_path, capsys):
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(small_config().to_dict()))
    code = cli_main(["export", "--config", str(config_path),
                     "--output", str(tmp_path / "x.rpak"),
                     "--format-map", "no.such.tensor=posit(8,1)"])
    assert code == 2
    assert "match no model tensor" in capsys.readouterr().err


def test_cli_export_missing_config_errors(tmp_path, capsys):
    code = cli_main(["export", "--config", str(tmp_path / "nope.json"),
                     "--output", str(tmp_path / "x.rpak")])
    assert code == 2
    assert "error" in capsys.readouterr().err


class _Routed(Exception):
    """Raised by the stand-in serving stacks to report which one was built."""


@pytest.mark.parametrize("flags, stack", [
    ([], "engine"),
    (["--max-workers", "4"], "cluster of 1"),
    (["--min-workers", "2"], "cluster of 1"),
    (["--max-workers", "4", "--no-autoscale"], "engine"),
    (["--max-workers", "4", "--no-control"], "engine"),
    (["--workers", "2", "--no-control"], "cluster of 2"),
])
def test_cli_serve_runs_a_cluster_whenever_the_autoscaler_may_scale(
        monkeypatch, flags, stack):
    """An in-process engine cannot grow, so a worker range above 1 serves
    ``--workers`` processes the controller can scale."""
    import repro.serve as serve

    def engine(*args, **kwargs):
        raise _Routed("engine")

    def cluster(artifact, config, **kwargs):
        raise _Routed(f"cluster of {config.workers}")

    monkeypatch.setattr(serve, "InferenceEngine", engine)
    monkeypatch.setattr(serve, "ServeCluster", cluster)
    with pytest.raises(_Routed) as routed:
        cli_main(["serve", "model.rpak", *flags])
    assert str(routed.value) == stack


def test_cli_serve_rejects_bad_artifact(tmp_path, capsys):
    bad = tmp_path / "bad.rpak"
    bad.write_bytes(b"not an artifact")
    code = cli_main(["serve", str(bad)])
    assert code == 2
    assert "bad magic" in capsys.readouterr().err


def test_zero_queue_size_is_rejected():
    # queue.Queue(maxsize=0) is unbounded, and load_state() divides by it.
    with pytest.raises(ValueError, match="queue_size must be >= 1"):
        BatchingConfig(queue_size=0)


def test_cli_serve_rejects_zero_queue_size(capsys):
    assert cli_main(["serve", "model.rpak", "--queue-size", "0"]) == 2
    assert "queue_size must be >= 1" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# Mixed policies export mixed artifacts by default
# --------------------------------------------------------------------- #
def test_export_mixed_policy_defaults_to_per_tensor_formats(tmp_path):
    """``cifar_paper`` (posit(8,1) CONV, posit(16,1) BN) exports its Table
    III role assignment without the caller enumerating tensors."""
    from repro.api import build_experiment
    from repro.nn import BatchNorm2d, Conv2d, Linear
    from repro.serve import export_experiment

    config = ExperimentConfig(name="mixed_default", dataset="cifar_like",
                              model="tiny_resnet", policy="cifar_paper",
                              epochs=1, train_size=16, test_size=8,
                              batch_size=8, num_classes=4)
    experiment = build_experiment(config)
    manifest = export_experiment(experiment, tmp_path / "mixed.rpak",
                                 calibrate=False, guardrail_samples=0)
    specs = {t["name"]: t["format"] for t in manifest["tensors"]
             if t["kind"] == "param"}
    by_module = dict(experiment.model.named_modules())
    for qualified, spec in specs.items():
        module = by_module[qualified.rsplit(".", 1)[0]]
        if isinstance(module, (Conv2d, Linear)):
            assert spec == "posit(8,1)", qualified
        elif isinstance(module, BatchNorm2d):
            assert spec == "posit(16,1)", qualified
    assert set(specs.values()) == {"posit(8,1)", "posit(16,1)"}
    # An explicit --format wins back the uniform export.
    uniform = export_experiment(experiment, tmp_path / "uniform.rpak",
                                fmt="posit(8,1)", calibrate=False,
                                guardrail_samples=0)
    assert {t["format"] for t in uniform["tensors"]
            if t["kind"] == "param"} == {"posit(8,1)"}


# --------------------------------------------------------------------- #
# Export must not disturb a live experiment's training policy
# --------------------------------------------------------------------- #
def test_export_preserves_attached_training_policy(tmp_path):
    from repro.api import build_experiment
    from repro.serve import export_experiment

    experiment = build_experiment(small_config())
    experiment.run()
    before = {name: module.quant
              for name, module in experiment.model.named_modules()}
    assert any(context is not None for context in before.values())
    export_experiment(experiment, tmp_path / "mid.rpak")
    after = {name: module.quant
             for name, module in experiment.model.named_modules()}
    assert after == before
    # Training can continue, still quantized, after an export.
    history = experiment.run(epochs=1)
    assert len(history) >= 1


# --------------------------------------------------------------------- #
# /metrics exposition + controller decisions over HTTP
# --------------------------------------------------------------------- #
class _StubController:
    """Just enough controller surface for the transport's /stats and
    /metrics integration: recorded decisions with counts by action."""

    def __init__(self):
        self.decision_counts = {"scale_up": 2, "wait_backoff": 5}

    def describe(self):
        return {"decision_counts": dict(self.decision_counts),
                "decisions": [{"tick": 1, "action": "scale_up",
                               "reason": "sustained-queue-depth",
                               "from": 1, "to": 2}]}


def test_metrics_content_type_and_families(server, samples):
    client = HTTPClient(server.url)
    client.predict([samples[0]])
    with urllib.request.urlopen(server.url + "/metrics",
                                timeout=30) as reply:
        assert reply.headers["Content-Type"] == "text/plain; version=0.0.4"
        exposition = reply.read().decode("utf-8")
    # Exposition-format conformance: every sampled family is announced
    # with # HELP and # TYPE before its first sample.
    announced = set()
    for line in exposition.splitlines():
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            announced.add(line.split()[2])
        elif line:
            family = line.split("{")[0].split(" ")[0]
            assert family in announced, f"{family} sampled before # HELP/# TYPE"
    assert "# TYPE repro_serve_arrivals_total counter" in exposition


def test_attached_controller_exposed(server, samples):
    server.attach_controller(_StubController())
    client = HTTPClient(server.url)
    client.predict([samples[0]])
    stats = client.stats()
    assert stats["controller"]["decision_counts"] == {
        "scale_up": 2, "wait_backoff": 5}
    assert stats["controller"]["decisions"][0]["action"] == "scale_up"
    exposition = client.metrics()
    assert "# TYPE repro_controller_decisions_total counter" in exposition
    assert 'repro_controller_decisions_total{action="scale_up"} 2' in exposition
    assert ('repro_controller_decisions_total{action="wait_backoff"} 5'
            in exposition)


# --------------------------------------------------------------------- #
# Load generator slow-request reporting
# --------------------------------------------------------------------- #
def test_run_load_slow_ms_reporting(artifact, samples):
    from repro.obs import TraceConfig

    with InferenceEngine(artifact, BatchingConfig(max_batch=16,
                                                  max_wait_ms=2.0),
                         tracing=TraceConfig(enabled=True)) as engine:
        client = LocalClient(engine)
        report = run_load(client, samples, concurrency=4,
                          requests_per_client=4, slow_ms=0.0)
    # Every request is "slow" at a 0 ms threshold, and each one carries
    # the trace id the traced serving path echoed back.
    assert report["slow_ms"] == 0.0
    assert report["slow"] == report["completed"] == 16
    assert 1 <= len(report["slow_trace_ids"]) <= 16
    for trace_id in report["slow_trace_ids"]:
        assert len(trace_id) == 32


def test_run_load_without_slow_ms_omits_fields(artifact, samples):
    with InferenceEngine(artifact, BatchingConfig(max_batch=16,
                                                  max_wait_ms=2.0)) as engine:
        report = run_load(LocalClient(engine), samples, concurrency=2,
                          requests_per_client=2)
    assert "slow" not in report
    assert "slow_trace_ids" not in report


# --------------------------------------------------------------------- #
# One server over any backend that speaks the client contract
# --------------------------------------------------------------------- #
class _ScriptedBackend:
    """Neither an engine nor a cluster: the client contract plus
    ``start``/``stop``, with a scripted health status and predict failure."""

    def __init__(self, status: str = "ok", error: Exception = None):
        self.status = status
        self.error = error
        self.running = False

    def start(self):
        self.running = True

    def stop(self):
        self.running = False

    def predict(self, samples, trace_id=None):
        if self.error is not None:
            raise self.error
        return {"predictions": [0] * len(samples), "trace_id": trace_id}

    def healthz(self):
        return {"status": self.status}

    def stats(self):
        return {"requests": 0}

    def traces(self):
        return {"tracing": {}, "spans": []}

    def metrics(self):
        return "# TYPE repro_serve_up gauge\nrepro_serve_up 1\n"


def _status_and_body(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=10) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def test_server_serves_any_backend_with_the_contract():
    backend = _ScriptedBackend()
    with ModelServer(backend, controller=_StubController()) as server:
        assert backend.running
        client = HTTPClient(server.url)
        response = client.predict([[0.0, 0.0]], trace_id="ab" * 16)
        assert response == {"predictions": [0], "trace_id": "ab" * 16}
        assert client.healthz() == {"status": "ok"}
        stats = client.stats()
        assert stats["requests"] == 0
        assert stats["controller"]["decision_counts"] == {
            "scale_up": 2, "wait_backoff": 5}
        assert client.traces() == {"tracing": {}, "spans": []}
        exposition = client.metrics()
        assert exposition.startswith(backend.metrics())
        assert 'repro_controller_decisions_total{action="scale_up"} 2' in exposition
    assert not backend.running


@pytest.mark.parametrize("status", ["ok", "busy", "overloaded", "degraded",
                                    "down"])
def test_healthz_is_503_only_when_down(status):
    with ModelServer(_ScriptedBackend(status=status)) as server:
        code, body = _status_and_body(f"{server.url}/healthz")
    assert code == (503 if status == "down" else 200)
    assert body == {"status": status}


@pytest.mark.parametrize("error, status", [
    (ValueError("bad sample"), 400),
    (TypeError("bad type"), 400),
    (FuturesTimeout(), 504),
    (AdmissionError("queue full", retry_after_s=2.5), 429),
    (RuntimeError("no live workers"), 503),
    (ServeClientError(418, "upstream said so"), 418),
    (KeyError("surprise"), 500),
])
def test_one_status_table_for_predict_failures(error, status):
    with ModelServer(_ScriptedBackend(error=error)) as server:
        request = urllib.request.Request(
            f"{server.url}/predict", data=b'{"inputs": [[0.0, 0.0]]}',
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
    assert excinfo.value.code == status
    body = json.loads(excinfo.value.read())
    if status == 429:
        assert body == {"error": "queue full", "retry_after_s": 2.5}
        assert excinfo.value.headers["Retry-After"] == "3"
    else:
        assert list(body) == ["error"]
        assert "Retry-After" not in excinfo.value.headers


# --------------------------------------------------------------------- #
# stop() returns whether or not a serve loop ever ran
# --------------------------------------------------------------------- #
class _FailingStartBackend(_ScriptedBackend):
    def start(self):
        raise RuntimeError("backend failed to start")


def _returns_within(call, seconds: float = 5.0) -> bool:
    """Run ``call`` on a daemon thread and report whether it returned in
    time: a hang strands the thread, not the suite."""
    returned = []
    thread = threading.Thread(target=lambda: returned.append(call()), daemon=True)
    thread.start()
    thread.join(seconds)
    return returned == [None]


def test_stop_without_start_returns():
    """At the parent, ``shutdown()`` waited for a serve loop that never ran."""
    backend = _ScriptedBackend()
    backend.running = True
    server = ModelServer(backend)
    assert _returns_within(server.stop)
    assert not backend.running
    assert _returns_within(server.serve_forever)  # stopped: no loop starts


def test_stop_after_a_failed_backend_start_returns():
    """At the parent this hung like ``stop()`` without ``start()``."""
    server = ModelServer(_FailingStartBackend())
    with pytest.raises(RuntimeError, match="failed to start"):
        server.start()
    assert _returns_within(server.stop)


def test_stop_from_another_thread_ends_a_blocking_serve_forever():
    backend = _ScriptedBackend()
    server = ModelServer(backend)
    loop = threading.Thread(target=server.serve_forever, daemon=True)
    loop.start()
    assert HTTPClient(server.url, timeout=5.0).healthz() == {"status": "ok"}
    assert _returns_within(server.stop)
    loop.join(5.0)
    assert not loop.is_alive() and not backend.running


def test_local_client_statuses_and_passthrough(artifact, monkeypatch):
    engine = InferenceEngine(artifact)
    client = LocalClient(engine)
    with pytest.raises(ServeClientError) as excinfo:
        client.predict([np.zeros(2)])  # not started
    assert excinfo.value.status == 503
    client.start()
    try:
        for bad in ([], None, {"inputs": []}, [np.zeros(5)]):
            with pytest.raises(ServeClientError) as excinfo:
                client.predict(bad)
            assert excinfo.value.status == 400
        timed_out = Future()
        timed_out.set_exception(FuturesTimeout())
        monkeypatch.setattr(engine, "submit", lambda *a, **k: timed_out)
        with pytest.raises(ServeClientError) as excinfo:
            client.predict([np.zeros(2)])
        assert excinfo.value.status == 504

        def unexpected(*args, **kwargs):
            raise KeyError("surprise")

        monkeypatch.setattr(engine, "submit", unexpected)
        with pytest.raises(KeyError):
            client.predict([np.zeros(2)])
    finally:
        client.stop()


# --------------------------------------------------------------------- #
# The listener: protocol statuses, thread reuse, Ctrl-C
# --------------------------------------------------------------------- #
_PREDICT_BODY = b'{"inputs": [[0.0, 0.0]]}'
_FILLER_HEADERS = b"".join(b"X-Filler-%d: 1\r\n" % i for i in range(100))


def _read_status(sock: socket.socket) -> int:
    if sock.recv(5, socket.MSG_PEEK | socket.MSG_WAITALL) != b"HTTP/":
        # No status line: the stdlib handler answered a request line whose
        # version it rejected as it would an HTTP/0.9 request, with a bare
        # error page, and closed.
        page = b""
        while chunk := sock.recv(65536):
            page += chunk
        return int(re.search(rb"Error code: (\d+)", page)[1])
    reply = http.client.HTTPResponse(sock)
    reply.begin()
    reply.read()
    return reply.status


def _exchange(server: ModelServer, request: bytes) -> tuple[int, bool]:
    """Send raw request bytes; return the reply's status and whether the
    server closed the connection after it (a follow-up request on the same
    connection went unanswered)."""
    with socket.create_connection((server.host, server.port),
                                  timeout=5) as sock:
        sock.sendall(request)
        status = _read_status(sock)
        try:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            follow_up = http.client.HTTPResponse(sock)
            follow_up.begin()
            closed = follow_up.status != 200
        except (OSError, http.client.HTTPException):
            closed = True
    return status, closed


@pytest.mark.parametrize("request_bytes, status, closes", [
    pytest.param(b"GET /healthz HTTP/1.1\r\nHost: test\r\n" + _FILLER_HEADERS
                 + b"\r\n", 431, True, id="101-headers"),
    pytest.param(b"GET /" + b"x" * 65536 + b" HTTP/1.1\r\n\r\n", 414, True,
                 id="request-line-over-64KiB"),
    pytest.param(b"GET /healthz HTTP/2.0\r\n\r\n", 505, True, id="http-2.0"),
    pytest.param(b"PUT /predict HTTP/1.1\r\nHost: test\r\n\r\n", 501, True,
                 id="put"),
    pytest.param(b"POST /predict HTTP/1.1\r\nHost: test\r\n"
                 b"content-length: %d\r\n\r\n%s"
                 % (len(_PREDICT_BODY), _PREDICT_BODY), 200, False,
                 id="lower-case-content-length"),
    pytest.param(b"GET /healthz HTTP/1.0\r\n\r\n", 200, True,
                 id="http-1.0-closes"),
    pytest.param(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
                 200, False, id="http-1.0-keep-alive"),
    pytest.param(b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
                 b"Connection: close\r\n\r\n", 200, True,
                 id="http-1.1-connection-close"),
])
def test_protocol_statuses_and_keep_alive(request_bytes, status, closes):
    """The statuses and connection reuse the stdlib ``http.server`` handler
    gave, pinned by status only: error bodies may differ."""
    with ModelServer(_ScriptedBackend()) as server:
        assert _exchange(server, request_bytes) == (status, closes)


@pytest.fixture
def started_threads(monkeypatch):
    """Every thread started while the test runs, in start order."""
    started = []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    return started


def _all_exit(threads, seconds: float = 2.0) -> bool:
    deadline = time.monotonic() + seconds
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    return not [thread for thread in threads if thread.is_alive()]


def test_sequential_connections_reuse_listener_threads(started_threads):
    """Every ``HTTPClient`` request opens a fresh connection; twenty of
    them in a row start at most two threads, where a thread per connection
    started twenty, and ``stop()`` ends every one of them."""
    server = ModelServer(_ScriptedBackend()).start()
    try:
        client = HTTPClient(server.url, timeout=5.0)
        for _ in range(20):
            assert client.healthz() == {"status": "ok"}
    finally:
        server.stop()
    assert 1 <= len(started_threads) <= 2
    assert _all_exit(started_threads)


def test_listener_pool_stays_bounded_under_concurrent_clients(
        started_threads):
    """More clients than cores, with a short switch interval: every request
    is answered, the pool never outgrows peak concurrency plus one, and
    ``stop()`` ends every pool thread, the last of which closes the
    listening socket."""
    clients, errors = 8, []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        server = ModelServer(_ScriptedBackend()).start()
        try:
            def hammer():
                try:
                    for _ in range(25):
                        assert HTTPClient(server.url, timeout=5.0).healthz() \
                            == {"status": "ok"}
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(clients)]
            for thread in threads:
                thread.start()
            assert _all_exit(threads, 60.0)
        finally:
            server.stop()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    pool = [thread for thread in started_threads
            if thread.name == "repro-serve-http"]
    assert 1 <= len(pool) <= clients + 1
    assert _all_exit(pool)
    assert server._listener.socket.fileno() == -1


def test_http_client_metrics_maps_http_errors():
    """``metrics()`` raised urllib's ``HTTPError`` where every other client
    call raises ``ServeClientError``."""
    with ModelServer(_ScriptedBackend()) as server:
        with pytest.raises(ServeClientError) as excinfo:
            HTTPClient(server.url + "/nope").metrics()
    assert excinfo.value.status == 404
    assert "unknown path" in excinfo.value.message


def _process_alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def test_cli_serve_exits_cleanly_on_sigint(artifact, tmp_path):
    """Ctrl-C on ``repro serve --workers 2``: exit 0 and no worker left.
    The main thread waits in ``accept()``, which the signal interrupts."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC] + ([os.environ["PYTHONPATH"]]
                 if os.environ.get("PYTHONPATH") else []))}
    log = tmp_path / "serve.log"
    with open(log, "wb") as out:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", artifact, "--workers",
             "2", "--no-control", "--port", str(port)],
            env=env, stdout=out, stderr=subprocess.STDOUT)
    try:
        client = HTTPClient(f"http://127.0.0.1:{port}", timeout=5.0)
        deadline = time.monotonic() + 60.0
        while True:
            assert process.poll() is None, log.read_text()
            try:
                health = client.healthz()
            except (OSError, ServeClientError):
                health = {}
            if health.get("guardrail") == ["passed", "passed"]:
                break
            assert time.monotonic() < deadline, "repro serve never got ready"
            time.sleep(0.1)
        workers = [row["pid"] for row in client.stats()["per_worker"]]
        process.send_signal(signal.SIGINT)
        assert process.wait(timeout=20) == 0, log.read_text()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    assert len(workers) == 2
    deadline = time.monotonic() + 5.0
    while any(map(_process_alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not [pid for pid in workers if _process_alive(pid)]
    assert "shutting down" in log.read_text()
