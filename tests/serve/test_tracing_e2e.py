"""End-to-end request tracing through the serving stack (:mod:`repro.obs`).

The acceptance path for the observability layer: a single ``/predict``
through a 2-worker cluster must produce **one** trace covering admission
→ queue → batch assembly → codec → forward → respond with consistent
parent/child nesting, exportable as valid Chrome trace-event JSON; a
SIGKILL'd worker's transparent failover must land both dispatch attempts
in the *same* client trace; and ``sample_rate=0`` must record nothing.
"""

import json
import os
import signal
import time

import numpy as np
import pytest

from repro.api import ExperimentConfig
from repro.obs import (
    TRACE_HEADER,
    TraceConfig,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.serve import (
    BatchingConfig,
    ClusterConfig,
    HTTPClient,
    InferenceEngine,
    LocalClient,
    ModelServer,
    ServeCluster,
    train_and_export,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

#: Engine-side stage spans every traced request must produce.
ENGINE_STAGES = {"engine", "admission", "queue", "batch", "forward", "respond"}


def small_config(**overrides) -> ExperimentConfig:
    base = dict(name="tracing_test", dataset="blobs", model="mlp",
                policy="posit(8,1)", epochs=1, train_size=64, test_size=32,
                batch_size=16, num_classes=3, model_kwargs={"hidden": [16]})
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("tracing") / "model.rpak"
    train_and_export(small_config(), path)
    return str(path)


@pytest.fixture
def samples():
    return np.random.default_rng(11).normal(size=(8, 2))


def traced_batching():
    return BatchingConfig(max_batch=16, max_wait_ms=2.0)


# --------------------------------------------------------------------- #
# Single engine
# --------------------------------------------------------------------- #
class TestEngineTracing:
    def test_stages_and_nesting(self, artifact, samples):
        with InferenceEngine(artifact, traced_batching(),
                             tracing=TraceConfig(enabled=True)) as engine:
            engine.predict(samples[0])
            traces = engine.tracer.traces()
        assert len(traces) == 1
        (members,) = traces.values()
        names = {s.name for s in members}
        assert ENGINE_STAGES <= names
        assert "codec" in names
        by_id = {s.span_id: s for s in members}
        root = next(s for s in members if s.parent_id is None)
        assert root.name == "engine"
        for span in members:
            if span.parent_id is not None:
                assert span.parent_id in by_id
        codec = next(s for s in members if s.name == "codec")
        forward = by_id[codec.parent_id]
        assert forward.name == "forward"
        # Stage intervals nest inside the root interval.
        for span in members:
            assert span.start_s >= root.start_s - 1e-6
            assert span.end_s <= root.end_s + 1e-6

    def test_disabled_is_default_and_silent(self, artifact, samples):
        with InferenceEngine(artifact, traced_batching()) as engine:
            engine.predict(samples[0])
            assert engine.tracer.enabled is False
            assert engine.tracer.spans() == []
            stats = engine.stats()
        assert stats["tracing"]["spans_total"] == 0
        assert "codec_profile" not in stats

    def test_sample_rate_zero_records_nothing(self, artifact, samples):
        config = TraceConfig(enabled=True, sample_rate=0.0)
        with InferenceEngine(artifact, traced_batching(),
                             tracing=config) as engine:
            for sample in samples:
                engine.predict(sample)
            summary = engine.tracer.summary()
        assert summary["spans_total"] == 0
        assert summary["dropped_unsampled"] >= len(samples)

    def test_codec_profile_in_stats(self, artifact, samples):
        with InferenceEngine(artifact, traced_batching(),
                             tracing=TraceConfig(enabled=True)) as engine:
            engine.predict(samples[0])
            stats = engine.stats()
        profile = stats["codec_profile"]
        assert profile["total_ns"] > 0
        # Weight decode at load time plus activation quantization at
        # forward time both land in the per-format scoreboard.
        ops = {op for fmt in profile["formats"].values() for op in fmt}
        assert "from_bits" in ops
        assert "quantize" in ops

    def test_slow_exemplars(self, artifact, samples):
        config = TraceConfig(enabled=True, slow_ms=0.0, slow_keep=4)
        with InferenceEngine(artifact, traced_batching(),
                             tracing=config) as engine:
            engine.predict(samples[0])
            slow = engine.tracer.slow_traces()
        assert len(slow) == 1
        assert slow[0]["duration_ms"] > 0


# --------------------------------------------------------------------- #
# Transports
# --------------------------------------------------------------------- #
class TestTransportTracing:
    def test_local_client_echoes_trace_id(self, artifact, samples):
        with InferenceEngine(artifact, traced_batching(),
                             tracing=TraceConfig(enabled=True)) as engine:
            client = LocalClient(engine)
            response = client.predict([samples[0]])
            assert "trace_id" in response
            own = client.predict([samples[1]], trace_id="f" * 32)
            assert own["trace_id"] == "f" * 32
            traces = client.traces()
            assert traces["tracing"]["enabled"] is True
            ids = {span["trace_id"] for span in traces["spans"]}
            assert "f" * 32 in ids

    def test_http_header_round_trip(self, artifact, samples):
        engine = InferenceEngine(artifact, traced_batching(),
                                 tracing=TraceConfig(enabled=True))
        with ModelServer(engine) as server:
            client = HTTPClient(server.url)
            supplied = "a" * 32
            response = client.predict([samples[0]], trace_id=supplied)
            assert response["trace_id"] == supplied
            # The raw header is echoed too (the client parses the body,
            # so check via urllib directly).
            import urllib.request

            request = urllib.request.Request(
                server.url + "/predict",
                data=json.dumps(
                    {"inputs": [samples[0].tolist()]}).encode(),
                headers={"Content-Type": "application/json",
                         TRACE_HEADER: "b" * 32})
            with urllib.request.urlopen(request, timeout=30) as reply:
                assert reply.headers[TRACE_HEADER] == "b" * 32
            traces = client.traces()
            assert {"a" * 32, "b" * 32} <= {
                span["trace_id"] for span in traces["spans"]}

    def test_untraced_response_has_no_trace_id(self, artifact, samples):
        with InferenceEngine(artifact, traced_batching()) as engine:
            response = LocalClient(engine).predict([samples[0]])
        assert "trace_id" not in response


# --------------------------------------------------------------------- #
# Cluster: one request, one cross-process trace
# --------------------------------------------------------------------- #
class TestClusterTracing:
    def test_single_predict_single_complete_trace(self, artifact, samples,
                                                  tmp_path):
        with ServeCluster(artifact, ClusterConfig(workers=2),
                          batching=traced_batching(),
                          tracing=TraceConfig(enabled=True)) as cluster:
            response = cluster.predict([samples[0]])
            trace_id = response["trace_id"]
            spans = cluster.tracer.spans(trace_id)

        names = {s.name for s in spans}
        assert {"request", "dispatch"} | ENGINE_STAGES <= names
        assert len({s.trace_id for s in spans}) == 1

        # Parent/child nesting is consistent across the process boundary:
        # every non-root span's parent exists, and the chain request →
        # dispatch → engine → forward → codec resolves.
        by_id = {s.span_id: s for s in spans}
        assert len(by_id) == len(spans), "span ids must be unique"
        root = next(s for s in spans if s.parent_id is None)
        assert root.name == "request"
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in by_id, f"orphan span {span.name}"
        engine_span = next(s for s in spans if s.name == "engine")
        dispatch = by_id[engine_span.parent_id]
        assert dispatch.name == "dispatch"
        assert by_id[dispatch.parent_id] is root
        # The worker recorded its stages in its own process.
        assert engine_span.pid != root.pid

        # ... and the whole thing exports as a valid Chrome trace.
        doc = write_chrome_trace(spans, str(tmp_path / "trace.json"))
        assert validate_chrome_trace(doc) == []
        with open(tmp_path / "trace.json", "r", encoding="utf-8") as fh:
            assert validate_chrome_trace(json.load(fh)) == []

    def test_failover_lands_both_attempts_in_one_trace(self, artifact,
                                                       samples):
        with ServeCluster(artifact,
                          ClusterConfig(workers=2, max_restarts=0),
                          batching=traced_batching(),
                          tracing=TraceConfig(enabled=True)) as cluster:
            victim = cluster._handles[0]
            os.kill(victim.pid, signal.SIGKILL)
            # Round-robin reaches the dead worker within a couple of
            # requests; the transparent retry then shows up as a second
            # dispatch span in the same trace.
            retried = None
            deadline = time.monotonic() + 30.0
            while retried is None and time.monotonic() < deadline:
                response = cluster.predict([samples[0]])
                spans = cluster.tracer.spans(response["trace_id"])
                dispatches = sorted(
                    (s for s in spans if s.name == "dispatch"),
                    key=lambda s: s.annotations["attempt"])
                if len(dispatches) == 2:
                    retried = (response, spans, dispatches)
            assert retried is not None, "failover retry never observed"
            response, spans, dispatches = retried

            first, second = dispatches
            assert first.annotations["retry"] is False
            assert "error" in first.annotations
            assert second.annotations["retry"] is True
            assert "error" not in second.annotations
            assert first.annotations["worker"] != second.annotations["worker"]
            # One trace end to end: the client still got an answer, and
            # the engine stages ran under the *second* dispatch.
            assert len(response["predictions"]) == 1
            assert len([s for s in spans if s.parent_id is None]) == 1
            engine_span = next(s for s in spans if s.name == "engine")
            assert engine_span.parent_id == second.span_id

    def test_sample_rate_zero_cluster_is_silent(self, artifact, samples):
        config = TraceConfig(enabled=True, sample_rate=0.0)
        with ServeCluster(artifact, ClusterConfig(workers=2),
                          batching=traced_batching(),
                          tracing=config) as cluster:
            for sample in samples:
                response = cluster.predict([sample])
                assert "trace_id" not in response
            assert cluster.tracer.spans() == []
            # The workers did not record either: their engines saw the
            # explicit unsampled context, not an absent one.
            stats = cluster.stats()
            for worker_stats in stats["per_worker"]:
                assert worker_stats["tracing"]["spans_total"] == 0

    def test_cluster_server_traces_endpoint(self, artifact, samples):
        cluster = ServeCluster(artifact, ClusterConfig(workers=2),
                               batching=traced_batching(),
                               tracing=TraceConfig(enabled=True))
        with ModelServer(cluster) as server:
            client = HTTPClient(server.url)
            response = client.predict([samples[0]])
            trace_id = response["trace_id"]
            payload = client.traces()
            ids = {span["trace_id"] for span in payload["spans"]}
            assert trace_id in ids
            doc = to_chrome_trace(payload["spans"])
            assert validate_chrome_trace(doc) == []
