"""Tests for the multi-worker serving tier (:mod:`repro.serve.cluster`).

Covers the supervisor's contract end to end: worker startup handshakes
(including the guardrail refusal path), round-robin + least-outstanding
dispatch, cross-worker bit-identity, aggregated stats, crash detection +
restart with transparent failover, clean drain on shutdown, and the HTTP
listener over the cluster.
"""

import multiprocessing as mp
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from artifact_tools import rewrite_manifest

from repro.api import ExperimentConfig
from repro.serve import (
    AdmissionError,
    BatchingConfig,
    ClusterConfig,
    ClusterError,
    ClusterPlant,
    ClusterServer,
    GuardrailError,
    HTTPClient,
    InferenceEngine,
    ServeClientError,
    ServeCluster,
    run_load,
    train_and_export,
)
from repro.serve.host import blas_budget, blas_threads, effective_cores

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def small_config(**overrides) -> ExperimentConfig:
    base = dict(name="cluster_test", dataset="blobs", model="mlp",
                policy="posit(8,1)", epochs=1, train_size=64, test_size=32,
                batch_size=16, num_classes=3, model_kwargs={"hidden": [16]})
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("cluster") / "model.rpak"
    train_and_export(small_config(), path)
    return str(path)


@pytest.fixture
def cluster(artifact):
    with ServeCluster(artifact, ClusterConfig(workers=2),
                      batching=BatchingConfig(max_batch=16,
                                              max_wait_ms=2.0)) as running:
        yield running


@pytest.fixture
def samples():
    return np.random.default_rng(7).normal(size=(16, 2))


def wait_until(predicate, timeout_s: float = 30.0, interval_s: float = 0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


# --------------------------------------------------------------------- #
# Lifecycle + dispatch
# --------------------------------------------------------------------- #
class TestClusterBasics:
    def test_start_brings_up_every_worker(self, cluster):
        health = cluster.healthz()
        assert health["status"] == "ok"
        assert health["alive"] == health["workers"] == 2
        assert health["guardrail"] == ["passed", "passed"]

    def test_predict_matches_in_process_engine(self, cluster, artifact,
                                               samples):
        engine = InferenceEngine(artifact)
        direct = engine.predict_batch(samples)
        payload = cluster.predict(list(samples))
        assert np.array_equal(np.asarray(payload["logits"]), direct)
        assert payload["predictions"] == [int(np.argmax(row))
                                          for row in direct]
        assert payload["worker"] in (0, 1)

    def test_bit_identity_across_workers(self, cluster, samples):
        """Same inputs, every worker, batched and single: one answer."""
        batched0 = np.asarray(cluster.predict_on(0, list(samples))["logits"])
        batched1 = np.asarray(cluster.predict_on(1, list(samples))["logits"])
        assert np.array_equal(batched0, batched1)
        singles = np.stack([
            np.asarray(cluster.predict_on(1, [sample])["logits"][0])
            for sample in samples])
        assert np.array_equal(batched0, singles)

    def test_round_robin_spreads_load(self, cluster, samples):
        for index in range(10):
            cluster.predict([samples[index % len(samples)]])
        stats = cluster.stats()
        assert sum(stats["dispatched"]) >= 10
        assert all(count > 0 for count in stats["dispatched"])

    def test_concurrent_load_hits_every_worker(self, cluster, samples):
        report = run_load(cluster, samples, concurrency=32,
                          requests_per_client=4)
        assert report["failed"] == 0, report["errors"]
        assert report["completed"] == 128
        assert set(report["served_by"]) == {0, 1}

    def test_stats_aggregate_across_workers(self, cluster, samples):
        run_load(cluster, samples, concurrency=16, requests_per_client=2)
        stats = cluster.stats()
        assert stats["alive"] == 2
        assert len(stats["per_worker"]) == 2
        assert stats["requests"] == sum(row["requests"]
                                        for row in stats["per_worker"])
        assert stats["requests"] >= 32
        assert stats["energy_uj_total"] > 0
        # The top-level figures and the controller's reading come from the
        # merge of the workers' histograms.
        merged = stats["metrics"]
        assert stats["requests"] == merged["lifetime"]["completed"]
        assert stats["latency_p99_ms"] == merged["latency_ms"]["total"]["p99"]
        assert (ClusterPlant(cluster).observe()["latency_samples"]
                == merged["latency_ms"]["total"]["count"])

    def test_malformed_sample_fails_only_its_request(self, cluster, samples):
        with pytest.raises(ValueError, match="input shape"):
            cluster.predict([np.zeros(5)])
        # The cluster is still healthy and serving afterwards.
        payload = cluster.predict([samples[0]])
        assert len(payload["logits"]) == 1

    def test_predict_after_stop_raises(self, artifact, samples):
        cluster = ServeCluster(artifact, ClusterConfig(workers=2))
        cluster.start()
        cluster.predict([samples[0]])
        cluster.stop()
        with pytest.raises(ClusterError, match="not running"):
            cluster.predict([samples[0]])

    def test_stop_is_idempotent(self, artifact):
        cluster = ServeCluster(artifact, ClusterConfig(workers=2)).start()
        cluster.stop()
        cluster.stop()


# --------------------------------------------------------------------- #
# Per-worker BLAS thread budget
# --------------------------------------------------------------------- #
def worker_blas_threads(cluster) -> list:
    return [row["blas_threads"] for row in cluster.stats()["per_worker"]]


class TestBlasBudget:
    """Each worker's OpenBLAS pool is its share of the cores, whatever the
    start method, and it follows the target worker count."""

    @staticmethod
    def expected(workers: int):
        """The budget for ``workers``, read back as ``None`` off OpenBLAS."""
        pool = blas_threads()
        budget = blas_budget(workers, effective_cores(), pool)
        return budget, (None if pool is None else budget)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_every_worker_runs_the_budget(self, artifact, samples,
                                          start_method):
        own_pool = blas_threads()
        budget, reported = self.expected(2)
        direct = InferenceEngine(artifact).predict_batch(samples)
        with ServeCluster(artifact, ClusterConfig(
                workers=2, mp_context=start_method)) as cluster:
            stats = cluster.stats()
            assert stats["effective_cores"] == effective_cores()
            assert stats["blas_threads_budget"] == budget
            assert cluster.healthz()["guardrail"] == ["passed", "passed"]
            assert worker_blas_threads(cluster) == [reported, reported]
            for worker in (0, 1):
                served = cluster.predict_on(worker, list(samples))["logits"]
                assert np.array_equal(np.asarray(served), direct)
        # The launching process keeps its own pool.
        assert blas_threads() == own_pool

    def test_scale_to_rebudgets_live_workers(self, artifact, samples):
        own_pool = blas_threads()
        errors, done = [], threading.Event()
        with ServeCluster(artifact, ClusterConfig(workers=2),
                          batching=BatchingConfig(max_batch=8,
                                                  max_wait_ms=1.0)) as cluster:
            def pound():
                while not done.is_set():
                    try:
                        cluster.predict([samples[0]])
                    except Exception as exc:  # noqa: BLE001 - tallied
                        errors.append(repr(exc))

            threads = [threading.Thread(target=pound, daemon=True)
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            seen = [worker_blas_threads(cluster)]
            for target in (1, 2):
                cluster.scale_to(target)
                assert cluster.blas_threads_budget == self.expected(target)[0]
                assert wait_until(
                    lambda: cluster.healthz()["alive"] == target)
                seen.append(worker_blas_threads(cluster))
            done.set()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
        assert errors == [], errors[:3]
        reported = {workers: self.expected(workers)[1] for workers in (1, 2)}
        assert seen == [[reported[2]] * 2, [reported[1]], [reported[2]] * 2]
        assert blas_threads() == own_pool

    def test_worker_started_before_a_rescale_is_rebudgeted(self, artifact):
        """scale_to(1) while new workers are still starting retires the
        ready one; the survivor must not keep the 3-worker budget.  Spawned
        workers start slowly enough for the rescale to land first."""
        _, reported = self.expected(1)
        with ServeCluster(artifact, ClusterConfig(
                workers=1, mp_context="spawn")) as cluster:
            cluster.scale_to(3)
            cluster.scale_to(1)
            assert wait_until(lambda: cluster.healthz()["alive"] == 1)
            assert wait_until(
                lambda: worker_blas_threads(cluster) == [reported])


# --------------------------------------------------------------------- #
# Crash detection, restart, failover
# --------------------------------------------------------------------- #
class TestClusterSupervision:
    def test_killed_worker_is_restarted(self, artifact, samples):
        with ServeCluster(artifact, ClusterConfig(workers=2)) as cluster:
            victim_pid = cluster._handles[0].pid
            os.kill(victim_pid, signal.SIGKILL)
            assert wait_until(lambda: (cluster.healthz()["alive"] == 2
                                       and cluster.stats()["restarts"] >= 1))
            # The restarted worker re-ran the guardrail and serves again.
            assert cluster.healthz()["guardrail"] == ["passed", "passed"]
            payload = cluster.predict_on(0, [samples[0]])
            assert payload["worker"] == 0

    def test_kill_mid_load_is_invisible_to_clients(self, artifact, samples):
        """SIGKILL one worker under concurrent load: zero failed requests
        (in-flight requests fail over to the survivor) and the worker
        rejoins the rotation."""
        with ServeCluster(artifact, ClusterConfig(workers=2),
                          batching=BatchingConfig(max_batch=16,
                                                  max_wait_ms=2.0)) as cluster:
            def assassin():
                time.sleep(0.05)
                os.kill(cluster._handles[0].pid, signal.SIGKILL)

            killer = threading.Thread(target=assassin, daemon=True)
            killer.start()
            report = run_load(cluster, samples, concurrency=32,
                              requests_per_client=16)
            killer.join()
            assert report["failed"] == 0, report["errors"]
            assert report["completed"] == 512
            # The kill may land anywhere relative to the load's tail, so
            # wait for the whole supervision cycle: death seen, worker
            # respawned, guardrail re-passed, back in rotation.
            assert wait_until(lambda: (cluster.stats()["restarts"] >= 1
                                       and cluster.healthz()["alive"] == 2))

    def test_restart_budget_is_finite(self, artifact):
        """A worker that keeps dying is given up on after max_restarts."""
        with ServeCluster(artifact,
                          ClusterConfig(workers=2, max_restarts=1)) as cluster:
            for _round in range(2):
                pid = None
                for handle in cluster._handles:
                    if handle.index == 0 and handle.state == "ready":
                        pid = handle.pid
                if pid is None:
                    break
                os.kill(pid, signal.SIGKILL)
                wait_until(lambda: cluster._handles[0].pid != pid
                           and cluster._handles[0].state == "ready",
                           timeout_s=10.0)
            assert wait_until(lambda: cluster.stats()["restarts"] == 1,
                              timeout_s=10.0)
            # Worker 1 still serves; the cluster reports degradation.
            assert wait_until(
                lambda: cluster.healthz()["status"] == "degraded")
            assert cluster.predict([np.zeros(2)])["worker"] == 1

    def test_respawn_closes_the_dead_workers_pipe(self, artifact):
        with ServeCluster(artifact, ClusterConfig(workers=1)) as cluster:
            handle = cluster._handles[0]
            dead_conn = handle.conn
            os.kill(handle.pid, signal.SIGKILL)
            assert wait_until(lambda: (handle.restarts == 1
                                       and handle.state == "ready"))
            assert dead_conn.closed
            assert handle.conn is not dead_conn


# --------------------------------------------------------------------- #
# Pipe shutdown: every supervisor-side pipe has exactly one closer
# --------------------------------------------------------------------- #
@pytest.fixture
def recorded_pipe_closes(monkeypatch):
    """Record every ``Connection._close`` in this process, and hold a
    retired worker's drain inside its close until ``stop()`` has begun its
    own sweep.

    That is the interleaving in which the drain thread and ``stop()`` both
    waited on the retired worker's ``join`` and then both closed its pipe:
    ``Connection.close`` is not thread-safe, so the second close hit a
    descriptor the first had already released (``EBADF``).  The
    rendezvous makes the overlap happen on every run.
    """
    from multiprocessing.connection import Connection

    closes, lock = [], threading.Lock()
    drain_closing, sweep_started = threading.Event(), threading.Event()
    close, terminate_all = Connection._close, ServeCluster._terminate_all

    def recording_close(self):
        with lock:
            closes.append(self)  # strong refs: ids stay unique
        if threading.current_thread().name.startswith("repro-serve-retire-"):
            drain_closing.set()
            sweep_started.wait(timeout=30.0)
        close(self)

    def rendezvous_terminate_all(self):
        if self._retired:
            drain_closing.wait(timeout=30.0)
        sweep_started.set()
        terminate_all(self)

    monkeypatch.setattr(Connection, "_close", recording_close)
    monkeypatch.setattr(ServeCluster, "_terminate_all",
                        rendezvous_terminate_all)
    return closes, drain_closing


class TestPipeShutdown:
    def test_retired_worker_pipe_is_closed_once(self, artifact,
                                                recorded_pipe_closes):
        closes, drain_closing = recorded_pipe_closes
        with ServeCluster(artifact, ClusterConfig(workers=2)) as cluster:
            cluster.scale_to(1)
            (retired,) = cluster._retired
        for thread in threading.enumerate():
            if thread.name.startswith("repro-serve-retire-"):
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        assert drain_closing.is_set()
        assert retired.conn is None
        assert len({id(conn) for conn in closes}) == len(closes), (
            "a pipe was closed twice")

    def test_handle_close_conn_has_one_closer(self, monkeypatch):
        """Two threads closing one handle's pipe at the same instant: one
        closes it, the other finds it gone; neither raises."""
        from multiprocessing.connection import Connection

        from repro.serve.cluster import _WorkerHandle

        closes, barrier = [], threading.Barrier(2)
        close = Connection._close

        def slow_close(self):
            closes.append(self)
            time.sleep(0.05)
            close(self)

        monkeypatch.setattr(Connection, "_close", slow_close)
        handle = _WorkerHandle(0)
        handle.conn, peer = mp.Pipe()
        errors = []

        def closer():
            barrier.wait()
            try:
                handle.close_conn()
            except OSError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        peer.close()
        assert errors == []
        assert handle.conn is None
        assert len(closes) == 2  # the handle's end once, the peer once
        with pytest.raises(OSError, match="closed"):
            handle.send({"kind": "ping"})


# --------------------------------------------------------------------- #
# Worker reply path: one reply per message, errors included
# --------------------------------------------------------------------- #
@pytest.fixture
def parked_forward(monkeypatch):
    """Park every batcher-thread forward until the returned event is set.

    Patched on the class before the cluster forks, so the workers inherit
    it; the guardrail replay runs on the worker's main thread and passes.
    """
    if "fork" not in mp.get_all_start_methods():
        pytest.skip("needs the fork start method")
    release = mp.get_context("fork").Event()
    forward = InferenceEngine._forward

    def parked(self, batch):
        if threading.current_thread().name == "repro-serve-batcher":
            release.wait(timeout=30.0)
        return forward(self, batch)

    monkeypatch.setattr(InferenceEngine, "_forward", parked)
    yield release
    release.set()


def worker_queue(cluster) -> tuple:
    """(arrivals, queue depth) of a 1-worker cluster's engine.

    The worker answers this poll after every message sent before it, so
    ``arrivals`` counts each of those submits."""
    (row,) = cluster.worker_metrics()
    return row["metrics"]["counts"].get("arrivals", 0), row["queue_depth"]


class TestWorkerReplies:
    def test_admission_error_crosses_the_pipe_typed(self, artifact, samples,
                                                    parked_forward):
        """A full worker queue reaches the caller as AdmissionError with
        its retry hint, and the worker goes on serving."""
        direct = InferenceEngine(artifact).predict_batch(samples[:3])
        with ServeCluster(artifact, ClusterConfig(workers=1,
                                                  mp_context="fork"),
                          batching=BatchingConfig(max_batch=1,
                                                  max_wait_ms=0.0,
                                                  queue_size=1)) as cluster:
            answers = {}

            def send(index):
                answers[index] = cluster.predict([samples[index]])

            first = threading.Thread(target=send, args=(0,))
            first.start()  # taken by the batcher, parked in its forward
            assert wait_until(lambda: worker_queue(cluster) == (1, 0))
            second = threading.Thread(target=send, args=(1,))
            second.start()  # fills the one-slot queue
            assert wait_until(lambda: worker_queue(cluster) == (2, 1))
            with pytest.raises(AdmissionError) as excinfo:
                cluster.predict([samples[2]])
            # No completion measured yet: the engine's default hint.
            assert excinfo.value.retry_after_s == 1.0
            parked_forward.set()
            for thread in (first, second):
                thread.join(timeout=30.0)
            after = cluster.predict([samples[2]])
        assert [answers[0]["logits"][0], answers[1]["logits"][0],
                after["logits"][0]] == direct.tolist()
        assert after["worker"] == 0

    def test_shutdown_answers_queued_requests(self, artifact, samples,
                                              parked_forward):
        cluster = ServeCluster(artifact, ClusterConfig(workers=1,
                                                       mp_context="fork"),
                               batching=BatchingConfig(max_batch=1,
                                                       max_wait_ms=0.0))
        cluster.start()
        answers, errors = [], []

        def send(index):
            try:
                answers.append(cluster.predict([samples[index]]))
            except Exception as exc:  # noqa: BLE001 - tallied
                errors.append(repr(exc))

        threads = [threading.Thread(target=send, args=(index,))
                   for index in range(3)]
        try:
            for thread in threads:
                thread.start()
            # One request parked in the forward, two queued behind it.
            assert wait_until(lambda: worker_queue(cluster) == (3, 2))
            stopper = threading.Thread(target=cluster.stop)
            stopper.start()
            time.sleep(0.2)  # let the shutdown message reach the worker
            parked_forward.set()
            stopper.join(timeout=30.0)
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            parked_forward.set()
            cluster.stop()
        assert errors == [] and len(answers) == 3

    def test_messages_split_across_batches_get_their_own_rows(
            self, artifact, samples):
        """Each multi-sample message is answered once, by whichever batch
        resolves its last sample, with its own rows: 8 concurrent clients,
        5 samples a message, batches of at most 3."""
        direct = InferenceEngine(artifact).predict_batch(samples)
        picks = np.random.default_rng(3).integers(0, len(samples),
                                                  size=(8, 10, 5))
        errors = []

        def client(rows):
            try:
                for pick in rows:
                    payload = cluster.predict(list(samples[pick]),
                                              timeout=30.0)
                    if payload["logits"] != direct[pick].tolist():
                        errors.append(f"wrong rows for {pick}")
            except Exception as exc:  # noqa: BLE001 - tallied
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # forked workers inherit it
        try:
            with ServeCluster(artifact, ClusterConfig(workers=2,
                                                      mp_context="fork"),
                              batching=BatchingConfig(
                                  max_batch=3, max_wait_ms=1.0)) as cluster:
                threads = [threading.Thread(target=client, args=(rows,))
                           for rows in picks]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
                served = sum(row["requests"]
                             for row in cluster.stats()["per_worker"])
        finally:
            sys.setswitchinterval(interval)
        assert errors == [], errors[:3]
        assert served == picks.size

    def test_unknown_message_gets_an_error_reply(self, cluster):
        (handle,) = [h for h in cluster._handles if h.index == 0]
        with pytest.raises(ValueError, match="unknown message kind"):
            cluster._request(handle, {"kind": "bogus"}, timeout=10.0)
        assert cluster._request(handle, {"kind": "ping"},
                                timeout=10.0)["worker"] == 0


# --------------------------------------------------------------------- #
# Guardrail refusal at cluster scale
# --------------------------------------------------------------------- #
class TestClusterGuardrail:
    def test_every_worker_refuses_corrupted_artifact(self, artifact,
                                                     tmp_path):
        def corrupt(manifest):
            manifest["guardrail"]["logits"][0][0] += 1.0

        bad = rewrite_manifest(artifact, str(tmp_path / "bad.rpak"), corrupt)
        cluster = ServeCluster(bad, ClusterConfig(workers=2))
        with pytest.raises(GuardrailError, match="every worker refused"):
            cluster.start()
        # No stray processes linger after the refused start.
        assert all(handle.process is None or not handle.process.is_alive()
                   for handle in cluster._handles)

    def test_missing_artifact_raises_cluster_error(self, tmp_path):
        cluster = ServeCluster(str(tmp_path / "nope.rpak"),
                               ClusterConfig(workers=2, start_timeout_s=30))
        with pytest.raises(ClusterError, match="no worker"):
            cluster.start()


# --------------------------------------------------------------------- #
# HTTP listener over the cluster
# --------------------------------------------------------------------- #
class TestClusterHTTP:
    @pytest.fixture
    def server(self, artifact):
        cluster = ServeCluster(artifact, ClusterConfig(workers=2),
                               batching=BatchingConfig(max_batch=16,
                                                       max_wait_ms=2.0))
        with ClusterServer(cluster) as running:
            yield running

    def test_healthz_reports_cluster_state(self, server):
        health = HTTPClient(server.url).healthz()
        assert health["status"] == "ok"
        assert health["alive"] == 2
        assert health["guardrail"] == ["passed", "passed"]

    def test_predict_parity_with_engine(self, server, artifact, samples):
        client = HTTPClient(server.url)
        response = client.predict(samples[:5])
        direct = InferenceEngine(artifact).predict_batch(samples[:5])
        assert np.array_equal(np.asarray(response["logits"]), direct)
        assert response["worker"] in (0, 1)

    def test_stats_are_aggregated(self, server, samples):
        client = HTTPClient(server.url)
        client.predict(samples[:4])
        stats = client.stats()
        assert stats["workers"] == 2
        assert len(stats["per_worker"]) == 2

    def test_http_load_spreads_over_workers(self, server, samples):
        report = run_load(HTTPClient(server.url), samples, concurrency=32,
                          requests_per_client=2,
                          client_factory=lambda: HTTPClient(server.url))
        assert report["failed"] == 0, report["errors"]
        assert set(report["served_by"]) == {0, 1}

    def test_bad_request_is_400(self, server):
        with pytest.raises(ServeClientError) as excinfo:
            HTTPClient(server.url).predict([np.zeros(9)])
        assert excinfo.value.status == 400
