"""Tests for the micro-batching inference engine."""

import threading
import time

import numpy as np
import pytest

from repro.api import ExperimentConfig
from repro.serve import (
    BatchingConfig,
    EnginePlant,
    InferenceEngine,
    train_and_export,
)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("engine") / "model.rpak"
    config = ExperimentConfig(
        name="engine_test", dataset="blobs", model="mlp", policy="posit(8,1)",
        epochs=1, train_size=64, test_size=32, batch_size=16, num_classes=3,
        model_kwargs={"hidden": [16, 8]})
    train_and_export(config, path)
    return str(path)


@pytest.fixture
def samples():
    return np.random.default_rng(11).normal(size=(48, 2))


def test_batched_equals_single_sample(artifact, samples):
    """The acceptance invariant: batching must not change the numerics."""
    with InferenceEngine(artifact, BatchingConfig(max_batch=16,
                                                  max_wait_ms=20.0)) as engine:
        direct = engine.predict_batch(samples)
        # All submitted at once -> coalesced into a few large batches.
        futures = [engine.submit(sample) for sample in samples]
        coalesced = np.stack([future.result(10.0) for future in futures])
        # One at a time -> batches of exactly one.
        singles = np.stack([engine.predict(sample) for sample in samples[:8]])
    assert np.array_equal(direct, coalesced)
    assert np.array_equal(direct[:8], singles)


def test_concurrent_clients_coalesce(artifact, samples):
    """64 threads submitting simultaneously: coalescing happens, results exact."""
    engine = InferenceEngine(artifact, BatchingConfig(max_batch=32,
                                                      max_wait_ms=25.0))
    results: dict[int, np.ndarray] = {}
    errors: list[Exception] = []
    barrier = threading.Barrier(64)

    def _client(index: int) -> None:
        sample = samples[index % len(samples)]
        barrier.wait()
        try:
            results[index] = engine.predict(sample, timeout=30.0)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    with engine:
        threads = [threading.Thread(target=_client, args=(i,)) for i in range(64)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = engine.stats()
        reference = engine.predict_batch(samples)
    assert not errors
    assert len(results) == 64
    for index, logits in results.items():
        assert np.array_equal(logits, reference[index % len(samples)])
    # 64 concurrent requests must not run as 64 singleton batches.
    assert stats["requests"] == 64
    assert stats["batches"] < 64
    assert stats["mean_batch_size"] > 1.5
    assert stats["max_batch_seen"] <= 32


def test_lone_request_runs_at_once(artifact, samples):
    """After a lone request, the next sequential one does not wait out
    max_wait_ms for company that cannot arrive."""
    with InferenceEngine(artifact, BatchingConfig(max_batch=16,
                                                  max_wait_ms=1000.0)) as engine:
        engine.predict(samples[0], timeout=10.0)
        started = time.perf_counter()
        engine.predict(samples[1], timeout=10.0)
        elapsed = time.perf_counter() - started
    assert elapsed < 0.5, elapsed


def test_burst_after_lone_request_still_coalesces(artifact, samples):
    with InferenceEngine(artifact, BatchingConfig(max_batch=16,
                                                  max_wait_ms=1000.0)) as engine:
        engine.predict(samples[0], timeout=10.0)
        before = engine.stats()["batches"]
        futures = [engine.submit(sample) for sample in samples[:16]]
        coalesced = np.stack([future.result(10.0) for future in futures])
        batches = engine.stats()["batches"] - before
        direct = engine.predict_batch(samples[:16])
    assert batches < 16, batches
    assert np.array_equal(coalesced, direct)


def test_max_batch_one_disables_coalescing(artifact, samples):
    with InferenceEngine(artifact, BatchingConfig(max_batch=1,
                                                  max_wait_ms=0.0)) as engine:
        futures = [engine.submit(sample) for sample in samples[:10]]
        for future in futures:
            future.result(10.0)
        assert engine.stats()["max_batch_seen"] == 1
        assert engine.stats()["batches"] == 10


def test_stats_accounting(artifact, samples):
    with InferenceEngine(artifact, BatchingConfig(max_batch=8,
                                                  max_wait_ms=10.0)) as engine:
        futures = [engine.submit(sample) for sample in samples[:16]]
        for future in futures:
            future.result(10.0)
        stats = engine.stats()
    assert stats["requests"] == 16
    # One source: the top-level figures are the metrics snapshot's, and
    # the controller reads the same histogram.
    total = stats["metrics"]["latency_ms"]["total"]
    assert stats["requests"] == stats["metrics"]["lifetime"]["completed"]
    assert stats["latency_p99_ms"] == total["p99"]
    assert EnginePlant(engine).observe()["latency_samples"] == total["count"]
    assert stats["energy_uj_per_sample"] > 0
    # Compute energy per sample, memory energy per coalesced batch — so the
    # total is strictly below 16 unbatched single-sample passes whenever
    # any coalescing happened.
    assert stats["energy_uj_total"] == pytest.approx(
        16 * stats["energy_uj_compute_per_sample"]
        + stats["batches"] * stats["energy_uj_memory_per_batch"])
    if stats["batches"] < 16:
        assert stats["energy_uj_total"] < 16 * stats["energy_uj_per_sample"]
    assert stats["energy_uj_per_request_observed"] == pytest.approx(
        stats["energy_uj_total"] / 16)
    assert stats["latency_p99_ms"] >= stats["latency_p50_ms"] > 0
    assert stats["format"] == "posit(8,1)"


def test_submit_requires_started_engine(artifact):
    engine = InferenceEngine(artifact)
    with pytest.raises(RuntimeError, match="not started"):
        engine.submit(np.zeros(2))


def test_bad_input_shape_rejected_at_admission(artifact):
    """A malformed sample fails its own request, never its batch-mates."""
    with InferenceEngine(artifact, BatchingConfig(max_batch=4,
                                                  max_wait_ms=1.0)) as engine:
        with pytest.raises(ValueError, match="input shape"):
            engine.submit(np.zeros(7))  # MLP expects 2 features
        # The engine keeps serving after the rejection.
        good = engine.predict(np.zeros(2), timeout=10.0)
    assert good.shape == (3,)


def test_poisoned_batch_isolates_offender(tmp_path):
    """Without a manifest input shape, a bad sample in a coalesced batch
    fails alone while its batch-mates still get answers."""
    from repro.models import MLP
    from repro.serve import save_model

    model = MLP(2, hidden=(4,), num_classes=3, rng=np.random.default_rng(0))
    path = tmp_path / "bare.rpak"
    save_model(model, path, fmt="posit(8,1)",
               model_info={"model": "mlp", "model_kwargs": {"hidden": [4]},
                           "num_classes": 3, "in_features": 2, "seed": 0})
    with InferenceEngine(path, BatchingConfig(max_batch=8,
                                              max_wait_ms=50.0)) as engine:
        assert engine._input_shape is None  # nothing to validate against
        good_futures = [engine.submit(np.zeros(2)) for _ in range(3)]
        bad_future = engine.submit(np.zeros(7))
        for future in good_futures:
            assert future.result(10.0).shape == (3,)
        with pytest.raises(Exception):
            bad_future.result(10.0)


def test_unquantized_activations_option(artifact, samples):
    quantized = InferenceEngine(artifact, quantize_activations=True)
    plain = InferenceEngine(artifact, quantize_activations=False)
    a = quantized.predict_batch(samples[:4])
    b = plain.predict_batch(samples[:4])
    # Same decoded weights, different activation paths: logits differ in
    # general but classify mostly alike on this easy task.
    assert a.shape == b.shape


def test_engine_restart(artifact, samples):
    engine = InferenceEngine(artifact)
    with engine:
        first = engine.predict(samples[0])
    with engine:
        second = engine.predict(samples[0])
    assert np.array_equal(first, second)


def test_call_between_batches_never_overlaps_a_forward(artifact, samples):
    """The safe point for resizing the BLAS pool: the batcher thread, with
    no forward in progress; without a batcher the call runs at once."""
    engine = InferenceEngine(artifact, BatchingConfig(max_batch=4,
                                                      max_wait_ms=1.0))
    caller = threading.get_ident()
    assert engine.call_between_batches(
        threading.get_ident).result(timeout=1.0) == caller
    in_forward = threading.Event()
    forward = engine._forward

    def tracked(batch):
        in_forward.set()
        try:
            return forward(batch)
        finally:
            in_forward.clear()

    engine._forward = tracked
    overlapped = []

    def probe():
        overlapped.append(in_forward.is_set())
        return threading.get_ident()

    with engine:
        futures = [engine.submit(sample) for sample in samples]
        calls = [engine.call_between_batches(probe) for _ in range(5)]
        batcher = engine._worker.ident
        assert [call.result(timeout=10.0) for call in calls] == [batcher] * 5
        with pytest.raises(ZeroDivisionError):
            engine.call_between_batches(lambda: 1 / 0).result(timeout=10.0)
        for future in futures:
            future.result(timeout=10.0)
    assert overlapped == [False] * 5
