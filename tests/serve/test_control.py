"""Deterministic tests for the adaptive control plane.

:mod:`repro.serve.control` is designed to be tested without time or
processes: the :class:`Controller` takes an injectable clock and a plant
object, so every test here drives :meth:`Controller.tick` directly with a
fake clock and scripted observations — AIMD convergence, scale-up under
sustained queue depth, the immediate core-count cap (the recorded
1-vs-2-worker single-core regression), hysteresis, and cooldown are all
asserted tick by tick.  The rolling-window metrics collector gets the same
treatment with a fake monotonic clock.
"""

import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.serve import (
    BatchingConfig,
    ControlConfig,
    Controller,
    InferenceEngine,
    MetricsCollector,
    classify_load,
    merge_snapshots,
    render_prometheus,
)
from repro.serve.control import load_state


class FakeClock:
    """Deterministic monotonic clock; tests advance it explicitly."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now


class FakePlant:
    """Scripted plant: records every actuation the controller makes."""

    def __init__(self, workers: int = 1, max_wait_ms: float = 2.0):
        self.workers = workers
        self.max_wait_ms = max_wait_ms
        self.wait_history: list[float] = []
        self.scale_calls: list[int] = []

    def observe(self):
        return None  # tests pass observations to tick() directly

    def set_max_wait_ms(self, value: float) -> None:
        self.max_wait_ms = value
        self.wait_history.append(value)

    def scale_to(self, target: int) -> int:
        delta = target - self.workers
        self.workers = target
        self.scale_calls.append(target)
        return delta


def bare_engine(queue_depth: int, queue_size: int) -> InferenceEngine:
    """An :class:`InferenceEngine`'s control surface with no artifact
    behind it: a scripted queue depth and fake-clocked metrics."""
    engine = InferenceEngine.__new__(InferenceEngine)
    engine.batching = BatchingConfig(queue_size=queue_size)
    engine.metrics = MetricsCollector(window_s=10.0, clock=FakeClock())
    engine._queue = SimpleNamespace(qsize=lambda: queue_depth)
    engine._max_wait_ms = 2.0
    return engine


def observation(workers=1, queue_depth=0, queue_capacity=100, p99_ms=10.0,
                latency_samples=50, rejected=0.0):
    return {
        "queue_depth": queue_depth,
        "queue_capacity": queue_capacity,
        "p99_ms": p99_ms,
        "latency_samples": latency_samples,
        "arrival_rate_rps": 100.0,
        "completion_rate_rps": 100.0,
        "rejected_recent": rejected,
        "batch_occupancy": 0.5,
        "workers": workers,
        "workers_alive": workers,
    }


# --------------------------------------------------------------------- #
# load_state classification
# --------------------------------------------------------------------- #
class TestLoadState:
    def test_thresholds(self):
        assert load_state(0.0) == "ok"
        assert load_state(0.49) == "ok"
        assert load_state(0.5) == "busy"
        assert load_state(0.89) == "busy"
        assert load_state(0.9) == "overloaded"
        assert load_state(1.0) == "overloaded"

    def test_recent_rejects_dominate(self):
        # Any rejection in the window means clients are being shed — that
        # is overload even if the queue has drained since.
        assert load_state(0.0, recent_rejects=1) == "overloaded"

    def test_package_alias(self):
        # ``repro.serve.load_state`` is the artifact state loader, so the
        # classifier exports under ``classify_load`` — both names must
        # resolve to the same function.
        assert classify_load is load_state


# --------------------------------------------------------------------- #
# AIMD wait tuning
# --------------------------------------------------------------------- #
class TestWaitTuning:
    def controller(self, plant, **overrides):
        config = ControlConfig(slo_p99_ms=50.0, wait_additive_ms=0.5,
                               wait_backoff=0.5, wait_max_ms=20.0,
                               autoscale=False, **overrides)
        return Controller(plant, config, clock=FakeClock(), cpu_count=4)

    def test_additive_increase_under_headroom(self):
        plant = FakePlant(max_wait_ms=2.0)
        controller = self.controller(plant)
        decision = controller.tick(observation(p99_ms=10.0))
        assert decision["max_wait_ms"] == pytest.approx(2.5)
        assert decision["wait_reason"] == "p99-under-headroom"
        assert plant.max_wait_ms == pytest.approx(2.5)

    def test_multiplicative_decrease_over_slo(self):
        plant = FakePlant(max_wait_ms=8.0)
        controller = self.controller(plant)
        decision = controller.tick(observation(p99_ms=80.0))
        assert decision["max_wait_ms"] == pytest.approx(4.0)
        assert decision["wait_reason"] == "p99-over-slo"

    def test_dead_band_between_headroom_and_slo(self):
        # p99 in [headroom * SLO, SLO] is "converged": no actuation.
        plant = FakePlant(max_wait_ms=8.0)
        controller = self.controller(plant)
        decision = controller.tick(observation(p99_ms=40.0))
        assert "max_wait_ms" not in decision
        assert plant.wait_history == []

    def test_no_tuning_without_latency_samples(self):
        # A freshly started engine has no p99 yet; tuning on the default
        # 0.0 would grow the wait forever.
        plant = FakePlant(max_wait_ms=2.0)
        controller = self.controller(plant)
        controller.tick(observation(p99_ms=0.0, latency_samples=0))
        assert plant.wait_history == []

    def test_converges_into_slo_band(self):
        # Scripted plant where p99 tracks the wait: start way over SLO,
        # AIMD must converge into the [headroom*SLO, SLO] band and hold.
        plant = FakePlant(max_wait_ms=16.0)
        controller = self.controller(plant)
        for _ in range(50):
            # A toy latency model: p99 rises with the coalescing wait.
            p99 = 30.0 + 4.0 * plant.max_wait_ms
            controller.tick(observation(p99_ms=p99))
        final_p99 = 30.0 + 4.0 * plant.max_wait_ms
        assert final_p99 <= 50.0
        assert final_p99 >= 0.7 * 50.0 - 4.0 * 0.5  # within one step of band

    def test_respects_wait_bounds(self):
        plant = FakePlant(max_wait_ms=19.9)
        controller = self.controller(plant)
        controller.tick(observation(p99_ms=10.0))
        assert plant.max_wait_ms == pytest.approx(20.0)  # clamped at max
        plant_low = FakePlant(max_wait_ms=0.01)
        controller = self.controller(plant_low)
        for _ in range(10):
            controller.tick(observation(p99_ms=500.0))
        assert plant_low.max_wait_ms >= 0.0

    def test_tune_wait_disabled(self):
        plant = FakePlant(max_wait_ms=2.0)
        controller = self.controller(plant, tune_wait=False)
        controller.tick(observation(p99_ms=10.0))
        assert plant.wait_history == []

    def test_no_increase_while_requests_arrive_alone(self):
        # p99 is under the headroom, but every batch held one request: a
        # longer wait buys no batch, only latency for the next pair.
        plant = FakePlant(max_wait_ms=2.0)
        controller = self.controller(plant)
        decision = controller.tick({**observation(p99_ms=10.0),
                                    "batch_size_mean": 1.0})
        assert "max_wait_ms" not in decision
        assert plant.max_wait_ms == pytest.approx(2.0)
        assert plant.wait_history == []
        # Batches forming again: the additive increase resumes.
        controller.tick({**observation(p99_ms=10.0), "batch_size_mean": 1.5})
        assert plant.max_wait_ms == pytest.approx(2.5)
        # Over the SLO the backoff applies whatever the batch size.
        controller.tick({**observation(p99_ms=80.0), "batch_size_mean": 1.0})
        assert plant.max_wait_ms == pytest.approx(1.25)

    def test_engine_observe_reports_mean_batch_size(self):
        engine = bare_engine(queue_depth=0, queue_size=64)
        for size in (1, 3):
            engine.metrics.gauge("batch_size", size)
        assert engine.observe()["batch_size_mean"] == 2.0


# --------------------------------------------------------------------- #
# Autoscaling
# --------------------------------------------------------------------- #
class TestAutoscaling:
    def controller(self, plant, cpu_count=4, **overrides):
        kwargs = dict(min_workers=1, max_workers=4, hysteresis_ticks=3,
                      cooldown_ticks=6, tune_wait=False)
        kwargs.update(overrides)
        return Controller(plant, ControlConfig(**kwargs),
                          clock=FakeClock(), cpu_count=cpu_count)

    def test_scale_up_on_sustained_queue_depth(self):
        plant = FakePlant(workers=1)
        controller = self.controller(plant)
        busy = lambda: observation(workers=plant.workers, queue_depth=60)
        controller.tick(busy())
        controller.tick(busy())
        assert plant.scale_calls == []  # hysteresis: not yet
        decision = controller.tick(busy())
        assert plant.scale_calls == [2]
        assert decision["scaled"]["reason"] == "sustained-queue-depth"

    def test_one_transient_spike_does_not_scale(self):
        plant = FakePlant(workers=1)
        controller = self.controller(plant)
        controller.tick(observation(workers=1, queue_depth=60))
        controller.tick(observation(workers=1, queue_depth=60))
        controller.tick(observation(workers=1, queue_depth=10))  # resets
        controller.tick(observation(workers=1, queue_depth=60))
        controller.tick(observation(workers=1, queue_depth=60))
        assert plant.scale_calls == []

    def test_core_cap_applies_immediately(self):
        # The recorded regression: 2 workers on 1 core is slower than 1
        # worker.  No hysteresis for physics — first tick scales down.
        plant = FakePlant(workers=2)
        controller = self.controller(plant, cpu_count=1)
        decision = controller.tick(observation(workers=2, queue_depth=0))
        assert plant.scale_calls == [1]
        assert decision["scaled"]["reason"] == "over-core-cap"

    def test_cap_never_exceeded_by_scale_up(self):
        plant = FakePlant(workers=1)
        controller = self.controller(plant, cpu_count=1)
        for _ in range(20):
            controller.tick(observation(workers=plant.workers, queue_depth=90))
        assert plant.scale_calls == []  # would scale up, but cap is 1

    def test_scale_down_on_sustained_idle(self):
        plant = FakePlant(workers=3)
        controller = self.controller(plant)
        idle = lambda: observation(workers=plant.workers, queue_depth=0)
        for _ in range(3):
            controller.tick(idle())
        assert plant.scale_calls == [2]

    def test_cooldown_prevents_flapping(self):
        plant = FakePlant(workers=1)
        controller = self.controller(plant)
        busy = lambda: observation(workers=plant.workers, queue_depth=60)
        idle = lambda: observation(workers=plant.workers, queue_depth=0)
        for _ in range(3):
            controller.tick(busy())
        assert plant.scale_calls == [2]
        # Queue drains instantly after the scale-up; without cooldown the
        # controller would immediately retire the worker it just added.
        for _ in range(6):
            controller.tick(idle())
        assert plant.scale_calls == [2]  # cooldown held
        for _ in range(3):
            controller.tick(idle())
        assert plant.scale_calls == [2, 1]  # then evidence re-accumulates

    def test_mid_band_utilization_resets_counters(self):
        plant = FakePlant(workers=2)
        controller = self.controller(plant)
        for _ in range(2):
            controller.tick(observation(workers=2, queue_depth=0))
        controller.tick(observation(workers=2, queue_depth=20))  # 0.2: mid
        for _ in range(2):
            controller.tick(observation(workers=2, queue_depth=0))
        assert plant.scale_calls == []

    def test_engine_records_no_scale_moves(self):
        # One in-process engine has no workers to add: it applies nothing,
        # so no event, decision or cooldown may be recorded.
        engine = bare_engine(queue_depth=73, queue_size=100)
        for cooldown_ticks in (0, 6):
            controller = self.controller(engine, hysteresis_ticks=1,
                                         cooldown_ticks=cooldown_ticks)
            decisions = [controller.tick() for _ in range(5)]
            assert decisions[-1]["queue_utilization"] == pytest.approx(0.73)
            assert controller.scale_events == []
            assert controller.decision_counts == {}
            assert not any("scaled" in d or "cooldown" in d for d in decisions)

    def test_under_min_scales_up_immediately(self):
        plant = FakePlant(workers=1)
        controller = self.controller(plant, min_workers=2, max_workers=4)
        controller.tick(observation(workers=1))
        assert plant.scale_calls == [2]

    def test_autoscale_disabled(self):
        plant = FakePlant(workers=2)
        controller = self.controller(plant, autoscale=False, cpu_count=1)
        for _ in range(10):
            controller.tick(observation(workers=2, queue_depth=90))
        assert plant.scale_calls == []

    def test_worker_cap_property(self):
        plant = FakePlant()
        assert self.controller(plant, cpu_count=1).worker_cap == 1
        assert self.controller(plant, cpu_count=8).worker_cap == 4
        assert self.controller(plant, cpu_count=2).worker_cap == 2

    def test_default_cap_is_the_usable_cores(self, monkeypatch):
        # ``taskset -c 0`` on a multi-core host: one usable core, whatever
        # os.cpu_count() says.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        controller = Controller(FakePlant(), ControlConfig(max_workers=4))
        assert controller.cpu_count == 1
        assert controller.worker_cap == 1

    def test_no_observation_skips(self):
        plant = FakePlant()
        controller = self.controller(plant)
        decision = controller.tick()  # plant.observe() returns None
        assert decision["skipped"] == "no-observation"
        assert plant.scale_calls == []

    def test_describe_reports_events_and_cap(self):
        plant = FakePlant(workers=2)
        controller = self.controller(plant, cpu_count=1)
        controller.tick(observation(workers=2))
        described = controller.describe()
        assert described["worker_cap"] == 1
        assert described["cpu_count"] == 1
        assert described["scale_events"][-1]["reason"] == "over-core-cap"
        assert described["last_decision"]["tick"] == 1


class TestControlConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ControlConfig(slo_p99_ms=0)
        with pytest.raises(ValueError):
            ControlConfig(min_workers=0)
        with pytest.raises(ValueError):
            ControlConfig(min_workers=3, max_workers=2)
        with pytest.raises(ValueError):
            ControlConfig(wait_backoff=1.0)
        with pytest.raises(ValueError):
            ControlConfig(hysteresis_ticks=0)

    def test_to_dict_round_trips(self):
        config = ControlConfig(slo_p99_ms=25.0)
        assert ControlConfig(**config.to_dict()) == config


# --------------------------------------------------------------------- #
# Rolling-window metrics
# --------------------------------------------------------------------- #
class TestMetricsCollector:
    def test_counts_age_out_of_window(self):
        clock = FakeClock()
        metrics = MetricsCollector(window_s=10.0, buckets=10, clock=clock)
        metrics.count("arrivals", 5)
        assert metrics.count_in("arrivals", 10.0) == 5
        clock.advance(5.0)
        metrics.count("arrivals", 3)
        assert metrics.count_in("arrivals", 10.0) == 8
        clock.advance(6.0)  # first burst now outside the window
        assert metrics.count_in("arrivals", 10.0) == 3
        clock.advance(10.0)
        assert metrics.count_in("arrivals", 10.0) == 0
        # Lifetime totals never age.
        assert metrics.snapshot()["lifetime"]["arrivals"] == 8

    def test_rate_clamps_to_collector_lifetime(self):
        clock = FakeClock()
        metrics = MetricsCollector(window_s=10.0, clock=clock)
        clock.advance(2.0)
        metrics.count("completed", 10)
        # Only 2 s have elapsed — rate must divide by 2, not the window.
        assert metrics.rate("completed", 10.0) == pytest.approx(5.0)

    def test_latency_percentiles(self):
        clock = FakeClock()
        metrics = MetricsCollector(window_s=10.0, clock=clock)
        for ms in range(1, 101):
            metrics.observe("total", ms / 1000.0)
        cell = metrics.snapshot()["latency_ms"]["total"]
        assert cell["count"] == 100
        assert cell["p50"] == pytest.approx(50.0, abs=2.0)
        assert cell["p99"] == pytest.approx(99.0, abs=2.0)
        assert cell["max"] == pytest.approx(100.0)

    def test_gauges_track_last_mean_max(self):
        clock = FakeClock()
        metrics = MetricsCollector(window_s=10.0, clock=clock)
        for depth in (1.0, 5.0, 3.0):
            metrics.gauge("queue_depth", depth)
        cell = metrics.snapshot()["gauges"]["queue_depth"]
        assert cell["last"] == 3.0
        assert cell["max"] == 5.0
        assert cell["mean"] == pytest.approx(3.0)

    def test_merge_snapshots_across_workers(self):
        clock = FakeClock()
        first, second = (MetricsCollector(window_s=10.0, clock=clock)
                         for _ in range(2))
        first.count("completed", 10)
        second.count("completed", 20)
        first.observe("total", 0.010)
        second.observe("total", 0.030)
        merged = merge_snapshots([first.snapshot(), second.snapshot()])
        assert merged["counts"]["completed"] == 30
        assert merged["lifetime"]["completed"] == 30
        cell = merged["latency_ms"]["total"]
        assert cell["count"] == 2
        assert cell["max"] == pytest.approx(30.0)
        # The p99 of both workers' requests together: averaging per-worker
        # p99s by request count would read 100.5 ms here.
        fast, slow = (MetricsCollector(window_s=10.0, clock=clock)
                      for _ in range(2))
        for _ in range(100):
            fast.observe("total", 0.001)
        for seconds in [0.001] * 96 + [0.200] * 4:
            slow.observe("total", seconds)
        cell = merge_snapshots([fast.snapshot(), slow.snapshot()])[
            "latency_ms"]["total"]
        assert cell["count"] == 200
        assert cell["p99"] == pytest.approx(200.0, rel=1 / 64)

    def test_bin_midpoints_are_within_1_64_of_their_samples(self):
        """Beside a sample twice as large, a duration's p50 is its own
        bin's midpoint: within 1/64 of it, from 1 us to a minute."""
        for ms in np.geomspace(1e-3, 6e4, 997).tolist():
            metrics = MetricsCollector(window_s=10.0, clock=FakeClock())
            metrics.observe("total", ms / 1000.0)
            metrics.observe("total", 2 * ms / 1000.0)
            cell = metrics.snapshot()["latency_ms"]["total"]
            assert cell["p50"] == pytest.approx(ms, rel=1 / 64)
        # Zero readings (a coarse clock) sort below every positive one.
        metrics = MetricsCollector(window_s=10.0, clock=FakeClock())
        for seconds in (0.0, 0.0, 1e-4):
            metrics.observe("total", seconds)
        assert metrics.snapshot()["latency_ms"]["total"]["p50"] < 1e-3

    def test_merged_histograms_equal_one_collector(self):
        """Any split of the samples merges to the histogram of all of them,
        whose percentiles sit within half a bin (1/64) of the exact ones,
        and rows decoded from JSON merge exactly like the originals."""
        rng = np.random.default_rng(20)
        seconds = rng.lognormal(np.log(0.004), 0.8, size=3001)
        owners = rng.integers(0, 3, size=seconds.size)
        clock = FakeClock()
        whole, *parts = (MetricsCollector(window_s=10.0, clock=clock)
                         for _ in range(4))
        for value, owner in zip(seconds.tolist(), owners.tolist()):
            whole.observe("total", value)
            parts[owner].observe("total", value)
        rows = [part.snapshot() for part in parts]
        merged = merge_snapshots(rows)
        cell = merged["latency_ms"]["total"]
        expected = whole.snapshot()["latency_ms"]["total"]
        assert cell["bins"] == expected["bins"]
        assert cell["count"] == expected["count"] == seconds.size
        assert cell["max"] == expected["max"]
        # Each part's percentiles, like the merge's, are exact to 1/64.
        pieces = [(seconds, merged)] + [(seconds[owners == owner], row)
                                        for owner, row in enumerate(rows)]
        for q in (50, 99):
            assert cell[f"p{q}"] == expected[f"p{q}"]
            for values, row in pieces:
                exact = np.percentile(values * 1000.0, q,
                                      method="inverted_cdf")
                assert row["latency_ms"]["total"][f"p{q}"] == pytest.approx(
                    exact, rel=1 / 64)
        assert merge_snapshots(json.loads(json.dumps(rows))) == merged

    def test_merged_gauge_mean_is_sample_weighted(self):
        clock = FakeClock()
        first, second = (MetricsCollector(window_s=10.0, clock=clock)
                         for _ in range(2))
        first.gauge("batch_occupancy", 0.5)
        for _ in range(3):
            second.gauge("batch_occupancy", 0.5)
        second.gauge("queue_depth", 4.0)
        first.gauge("queue_depth", 2.0)
        merged = merge_snapshots([first.snapshot(), second.snapshot()])
        cell = merged["gauges"]["batch_occupancy"]
        assert cell["mean"] == pytest.approx(0.5)
        assert cell["max"] == pytest.approx(0.5)
        assert cell["count"] == 4
        # ``last`` still sums: cluster queue depth is the total queued work.
        assert merged["gauges"]["queue_depth"]["last"] == pytest.approx(6.0)
        assert merged["gauges"]["queue_depth"]["mean"] == pytest.approx(3.0)
        # Weighted by samples, not by worker: 1 x 1.0 and 3 x 0.0.
        first.gauge("batch_size", 1.0)
        for _ in range(3):
            second.gauge("batch_size", 0.0)
        merged = merge_snapshots([first.snapshot(), second.snapshot()])
        assert merged["gauges"]["batch_size"]["mean"] == pytest.approx(0.25)

    def test_render_prometheus_exposition(self):
        clock = FakeClock()
        metrics = MetricsCollector(window_s=10.0, clock=clock)
        metrics.count("arrivals", 4)
        metrics.observe("total", 0.005)
        metrics.gauge("queue_depth", 2.0)
        text = render_prometheus(metrics.snapshot(),
                                 extra={"workers": 3})
        assert "repro_serve_arrivals_total 4" in text
        assert 'repro_serve_latency_ms{stage="total",quantile="p99"}' in text
        assert "repro_serve_queue_depth 2" in text
        assert "repro_serve_workers 3" in text
        assert text.endswith("\n")


# --------------------------------------------------------------------- #
# Decision log (controller observability)
# --------------------------------------------------------------------- #
class TestDecisionLog:
    def controller(self, plant, **overrides):
        settings = dict(slo_p99_ms=50.0, wait_additive_ms=0.5,
                        wait_backoff=0.5, wait_max_ms=20.0,
                        hysteresis_ticks=1)
        settings.update(overrides)
        return Controller(plant, ControlConfig(**settings),
                          clock=FakeClock(), cpu_count=4)

    def test_wait_changes_logged_with_reason(self):
        plant = FakePlant(max_wait_ms=8.0)
        controller = self.controller(plant, autoscale=False)
        controller.tick(observation(p99_ms=80.0))
        (entry,) = controller.decision_log
        assert entry["action"] == "wait_backoff"
        assert entry["reason"] == "p99-over-slo"
        assert entry["from"] == pytest.approx(8.0)
        assert entry["to"] == pytest.approx(4.0)
        assert controller.decision_counts == {"wait_backoff": 1}

    def test_scale_moves_logged(self):
        plant = FakePlant(workers=1)
        controller = self.controller(plant, min_workers=1, max_workers=4,
                                     tune_wait=False)
        controller.tick(observation(workers=1, queue_depth=95))
        actions = [e["action"] for e in controller.decision_log]
        assert actions == ["scale_up"]
        entry = controller.decision_log[0]
        assert (entry["from"], entry["to"]) == (1, 2)
        assert entry["reason"] == "sustained-queue-depth"

    def test_quiet_ticks_log_nothing(self):
        plant = FakePlant(max_wait_ms=8.0)
        controller = self.controller(plant, autoscale=False)
        # p99 inside the [headroom, slo] band: no actuation, no entry.
        controller.tick(observation(p99_ms=45.0))
        assert len(controller.decision_log) == 0
        assert controller.decision_counts == {}

    def test_log_is_bounded(self):
        plant = FakePlant(max_wait_ms=1.0)
        controller = self.controller(plant, autoscale=False,
                                     wait_max_ms=1e9, wait_additive_ms=0.5)
        for _ in range(300):
            controller.tick(observation(p99_ms=1.0))
        assert len(controller.decision_log) == 256
        assert controller.decision_counts["wait_increase"] == 300

    def test_describe_exposes_decisions(self):
        plant = FakePlant(max_wait_ms=8.0)
        controller = self.controller(plant, autoscale=False)
        controller.tick(observation(p99_ms=80.0))
        described = controller.describe()
        assert described["decision_counts"] == {"wait_backoff": 1}
        assert described["decisions"][-1]["action"] == "wait_backoff"


# --------------------------------------------------------------------- #
# Prometheus exposition conformance
# --------------------------------------------------------------------- #
class TestPrometheusConformance:
    def render(self, **kwargs):
        clock = FakeClock()
        metrics = MetricsCollector(window_s=10.0, clock=clock)
        metrics.count("arrivals", 4)
        metrics.count("rejected", 1)
        metrics.observe("total", 0.005)
        metrics.gauge("queue_depth", 2.0)
        return render_prometheus(metrics.snapshot(), **kwargs)

    @staticmethod
    def families_of(text):
        helps, types, samples = set(), {}, set()
        for line in text.splitlines():
            if line.startswith("# HELP "):
                helps.add(line.split()[2])
            elif line.startswith("# TYPE "):
                _, _, family, kind = line.split()
                types[family] = kind
            elif line:
                name = line.split("{")[0].split(" ")[0]
                samples.add(name)
        return helps, types, samples

    def test_every_series_has_help_and_type(self):
        helps, types, samples = self.families_of(self.render())
        assert samples, "exposition must carry samples"
        for family in samples:
            assert family in helps, f"missing # HELP for {family}"
            assert family in types, f"missing # TYPE for {family}"

    def test_counter_vs_gauge_typing(self):
        _, types, _ = self.families_of(self.render(extra={"workers": 3}))
        assert types["repro_serve_arrivals_total"] == "counter"
        assert types["repro_serve_rejected_total"] == "counter"
        assert types["repro_serve_queue_depth"] == "gauge"
        assert types["repro_serve_latency_ms"] == "gauge"
        assert types["repro_serve_workers"] == "gauge"

    def test_help_and_type_precede_samples(self):
        text = self.render()
        seen_meta = set()
        for line in text.splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                seen_meta.add(line.split()[2])
            elif line:
                family = line.split("{")[0].split(" ")[0]
                assert family in seen_meta, (
                    f"sample for {family} before its # HELP/# TYPE")

    def test_extra_families_appended(self):
        text = self.render(families=[{
            "name": "repro_controller_decisions_total",
            "type": "counter",
            "help": "controller actuations by action",
            "samples": [({"action": "scale_up"}, 2.0),
                        ({"action": "wait_backoff"}, 5.0)],
        }])
        assert ("# TYPE repro_controller_decisions_total counter"
                in text)
        assert ('repro_controller_decisions_total{action="scale_up"} 2'
                in text)
        assert ('repro_controller_decisions_total{action="wait_backoff"} 5'
                in text)
