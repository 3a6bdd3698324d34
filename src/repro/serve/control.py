"""Adaptive serving control plane: autoscaling, SLO-tuned batching, backpressure.

The serving tier below this module is statically tuned: ``max_batch`` and
``max_wait_ms`` are fixed guesses, and the worker count is whatever the CLI
flag said.  ``benchmarks/results/serve_throughput.json`` recorded the cost
of that: on a single-core runner a 2-worker cluster served *fewer* requests
per second than one worker (dispatch fan-out costs more than it buys when
every process time-slices the same core), and a saturated admission queue
blew p99 out to 190 ms.  This module closes the loop:

* :class:`Controller` — a periodic control loop (injectable clock, so the
  unit tests tick it deterministically) that

  - **autoscales** the worker count between ``min_workers`` and
    ``max_workers`` from measured queue utilization, *capped at the cores
    this process may use* (:func:`~repro.serve.host.effective_cores`: the
    affinity mask and the cgroup CPU quota, not the machine's CPU count) —
    on a core-starved host the cap scales a 2-worker cluster down to 1,
    which is exactly the recorded regression;
  - **tunes** ``max_wait_ms`` online with an AIMD rule against a p99 SLO:
    additive increase (more coalescing, more throughput) while p99 sits
    comfortably under the SLO and batches are forming (mean batch > 1),
    multiplicative decrease the moment it crosses — the classic stable
    shape for a feedback knob;
  - holds **hysteresis**: scaling decisions need ``hysteresis_ticks``
    consecutive ticks of agreeing evidence and are followed by a
    ``cooldown_ticks`` quiet period, so the worker count cannot flap.

* :class:`EnginePlant` / :class:`ClusterPlant` — adapters giving the
  controller one observe/actuate surface over an in-process
  :class:`~repro.serve.engine.InferenceEngine` or a multi-process
  :class:`~repro.serve.cluster.ServeCluster`, both read by
  :func:`observation` from a (merged) metrics snapshot.

* :func:`load_state` — the shared ok/busy/overloaded classification from
  queue utilization and recent rejections; the transports surface it
  through ``/healthz`` (clusters add ``degraded``/``down`` from worker
  liveness).

Backpressure itself lives where the queue lives: the engine's bounded
admission queue raises :class:`~repro.serve.engine.AdmissionError` (with a
measured ``retry_after_s``) instead of buffering unboundedly, and the
transport maps it to HTTP **429 + Retry-After** — load the clients can see
and pace against, instead of tail latency they can only suffer.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .host import effective_cores

__all__ = ["ControlConfig", "Controller", "EnginePlant", "ClusterPlant",
           "load_state", "observation", "LOAD_STATES"]

#: The /healthz load states, from healthy to dead.  ``degraded``/``down``
#: are liveness states (cluster workers missing); ``busy``/``overloaded``
#: are load states (admission queue filling / rejecting).
LOAD_STATES = ("ok", "busy", "overloaded", "degraded", "down")

#: Queue-utilization watermarks for the shared load classification.
_BUSY_UTILIZATION = 0.5
_OVERLOADED_UTILIZATION = 0.9


def load_state(queue_utilization: float, recent_rejects: float = 0.0) -> str:
    """Classify load from queue utilization and recent rejections.

    ``overloaded`` when the admission queue is effectively full (>= 90%)
    or requests were rejected within the observation window; ``busy`` at
    >= 50% utilization; ``ok`` otherwise.  Liveness states are layered on
    by the cluster, which knows how many workers are alive.
    """
    if recent_rejects > 0 or queue_utilization >= _OVERLOADED_UTILIZATION:
        return "overloaded"
    if queue_utilization >= _BUSY_UTILIZATION:
        return "busy"
    return "ok"


def observation(snapshot: dict, queue_depth: int, queue_capacity: int,
                workers: int, workers_alive: int) -> dict:
    """One controller reading from a metrics snapshot (one engine's, or
    :func:`~repro.serve.metrics.merge_snapshots` of a cluster's workers)."""
    total = snapshot["latency_ms"].get("total", {})
    return {
        "queue_depth": queue_depth,
        "queue_capacity": queue_capacity,
        "p99_ms": total.get("p99", 0.0),
        "latency_samples": total.get("count", 0),
        "arrival_rate_rps": snapshot["rates"].get("arrivals", 0.0),
        "completion_rate_rps": snapshot["rates"].get("completed", 0.0),
        "rejected_recent": snapshot["counts"].get("rejected", 0.0),
        "batch_occupancy": snapshot["gauges"].get(
            "batch_occupancy", {}).get("mean", 0.0),
        "batch_size_mean": snapshot["gauges"].get(
            "batch_size", {}).get("mean", 0.0),
        "workers": workers,
        "workers_alive": workers_alive,
    }


@dataclass
class ControlConfig:
    """Control-loop knobs (kept JSON-able for the CLI and ``/stats``).

    ``slo_p99_ms`` is the target the AIMD rule steers toward; the wait
    tuner never pushes p99 *to* the SLO — it backs off multiplicatively as
    soon as p99 crosses it and only grows the wait again while p99 sits
    under ``slo_headroom * slo_p99_ms`` and the mean batch is above one.
    """

    slo_p99_ms: float = 50.0
    interval_s: float = 0.5
    min_workers: int = 1
    max_workers: int = 4
    autoscale: bool = True
    tune_wait: bool = True
    wait_min_ms: float = 0.0
    wait_max_ms: float = 50.0
    wait_additive_ms: float = 0.5
    wait_backoff: float = 0.5
    slo_headroom: float = 0.7
    queue_high: float = 0.5
    queue_low: float = 0.05
    hysteresis_ticks: int = 3
    cooldown_ticks: int = 6

    def __post_init__(self):
        if self.slo_p99_ms <= 0:
            raise ValueError(f"slo_p99_ms must be > 0, got {self.slo_p99_ms}")
        if self.min_workers < 1:
            raise ValueError(f"min_workers must be >= 1, got {self.min_workers}")
        if self.max_workers < self.min_workers:
            raise ValueError(
                f"max_workers ({self.max_workers}) must be >= min_workers "
                f"({self.min_workers})")
        if not 0 < self.wait_backoff < 1:
            raise ValueError(
                f"wait_backoff must be in (0, 1), got {self.wait_backoff}")
        if not 0 < self.slo_headroom <= 1:
            raise ValueError(
                f"slo_headroom must be in (0, 1], got {self.slo_headroom}")
        if self.hysteresis_ticks < 1:
            raise ValueError(
                f"hysteresis_ticks must be >= 1, got {self.hysteresis_ticks}")

    def to_dict(self) -> dict:
        return dict(self.__dict__)


class EnginePlant:
    """Observe/actuate adapter over one in-process ``InferenceEngine``.

    A single engine has no workers to scale (that is the cluster's axis),
    so :meth:`scale_to` applies nothing and reports a delta of 0; the wait
    tuner and the backpressure signals still apply.
    """

    def __init__(self, engine):
        self.engine = engine

    def observe(self) -> Optional[dict]:
        return observation(self.engine.metrics.snapshot(),
                           queue_depth=self.engine.queue_depth,
                           queue_capacity=self.engine.batching.queue_size,
                           workers=1, workers_alive=1)

    def get_max_wait_ms(self) -> float:
        return self.engine.max_wait_ms

    def set_max_wait_ms(self, value: float) -> None:
        self.engine.set_max_wait_ms(value)

    def scale_to(self, target: int) -> int:
        return 0


class ClusterPlant:
    """Observe/actuate adapter over a ``ServeCluster``."""

    def __init__(self, cluster):
        self.cluster = cluster

    def observe(self) -> Optional[dict]:
        if not self.cluster.running:
            return None
        return self.cluster.control_snapshot()

    def get_max_wait_ms(self) -> float:
        return self.cluster.max_wait_ms

    def set_max_wait_ms(self, value: float) -> None:
        self.cluster.set_max_wait_ms(value)

    def scale_to(self, target: int) -> int:
        return self.cluster.scale_to(target)


class Controller:
    """Periodic control loop over one plant (engine or cluster).

    Deterministic core: :meth:`tick` reads one observation, applies the
    AIMD wait rule and the autoscaling rule, actuates the plant, and
    returns a decision record — the unit tests call it directly with a
    fake clock and a scripted plant.  :meth:`start`/:meth:`stop` run the
    same tick on a daemon thread every ``config.interval_s`` for
    production use.

    ``cpu_count`` caps the autoscaler above ``min_workers``: workers
    beyond the usable cores cannot add MAC throughput, only dispatch
    overhead (the measured 1-vs-2-worker regression on a single core), so
    the cap applies immediately — no hysteresis for physics.  It defaults
    to :func:`~repro.serve.host.effective_cores` (affinity mask capped by
    the cgroup CPU quota), so ``taskset`` or a container CPU limit lowers
    the cap where ``os.cpu_count()`` would not.
    """

    def __init__(self, plant, config: Optional[ControlConfig] = None,
                 clock: Callable[[], float] = time.monotonic,
                 cpu_count: Optional[int] = None):
        self.plant = plant
        self.config = config or ControlConfig()
        self.clock = clock
        self.cpu_count = int(cpu_count if cpu_count is not None
                             else effective_cores())
        self.ticks = 0
        self.scale_events: list[dict] = []
        self.last_decision: Optional[dict] = None
        #: Bounded history of every *actuation* (scale moves and AIMD wait
        #: changes) with its reason — decisions used to be invisible the
        #: tick after they happened; /stats and the
        #: ``repro_controller_decisions_total`` Prometheus family read
        #: from here.
        self.decision_log: deque = deque(maxlen=256)
        self.decision_counts: dict[str, int] = {}
        self._high_ticks = 0
        self._low_ticks = 0
        self._cooldown = 0
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()

    # ------------------------------------------------------------------ #
    # The deterministic core
    # ------------------------------------------------------------------ #
    @property
    def worker_cap(self) -> int:
        """Autoscaling ceiling: min(max_workers, cores), never below min."""
        return max(self.config.min_workers,
                   min(self.config.max_workers, self.cpu_count))

    def _tune_wait(self, observation: dict, decision: dict) -> None:
        config = self.config
        if not config.tune_wait or not observation.get("latency_samples"):
            return
        wait = float(self.plant.get_max_wait_ms())
        p99 = float(observation.get("p99_ms", 0.0))
        if p99 > config.slo_p99_ms:
            # Multiplicative decrease: over SLO, shed coalescing delay fast.
            target = max(config.wait_min_ms, wait * config.wait_backoff)
            reason = "p99-over-slo"
        elif p99 < config.slo_headroom * config.slo_p99_ms:
            batch = observation.get("batch_size_mean")
            if batch is not None and batch <= 1.0:
                # Requests arrive alone: a longer wait would buy no batch.
                return
            # Additive increase: comfortably under SLO, buy batch occupancy.
            target = min(config.wait_max_ms, wait + config.wait_additive_ms)
            reason = "p99-under-headroom"
        else:
            return
        if target != wait:
            self.plant.set_max_wait_ms(target)
            decision["max_wait_ms"] = target
            decision["wait_reason"] = reason
            self._note("wait_backoff" if reason == "p99-over-slo"
                       else "wait_increase",
                       reason, **{"from": wait, "to": target, "p99_ms": p99})

    def _autoscale(self, observation: dict, decision: dict) -> None:
        config = self.config
        if not config.autoscale:
            return
        workers = int(observation.get("workers", 1))
        cap = self.worker_cap
        capacity = max(1.0, float(observation.get("queue_capacity", 1)))
        utilization = float(observation.get("queue_depth", 0)) / capacity
        decision["queue_utilization"] = utilization
        if workers > cap:
            # Core starvation (or a lowered max): apply the cap now.
            self._scale(workers, cap, "over-core-cap", decision)
            return
        if workers < config.min_workers:
            self._scale(workers, config.min_workers, "under-min", decision)
            return
        if self._cooldown > 0:
            self._cooldown -= 1
            decision["cooldown"] = self._cooldown
            return
        if utilization >= config.queue_high:
            self._high_ticks += 1
            self._low_ticks = 0
        elif utilization <= config.queue_low:
            self._low_ticks += 1
            self._high_ticks = 0
        else:
            self._high_ticks = self._low_ticks = 0
        if self._high_ticks >= config.hysteresis_ticks and workers < cap:
            self._scale(workers, workers + 1, "sustained-queue-depth", decision)
        elif (self._low_ticks >= config.hysteresis_ticks
              and workers > config.min_workers):
            self._scale(workers, workers - 1, "sustained-idle", decision)

    def _scale(self, current: int, target: int, reason: str,
               decision: dict) -> None:
        """Ask the plant for ``target`` workers; a move it did not make
        (delta 0) leaves no event, decision or cooldown behind."""
        if not self.plant.scale_to(target):
            return
        self._high_ticks = self._low_ticks = 0
        self._cooldown = self.config.cooldown_ticks
        event = {"tick": self.ticks, "from": current, "to": target,
                 "reason": reason, "at": self.clock()}
        self.scale_events.append(event)
        del self.scale_events[:-64]
        decision["scaled"] = event
        self._note("scale_up" if target > current else "scale_down",
                   reason, **{"from": current, "to": target})

    def _note(self, action: str, reason: str, **fields) -> None:
        """Log one actuation into the bounded decision history."""
        entry = {"tick": self.ticks, "at": self.clock(),
                 "action": action, "reason": reason, **fields}
        self.decision_log.append(entry)
        self.decision_counts[action] = self.decision_counts.get(action, 0) + 1

    def tick(self, observation: Optional[dict] = None) -> dict:
        """One control step; pass ``observation`` to bypass the plant read.

        Returns the decision record: what was observed, what (if anything)
        was actuated, and why — also kept as :attr:`last_decision` so
        ``/stats`` can show the controller's reasoning.
        """
        self.ticks += 1
        if observation is None:
            observation = self.plant.observe()
        decision: dict = {"tick": self.ticks, "at": self.clock()}
        if observation is None:  # plant not started yet
            decision["skipped"] = "no-observation"
            self.last_decision = decision
            return decision
        decision["observed"] = {
            key: observation.get(key)
            for key in ("queue_depth", "p99_ms", "arrival_rate_rps",
                        "batch_size_mean", "rejected_recent", "workers",
                        "workers_alive")}
        self._tune_wait(observation, decision)
        self._autoscale(observation, decision)
        self.last_decision = decision
        return decision

    # ------------------------------------------------------------------ #
    # The production loop
    # ------------------------------------------------------------------ #
    def start(self) -> "Controller":
        """Tick every ``interval_s`` on a daemon thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop_event.clear()
            self._thread = threading.Thread(target=self._loop,
                                            name="repro-serve-controller",
                                            daemon=True)
            self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop_event.wait(self.config.interval_s):
            try:
                self.tick()
            except Exception:  # noqa: BLE001 - the loop must survive a bad
                # observation (a worker died mid-poll); the next tick reads
                # fresh state.
                continue

    def stop(self) -> None:
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "Controller":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def describe(self) -> dict:
        """Controller state for ``/stats``: config, cap, recent decisions."""
        return {
            "config": self.config.to_dict(),
            "cpu_count": self.cpu_count,
            "worker_cap": self.worker_cap,
            "ticks": self.ticks,
            "scale_events": list(self.scale_events[-8:]),
            "last_decision": self.last_decision,
            "decisions": list(self.decision_log)[-16:],
            "decision_counts": dict(self.decision_counts),
        }
