"""Lock-cheap rolling-window serving metrics.

The control plane (:mod:`repro.serve.control`) steers the serving tier
from *measured* signals: queue depth, arrival/completion rates, batch
occupancy, per-stage latency percentiles, and rejection counts.  Those
signals must be

* **rolling** — a controller reacting to lifetime averages never reacts
  at all; every query aggregates only the last ``window_s`` seconds;
* **cheap on the hot path** — every request records two or three samples,
  so recording must be O(1) under one uncontended lock (a counter add or
  one histogram-bin increment: no sorting, no percentile math until
  someone asks);
* **deterministic under test** — the clock is injectable, so unit tests
  drive time explicitly instead of sleeping.

Implementation: a ring of ``buckets`` time buckets, each ``window_s /
buckets`` seconds wide.  Recording hashes the current time to a bucket and
updates it in place; a bucket whose epoch is stale (the ring has lapped
it) is reset, so old data ages out with zero background work.  Reads walk
the ring once, keeping only buckets inside the queried window.

Latency is a histogram per bucket and stage: count, sum, max and a sparse
``{bin: count}`` map over fixed log-linear bins (:data:`BINS_PER_OCTAVE`
per power of two, from :func:`math.frexp` of the milliseconds).  The bin
edges are the same in every process, so :func:`merge_snapshots` adds bins
and reports percentiles of all the workers' requests together, each
within 1/64 (1.6%) of the exact one.

:func:`render_prometheus` turns a snapshot into the Prometheus text
exposition format for the transport's ``GET /metrics`` endpoint.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Iterable, Mapping, Optional

__all__ = ["MetricsCollector", "render_prometheus"]

#: Latency histogram bins per power of two.  A bin is 1/32 of its octave,
#: so its midpoint is within 1/64 of every sample in it.
BINS_PER_OCTAVE = 32

#: Floor (ms) for the bin of a zero or negative reading from a coarse clock.
_FLOOR_MS = 1e-6


class _Histogram:
    """One stage's latency: count, sum and max (ms) and sparse bin counts."""

    __slots__ = ("count", "total", "peak", "bins")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.peak = 0.0
        self.bins: dict[int, int] = {}

    def add(self, count: int, total: float, peak: float,
            bins: Iterable) -> None:
        """Merge another histogram in (``bins``: ``(index, count)`` pairs)."""
        self.count += count
        self.total += total
        self.peak = max(self.peak, peak)
        for index, n in bins:
            self.bins[index] = self.bins.get(index, 0) + n

    def percentile(self, bins: list, q: int) -> float:
        """Nearest-rank ``q``-th percentile: the midpoint of the bin holding
        the ceil(q * count / 100)-th sample, capped at the exact max."""
        rank, seen = -(-q * self.count // 100), 0
        for index, n in bins:
            seen += n
            if seen >= rank:
                break
        exponent, step = divmod(index, BINS_PER_OCTAVE)
        return min(self.peak, math.ldexp(
            0.5 + (step + 0.5) / (2 * BINS_PER_OCTAVE), exponent))

    def cell(self) -> dict:
        """The snapshot's ``latency_ms`` cell, bins as sorted pairs."""
        bins = sorted(self.bins.items())
        return {
            "count": self.count,
            "mean": self.total / self.count,
            "p50": self.percentile(bins, 50),
            "p99": self.percentile(bins, 99),
            "max": self.peak,
            "bins": [[index, n] for index, n in bins],
        }


class _Bucket:
    """One time slot of the ring: counters, latency histograms, gauge sums."""

    __slots__ = ("epoch", "counts", "latency", "gauges")

    def __init__(self):
        self.epoch = -1
        self.counts: dict[str, float] = {}
        self.latency: dict[str, _Histogram] = {}
        self.gauges: dict[str, list[float]] = {}  # [sum, n, max]

    def reset(self, epoch: int) -> None:
        self.epoch = epoch
        self.counts.clear()
        self.latency.clear()
        self.gauges.clear()


class MetricsCollector:
    """Rolling-window counters, latency stages, and sampled gauges.

    Parameters
    ----------
    window_s:
        Default aggregation horizon; queries may narrow it (never widen).
    buckets:
        Ring granularity.  ``window_s / buckets`` is both the aging
        resolution and the smallest meaningful query window.
    clock:
        Monotonic-seconds callable; injectable for deterministic tests.
    """

    def __init__(self, window_s: float = 10.0, buckets: int = 40,
                 clock: Callable[[], float] = time.monotonic):
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {window_s}")
        if buckets < 2:
            raise ValueError(f"buckets must be >= 2, got {buckets}")
        self.window_s = float(window_s)
        self.buckets = int(buckets)
        self.width_s = self.window_s / self.buckets
        self._clock = clock
        self._ring = [_Bucket() for _ in range(self.buckets)]
        self._lock = threading.Lock()
        self._created = clock()
        self._gauge_last: dict[str, float] = {}
        self._lifetime: dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Recording (hot path)
    # ------------------------------------------------------------------ #
    def _bucket(self, now: float) -> _Bucket:
        epoch = int(now / self.width_s)
        bucket = self._ring[epoch % self.buckets]
        if bucket.epoch != epoch:
            bucket.reset(epoch)
        return bucket

    def count(self, name: str, n: float = 1) -> None:
        """Increment a windowed counter (``arrivals``, ``rejected``, ...)."""
        now = self._clock()
        with self._lock:
            bucket = self._bucket(now)
            bucket.counts[name] = bucket.counts.get(name, 0) + n
            self._lifetime[name] = self._lifetime.get(name, 0) + n

    def observe(self, stage: str, seconds: float) -> None:
        """Record one latency sample for ``stage`` (seconds)."""
        ms = seconds * 1000.0
        mantissa, exponent = math.frexp(ms if ms > _FLOOR_MS else _FLOOR_MS)
        index = (exponent * BINS_PER_OCTAVE
                 + int((mantissa - 0.5) * (2 * BINS_PER_OCTAVE)))
        now = self._clock()
        with self._lock:
            bucket = self._bucket(now)
            histogram = bucket.latency.get(stage)
            if histogram is None:
                histogram = bucket.latency[stage] = _Histogram()
            histogram.count += 1
            histogram.total += ms
            if ms > histogram.peak:
                histogram.peak = ms
            histogram.bins[index] = histogram.bins.get(index, 0) + 1

    def gauge(self, name: str, value: float) -> None:
        """Record one gauge sample (queue depth, batch occupancy, ...)."""
        now = self._clock()
        with self._lock:
            bucket = self._bucket(now)
            cell = bucket.gauges.get(name)
            if cell is None:
                bucket.gauges[name] = [float(value), 1.0, float(value)]
            else:
                cell[0] += value
                cell[1] += 1
                cell[2] = max(cell[2], float(value))
            self._gauge_last[name] = float(value)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def _live_buckets(self, now: float, window_s: float) -> list[_Bucket]:
        newest = int(now / self.width_s)
        # A bucket is inside the window when its epoch is recent enough;
        # the current (partial) bucket always qualifies.
        span = max(1, min(self.buckets, int(round(window_s / self.width_s))))
        oldest = newest - span + 1
        return [bucket for bucket in self._ring if oldest <= bucket.epoch <= newest]

    def _elapsed(self, now: float, window_s: float) -> float:
        """Denominator for rates: never longer than the collector has lived."""
        return max(self.width_s, min(window_s, now - self._created))

    def count_in(self, name: str, window_s: Optional[float] = None) -> float:
        """Total of ``name`` over the last ``window_s`` seconds."""
        window_s = self.window_s if window_s is None else float(window_s)
        now = self._clock()
        with self._lock:
            return sum(bucket.counts.get(name, 0)
                       for bucket in self._live_buckets(now, window_s))

    def rate(self, name: str, window_s: Optional[float] = None) -> float:
        """Per-second rate of ``name`` over the last ``window_s`` seconds."""
        window_s = self.window_s if window_s is None else float(window_s)
        now = self._clock()
        with self._lock:
            total = sum(bucket.counts.get(name, 0)
                        for bucket in self._live_buckets(now, window_s))
        return total / self._elapsed(now, window_s)

    def snapshot(self, window_s: Optional[float] = None) -> dict:
        """One structured view of the whole window (the ``/stats`` rows).

        ``counts``/``rates`` for every counter, ``latency_ms`` per stage
        (count/mean/p50/p99/max, plus the histogram ``bins`` as sorted
        ``[index, count]`` pairs, which :func:`merge_snapshots` adds),
        ``gauges`` (last/mean/max/count), plus ``lifetime`` totals for the
        counters (never windowed out).
        """
        window_s = self.window_s if window_s is None else float(window_s)
        now = self._clock()
        with self._lock:
            live = self._live_buckets(now, window_s)
            counts: dict[str, float] = {}
            latency: dict[str, _Histogram] = {}
            gauges: dict[str, list[float]] = {}
            for bucket in live:
                for name, value in bucket.counts.items():
                    counts[name] = counts.get(name, 0) + value
                for stage, histogram in bucket.latency.items():
                    latency.setdefault(stage, _Histogram()).add(
                        histogram.count, histogram.total, histogram.peak,
                        histogram.bins.items())
                for name, (total, n, peak) in bucket.gauges.items():
                    cell = gauges.setdefault(name, [0.0, 0.0, float("-inf")])
                    cell[0] += total
                    cell[1] += n
                    cell[2] = max(cell[2], peak)
            gauge_last = dict(self._gauge_last)
            lifetime = dict(self._lifetime)
        elapsed = self._elapsed(now, window_s)
        return {
            "window_s": elapsed,
            "counts": counts,
            "rates": {name: value / elapsed for name, value in counts.items()},
            "latency_ms": {stage: histogram.cell()
                           for stage, histogram in latency.items()},
            "gauges": {name: {"last": gauge_last.get(name, 0.0),
                              "mean": (total / n) if n else 0.0,
                              "max": peak if n else 0.0,
                              "count": int(n)}
                       for name, (total, n, peak) in gauges.items()},
            "lifetime": lifetime,
        }


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Aggregate per-worker snapshots into one cluster-level view.

    Counts/rates/lifetimes sum; gauges sum ``last`` (cluster queue depth is
    the *total* queued work), weight ``mean`` by each worker's sample count
    and keep the max of ``max``.  Latency histograms merge exactly: their
    bins add, and the percentiles are recomputed from the sum, so they are
    percentiles of every worker's requests together.  Rows decoded from
    ``/stats`` JSON merge the same as in-process ones.
    """
    if not snapshots:
        return {"window_s": 0.0, "counts": {}, "rates": {}, "latency_ms": {},
                "gauges": {}, "lifetime": {}}
    counts: dict[str, float] = {}
    rates: dict[str, float] = {}
    lifetime: dict[str, float] = {}
    latency: dict[str, _Histogram] = {}
    gauges: dict[str, dict] = {}
    for snap in snapshots:
        for name, value in snap.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + value
        for name, value in snap.get("rates", {}).items():
            rates[name] = rates.get(name, 0) + value
        for name, value in snap.get("lifetime", {}).items():
            lifetime[name] = lifetime.get(name, 0) + value
        for stage, cell in snap.get("latency_ms", {}).items():
            latency.setdefault(stage, _Histogram()).add(
                cell["count"], cell["mean"] * cell["count"], cell["max"],
                cell["bins"])
        for name, cell in snap.get("gauges", {}).items():
            merged = gauges.setdefault(
                name, {"last": 0.0, "mean": 0.0, "max": 0.0, "count": 0})
            merged["last"] += cell.get("last", 0.0)
            merged["mean"] += cell.get("mean", 0.0) * cell.get("count", 0)
            merged["max"] = max(merged["max"], cell.get("max", 0.0))
            merged["count"] += cell.get("count", 0)
    for merged in gauges.values():
        if merged["count"]:
            merged["mean"] /= merged["count"]
    return {
        "window_s": max(snap.get("window_s", 0.0) for snap in snapshots),
        "counts": counts,
        "rates": rates,
        "latency_ms": {stage: histogram.cell()
                       for stage, histogram in latency.items()},
        "gauges": gauges,
        "lifetime": lifetime,
    }


#: Help strings for metric families whose meaning is not obvious from the
#: name alone; everything else gets a generated one-liner.
_FAMILY_HELP = {
    "latency_ms": "Rolling-window request latency per pipeline stage "
                  "(milliseconds; quantile label selects p50/p99/mean/max).",
    "latency_samples": "Latency samples observed per stage in the window.",
    "queue_depth": "Admission-queue depth sampled by the engine.",
    "batch_occupancy": "Realized batch size as a fraction of max_batch.",
    "max_wait_ms_now": "Current (possibly AIMD-tuned) coalescing wait.",
}


def render_prometheus(snapshot: Mapping, prefix: str = "repro_serve",
                      extra: Optional[Mapping] = None,
                      families: Optional[list] = None) -> str:
    """Render one snapshot in the Prometheus text exposition format.

    ``lifetime`` counters become ``*_total``, windowed rates ``*_per_s``,
    latency stages ``{prefix}_latency_ms{stage=...,quantile=...}``, gauges
    plain gauges.  ``extra`` appends scalar gauges (load state flags, the
    current ``max_wait_ms``, worker counts) without touching the collector.

    Every series is preceded by ``# HELP``/``# TYPE`` comment lines (one
    block per metric family, samples grouped under it) so a real
    Prometheus scraper ingests the page cleanly; serve it with
    ``Content-Type: text/plain; version=0.0.4``.  Names ending in
    ``_total`` are typed ``counter``, everything else ``gauge``.

    ``families`` appends fully-named extra families (each a dict with
    ``name``, ``type``, ``help``, and ``samples`` — a list of
    ``(labels_dict, value)``) for producers outside the collector, e.g.
    the controller's ``repro_controller_decisions_total{action=...}``.
    """
    # (family, labels, value) triples in emission order; HELP/TYPE blocks
    # are written per family with its samples grouped beneath.
    samples: list[tuple[str, str, float]] = []

    def emit(name: str, value, labels: str = "") -> None:
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, (int, float)):
            return
        samples.append((f"{prefix}_{name}", labels, float(value)))

    for name, value in sorted((snapshot.get("lifetime") or {}).items()):
        emit(f"{name}_total", value)
    for name, value in sorted((snapshot.get("rates") or {}).items()):
        emit(f"{name}_per_s", value)
    for stage, cell in sorted((snapshot.get("latency_ms") or {}).items()):
        for quantile in ("p50", "p99", "mean", "max"):
            emit("latency_ms",
                 cell.get(quantile, 0.0),
                 f'{{stage="{stage}",quantile="{quantile}"}}')
        emit("latency_samples", cell.get("count", 0), f'{{stage="{stage}"}}')
    for name, cell in sorted((snapshot.get("gauges") or {}).items()):
        emit(name, cell.get("last", 0.0))
        emit(f"{name}_mean", cell.get("mean", 0.0))
        emit(f"{name}_max", cell.get("max", 0.0))
    for name, value in sorted((extra or {}).items()):
        emit(name, value)

    grouped: dict[str, list[tuple[str, float]]] = {}
    for family, labels, value in samples:
        grouped.setdefault(family, []).append((labels, value))

    lines: list[str] = []
    for family, rows in grouped.items():
        bare = family[len(prefix) + 1:] if family.startswith(f"{prefix}_") else family
        kind = "counter" if family.endswith("_total") else "gauge"
        help_text = _FAMILY_HELP.get(bare, f"repro serving metric '{bare}'.")
        lines.append(f"# HELP {family} {help_text}")
        lines.append(f"# TYPE {family} {kind}")
        for labels, value in rows:
            lines.append(f"{family}{labels} {value:g}")

    for family in families or ():
        name = family["name"]
        lines.append(f"# HELP {name} {family.get('help', name)}")
        lines.append(f"# TYPE {name} {family.get('type', 'gauge')}")
        for labels, value in family.get("samples", ()):
            if isinstance(labels, Mapping):
                labels = ("{" + ",".join(f'{key}="{val}"'
                                         for key, val in sorted(labels.items()))
                          + "}") if labels else ""
            lines.append(f"{name}{labels} {float(value):g}")
    return "\n".join(lines) + "\n"
