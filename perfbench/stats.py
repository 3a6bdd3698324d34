"""Order statistics and windows shared by the workloads.

Percentiles are nearest-rank, so every reported percentile is a value that
was actually measured.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
#: The tail is never reported above p99, so serving runs of different
#: lengths all report the same percentile once they have enough samples.
TAIL_CAP = 99.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    if ordered.size == 0:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * ordered.size))
    return float(ordered[rank - 1])


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail(values: Sequence[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with >= 10 samples beyond it.

    Capped at p99.  Needs more than ``TAIL_BEYOND`` samples.
    """
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = ordered.size
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    rank = min(math.ceil(TAIL_CAP / 100.0 * n), n - TAIL_BEYOND)
    return float(ordered[rank - 1]), 100.0 * rank / n


def geomean(values: Sequence[float]) -> float:
    data = np.asarray(values, dtype=np.float64)
    if data.size == 0 or np.any(data <= 0):
        raise ValueError("geomean needs positive values")
    return float(np.exp(np.mean(np.log(data))))


def split_windows(offsets: np.ndarray, values: np.ndarray, span_s: float,
                  width_s: float) -> list[np.ndarray]:
    """``values`` grouped into consecutive ``width_s`` windows by their offsets.

    Offsets are seconds from the start of a phase that lasted ``span_s``.
    The phase holds ``max(1, span_s // width_s)`` whole windows; values past
    the last whole window are dropped.  A window median of a per-window
    statistic ignores a stall that hit one window, where a whole-phase
    percentile would carry it into every run that met one.
    """
    count = max(1, int(span_s // width_s))
    index = np.floor(np.asarray(offsets) / width_s).astype(int)
    values = np.asarray(values)
    return [values[index == k] for k in range(count)]
