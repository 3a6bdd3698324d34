"""What every workload receives and returns, and the repeated set-up timer."""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .stats import median

#: Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5


@dataclass
class Context:
    root: Path      # the checkout: holds src/ and perfbench/
    out: Path       # artifacts, logs, spans and result rows, inside the checkout
    seed: int
    seconds: float  # how long the measured part of the run lasts
    trace: bool

    def rng(self, stream: int) -> np.random.Generator:
        """An independent generator per input stream, all derived from the seed."""
        return np.random.default_rng([self.seed, stream])


@dataclass
class Phase:
    """Operation counts of one phase of a run."""

    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    rejected: int = 0


@dataclass
class Outcome:
    metrics: dict                      # metric name -> value
    phases: dict[str, Phase]
    checks: dict[str, bool]            # correctness checks by name
    report: dict = field(default_factory=dict)  # extra figures for the log

    @property
    def attempted(self) -> int:
        return sum(phase.attempted for phase in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(phase.failed + phase.rejected for phase in self.phases.values())

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


def repeated_setup(build: Callable[[], tuple[object, dict]],
                   teardown: Callable[[object], None]) -> tuple[object, float, dict]:
    """Run ``build`` ``SETUP_REPEATS`` times; keep the last, report the median.

    ``build`` returns ``(state, parts)`` where ``parts`` maps set-up stages
    to seconds.  Every earlier state is torn down and collected before the
    next build, so no two set-ups are alive together.  Returns
    ``(state, median_seconds, median_parts)``.
    """
    totals, parts_seen, state = [], [], None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            teardown(state)
            state = None
            gc.collect()
        started = time.perf_counter()
        state, parts = build()
        totals.append(time.perf_counter() - started)
        parts_seen.append(parts)
    parts = {key: median([seen[key] for seen in parts_seen]) for key in parts_seen[0]}
    return state, median(totals), parts
