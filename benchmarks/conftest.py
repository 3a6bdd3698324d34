"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (see DESIGN.md's
per-experiment index).  Besides timing a representative kernel with
pytest-benchmark, each benchmark writes the regenerated rows to
``<name>.json`` and prints them with ``-s``.  A plain test run writes to a
session temp directory, so it never rewrites the committed tables; a
regeneration run asks for ``benchmarks/results/`` explicitly::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_codec_profile.py --write-results
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def _to_jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    return value


@pytest.fixture(scope="session")
def results_dir(request, tmp_path_factory) -> Path:
    """Where regenerated tables go: ``benchmarks/results`` with
    ``--write-results`` (declared in the root ``conftest.py``), else a
    session temp directory."""
    if request.config.getoption("--write-results", default=False):
        RESULTS_DIR.mkdir(exist_ok=True)
        return RESULTS_DIR
    return tmp_path_factory.mktemp("results")


@pytest.fixture
def save_result(results_dir):
    """Write a regenerated table/figure to :func:`results_dir` and echo it."""

    def _save(name: str, payload) -> None:
        path = results_dir / f"{name}.json"
        with open(path, "w") as handle:
            json.dump(_to_jsonable(payload), handle, indent=2)
        print(f"\n[{name}] written to {path}")
        if isinstance(payload, list):
            for row in payload:
                print(f"  {row}")
        else:
            print(f"  {payload}")

    return _save


@pytest.fixture
def bench_rng() -> np.random.Generator:
    """Deterministic generator for benchmark workloads."""
    return np.random.default_rng(2024)
