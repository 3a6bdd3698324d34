"""Self-tests of the benchmark: its contract file, its statistics, its probes."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from perfbench import catalog
from perfbench.harness import SETUP_REPEATS, repeated_setup
from perfbench.stats import TAIL_BEYOND, percentile, split_windows, tail

ROOT = Path(__file__).resolve().parent.parent
SPEC = catalog.load_spec(ROOT)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_top_level():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_every_workload_has_a_one_line_why():
    names = [workload["name"] for workload in SPEC["workloads"]]
    assert names == list(catalog.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"])
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metric_names_units_and_directions():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [metric["name"] for metric in metrics]
    assert len(names) == len(set(names))
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for metric in metrics:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_end_to_end_bounds_and_setup_time():
    bounds = {}
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        bounds[metric["name"]] = metric["bound"]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(bounds.values())


def test_every_per_layer_metric_belongs_to_workloads():
    per_layer = {metric["name"] for metric in SPEC["per_layer"]}
    assert per_layer == set(catalog.MEASURED_BY)
    for owners in catalog.MEASURED_BY.values():
        assert owners and set(owners) <= set(catalog.WORKLOADS)
    for workload in catalog.WORKLOADS:
        assert catalog.required(workload)


@pytest.mark.parametrize("n, rank, beyond", [
    (11, 1, 10), (60, 50, 10), (200, 190, 10), (1000, 990, 10), (5000, 4950, 50)])
def test_tail_is_highest_percentile_with_ten_beyond(n, rank, beyond):
    values = np.arange(1, n + 1, dtype=float)[::-1]
    value, at = tail(values)
    assert value == rank
    assert int(np.sum(values > value)) == beyond >= TAIL_BEYOND
    assert at == pytest.approx(100.0 * rank / n)
    assert at <= 99.0


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail(np.ones(TAIL_BEYOND))


def test_percentile_is_nearest_rank():
    assert percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.0
    assert percentile(np.arange(1, 101), 99) == 99.0


def test_windows_drop_the_partial_tail():
    offsets = np.array([0.1, 0.6, 0.7, 1.2, 1.9, 2.1])
    windows = split_windows(offsets, offsets * 10, span_s=2.0, width_s=1.0)
    assert [list(w) for w in windows] == [[1.0, 6.0, 7.0], [12.0, 19.0]]


def test_setup_releases_each_state_before_the_next_build():
    class State:
        pass

    refs = []

    def build():
        assert all(ref() is None for ref in refs), "an earlier set-up is still alive"
        state = State()
        refs.append(weakref.ref(state))
        return state, {"stage_s": float(len(refs))}

    state, seconds, parts = repeated_setup(build, lambda _: None)
    assert len(refs) == SETUP_REPEATS and refs[-1]() is state
    assert seconds >= 0 and parts == {"stage_s": float((SETUP_REPEATS + 1) // 2)}


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "codec", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert "correct" not in result.stdout


def test_traced_training_records_codec_time_and_keeps_the_numerics():
    from perfbench.train_posit import Trainer, layer_metrics, traced_steps

    plain = Trainer(seed=3)
    plain.run(count=2)
    traced, steps, probes, snapshot = traced_steps(seed=3, count=2)
    metrics = layer_metrics(probes, snapshot)
    assert len(steps) == 2
    assert metrics["codec.ms_per_step"] > 0
    assert metrics["codec.elements_per_step"] > 0
    assert metrics["scale.calls_per_step"] > 0
    assert traced.losses == plain.losses
    json.dumps(metrics)
