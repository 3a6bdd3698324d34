"""Tests for the host CPU budget (:mod:`repro.serve.host`).

The cgroup parsing runs against fake cgroup trees with a patched affinity
mask; the OpenBLAS get/set round trip runs in a subprocess, so resizing a
pool never touches the test process's own.  The cluster side of the
budget lives in ``test_cluster.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.serve.host import blas_budget, effective_cores

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.mark.parametrize("files, affinity, expected", [
    ({"cpu.max": "max 100000\n"}, 4, 4),
    ({"cpu.max": "150000 100000\n"}, 4, 2),
    ({"cpu.max": "50000 100000\n"}, 4, 1),
    ({"cpu/cpu.cfs_quota_us": "-1\n",
      "cpu/cpu.cfs_period_us": "100000\n"}, 4, 4),
    ({"cpu/cpu.cfs_quota_us": "250000\n",
      "cpu/cpu.cfs_period_us": "100000\n"}, 4, 3),
    ({}, 4, 4),
    ({"cpu.max": "400000 100000\n"}, 2, 2),
], ids=["v2-unlimited", "v2-1.5-cpus", "v2-half-cpu", "v1-unlimited",
        "v1-2.5-cpus", "no-cgroup-files", "affinity-below-quota"])
def test_effective_cores(tmp_path, monkeypatch, files, affinity, expected):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(affinity)), raising=False)
    assert effective_cores(cgroup_root=tmp_path) == expected


@pytest.mark.parametrize("workers, cores, pool, expected", [
    (2, 2, 2, 1),      # two workers on two cores: one thread each
    (1, 2, 2, 2),
    (3, 2, 2, 1),      # more workers than cores: never below one
    (2, 8, 8, 4),
    (1, 8, 2, 2),      # OPENBLAS_NUM_THREADS=2 on the launcher still wins
    (2, 8, None, 4),   # numpy not on OpenBLAS: the core share alone
])
def test_blas_budget(workers, cores, pool, expected):
    assert blas_budget(workers, cores, pool) == expected


def test_blas_threads_round_trip():
    script = """
import json
from repro.serve import host
imported_lookups = host._openblas.cache_info().misses
before = host.blas_threads()
result = {"imported_lookups": imported_lookups, "before": before}
if before is not None:
    result["set_one"] = host.set_blas_threads(1)
    result["read_one"] = host.blas_threads()
    result["restored"] = host.set_blas_threads(before)
print(json.dumps(result))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC] + ([os.environ["PYTHONPATH"]]
                 if os.environ.get("PYTHONPATH") else []))}
    completed = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, timeout=120,
                               check=True)
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["imported_lookups"] == 0  # importing looked nothing up
    if result["before"] is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    assert result["before"] >= 1
    assert result["set_one"] == result["read_one"] == 1
    assert result["restored"] == result["before"]
