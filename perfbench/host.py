"""Host facts and provenance recorded with every result row, and memory probes.

The harness passes the environment through unchanged: it reads the BLAS
thread count, it never sets it.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import resource
import subprocess
from pathlib import Path
from typing import Optional

import numpy as np


def effective_cores() -> int:
    """CPUs this process may use: affinity mask, capped by the cgroup quota."""
    cores = len(os.sched_getaffinity(0))
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()[:2]
    except (OSError, ValueError):
        return cores
    if quota != "max":
        cores = min(cores, max(1, math.ceil(int(quota) / int(period))))
    return cores


def _openblas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS numpy loaded, or ``None`` if not OpenBLAS."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _blas_name() -> Optional[str]:
    try:
        config = np.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return None


def _git_sha(root: Path) -> Optional[str]:
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources: provenance where git is absent."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_facts(root: Path, seed: int) -> dict:
    from repro.formats.kernels import kernels_enabled

    return {
        "git_sha": _git_sha(root),
        "src_sha256": source_digest(root),
        "seed": seed,
        "effective_cores": effective_cores(),
        "blas": _blas_name(),
        "blas_threads": _openblas_threads(),
        "env_blas_threads": {name: os.environ.get(name) for name in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "codec_kernels": kernels_enabled(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def peak_rss_mb() -> float:
    """This process's high-water resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """High-water resident set of another live process, from ``/proc``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM for pid {pid}")


def children(pid: int) -> list[int]:
    """Direct child pids of ``pid``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name is parenthesised and may contain spaces.
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == pid:
            found.append(int(entry.name))
    return found


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"
