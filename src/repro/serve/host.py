"""The host's CPU budget: effective cores and the OpenBLAS thread pool.

numpy's bundled OpenBLAS starts one thread per core in every process.  N
serving workers that each keep such a pool run N x cores BLAS threads on
the cores, and the time-slicing costs more than the threads buy: on a
2-core host a 2-worker cluster's single-sample forward took ~7x as long as
the same forward in one process.  The cluster therefore gives each worker
a share of the cores (:func:`blas_budget`) and resizes that worker's pool
through OpenBLAS's own setter (:func:`set_blas_threads`); the controller
caps autoscaling at the same :func:`effective_cores`.

The OpenBLAS library is looked up on first use, so importing this module
calls nothing.  When numpy is not linked against OpenBLAS the BLAS
functions do nothing and report ``None``.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from pathlib import Path
from typing import Optional, Union

import numpy  # noqa: F401 - loads the OpenBLAS that _openblas() finds

__all__ = ["effective_cores", "blas_budget", "blas_threads",
           "set_blas_threads"]

#: Where the process's own cgroup is mounted (a container sees its own).
_CGROUP_ROOT = Path("/sys/fs/cgroup")

#: (getter, setter) symbol pairs, newest numpy wheels first: numpy >= 2.0
#: bundles scipy-openblas (64-bit ints on 64-bit Linux), older wheels and
#: distro builds export the plain OpenBLAS names.
_SYMBOLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", ""))


def _cgroup_cpus(root: Path) -> Optional[int]:
    """Whole CPUs the cgroup's CPU quota allows (rounded up), or ``None``.

    Reads cgroup v2 ``cpu.max`` (``"<quota> <period>"`` or ``"max
    <period>"``), else cgroup v1 ``cpu/cpu.cfs_quota_us`` with
    ``cpu/cpu.cfs_period_us`` (quota ``-1`` is unlimited).
    """
    try:
        quota, period = (root / "cpu.max").read_text().split()[:2]
    except (OSError, ValueError):
        try:
            quota = (root / "cpu" / "cpu.cfs_quota_us").read_text().strip()
            period = (root / "cpu" / "cpu.cfs_period_us").read_text().strip()
        except OSError:
            return None
    try:
        quota_us, period_us = int(quota), int(period)
    except ValueError:  # "max": no quota
        return None
    if quota_us <= 0 or period_us <= 0:
        return None
    return max(1, math.ceil(quota_us / period_us))


def effective_cores(cgroup_root: Union[str, os.PathLike] = _CGROUP_ROOT) -> int:
    """CPUs this process may use: the affinity mask, capped by the cgroup quota.

    ``os.cpu_count()`` counts the machine's CPUs, which overstates the
    budget under ``taskset`` or a container CPU limit.
    """
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - platforms without affinity masks
        cores = os.cpu_count() or 1
    quota = _cgroup_cpus(Path(cgroup_root))
    return cores if quota is None else min(cores, quota)


def blas_budget(workers: int, cores: int, pool: Optional[int]) -> int:
    """BLAS threads for each of ``workers`` processes sharing ``cores``.

    ``max(1, min(pool, cores // workers))``: the cores split evenly, never
    below one thread, and never above ``pool`` — the launching process's
    own pool size, so an operator's lower ``OPENBLAS_NUM_THREADS`` still
    wins.  ``pool=None`` (numpy not on OpenBLAS) leaves only the core share.
    """
    share = cores // workers
    return max(1, share if pool is None else min(pool, share))


@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[tuple]:
    """``(get, set)`` thread-count functions of numpy's OpenBLAS, or ``None``."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            getter = getattr(library, get_name, None)
            setter = getattr(library, set_name, None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


def blas_threads() -> Optional[int]:
    """This process's OpenBLAS pool size, or ``None`` when not on OpenBLAS."""
    functions = _openblas()
    return None if functions is None else int(functions[0]())


def set_blas_threads(threads: int) -> Optional[int]:
    """Resize this process's OpenBLAS pool; returns the size read back.

    No other thread may be inside a BLAS call while the pool is resized:
    call this before any BLAS work starts, or from the one thread that
    runs it.  Returns ``None`` (and does nothing) when not on OpenBLAS.
    """
    functions = _openblas()
    if functions is None:
        return None
    functions[1](max(1, int(threads)))
    return int(functions[0]())
