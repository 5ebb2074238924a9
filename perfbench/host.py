"""Host fingerprint, resident-memory probes and the timing statistics."""

from __future__ import annotations

import os
import platform
import resource
import statistics
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "fingerprint",
    "resident_bytes",
    "peak_rss_mb",
    "median",
    "tail",
]

_PAGE = os.sysconf("SC_PAGE_SIZE")


def resident_bytes() -> int:
    """Current resident set size of this process (``/proc/self/statm``)."""
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * _PAGE


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak RSS (``ru_maxrss``) of this process, or of it and its children."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float], beyond: int = 10) -> Tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile)``: the sample with exactly ``beyond``
    samples ranked above it, and its percentile rank ``100 * (n -
    beyond) / n``.  Needs more than ``beyond`` samples.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {n}")
    ranked = sorted(values)
    return float(ranked[n - beyond - 1]), 100.0 * (n - beyond) / n


def _read(path: str) -> Optional[str]:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _l3_size() -> str:
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        if (_read(f"{base}/level") or "").strip() == "3":
            return (_read(f"{base}/size") or "unknown").strip()
    return "unknown"


def _ram_mb() -> Optional[int]:
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) // 1024
    return None


def _in_container() -> bool:
    cgroup = _read("/proc/1/cgroup") or ""
    if any(tag in cgroup for tag in ("docker", "kubepods", "containerd", "lxc")):
        return True
    for line in (_read("/proc/self/mountinfo") or "").splitlines():
        fields = line.split()
        if len(fields) > 4 and fields[4] == "/":
            return "overlay" in line
    return False


def _git_commit(root: str) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    head = (_read(os.path.join(git, "HEAD")) or "").strip()
    if not head:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = (_read(os.path.join(git, ref)) or "").strip()
    if loose:
        return loose
    for line in (_read(os.path.join(git, "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def fingerprint(root: str) -> Dict[str, object]:
    """What a recorded number needs beside it to be comparable."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l3": _l3_size(),
        "ram_mb": _ram_mb(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "container": _in_container(),
        "commit": _git_commit(root),
    }

