"""Machine fingerprint and a STREAM-style triad bandwidth probe."""

from __future__ import annotations

import importlib.util
import os
import platform
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

MIB = 1 << 20
#: Passes of the triad; the median is reported.
TRIAD_REPEATS = 5


def _size_bytes(text: str) -> int:
    text = text.strip().upper()
    for suffix, scale in (("K", 1 << 10), ("M", 1 << 20), ("G", 1 << 30)):
        if text.endswith(suffix):
            return int(text[:-1]) * scale
    return int(text)


def llc_bytes() -> int:
    """Size of the highest-level cache of cpu0 (0 if sysfs lacks it)."""
    best_level, best_size = 0, 0
    root = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(root.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = _size_bytes((index / "size").read_text())
        except (OSError, ValueError):
            continue
        if level > best_level:
            best_level, best_size = level, size
    return best_size


def _version(module: str) -> str:
    try:
        return __import__(module).__version__
    except ImportError:
        return "absent"


def fingerprint() -> dict:
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "llc_mib": round(llc_bytes() / MIB, 1),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "numba": importlib.util.find_spec("numba") is not None,
    }


def stream_triad_gbps(array_bytes: int) -> float:
    """Median bandwidth of ``a = b + s * c`` over three float64 arrays.

    The triad runs in cache-sized chunks through a small scratch buffer,
    so memory traffic is the three big arrays only; bandwidth counts
    3 x array_bytes per pass, as STREAM does (write-allocate excluded).
    """
    n = array_bytes // 8
    b = np.full(n, 1.0)
    c = np.full(n, 2.0)
    a = np.empty(n)
    chunk = 1 << 16
    scratch = np.empty(chunk)
    rates = []
    for _ in range(TRIAD_REPEATS):
        start = perf_counter()
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            tmp = scratch[: hi - lo]
            np.multiply(c[lo:hi], 3.0, out=tmp)
            np.add(b[lo:hi], tmp, out=a[lo:hi])
        rates.append(3 * n * 8 / (perf_counter() - start) / 1e9)
    if a[n // 2] != 7.0:
        raise RuntimeError("stream triad produced a wrong value")
    return statistics.median(rates)
