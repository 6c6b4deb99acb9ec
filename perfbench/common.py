"""Shared pieces of the workloads: statistics, digests, outcome record."""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
from dataclasses import dataclass, field

import numpy as np


def latency_stats(values: list) -> dict:
    """Median plus p90, or the highest percentile below it that still
    has at least ten samples beyond it (nearest rank), with the count."""
    ordered = sorted(values)
    n = len(ordered)
    pct = min(90.0, 100.0 * max(n - 10, 0) / n)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return {
        "p50": statistics.median(ordered),
        "tail": ordered[rank - 1],
        "tail_pct": pct,
        "samples": n,
    }


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(array, dtype=np.int64).tobytes()
    ).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload run produced.

    ``metrics`` maps name to value; units come from BENCHMARK.json.
    ``notes`` are human-readable lines printed before the JSON result.
    ``tracer`` holds the spans of a traced run, written out at the end.
    """

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    tracer: object = None
