"""Reference kernels: the yardstick every cost metric is divided by.

The benchmark shares its host with other machines' work, and the speed
of that host drifts by tens of percent over minutes: a wall time taken
in one run cannot be compared with one taken in the next.  So each
workload times, right after each of its own blocks, a fixed kernel of
the same character and reports *cost* = its own time / the kernel's
time over that stretch.  A change to the program moves the numerator
only; a slower or faster host moves both.

The kernels use none of the program's code: plain numpy rounds of
SEND(floor(x/d+)) over a copy of a graph's port arrays, a process pool
running such rounds, and reads of JSON-lines files the benchmark writes
itself.  Every kernel checks that it conserved its tokens.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

import numpy as np


class DenseRound:
    """One SEND(floor(x/d+)) round in plain numpy over a graph's ports.

    ``adjacency[v, p]`` is the node port ``p`` of ``v`` leads to and
    ``reverse_port[v, p]`` the port it arrives on there; self-loops and
    padding ports point back at ``v``.  Each node sends ``x // d+``
    tokens over every port, so a round materialises the ``(n, d+)``
    sends and gathers them, like a dense engine does.  ``source`` is
    the flat index, into a row of sends, of what each port receives.
    """

    def __init__(self, adjacency, reverse_port) -> None:
        adjacency = np.array(adjacency, dtype=np.int64)
        self.dplus = adjacency.shape[1]
        self.source = adjacency * self.dplus + np.asarray(
            reverse_port, dtype=np.int64
        )

    def step(self, loads: np.ndarray) -> np.ndarray:
        sends = np.repeat(loads // self.dplus, self.dplus)
        incoming = sends[self.source]
        return (loads - sends.reshape(self.source.shape).sum(axis=1)
                + incoming.sum(axis=1))

    def rounds(self, loads: np.ndarray, count: int) -> list[float]:
        """Run ``count`` rounds from ``loads``, ``(n,)`` or ``(R, n)``
        for R replicas stepped one after another; the wall time of each
        round.

        Replicas are not stacked into one ``(R, n * d+)`` gather: the
        speed of that gather depends on where the allocator places its
        arrays (about 9 or 12 ms a round on fat_tree(24) with 8
        replicas, mostly fixed for the life of a process), noise a
        yardstick must not have.
        """
        rows = list(np.atleast_2d(loads))
        totals = [int(row.sum()) for row in rows]
        times = []
        for _ in range(count):
            start = perf_counter()
            rows = [self.step(row) for row in rows]
            times.append(perf_counter() - start)
        if ([int(row.sum()) for row in rows] != totals
                or min(int(row.min()) for row in rows) < 0):
            raise AssertionError("reference round lost or created tokens")
        return times


# Set in the parent before the pool forks, so workers inherit the port
# arrays instead of receiving them pickled with every task.
_POOL_TASKS: list = []


def _pool_task(index: int) -> list:
    kernel, loads, count = _POOL_TASKS[index]
    kernel.rounds(loads, count)
    return loads.tolist()


def pooled_rounds(tasks: list, workers: int) -> float:
    """Wall time of ``tasks`` ((kernel, (R, n) loads, rounds) each) on a
    fresh fork pool of ``workers`` processes, results sent back pickled."""
    global _POOL_TASKS
    _POOL_TASKS = tasks
    start = perf_counter()
    try:
        with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            results = list(pool.map(_pool_task, range(len(tasks))))
    finally:
        _POOL_TASKS = []
    wall = perf_counter() - start
    if len(results) != len(tasks):
        raise AssertionError("reference pool lost a task")
    return wall


class JsonReplay:
    """Reads back JSON-lines files the benchmark wrote, like a cache hit.

    Each file holds ``rows`` lines of integer and float lists; a replay
    reads every file, parses every line and hashes the text.
    """

    def __init__(self, root, files: int, rows: int, width: int,
                 seed: int) -> None:
        rng = np.random.default_rng(seed)
        root.mkdir(parents=True, exist_ok=True)
        self.paths = []
        self.values = 0
        for index in range(files):
            lines = []
            for _ in range(rows):
                row = {
                    "loads": rng.integers(0, 1 << 16, width).tolist(),
                    "history": rng.random(width // 4).round(6).tolist(),
                }
                self.values += width + width // 4
                lines.append(json.dumps(row, sort_keys=True))
            path = root / f"{index:03d}.jsonl"
            path.write_text("\n".join(lines) + "\n")
            self.paths.append(path)

    def replay(self) -> float:
        start = perf_counter()
        values = 0
        for path in self.paths:
            text = path.read_text()
            hashlib.sha256(text.encode()).hexdigest()
            for line in text.splitlines():
                row = json.loads(line)
                values += len(row["loads"]) + len(row["history"])
        wall = perf_counter() - start
        if values != self.values:
            raise AssertionError("reference replay lost values")
        return wall


def bracketing(after: list[float]) -> list[float]:
    """Per block, the mean of the reference runs on either side of it.

    ``after[i]`` ran right after block ``i``, so block ``i > 0`` lies
    between ``after[i - 1]`` and ``after[i]``; the first has only the
    one after it.
    """
    return after[:1] + [(a + b) / 2 for a, b in zip(after, after[1:])]
