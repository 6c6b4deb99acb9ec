"""suite_sweep: a 32-scenario cartesian suite through ``repro.exec``.

{random_regular(1024, 6), hypercube(10), torus(32^2), cycle(1024)} x
{send_floor, send_rounded, rotor_router, randomized_extra_tokens} x
{uniform_random, point_mass}, 4 replicas and 200 rounds each.  The
kernels are tiny; sharding, the process pool, pickling, cache put/get
and record reassembly do the work.

The suite runs once serially and uncached (the single-threaded
baseline and the reference records), then cold with ``workers=2`` into
an empty cache, then warm from that cache again and again.  Cold
records must equal the serial ones and every replay must be
byte-identical (``canonical_json``) to the cold run.  One op is one
warm replay of the whole suite.

The phases are interleaved across the window (cold, replays, a serial
pass of the send_floor and rotor_router scenarios, cold, ...), so each
metric samples the whole window rather than one slice of it: on a
shared box the speed of a cpu drifts over tens of seconds.

Each timed phase is paired with a reference kernel of its own kind
(see ``reference``): a serial pass with plain-numpy rounds of the same
graphs, replicas and round count for one algorithm's eight scenarios; a
cold run with a quarter of those rounds for all 32 scenarios on a fresh
fork pool of ``workers=2``; both run before and after the phase and
are averaged, because the phase lasts seconds.  A replay is followed
by reading 32 JSON-lines files of about the size of the suite's cache
entries.  Every cost metric divides the phase by its reference.
"""

from __future__ import annotations

import shutil
import statistics
import traceback
from time import perf_counter

import numpy as np

import layers
from common import Outcome, latency_stats, peak_rss_mb
from reference import DenseRound, JsonReplay, pooled_rounds
from spans import Tracer

ALGORITHMS = (
    "send_floor", "send_rounded", "rotor_router", "randomized_extra_tokens",
)
TOKENS_PER_NODE = 32
WORKERS = 2
SIZES = {
    "full": {"n": 1024, "dimension": 10, "side": 32, "replicas": 4,
             "rounds": 200, "cold_runs": 2, "setups": 9,
             "pool_rounds": 50, "replay_width": 256},
    "tiny": {"n": 64, "dimension": 6, "side": 8, "replicas": 2,
             "rounds": 10, "cold_runs": 1, "setups": 2,
             "pool_rounds": 5, "replay_width": 16},
}

#: Spans a traced run must record; a missing one fails the run.
LAYER_SPANS = (
    "scenarios.run", "scenarios.batch", "algorithms.bind",
    "algorithms.compact.send_floor", "algorithms.compact.rotor_router",
    "core.validate", "core.remainder", "engines.apply", "exec.cache_get",
    "exec.cache_put",
)


def build_suite(size: dict, seed: int):
    from repro.scenarios import (
        AlgorithmSpec, GraphSpec, LoadSpec, ScenarioSuite, StopRule,
    )

    n = size["n"]
    return ScenarioSuite.cartesian(
        graphs=[
            GraphSpec("random_regular", {"n": n, "degree": 6, "seed": seed}),
            GraphSpec("hypercube", {"dimension": size["dimension"]}),
            GraphSpec("torus", {"side": size["side"]}),
            GraphSpec("cycle", {"n": n}),
        ],
        algorithms=[AlgorithmSpec(alg, seed=seed) for alg in ALGORITHMS],
        loads=[
            LoadSpec("uniform_random",
                     {"total_tokens": TOKENS_PER_NODE * n, "seed": seed}),
            LoadSpec("point_mass", {"tokens": TOKENS_PER_NODE * n}),
        ],
        stop=StopRule.fixed(size["rounds"]),
        replicas=size["replicas"],
        name="suite_sweep",
    )


class _Reference:
    """The reference kernels beside each phase, on the suite's shapes."""

    def __init__(self, suite, graphs, size, seed, root) -> None:
        kernels = {
            spec: DenseRound(graph.adjacency, graph.reverse_port)
            for spec, graph in graphs.items()
        }
        rng = np.random.default_rng(seed)
        self.tasks = [
            (
                kernels[scenario.graph],
                rng.integers(
                    0, 2 * TOKENS_PER_NODE + 1,
                    size=(scenario.replicas, graphs[scenario.graph].num_nodes),
                    dtype=np.int64,
                ),
                scenario.stop.rounds,
            )
            for scenario in suite
        ]
        # One algorithm's share: the same graphs and loads, once each.
        self.one_algorithm = [
            task for task, scenario in zip(self.tasks, suite)
            if scenario.algorithm.name == ALGORITHMS[0]
        ]
        # The pool's tasks are shorter than the suite's shards, so the
        # two references around a cold run add seconds, not tens.
        self.pool_tasks = [
            (kernel, loads, size["pool_rounds"])
            for kernel, loads, _ in self.tasks
        ]
        self.files = JsonReplay(
            root, len(suite), size["replicas"], size["replay_width"], seed
        )

    def serial(self) -> float:
        start = perf_counter()
        for kernel, loads, rounds in self.one_algorithm:
            kernel.rounds(loads, rounds)
        return perf_counter() - start

    def pooled(self) -> float:
        return pooled_rounds(self.pool_tasks, WORKERS)

    def replay(self) -> float:
        return self.files.replay()


def _records_json(outcome) -> str:
    from repro.scenarios import canonical_json

    return canonical_json([record.to_dict() for record in outcome.records])


def _suite_run(suite, cache):
    """One pooled suite run: (wall_s, per-scenario record JSON, failures).

    A failed shard drops its scenario from the outcomes; its slot is
    then ``None`` so it can never match the reference.
    """
    from repro.exec import SuiteExecutionError

    start = perf_counter()
    try:
        outcomes = suite.run(workers=WORKERS, cache=cache)
        failures = 0
    except SuiteExecutionError as exc:
        traceback.print_exc()
        outcomes = exc.report.outcomes
        failures = len(exc.failures)
    wall = perf_counter() - start
    by_scenario = {id(o.scenario): _records_json(o) for o in outcomes}
    return wall, [by_scenario.get(id(s)) for s in suite], failures


class _Phases:
    """Serial baseline, cold runs and warm replays, with their checks."""

    def __init__(self, suite, out_dir, corrupt: bool,
                 kernels: _Reference | None = None) -> None:
        self.suite = suite
        self.out_dir = out_dir
        self.corrupt = corrupt
        # Beside each timed phase, the wall of its reference kernel.
        self.kernels = kernels
        self.serial_refs: list[float] = []
        self.cold_refs: list[float] = []
        self.replay_refs: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.serial_walls: list[dict] = []
        self.reference: list = []
        self.cold_walls: list[float] = []
        self.cache = None
        self.cold_records: list = []
        self.cold_puts = 0
        self.replays: list[float] = []
        self.replay_hits = 0

    def serial(self, graphs, algorithms=ALGORITHMS) -> None:
        """Scenario by scenario, in-process, no cache: exactly the
        serial path of ``ScenarioSuite.run``, timed per scenario.

        The first pass covers the whole suite and its records become the
        reference; later passes rerun only ``algorithms``.
        """
        first = not self.serial_walls
        before = self.kernels.serial() if self.kernels is not None else 0.0
        walls = dict.fromkeys(algorithms, 0.0)
        for index, scenario in enumerate(self.suite):
            if scenario.algorithm.name not in walls:
                continue
            self.attempted += 1
            start = perf_counter()
            try:
                result = scenario.run(graph=graphs[scenario.graph])
                records = _records_json(result)
            except Exception:
                traceback.print_exc()
                records = None
            walls[scenario.algorithm.name] += perf_counter() - start
            if first:
                self.reference.append(records)
            self.failed += records is None or records != self.reference[index]
        self.serial_walls.append(walls)
        if self.kernels is not None:
            self.serial_refs.append((before + self.kernels.serial()) / 2)

    def cold(self, index: int) -> None:
        """A pooled run into a fresh, empty cache."""
        from repro.exec import ResultCache

        root = self.out_dir / f"cache-{index}"
        shutil.rmtree(root, ignore_errors=True)
        if self.cache is not None:
            shutil.rmtree(self.cache.root, ignore_errors=True)
        self.cache = ResultCache(root)
        before = self.kernels.pooled() if self.kernels is not None else 0.0
        wall, records, failures = _suite_run(self.suite, self.cache)
        self.cold_walls.append(wall)
        if self.kernels is not None:
            self.cold_refs.append((before + self.kernels.pooled()) / 2)
        self.cold_puts += self.cache.stats.writes
        self.attempted += len(records)
        self.failed += max(failures, sum(
            got is None or got != want
            for got, want in zip(records, self.reference)
        ))
        self.cold_records = records

    def replay(self) -> None:
        hits = self.cache.stats.hits
        wall, records, failures = _suite_run(self.suite, self.cache)
        if self.corrupt and not self.replays:
            records = records[:-1] + [(records[-1] or "") + " "]
        self.replays.append(wall)
        if self.kernels is not None:
            self.replay_refs.append(self.kernels.replay())
        self.replay_hits += self.cache.stats.hits - hits
        self.attempted += 1
        self.failed += bool(
            failures
            or self.cache.stats.hits - hits != len(records)
            or records != self.cold_records
        )

    def replay_until(self, deadline: float, minimum: int) -> None:
        while len(self.replays) < minimum or perf_counter() < deadline:
            self.replay()

    def close(self) -> None:
        if self.cache is not None:
            shutil.rmtree(self.cache.root, ignore_errors=True)

    def costs(self, algorithms) -> dict:
        """Cost metrics: each phase over its reference."""
        op = latency_stats([
            wall / ref for wall, ref in zip(self.replays, self.replay_refs)
        ])
        costs = {
            "round_cost": statistics.median(
                sum(walls[alg] for alg in algorithms) / (len(algorithms) * ref)
                for walls, ref in zip(self.serial_walls, self.serial_refs)
            ),
            "scenario_cost": statistics.median(
                wall / ref for wall, ref in zip(self.cold_walls, self.cold_refs)
            ),
            "op_cost_p50": op["p50"],
            "op_cost_p90": op["tail"],
        }
        for alg in algorithms:
            costs[f"round_cost.{alg}"] = statistics.median(
                walls[alg] / ref
                for walls, ref in zip(self.serial_walls, self.serial_refs)
            )
        return costs


def run(seed: int, seconds: float, trace: bool, scale: str, corrupt: bool,
        out_dir) -> Outcome:
    from repro.exec import plan_shards

    size = SIZES[scale]
    outcome = Outcome()
    setups = []
    for _ in range(size["setups"]):
        start = perf_counter()
        suite = build_suite(size, seed)
        built = perf_counter()
        graphs = {}
        for scenario in suite:
            if scenario.graph not in graphs:
                graphs[scenario.graph] = scenario.graph.build()
        end = perf_counter()
        setups.append((end - built, end - start))
    n_rounds = sum(
        graphs[s.graph].num_nodes * s.replicas * s.stop.rounds for s in suite
    )

    kernels = _Reference(suite, graphs, size, seed, out_dir / "reference")
    start = perf_counter()
    timed = _Phases(suite, out_dir, corrupt, kernels)
    traced = _Phases(suite, out_dir, False)
    tracer = Tracer(out_dir) if trace else None
    rerun = ("send_floor", "rotor_router")
    try:
        timed.serial(graphs)
        if trace:
            timed.cold(0)
            spent = perf_counter() - start
            timed.replay_until(
                perf_counter() + max(seconds / 2 - spent, 0), 20
            )
            traced.reference = timed.reference
            try:
                with layers.tracing(tracer):
                    traced.cold(1)
                    traced.replay_until(start + seconds, len(timed.replays))
            finally:
                traced.close()
            tracer.collect_children()
        else:
            for index in range(size["cold_runs"]):
                timed.cold(index)
                timed.replay_until(perf_counter() + seconds / 10, 5)
                timed.serial(graphs, rerun)
            # One more pass, so round_cost is a median over four.
            timed.serial(graphs, rerun)
            timed.replay_until(start + seconds, 20)
            outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    finally:
        timed.close()
    outcome.attempted = timed.attempted + traced.attempted
    outcome.failed = timed.failed + traced.failed

    cold_wall = statistics.median(timed.cold_walls)
    op = latency_stats(timed.replays)
    outcome.metrics["setup_s"] = statistics.median(t for _, t in setups)
    outcome.metrics.update(timed.costs(rerun))
    serial_total = sum(timed.serial_walls[0].values())
    outcome.notes += [
        f"serial uncached baseline: {serial_total:.3f} s; cold "
        f"workers={WORKERS}: " + ", ".join(
            f"{w:.3f} s" for w in timed.cold_walls
        ) + f" ({n_rounds / cold_wall:.4g} node-rounds/s)",
        "reference beside them: serial " + ", ".join(
            f"{r:.3f} s" for r in timed.serial_refs
        ) + "; pooled " + ", ".join(
            f"{r:.3f} s" for r in timed.cold_refs
        ) + f"; replay p50 {1e3 * statistics.median(timed.replay_refs):.3f} ms",
        f"op = one warm replay of {len(suite)} scenarios: p50 "
        f"{1e3 * op['p50']:.3f} ms and p{op['tail_pct']:.1f} "
        f"{1e3 * op['tail']:.3f} ms over {op['samples']} replays",
    ]

    if tracer is not None:
        shards = len(plan_shards(suite))
        ops = size["rounds"]
        metrics = layers.round_layer_metrics(tracer, ops, 0.0)
        self_ns = tracer.self_ns()
        shard_s = tracer.durations_s("scenarios.run")
        replays = max(len(traced.replays), 1)
        get_ms = self_ns.get("exec.cache_get", 0) / 1e6 / replays
        metrics.update({
            "graphs.build_s": statistics.median(b for b, _ in setups),
            "graphs.bytes": layers.array_bytes(*graphs.values()),
            "algorithms.bind_s": (
                self_ns.get("algorithms.bind", 0) / 1e9 / max(len(shard_s), 1)
            ),
            "exec.shards": shards,
            "exec.computed": traced.cold_puts,
            "exec.cached": traced.replay_hits / replays,
            "exec.failed": traced.failed,
            "exec.retried": max(len(shard_s) - shards, 0),
            "exec.shard_s_p50": statistics.median(shard_s) if shard_s else 0.0,
            "exec.shard_s_max": max(shard_s, default=0.0),
            "exec.parallel_efficiency": (
                serial_total / (WORKERS * timed.cold_walls[0])
            ),
            "exec.cache_get_ms": get_ms,
            "exec.cache_put_ms": self_ns.get("exec.cache_put", 0) / 1e6,
            "exec.cache_bytes": tracer.counts.get("exec.cache_bytes", 0),
            "exec.replay_self_ms": (
                1e3 * statistics.fmean(traced.replays) - get_ms
            ),
            "trace.overhead": traced.cold_walls[0] / timed.cold_walls[0],
            # Shard time outside the round spans: scenario set-up,
            # bind, BatchRunner.run's own loop and record assembly,
            # per suite round.
            "trace.unattributed_ms": (
                1e3 * sum(shard_s) / ops - layers.round_span_ms(tracer, ops)
            ),
        })
        outcome.metrics.update(metrics)
        outcome.tracer = tracer
    return outcome
