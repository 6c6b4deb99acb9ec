"""fabric_replicas: replica stacks on fat_tree(k=24) under faults and churn.

Four scenarios run in one process: {send_floor, rotor_router} x
{link_failures rate 0.01, edge_churn rate 0.005}, each with 8 replicas
on the batched executor, Poisson arrivals on the hosts (``host_rates``)
and the ``tier_loads`` probe.  Calls are many and small on an irregular
padded graph (n = 4176, d+ = 48), so per-call overhead dominates, and
churn writes the graph.  This is the only workload that reaches
``repro.scenarios.batch``, ``repro.traffic``, ``repro.faults`` and
``repro.topology``.

A block builds the graph and runs each scenario a fixed number of
rounds through the program's own path, ``Scenario.run(executor="batch",
graph=graph)``.  A :class:`_Checker` times every ``BatchRunner.step``
and checks the loads after it; each scenario's final loads must equal
one untimed ``executor="loop"`` run of that scenario.  One op is one
round of all four scenarios (round ``i`` of each).

After each timed block, the reference kernel (``reference.DenseRound``,
plain numpy on a copy of the fat tree's padded ports) runs 8 seeded
replicas, one after another, for as many rounds as the block's four
scenarios together; every cost metric divides the block's time by the
mean reference round (all replicas) of the runs on either side.
"""

from __future__ import annotations

import gc
import statistics
import traceback
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import layers
from common import Outcome, digest, latency_stats, peak_rss_mb
from reference import DenseRound, bracketing
from spans import Tracer

ALGORITHMS = ("send_floor", "rotor_router")
TOKENS_PER_NODE = 32
HOST_RATE = 0.5
SIZES = {
    "full": {"k": 24, "replicas": 8, "block_rounds": 25},
    "tiny": {"k": 4, "replicas": 2, "block_rounds": 5},
}

#: Spans a traced run must record; a missing one fails the run.
LAYER_SPANS = (
    "scenarios.run", "scenarios.batch", "algorithms.bind",
    "algorithms.compact.send_floor", "algorithms.compact.rotor_router",
    "algorithms.refresh", "core.validate", "core.remainder", "core.probe",
    "engines.apply", "engines.refresh", "traffic.delta",
    "faults.round_state", "faults.correct", "topology.events",
    "graphs.mutate",
)


def scenarios(graph, k: int, replicas: int, rounds: int, seed: int):
    """The four fabric scenarios; every seed is derived from ``seed``."""
    from repro.scenarios import (
        AlgorithmSpec, DynamicsSpec, FaultSpec, GraphSpec, LoadSpec,
        ProbeSpec, Scenario, StopRule, TopologySpec,
    )
    from repro.traffic import host_rates

    traffic = DynamicsSpec(
        "poisson_arrivals",
        {"rate": host_rates(graph, HOST_RATE), "seed": seed + 1},
    )
    axes = (
        {"faults": FaultSpec("link_failures",
                             {"rate": 0.01, "seed": seed + 2})},
        {"topology": TopologySpec("edge_churn",
                                  {"rate": 0.005, "seed": seed + 3})},
    )
    return [
        Scenario(
            graph=GraphSpec("fat_tree", {"k": k}),
            algorithm=AlgorithmSpec(alg, seed=seed),
            loads=LoadSpec(
                "uniform_random",
                {"total_tokens": TOKENS_PER_NODE * graph.num_nodes,
                 "seed": seed},
            ),
            stop=StopRule.fixed(rounds),
            replicas=replicas,
            probes=(ProbeSpec("tier_loads", {"percentile": 99.0}),),
            dynamics=traffic,
            **axis,
        )
        for alg in ALGORITHMS
        for axis in axes
    ]


class _Checker:
    """Times and checks the rounds of one ``Scenario.run``.

    A :class:`spans.Tracer` of its own wraps ``Scenario.run``,
    ``DynamicsSpec.build`` (to record each replica's arrivals) and
    ``BatchRunner.step``.  After every step, outside its span, each
    replica's token total must equal its initial total plus its
    arrivals so far (link failures bounce tokens back, churn hands them
    over; neither loses any) and no load may be negative.
    """

    def __init__(self, out_dir, replicas: int, initial_total: int) -> None:
        self.clock = Tracer(out_dir)
        self.arrived = np.zeros(replicas, dtype=np.int64)
        self.totals = np.full(replicas, initial_total, dtype=np.int64)
        self.runner = None
        self.failed = 0

    @contextmanager
    def installed(self):
        from repro.scenarios import BatchRunner, DynamicsSpec, Scenario

        self.clock.wrap(Scenario, "run", "scenario")
        self.clock.wrap(DynamicsSpec, "build", "build", self._record)
        self.clock.wrap(BatchRunner, "step", "step", self._check)
        try:
            yield self
        finally:
            self.clock.restore()

    def _record(self, counts, args, injector) -> None:
        replica = args[1]
        delta = injector.delta

        def recorded(t, loads):
            out = delta(t, loads)
            self.arrived[replica] += int(np.asarray(out).sum())
            return out

        injector.delta = recorded

    def _check(self, counts, args, result) -> None:
        runner = args[0]
        if self.runner is None:
            self.runner = runner
        self.totals += self.arrived
        self.arrived[:] = 0
        loads = runner.loads
        self.failed += not (
            runner is self.runner
            and np.array_equal(loads.sum(axis=1), self.totals)
            and loads.min() >= 0
        )

    def timings(self) -> tuple[float, list, float]:
        """(construction s, step seconds, Scenario.run wall s).

        Construction is the part of ``Scenario.run`` before its first
        step: balancers, loads, injectors, schedules and the runner.
        """
        spans = self.clock.spans
        _, run_start, run_end, _, _ = spans[0]
        steps = [(start, end) for name, start, end, _, _ in spans
                 if name == "step"]
        first = steps[0][0] if steps else run_end
        return (
            (first - run_start) / 1e9,
            [(end - start) / 1e9 for start, end in steps],
            (run_end - run_start) / 1e9,
        )


class _Pass:
    """Blocks of one kind (traced or not); keeps every sample and digest."""

    def __init__(self, count: int) -> None:
        self.times = [[] for _ in range(count)]
        self.setups: list[tuple[float, float]] = []
        self.scenario_s = 0.0
        self.blocks = 0
        self.ops: list[float] = []
        self.failed = 0
        self.attempted = 0
        self.digests = [[] for _ in range(count)]
        self.balancers = 0
        self.refresh_rows = 0
        self.refresh_full = 0
        # Per timed block: (step times, Scenario.run wall) per scenario;
        # and the mean reference round of the run right after it.
        self.per_block: list[list] = []
        self.reference: list[float] = []

    def block(self, k, specs, rounds, out_dir, corrupt) -> bool:
        """Build the graph, run every scenario; False once one raised."""
        from repro.graphs import families

        start = perf_counter()
        graph = families.build("fat_tree", k=k)
        build_s = perf_counter() - start
        construct_s = 0.0
        op_times = np.zeros(rounds)
        ok = True
        per_scenario = []
        for i, spec in enumerate(specs):
            checker = _Checker(
                out_dir, spec.replicas, TOKENS_PER_NODE * graph.num_nodes
            )
            final = None
            try:
                with checker.installed():
                    result = spec.run(executor="batch", graph=graph)
                final = np.stack([r.final_loads for r in result.results])
            except Exception:
                traceback.print_exc()
                ok = False
            construct, times, wall = checker.timings()
            construct_s += construct
            self.scenario_s += wall
            self.times[i] += times
            per_scenario.append((times, wall))
            done = min(len(times), rounds)
            op_times[:done] += times[:done]
            self.attempted += rounds
            self.failed += checker.failed + abs(rounds - len(times))
            if final is not None and corrupt and not self.blocks and i == 0:
                final = final.copy()
                final[0, 0] += 1
            self.digests[i].append(None if final is None else digest(final))
            if checker.runner is not None:
                self.balancers += len(checker.runner.balancers)
                for balancer in checker.runner.balancers:
                    self.refresh_rows += getattr(balancer, "refresh_rows", 0)
                    self.refresh_full += getattr(balancer, "refresh_full", 0)
        self.setups.append((build_s, build_s + construct_s))
        self.ops += op_times.tolist()
        self.per_block.append(per_scenario)
        self.blocks += 1
        return ok

    def costs(self, specs, rounds: int) -> dict:
        """Cost metrics: block time over the reference runs around it."""
        steps, sims, ops = [], [], []
        per_alg = {alg: [] for alg in ALGORITHMS}
        for block, ref in zip(self.per_block, bracketing(self.reference)):
            if any(len(times) != rounds for times, _ in block):
                continue  # a scenario raised; its failures are counted
            steps.append(
                statistics.fmean(t for times, _ in block for t in times) / ref
            )
            sims.append(
                statistics.fmean(wall for _, wall in block) / (rounds * ref)
            )
            for alg in ALGORITHMS:
                per_alg[alg].append(statistics.fmean(
                    t for spec, (times, _) in zip(specs, block)
                    if spec.algorithm.name == alg for t in times
                ) / ref)
            ops += [
                sum(op) / (len(block) * ref)
                for op in zip(*(times for times, _ in block))
            ]
        op = latency_stats(ops)
        costs = {
            "round_cost": statistics.median(steps),
            "scenario_cost": statistics.median(sims),
            "op_cost_p50": op["p50"],
            "op_cost_p90": op["tail"],
        }
        for alg, values in per_alg.items():
            costs[f"round_cost.{alg}"] = statistics.median(values)
        return costs

    def mean_op_ms(self) -> float:
        return 1e3 * sum(self.ops) / max(len(self.ops), 1)


def run(seed: int, seconds: float, trace: bool, scale: str, corrupt: bool,
        out_dir) -> Outcome:
    from repro.graphs import families

    size = SIZES[scale]
    k, rounds, replicas = size["k"], size["block_rounds"], size["replicas"]
    outcome = Outcome()
    graph = families.build("fat_tree", k=k)
    n = graph.num_nodes
    specs = scenarios(graph, k, replicas, rounds, seed)
    kernel = DenseRound(graph.adjacency, graph.reverse_port)
    kernel_loads = np.random.default_rng(seed).integers(
        0, 2 * TOKENS_PER_NODE + 1, size=(replicas, n), dtype=np.int64
    )

    timed = _Pass(len(specs))
    traced = _Pass(len(specs))
    tracer = Tracer(out_dir) if trace else None
    deadline = perf_counter() + seconds
    # Traced runs alternate untraced and traced blocks and stop after a
    # traced one, so the overhead ratio compares paired blocks.
    while True:
        if trace and timed.blocks > traced.blocks:
            with layers.tracing(tracer):
                ok = traced.block(k, specs, rounds, out_dir, False)
        else:
            ok = timed.block(k, specs, rounds, out_dir, corrupt)
            timed.reference.append(statistics.fmean(
                kernel.rounds(kernel_loads, len(specs) * rounds)
            ))
        # Collect the block's cyclic garbage outside the timed rounds, so
        # the peak RSS is one block's working set, not the collector's
        # timing.
        gc.collect()
        paired = not trace or traced.blocks == timed.blocks
        if not ok or (paired and perf_counter() >= deadline):
            break
    if not trace:
        outcome.metrics["peak_rss_mb"] = peak_rss_mb()

    # Untimed independent path: the looped executor, one Simulator per
    # replica, on the same specs.
    for i, spec in enumerate(specs):
        result = spec.run(executor="loop", graph=graph)
        expected = digest(np.stack([r.final_loads for r in result.results]))
        for run_pass in (timed, traced):
            bad = sum(
                d is not None and d != expected
                for d in run_pass.digests[i]
            )
            run_pass.failed += bad * rounds
    outcome.attempted = timed.attempted + traced.attempted
    outcome.failed = timed.failed + traced.failed

    op = latency_stats(timed.ops)
    outcome.metrics["setup_s"] = statistics.median(
        total for _, total in timed.setups
    )
    outcome.metrics.update(timed.costs(specs, rounds))
    all_times = [t for times in timed.times for t in times]
    outcome.notes.append(
        f"untraced: {n * replicas * len(all_times) / sum(all_times):.4g} "
        f"node-rounds/s, "
        f"{len(specs) * timed.blocks / timed.scenario_s:.4g} scenarios/s; "
        f"reference round ({replicas} replicas) median of block means "
        f"{1e3 * statistics.median(timed.reference):.3f} ms over "
        f"{len(timed.reference)} blocks"
    )
    for spec, times in zip(specs, timed.times):
        stats = latency_stats(times)
        outcome.notes.append(
            f"round_ms {spec.label()}: p50 {1e3 * stats['p50']:.3f}, "
            f"p{stats['tail_pct']:.1f} {1e3 * stats['tail']:.3f} "
            f"({stats['samples']} rounds x {replicas} replicas)"
        )
    outcome.notes.append(
        f"op = one round of all four scenarios: p50 "
        f"{1e3 * op['p50']:.3f} ms and p{op['tail_pct']:.1f} "
        f"{1e3 * op['tail']:.3f} ms over {op['samples']} ops; set-up is "
        f"the median of {len(timed.setups)} blocks"
    )

    if tracer is not None:
        ops = len(traced.ops)
        metrics = layers.round_layer_metrics(tracer, ops, 0.0)
        traced_ms = traced.mean_op_ms()
        metrics.update({
            "graphs.build_s": statistics.median(
                build for run_pass in (timed, traced)
                for build, _ in run_pass.setups
            ),
            "graphs.bytes": layers.array_bytes(graph),
            "algorithms.bind_s": (
                tracer.self_ns().get("algorithms.bind", 0) / 1e9
                / max(traced.blocks, 1)
            ),
            "algorithms.refresh_rows": traced.refresh_rows / max(ops, 1),
            "algorithms.refresh_full": traced.refresh_full / max(ops, 1),
            "scenarios.balancer_instances": (
                traced.balancers / max(traced.blocks, 1)
            ),
            "trace.overhead": traced_ms / timed.mean_op_ms(),
            "trace.unattributed_ms": (
                traced_ms - layers.round_span_ms(tracer, ops)
            ),
        })
        outcome.metrics.update(metrics)
        outcome.tracer = tracer
    return outcome
