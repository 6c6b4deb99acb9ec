"""cycle_single: one Simulator per algorithm on cycle(2^20).

The headline round of the ROADMAP: ``send_floor`` then ``rotor_router``
on a 2^20-node cycle (d+ = 4) with ``engine="auto"`` and the default
history recording.  The run is memory-bound, with about 100 MiB of
state against the 105 MiB LLC of the reference box, and it never
touches the batch runner, the executor, faults or topology.

Work is cut into blocks.  A block builds a fresh Simulator per
algorithm from the same seeded loads and runs a fixed number of rounds,
so every block of one algorithm must end in the same final loads; that
digest is compared with one untimed run of the ``dense`` engine.  One
op is one round of each algorithm (round ``i`` of the send_floor block
plus round ``i`` of the rotor_router block).

After each timed block, the reference kernel (``reference.DenseRound``,
plain numpy on a copy of the cycle's ports, same loads) runs as many
rounds as one algorithm's block; every cost metric divides the block's
round time by the mean reference round of the runs on either side.
"""

from __future__ import annotations

import gc
import statistics
import traceback
from time import perf_counter

import numpy as np

import layers
from common import Outcome, digest, latency_stats, peak_rss_mb
from machine import MIB, llc_bytes, stream_triad_gbps
from reference import DenseRound, bracketing
from spans import Tracer

ALGORITHMS = ("send_floor", "rotor_router")
TOKENS_PER_NODE = 32
SIZES = {
    "full": {"n": 1 << 20, "block_rounds": 8, "setups": 3},
    "tiny": {"n": 1 << 12, "block_rounds": 4, "setups": 2},
}


def initial_loads(n: int, seed: int) -> np.ndarray:
    """Uniform 0..64 tokens per node: 32 tokens/node on average."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2 * TOKENS_PER_NODE + 1, size=n, dtype=np.int64)


def _setup(n: int, loads: np.ndarray):
    from repro.algorithms.registry import make
    from repro.core.engine import Simulator
    from repro.graphs import families

    start = perf_counter()
    graph = families.build("cycle", n=n)
    built = perf_counter()
    simulators = [Simulator(graph, make(alg), loads) for alg in ALGORITHMS]
    return graph, simulators, built - start, perf_counter() - start


def _block(graph, alg, loads, total, rounds, corrupt):
    """One fixed-round simulation: (ctor_s, step times, failed, digest)."""
    from repro.algorithms.registry import make
    from repro.core.engine import Simulator

    start = perf_counter()
    simulator = Simulator(graph, make(alg), loads)
    ctor = perf_counter() - start
    times = []
    failed = 0
    for _ in range(rounds):
        start = perf_counter()
        try:
            new = simulator.step()
        except Exception:
            traceback.print_exc()
            return ctor, times, failed + rounds - len(times), None
        times.append(perf_counter() - start)
        if int(new.sum()) != total or int(new.min()) < 0:
            failed += 1
    final = simulator.loads
    if corrupt:
        final = final.copy()
        final[0] += 1
    return ctor, times, failed, digest(final)


#: Spans a traced run must record; a missing one fails the run.
LAYER_SPANS = (
    "core.step", "core.validate", "core.remainder", "engines.apply",
    "algorithms.bind", "algorithms.compact.send_floor",
    "algorithms.compact.rotor_router",
)


class _Pass:
    """Blocks of one kind (traced or not); keeps every sample and digest."""

    def __init__(self) -> None:
        self.times = {alg: [] for alg in ALGORITHMS}
        self.simulations = 0
        self.ops: list[float] = []
        self.failed = 0
        self.attempted = 0
        self.digests = {alg: [] for alg in ALGORITHMS}
        # Per timed block: {alg: (ctor_s, round times)}; and the mean
        # reference round of the run right after it.
        self.blocks: list[dict] = []
        self.reference: list[float] = []

    def block(self, graph, loads, rounds, corrupt) -> bool:
        """One block of each algorithm; False once a round has raised."""
        total = int(loads.sum())
        block = {}
        for alg in ALGORITHMS:
            ctor, times, failed, final = _block(
                graph, alg, loads, total, rounds,
                corrupt and not self.simulations,
            )
            self.times[alg] += times
            self.failed += failed
            self.attempted += rounds
            self.simulations += 1
            self.digests[alg].append(final)
            block[alg] = (ctor, times)
        self.blocks.append(block)
        self.ops += [
            sum(pair) for pair in zip(*(t for _, t in block.values()))
        ]
        return all(len(times) == rounds for _, times in block.values())

    def costs(self) -> dict:
        """Cost metrics: block time over the reference runs around it."""
        rounds, ops, sims = [], [], []
        per_alg = {alg: [] for alg in ALGORITHMS}
        for block, ref in zip(self.blocks, bracketing(self.reference)):
            times = [t for _, ts in block.values() for t in ts]
            if any(not ts for _, ts in block.values()):
                continue  # a round raised; its failures are counted
            rounds.append(statistics.fmean(times) / ref)
            for alg, (ctor, ts) in block.items():
                per_alg[alg].append(statistics.fmean(ts) / ref)
                sims.append((ctor + sum(ts)) / (len(ts) * ref))
            ops += [
                sum(pair) / (len(ALGORITHMS) * ref)
                for pair in zip(*(ts for _, ts in block.values()))
            ]
        op = latency_stats(ops)
        costs = {
            "round_cost": statistics.median(rounds),
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
    from repro.algorithms.registry import make
    from repro.core.engine import Simulator

    size = SIZES[scale]
    n, rounds = size["n"], size["block_rounds"]
    outcome = Outcome()
    stream_gbps = 0.0
    if trace:
        llc = llc_bytes()
        array_bytes = 4 * llc if scale == "full" and llc else 8 * MIB
        stream_gbps = stream_triad_gbps(array_bytes)
        outcome.notes.append(
            f"stream triad: 3 arrays x {array_bytes / MIB:.1f} MiB "
            f"(LLC {llc / MIB:.1f} MiB) -> {stream_gbps:.2f} GB/s"
        )
    loads = initial_loads(n, seed)

    setups = []
    for _ in range(size["setups"]):
        graph = None  # free the previous set-up before building the next
        graph, simulators, build_s, setup_s = _setup(n, loads)
        setups.append((build_s, setup_s))
        working_set = {
            alg: layers.array_bytes(graph, sim.balancer) + 2 * loads.nbytes
            for alg, sim in zip(ALGORITHMS, simulators)
        }
        del simulators
    graph_bytes = layers.array_bytes(graph)
    outcome.notes.append(
        "cycle_single working set (computed): " + ", ".join(
            f"{alg} {b / MIB:.1f} MiB" for alg, b in working_set.items()
        )
    )

    timed = _Pass()
    traced = _Pass()
    tracer = Tracer(out_dir) if trace else None
    deadline = perf_counter() + seconds
    # Traced runs alternate untraced and traced blocks and stop after a
    # traced one, so the overhead ratio compares paired blocks.
    while True:
        if trace and len(timed.ops) > len(traced.ops):
            with layers.tracing(tracer):
                ok = traced.block(graph, loads, rounds, False)
        else:
            ok = timed.block(graph, loads, rounds, corrupt)
            # Built per block and dropped after it, so its 32 MiB port
            # copy is not resident while the program runs (peak_rss_mb).
            kernel = DenseRound(graph.adjacency, graph.reverse_port)
            timed.reference.append(
                statistics.fmean(kernel.rounds(loads, rounds))
            )
            del kernel
        # Collect the block's cyclic garbage outside the timed rounds, so
        # the peak RSS is one block's working set, not the collector's
        # timing.
        gc.collect()
        paired = not trace or len(traced.ops) == len(timed.ops)
        if not ok or (paired and perf_counter() >= deadline):
            break
    if not trace:
        outcome.metrics["peak_rss_mb"] = peak_rss_mb()

    # Untimed independent path: the dense engine on the same inputs.
    for alg in ALGORITHMS:
        reference = Simulator(graph, make(alg), loads, engine="dense")
        expected = digest(reference.run(rounds).final_loads)
        for run_pass in (timed, traced):
            bad = sum(
                d is not None and d != expected
                for d in run_pass.digests[alg]
            )
            run_pass.failed += bad * rounds
    outcome.attempted = timed.attempted + traced.attempted
    outcome.failed = timed.failed + traced.failed

    op = latency_stats(timed.ops)
    outcome.metrics["setup_s"] = statistics.median(t for _, t in setups)
    outcome.metrics.update(timed.costs())
    for alg in ALGORITHMS:
        times = timed.times[alg]
        stats = latency_stats(times)
        outcome.notes.append(
            f"round_ms {alg}: p50 {1e3 * stats['p50']:.3f}, "
            f"p{stats['tail_pct']:.1f} {1e3 * stats['tail']:.3f} "
            f"({stats['samples']} rounds, "
            f"{n * len(times) / sum(times):.4g} node-rounds/s)"
        )
    outcome.notes.append(
        f"op = one round of each algorithm: p50 {1e3 * op['p50']:.3f} ms "
        f"and p{op['tail_pct']:.1f} {1e3 * op['tail']:.3f} ms over "
        f"{op['samples']} ops; reference round median of block means "
        f"{1e3 * statistics.median(timed.reference):.3f} ms "
        f"over {len(timed.reference)} blocks"
    )

    if tracer is not None:
        ops = len(traced.ops)
        metrics = layers.round_layer_metrics(tracer, ops, stream_gbps)
        traced_ms = traced.mean_op_ms()
        metrics.update({
            "graphs.build_s": statistics.median(b for b, _ in setups),
            "graphs.bytes": graph_bytes,
            "algorithms.bind_s": (
                tracer.self_ns().get("algorithms.bind", 0) / 1e9
                / max(traced.simulations // len(ALGORITHMS), 1)
            ),
            "trace.overhead": traced_ms / timed.mean_op_ms(),
            "trace.unattributed_ms": (
                traced_ms - layers.round_span_ms(tracer, ops)
            ),
        })
        outcome.metrics.update(metrics)
        outcome.tracer = tracer
    return outcome
