"""Which public calls the traced run wraps, and the per-layer metrics.

Each wrapped call is a boundary into one package of ``src/repro``:
``repro.graphs`` (topology mutation), ``repro.algorithms`` (compact
rounds, bind, refresh), ``repro.core`` (step, validation, remainder,
probes), ``repro.engines`` (apply or incoming, and refresh, of every
registered backend), ``repro.traffic``,
``repro.faults``, ``repro.topology``, ``repro.scenarios`` and
``repro.exec``.  Nothing under ``src/`` is edited: the wrappers are
installed here and removed by :meth:`spans.Tracer.restore`.

Module-level functions that the engines import by name
(``apply_round_faults``, ``apply_topology_events``) are wrapped in the
namespaces that call them.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from spans import Tracer


def _count_tokens(counts, args, delta) -> None:
    counts["traffic.tokens"] += int(np.asarray(delta).sum())


def _count_ports_down(counts, args, faults) -> None:
    if faults is not None:
        counts["faults.ports_down"] += int(faults.dead.shape[0])


def _count_edges(counts, args, result) -> None:
    events = args[1]
    counts["graphs.edges_mutated"] += int(
        events.edge_drops.shape[0]
        + events.edge_adds.shape[0]
        + events.leaves.shape[0]
        + len(events.joins)
    )


def _count_dirty(counts, args, result) -> None:
    dirty = args[2] if len(args) > 2 else None
    if dirty is not None:
        counts["topology.dirty_rows"] += int(len(dirty))


def _count_apply_bytes(counts, args, new_loads) -> None:
    """Bytes of the distinct arrays one engine apply reads and writes.

    Computed from array shapes, not measured: temporaries and cache
    misses are not counted, so this is a lower bound on traffic.
    """
    _, graph, compact, loads = args[:4]
    arrays = [loads, compact.edge_share, graph.adjacency, new_loads]
    for extra in (compact.loop_base, compact.loop_ceil):
        if extra is not None:
            arrays.append(extra)
    if compact.window is not None:
        window = compact.window
        arrays += [
            window.rotors, window.extra, window.positions,
            window.reverse_flat,
        ]
    counts["engines.bytes"] += sum(np.asarray(a).nbytes for a in arrays)


def _count_incoming_bytes(counts, args, incoming) -> None:
    """Dense-protocol counterpart of :func:`_count_apply_bytes`."""
    _, graph, sends = args[:3]
    arrays = [sends, graph.adjacency, graph.reverse_port, incoming]
    counts["engines.bytes"] += sum(np.asarray(a).nbytes for a in arrays)


def _count_cache_bytes(counts, args, path) -> None:
    if path is not None:
        counts["exec.cache_bytes"] += os.path.getsize(path)


def install(tracer) -> None:
    """Wrap every traced boundary; undo with ``tracer.restore()``."""
    import repro.core.engine as engine_module
    import repro.scenarios.batch as batch_module
    from repro.algorithms.rotor_router import RotorRouter
    from repro.algorithms.send_floor import SendFloor
    from repro.core.balancer import Balancer
    from repro.core.engine import Simulator
    from repro.core.monitors import TierLoadProbe
    from repro.core.structured import StructuredRound
    from repro.engines import ENGINES
    from repro.engines.base import EngineBackend
    from repro.exec.cache import ResultCache
    from repro.faults.schedules import LinkFailures
    from repro.scenarios import BatchRunner, Scenario
    from repro.topology.schedules import EdgeChurn
    from repro.traffic.generators import PoissonArrivals

    wrap = tracer.wrap
    wrap(Simulator, "step", "core.step")
    # The fixed-round loop (BatchRunner's vectorized path runs its rounds
    # here without step) and the result assembly after it.
    wrap(BatchRunner, "run", "scenarios.batch_run")
    wrap(BatchRunner, "step", "scenarios.batch")
    wrap(Scenario, "run", "scenarios.run")
    wrap(Balancer, "bind", "algorithms.bind")
    wrap(SendFloor, "sends_structured", "algorithms.compact.send_floor")
    wrap(SendFloor, "sends_batch", "algorithms.compact.send_floor")
    wrap(RotorRouter, "sends_structured", "algorithms.compact.rotor_router")
    wrap(Balancer, "refresh_topology", "algorithms.refresh", _count_dirty)
    wrap(RotorRouter, "refresh_topology", "algorithms.refresh", _count_dirty)
    wrap(StructuredRound, "validate", "core.validate")
    wrap(StructuredRound, "remainder", "core.remainder")
    wrap(TierLoadProbe, "observe_loads", "core.probe")
    # Every registered backend, so a change of the engine that
    # ``engine="auto"`` picks still lands in the same spans.
    wrap(EngineBackend, "refresh_topology", "engines.refresh")
    for engine in map(ENGINES.__getitem__, ENGINES.names()):
        own = vars(engine)
        if "apply" in own:
            wrap(engine, "apply", "engines.apply", _count_apply_bytes)
        if "incoming" in own:
            wrap(engine, "incoming", "engines.apply", _count_incoming_bytes)
        if "refresh_topology" in own:
            wrap(engine, "refresh_topology", "engines.refresh")
    wrap(PoissonArrivals, "delta", "traffic.delta", _count_tokens)
    wrap(LinkFailures, "round_state", "faults.round_state", _count_ports_down)
    wrap(EdgeChurn, "round_events", "topology.events")
    for module in (engine_module, batch_module):
        wrap(module, "apply_round_faults", "faults.correct")
        wrap(module, "apply_topology_events", "graphs.mutate", _count_edges)
    wrap(ResultCache, "get", "exec.cache_get")
    wrap(ResultCache, "put", "exec.cache_put", _count_cache_bytes)


@contextmanager
def tracing(tracer: Tracer):
    """Every boundary wrapped into ``tracer`` for the duration of the
    ``with`` block.  Blocks may repeat: spans accumulate in ``tracer``."""
    install(tracer)
    try:
        yield tracer
    finally:
        tracer.restore()


#: Per-op self time (ms) of each traced span name.
_SELF_MS = {
    "graphs.mutate_ms": "graphs.mutate",
    "algorithms.compact_ms.send_floor": "algorithms.compact.send_floor",
    "algorithms.compact_ms.rotor_router":
        "algorithms.compact.rotor_router",
    "algorithms.refresh_ms": "algorithms.refresh",
    "core.validate_ms": "core.validate",
    "core.remainder_ms": "core.remainder",
    "core.step_self_ms": "core.step",
    "core.probe_ms": "core.probe",
    "engines.apply_ms": "engines.apply",
    "engines.refresh_ms": "engines.refresh",
    "traffic.delta_ms": "traffic.delta",
    "faults.round_state_ms": "faults.round_state",
    "faults.correct_ms": "faults.correct",
    "topology.events_ms": "topology.events",
}

#: Per-op counts recorded by the wrappers.
_COUNTS = {
    "graphs.edges_mutated": "graphs.edges_mutated",
    "traffic.tokens_per_round": "traffic.tokens",
    "faults.ports_down": "faults.ports_down",
    "topology.dirty_rows": "topology.dirty_rows",
    "engines.bytes_per_round": "engines.bytes",
}

#: Span names whose self time belongs to the simulation round; together
#: they account for the op wall time on the round-based workloads.
#: ``scenarios.batch_run`` is not one: outside ``step`` it is the
#: vectorized loop and the result assembly.
ROUND_SPANS = tuple(_SELF_MS.values()) + ("scenarios.batch",)


def round_layer_metrics(tracer, ops: int, stream_gbps: float) -> dict:
    """Round-level layer metrics, normalised per workload op.

    Spans that never fired give 0: the workload bypasses that layer
    (``run.py`` fails a traced run when one of the workload's
    ``LAYER_SPANS`` never fired).
    """
    self_ns = tracer.self_ns()
    calls = tracer.calls()
    ops = max(ops, 1)
    metrics = {
        name: self_ns.get(span, 0) / 1e6 / ops
        for name, span in _SELF_MS.items()
    }
    metrics.update(
        (name, tracer.counts.get(key, 0) / ops)
        for name, key in _COUNTS.items()
    )
    metrics["algorithms.calls"] = (
        calls.get("algorithms.compact.send_floor", 0)
        + calls.get("algorithms.compact.rotor_router", 0)
    ) / ops
    # BatchRunner.run minus its wrapped children, its steps included.
    metrics["scenarios.batch_self_s"] = (
        self_ns.get("scenarios.batch", 0)
        + self_ns.get("scenarios.batch_run", 0)
    ) / 1e9 / ops
    apply_ns = self_ns.get("engines.apply", 0)
    achieved = tracer.counts.get("engines.bytes", 0) / apply_ns if apply_ns else 0.0
    metrics["engines.achieved_gbps"] = achieved
    metrics["engines.roofline_frac"] = (
        achieved / stream_gbps if stream_gbps else 0.0
    )
    metrics["machine.stream_gbps"] = stream_gbps
    metrics["trace.spans"] = len(tracer.spans)
    return metrics


def round_span_ms(tracer, ops: int) -> float:
    """Summed per-op self time of the round spans (the attributed part)."""
    self_ns = tracer.self_ns()
    return sum(self_ns.get(name, 0) for name in ROUND_SPANS) / 1e6 / max(ops, 1)


def array_bytes(*objects) -> int:
    """Bytes held by the numpy arrays among the objects' attributes."""
    return sum(
        value.nbytes
        for obj in objects
        for value in vars(obj).values()
        if isinstance(value, np.ndarray)
    )
