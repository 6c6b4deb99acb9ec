"""Synchronous simulation engine.

A round of the discrete diffusion process (Section 1.3 of the paper):

1. every node ``u`` looks at its load ``x_t(u)`` and assigns tokens to
   its ``d+`` ports (the balancer's :meth:`sends`);
2. tokens move simultaneously; self-loop tokens and the unassigned
   remainder stay at the node;
3. the new load is ``x_{t+1}(u) = r_t(u) + f^in_t(u)``.

The engine executes this with vectorized gathers (using the graph's
reverse-port map), enforces structural invariants every round (shape,
nonnegative sends, no overdraw unless the balancer opted in, token
conservation), and feeds attached probes.

Execution backends are registry plugins (:mod:`repro.engines`); the
simulator orchestrates the round and delegates the array computation
to the selected backend.  The **dense** protocol asks the balancer for
the full ``(n, d+)`` sends matrix every round (backends: ``dense``,
``spmm``).  The **structured** protocol asks for a compact
:class:`~repro.core.structured.StructuredRound` (uniform edge share +
loop/rotor-window assignment) and executes the round matrix-free in
O(n·d) (backends: ``structured``, ``partitioned``) — at large ``n`` the
dense matrix is the entire memory and time budget, so this is the fast
path for SEND/rotor-style schemes.

Observers are capability-typed :class:`~repro.core.probes.Probe`\\ s:
the engine feeds each probe the cheapest representation it accepts, so
``engine="auto"`` stays on the structured path with loads-only probes
attached (and with sends probes that accept compact rounds) and only
falls back to dense for probes that demand real sends matrices.  The
legacy ``monitors=`` parameter remains and conservatively pins the
dense engine, exactly as monitors always did — prefer ``probes=``.
Both engines produce bit-identical trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro.core.balancer import Balancer
from repro.core.errors import (
    ConservationError,
    InvalidSendMatrix,
    NegativeLoadError,
)
from repro.core.loads import validate_delta, validate_loads
from repro.engines import (
    ENGINES,
    STRUCTURED,
    create_engine,
    engine_names,
    split_engine_spec,
)
from repro.core.metrics import discrepancy
from repro.faults.schedules import (
    apply_round_faults,
    dense_port_values,
    structured_port_values,
    validate_round_faults,
)
from repro.core.probes import LOADS, Probe, build_probes, dense_required
from repro.core.trace import RunRecord, build_record
from repro.topology.schedules import (
    apply_topology_events,
    validate_topology_events,
)


class _AttachGuard(tuple):
    """Read-only view of a simulator's probes.

    Mutating the old ``Simulator.monitors`` list after construction
    silently skipped ``start()`` and changed engine selection; the
    supported path is :meth:`Simulator.attach`, and every mutation
    attempt says so loudly instead of half-working.
    """

    def _refuse(self, *args, **kwargs):
        raise TypeError(
            "Simulator.monitors is read-only; attach observers with "
            "Simulator.attach(probe), which starts the probe and "
            "re-selects the engine"
        )

    append = extend = insert = remove = clear = _refuse
    __iadd__ = _refuse


@dataclass
class SimulationResult:
    """Outcome of a (partial) run.

    Attributes:
        initial_loads: the vector the run started from.
        final_loads: the vector after the last executed round.
        rounds_executed: number of rounds actually executed.
        discrepancy_history: discrepancy at each round boundary
            (``[0]`` is the initial discrepancy) if recording was on.
            Entries are ``int`` for the discrete token model; real-
            valued dynamics (e.g. continuous diffusion results
            repackaged through this type) carry ``float`` entries.
        stopped_early: True if a ``run_until`` predicate fired.
        record: the columnar :class:`~repro.core.trace.RunRecord` —
            engine summary plus every probe's columns and scalars.
    """

    initial_loads: np.ndarray
    final_loads: np.ndarray
    rounds_executed: int
    discrepancy_history: list[int | float] = field(default_factory=list)
    stopped_early: bool = False
    record: RunRecord | None = None

    @property
    def initial_discrepancy(self) -> int | float:
        return discrepancy(self.initial_loads)

    @property
    def final_discrepancy(self) -> int | float:
        return discrepancy(self.final_loads)

    def summary(self) -> dict:
        return {
            "rounds": self.rounds_executed,
            "initial_discrepancy": self.initial_discrepancy,
            "final_discrepancy": self.final_discrepancy,
            "stopped_early": self.stopped_early,
        }


class Simulator:
    """Drives one balancer on one graph from one initial vector.

    Args:
        graph: the balancing graph ``G+``.
        balancer: the algorithm; it is (re)bound to ``graph``.
        initial_loads: length-``n`` nonnegative integer vector.
        monitors: legacy observers; they pin the dense engine
            (deprecated — pass ``probes=`` instead).
        probes: capability-typed observers (:class:`Probe` instances,
            :class:`~repro.core.probes.ProbeSpec`\\ s, or zero-argument
            factories).  Loads-only probes keep ``engine="auto"`` on
            the structured fast path.
        dynamics: optional dynamic workload — an
            :class:`~repro.dynamics.injectors.Injector` instance or a
            :class:`~repro.dynamics.spec.DynamicsSpec`.  Its delta is
            applied at the *beginning* of every round, before the
            balancing step (adversary moves first); the running token
            total is adjusted accordingly, so conservation of the
            balancing step itself stays fully checked.  Injection is a
            vector add and rides every engine unchanged.
        faults: optional network-fault schedule — a
            :class:`~repro.faults.schedules.FaultSchedule` instance or
            a :class:`~repro.faults.spec.FaultSpec`.  Each round opens
            with its crash/recover epochs (before injection); the
            balancing step then runs over the live topology: sends on
            dead links bounce back to the sender and dropped sends
            vanish from the running total in a tracked way, so the
            conservation check stays an exact equality.
        topology: optional dynamic-topology schedule — a
            :class:`~repro.topology.schedules.TopologySchedule`
            instance or a :class:`~repro.topology.spec.TopologySpec`.
            Each round opens with its churn events (before everything
            else): the engine copies the input graph into a
            :class:`~repro.graphs.mutable.MutableBalancingGraph` and
            mutates it in place, then hands the dirty node set to the
            balancer's ``refresh_topology`` — per-round cost scales
            with the number of mutated edges, not ``n``.  Leaving
            nodes hand their load to surviving neighbors, so topology
            changes conserve tokens and the conservation check stays
            exact.  Mutually exclusive with ``faults`` (fault
            schedules precompute canonical port maps that churn would
            silently invalidate).
        record_history: keep the per-round discrepancy trajectory.
        validate_every_round: full structural validation of each sends
            matrix (or compact round description).  Cheap (vectorized)
            and on by default; can be turned off for the innermost
            benchmark loops.
        engine: any name registered in :data:`repro.engines.ENGINES`
            (``"dense"``, ``"structured"``, ``"spmm"``,
            ``"partitioned"``, ...) or ``"auto"`` (default) — auto picks
            ``structured`` when the balancer supports it and no
            attached observer demands dense sends matrices, ``dense``
            otherwise.  Structured-protocol backends carry the same
            constraints as ``"structured"``; dense-protocol backends
            work with everything.
    """

    def __init__(
        self,
        graph,
        balancer: Balancer,
        initial_loads: np.ndarray,
        *,
        monitors: Iterable = (),
        probes: Iterable = (),
        dynamics=None,
        faults=None,
        topology=None,
        record_history: bool = True,
        validate_every_round: bool = True,
        engine: str = "auto",
    ) -> None:
        initial_loads = validate_loads(initial_loads)
        if initial_loads.shape[0] != graph.num_nodes:
            raise InvalidSendMatrix(
                f"load vector has {initial_loads.shape[0]} entries for a "
                f"graph with {graph.num_nodes} nodes"
            )
        if topology is not None:
            if faults is not None:
                raise ValueError(
                    "faults and topology cannot be combined: fault "
                    "schedules precompute canonical port maps from the "
                    "initial graph, which topology churn invalidates"
                )
            from repro.graphs.mutable import MutableBalancingGraph
            from repro.topology.spec import as_topology_schedule

            topology = as_topology_schedule(topology)
            # Private mutable copy: churn must never leak into the
            # caller's (possibly shared/prebuilt) graph instance.
            graph = MutableBalancingGraph.from_graph(graph)
        self._topology = topology
        self.graph = graph
        self.balancer = balancer.bind(graph)
        self.initial_loads = initial_loads.copy()
        self._loads = initial_loads.copy()
        legacy = build_probes(monitors)
        self._legacy_dense = bool(legacy)
        self._probes: list[Probe] = list(legacy) + list(
            build_probes(probes)
        )
        self.record_history = record_history
        self.validate_every_round = validate_every_round
        if engine != "auto" and split_engine_spec(engine)[0] not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; registered engines: "
                f"{', '.join(engine_names())} (or 'auto')"
            )
        self._requested_engine = engine
        if engine == "auto":
            engine = (
                "structured"
                if self.balancer.supports_structured_sends
                and not self._legacy_dense
                and not dense_required(self._probes)
                else "dense"
            )
        self._backend = create_engine(engine)
        if self._backend.protocol == STRUCTURED:
            if not self.balancer.supports_structured_sends:
                raise ValueError(
                    f"balancer {self.balancer.name!r} does not implement "
                    "structured sends; use the dense engine"
                )
            if self._legacy_dense:
                raise ValueError(
                    "monitors consume dense sends matrices; use the "
                    "dense engine (or pass them as probes=)"
                )
            if dense_required(self._probes):
                bad = next(
                    p
                    for p in self._probes
                    if p.needs != LOADS and not p.accepts_structured
                )
                raise ValueError(
                    f"probe {type(bad).__name__} requires dense sends "
                    "matrices; use the dense engine"
                )
        self.engine = engine
        if dynamics is not None:
            from repro.dynamics.spec import as_injector

            dynamics = as_injector(dynamics)
        self._injector = dynamics
        if faults is not None:
            from repro.faults.spec import as_fault_schedule

            faults = as_fault_schedule(faults)
        self._faults = faults
        self._round_faults = None
        self._tokens_injected = 0
        self._tokens_dropped = 0
        self._topology_rounds = 0
        self.total_tokens = int(initial_loads.sum())
        self.round = 1  # the paper's convention: x_1 is the initial vector
        self.discrepancy_history: list[int | float] = (
            [discrepancy(initial_loads)] if record_history else []
        )
        if self._topology is not None:
            self._topology.start(graph, self._loads)
        if self._faults is not None:
            self._faults.start(graph, self._loads)
        if self._injector is not None:
            self._injector.start(graph, self._loads)
        for probe in self._probes:
            probe.start(graph, self.balancer, self._loads)

    # ------------------------------------------------------------------

    @property
    def loads(self) -> np.ndarray:
        """Current load vector (owned by the engine; copy to mutate)."""
        return self._loads

    @property
    def monitors(self) -> tuple:
        """Attached observers (read-only; use :meth:`attach` to add)."""
        return _AttachGuard(self._probes)

    @property
    def probes(self) -> tuple:
        """Attached observers (read-only; use :meth:`attach` to add)."""
        return _AttachGuard(self._probes)

    def attach(self, probe) -> Probe:
        """Attach an observer mid-run (the supported late-attach path).

        The probe is ``start``-ed with the *current* load vector, so it
        observes from this round onward.  If the run is on the auto-
        selected structured engine and the probe demands dense sends,
        the engine transparently switches to dense (bit-identical
        trajectories); an explicitly requested structured engine raises
        instead of silently changing execution.
        """
        (probe,) = build_probes((probe,))
        if (
            self._backend.protocol == STRUCTURED
            and probe.needs != LOADS
            and not probe.accepts_structured
        ):
            if self._requested_engine != "auto":
                raise ValueError(
                    f"probe {type(probe).__name__} requires dense sends "
                    f"matrices but the {self.engine} engine was "
                    "explicitly requested"
                )
            self.engine = "dense"
            self._backend = create_engine("dense")
        probe.start(self.graph, self.balancer, self._loads)
        self._probes.append(probe)
        return probe

    def _apply_injection(self) -> None:
        """Apply this round's load events (the adversary moves first).

        Applied in place: the engine owns ``_loads`` (observers that
        retain vectors must copy, per the probe contract), and a fresh
        O(n) allocation every round costs more in allocator churn than
        the add itself at large ``n``.
        """
        delta = self._injector.delta(self.round, self._loads)
        delta = validate_delta(
            delta, self._loads, self._injector.name, self.round
        )
        np.add(self._loads, delta, out=self._loads)
        moved = int(delta.sum())
        self.total_tokens += moved
        self._tokens_injected += moved

    def _apply_fault_events(self) -> None:
        """Open the round with the fault schedule's epoch events.

        Crash/recover load movement lands *before* injection; the
        round's dead/dropped port sets are stashed for the balancing
        step to correct against.
        """
        faults = self._faults.round_state(self.round, self._loads)
        if faults is not None:
            if self.validate_every_round and not faults.trusted:
                validate_round_faults(faults, self.graph)
            if faults.load_delta is not None:
                delta = validate_delta(
                    faults.load_delta,
                    self._loads,
                    self._faults.name,
                    self.round,
                )
                np.add(self._loads, delta, out=self._loads)
                self.total_tokens += int(delta.sum())
        self._round_faults = faults

    def _apply_topology_events(self) -> None:
        """Open the round with the topology schedule's churn events.

        The graph is mutated in place (the engine owns its private
        mutable copy); load handoff from leaving nodes lands before
        fault epochs and injection; the balancer then repairs its
        graph-derived structures from the dirty node set only.
        """
        events = self._topology.round_events(self.round, self._loads)
        if events is None or events.is_empty():
            return
        if self.validate_every_round and not events.trusted:
            validate_topology_events(events, self.graph)
        apply_topology_events(self.graph, events, self._loads)
        dirty = self.graph.consume_dirty()
        self.balancer.refresh_topology(self.graph, dirty)
        self._backend.refresh_topology(self.graph, dirty)
        self._topology_rounds += 1

    def step(self) -> np.ndarray:
        """Execute one synchronous round; returns the new load vector."""
        if self._topology is not None:
            self._apply_topology_events()
        if self._faults is not None:
            self._apply_fault_events()
        if self._injector is not None:
            self._apply_injection()
        if self._backend.protocol == STRUCTURED:
            return self._step_structured()
        graph = self.graph
        loads = self._loads
        sends = self.balancer.sends(loads, self.round)
        if self.validate_every_round:
            self._validate_sends(sends, loads)
        outgoing = sends.sum(axis=1)
        remainder = loads - outgoing
        if not self.balancer.allows_negative and remainder.min() < 0:
            node = int(np.argmin(remainder))
            raise NegativeLoadError(
                f"round {self.round}: node {node} sent "
                f"{int(outgoing[node])} tokens but holds "
                f"{int(loads[node])} "
                f"(balancer {self.balancer.name!r} does not allow "
                "negative load)"
            )
        incoming = self._backend.incoming(graph, sends)
        kept = sends[:, graph.degree:].sum(axis=1)
        new_loads = remainder + incoming + kept
        if self._round_faults is not None:
            dropped = apply_round_faults(
                new_loads,
                graph,
                self._round_faults,
                lambda pairs: dense_port_values(sends, pairs),
            )
            self.total_tokens -= dropped
            self._tokens_dropped += dropped
        if new_loads.sum() != self.total_tokens:
            raise ConservationError(
                f"round {self.round}: token count changed from "
                f"{self.total_tokens} to {int(new_loads.sum())}"
            )
        for probe in self._probes:
            probe.observe(self.round, loads, sends, new_loads)
        if self.record_history:
            self.discrepancy_history.append(discrepancy(new_loads))
        self._loads = new_loads
        self.round += 1
        return new_loads

    def _step_structured(self) -> np.ndarray:
        """One round executed matrix-free from a compact description.

        Probes ride along at their declared capability: loads-only
        probes receive the post-round vector, structured-capable sends
        probes receive the compact round itself.
        """
        graph = self.graph
        loads = self._loads
        compact = self.balancer.sends_structured(loads, self.round)
        if self.validate_every_round:
            compact.validate(graph, loads)
        if not self.balancer.allows_negative:
            remainder = compact.remainder(graph, loads)
            if remainder.min() < 0:
                node = int(np.argmin(remainder))
                raise NegativeLoadError(
                    f"round {self.round}: node {node} sent "
                    f"{int(loads[node] - remainder[node])} tokens but "
                    f"holds {int(loads[node])} "
                    f"(balancer {self.balancer.name!r} does not allow "
                    "negative load)"
                )
        new_loads = self._backend.apply(graph, compact, loads)
        if self._round_faults is not None:
            dropped = apply_round_faults(
                new_loads,
                graph,
                self._round_faults,
                lambda pairs: structured_port_values(
                    compact, graph, pairs
                ),
            )
            self.total_tokens -= dropped
            self._tokens_dropped += dropped
        if new_loads.sum() != self.total_tokens:
            raise ConservationError(
                f"round {self.round}: token count changed from "
                f"{self.total_tokens} to {int(new_loads.sum())}"
            )
        for probe in self._probes:
            if probe.needs == LOADS:
                probe.observe_loads(self.round, new_loads)
            else:
                probe.observe_structured(
                    self.round, loads, compact, new_loads
                )
        if self.record_history:
            self.discrepancy_history.append(discrepancy(new_loads))
        self._loads = new_loads
        self.round += 1
        return new_loads

    def run(self, rounds: int) -> SimulationResult:
        """Execute ``rounds`` rounds."""
        for _ in range(rounds):
            self.step()
        return self._result(stopped_early=False)

    def run_until(
        self,
        predicate: Callable[[np.ndarray], bool],
        max_rounds: int,
        check_every: int = 1,
    ) -> SimulationResult:
        """Run until ``predicate(loads)`` holds or ``max_rounds`` elapse."""
        executed = 0
        if predicate(self._loads):
            return self._result(stopped_early=True)
        while executed < max_rounds:
            self.step()
            executed += 1
            if executed % check_every == 0 and predicate(self._loads):
                return self._result(stopped_early=True)
        return self._result(stopped_early=False)

    def run_to_discrepancy(
        self,
        target: int,
        max_rounds: int,
        check_every: int = 1,
    ) -> SimulationResult:
        """Run until the discrepancy is at most ``target``."""
        return self.run_until(
            lambda loads: discrepancy(loads) <= target,
            max_rounds,
            check_every=check_every,
        )

    # ------------------------------------------------------------------

    def _validate_sends(self, sends: np.ndarray, loads: np.ndarray) -> None:
        expected = (self.graph.num_nodes, self.graph.total_degree)
        if sends.shape != expected:
            raise InvalidSendMatrix(
                f"sends matrix has shape {sends.shape}, expected {expected}"
            )
        if not np.issubdtype(sends.dtype, np.integer):
            raise InvalidSendMatrix(
                f"sends matrix must be integer, got dtype {sends.dtype}"
            )
        if sends.min() < 0:
            raise InvalidSendMatrix(
                "sends matrix contains negative entries; tokens can only "
                "move forward along edges"
            )

    def record(self, replica: int = 0) -> RunRecord:
        """Columnar record of the run so far (engine facts + probes)."""
        engine_summary = {
            "initial_discrepancy": discrepancy(self.initial_loads),
            "final_discrepancy": discrepancy(self._loads),
        }
        if self._injector is not None:
            engine_summary["tokens_injected"] = self._tokens_injected
            engine_summary.update(self._injector.summary())
        if self._faults is not None:
            engine_summary["fault_schedule"] = self._faults.name
            engine_summary["tokens_dropped"] = self._tokens_dropped
            engine_summary.update(self._faults.summary())
        if self._topology is not None:
            engine_summary["topology_schedule"] = self._topology.name
            engine_summary["topology_rounds"] = self._topology_rounds
            engine_summary.update(self._topology.summary())
        return build_record(
            replica=replica,
            rounds_executed=self.round - 1,
            stopped_early=False,
            engine_summary=engine_summary,
            discrepancy_history=(
                self.discrepancy_history if self.record_history else None
            ),
            probes=self._probes,
        )

    def _result(self, *, stopped_early: bool) -> SimulationResult:
        """Snapshot the run so far.

        ``rounds_executed`` is always the cumulative ``self.round - 1``
        (total rounds since construction), regardless of how many calls
        to :meth:`run`/:meth:`run_until` produced them — including the
        early-return path of :meth:`run_until`.
        """
        record = self.record()
        record.stopped_early = stopped_early
        return SimulationResult(
            initial_loads=self.initial_loads,
            final_loads=self._loads.copy(),
            rounds_executed=self.round - 1,
            discrepancy_history=list(self.discrepancy_history),
            stopped_early=stopped_early,
            record=record,
        )


def simulate(
    graph,
    balancer: Balancer,
    initial_loads: np.ndarray,
    rounds: int,
    *,
    monitors: Iterable = (),
    probes: Iterable = (),
    dynamics=None,
    faults=None,
    topology=None,
    record_history: bool = True,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`Simulator`."""
    simulator = Simulator(
        graph,
        balancer,
        initial_loads,
        monitors=monitors,
        probes=probes,
        dynamics=dynamics,
        faults=faults,
        topology=topology,
        record_history=record_history,
    )
    return simulator.run(rounds)
