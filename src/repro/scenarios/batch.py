"""Vectorized batch execution of scenario replicas.

The looped baseline runs one :class:`~repro.core.engine.Simulator` per
replica; every round then costs ``replicas`` sets of small numpy calls,
which at practical sizes (``n`` in the hundreds) is pure interpreter
overhead.  :class:`BatchRunner` instead stacks all replicas into one
``(replicas, n)`` array and executes a whole batch round with a handful
of large operations — the gather through the graph's reverse-port map,
the conservation check, and (for stateless schemes implementing
``sends_batch``) the send rule itself all broadcast over the replica
axis.

Like the looped engine, the runner executes each round either from the
balancer's dense ``(replicas, n, d+)`` sends or — when every balancer
implements ``sends_structured`` — matrix-free from compact
:class:`~repro.core.structured.StructuredRound` descriptions, which at
large ``n`` removes the dominant allocation entirely (``engine="auto"``
picks the structured path whenever it is available).

Semantics are bit-identical to the looped baseline: replica ``r`` of a
batch run produces the same load trajectory as a fresh ``Simulator``
driven with the same balancer and initial vector (the parity tests
enforce this replica-for-replica).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.balancer import Balancer
from repro.core.engine import SimulationResult
from repro.core.errors import (
    ConservationError,
    InvalidSendMatrix,
    NegativeLoadError,
)
from repro.core.loads import validate_delta, validate_load_matrix
from repro.engines import (
    ENGINES,
    STRUCTURED,
    create_engine,
    engine_names,
    split_engine_spec,
)
from repro.core.probes import Probe, build_probes, loads_only
from repro.faults.schedules import (
    apply_round_faults,
    dense_port_values,
    structured_port_values,
    validate_round_faults,
)
from repro.core.trace import RunRecord, build_record
from repro.graphs.balancing import BalancingGraph
from repro.topology.schedules import (
    apply_topology_events,
    validate_topology_events,
)


@dataclass
class BatchResult:
    """Outcome of a batch run: one row per replica.

    Attributes:
        initial_loads: ``(replicas, n)`` stacked starting vectors.
        final_loads: ``(replicas, n)`` vectors after the last round each
            replica executed.
        rounds_executed: per-replica executed round counts.
        stopped_early: per-replica early-stop flags (``run_until``).
        histories: per-replica discrepancy trajectories (empty lists if
            recording was off).
        records: per-replica columnar
            :class:`~repro.core.trace.RunRecord`\\ s (engine summary
            plus any attached probes' columns and scalars).
    """

    initial_loads: np.ndarray
    final_loads: np.ndarray
    rounds_executed: np.ndarray
    stopped_early: np.ndarray
    histories: list[list[int]] = field(default_factory=list)
    records: list[RunRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return self.initial_loads.shape[0]

    @property
    def final_discrepancies(self) -> np.ndarray:
        return self.final_loads.max(axis=1) - self.final_loads.min(axis=1)

    def replica(self, index: int) -> SimulationResult:
        """Replica ``index`` repackaged as a looped-engine result."""
        return SimulationResult(
            initial_loads=self.initial_loads[index].copy(),
            final_loads=self.final_loads[index].copy(),
            rounds_executed=int(self.rounds_executed[index]),
            discrepancy_history=(
                list(self.histories[index]) if self.histories else []
            ),
            stopped_early=bool(self.stopped_early[index]),
            record=(
                self.records[index] if self.records else None
            ),
        )

    def as_simulation_results(self) -> list[SimulationResult]:
        """All replicas as :class:`SimulationResult`, in replica order."""
        return [self.replica(index) for index in range(len(self))]


class BatchRunner:
    """Drives ``replicas`` independent runs as one stacked array.

    Args:
        graph: the shared balancing graph ``G+``.
        balancers: either one balancer per replica, or a single
            stateless balancer implementing ``sends_batch`` (shared
            across all replicas and evaluated fully vectorized).
        initial_loads: ``(replicas, n)`` nonnegative integer array.
        probes: per-replica observer sets — a sequence of ``replicas``
            collections of loads-only probes (specs, factories, or
            instances).  Loads-only is the price of staying on the
            stacked vectorized path; sends-consuming probes need the
            looped :class:`~repro.core.engine.Simulator`.
        dynamics: optional dynamic workload.  A
            :class:`~repro.dynamics.spec.DynamicsSpec` builds one fresh
            injector per replica (seeded specs offset ``seed + r``, so
            replica ``r``'s event stream is independent of the batch
            size); alternatively a sequence of ``replicas`` ready
            :class:`~repro.dynamics.injectors.Injector` instances.
            Deltas apply at the beginning of each round, before the
            balancing step, exactly as in the looped engine.
        faults: optional network-fault schedule.  A
            :class:`~repro.faults.spec.FaultSpec` builds one fresh
            schedule per replica (seeded specs offset ``seed + r``, so
            replica ``r``'s fault history is independent of the batch
            size); alternatively a sequence of ``replicas`` ready
            :class:`~repro.faults.schedules.FaultSchedule` instances.
            Each round opens with crash/recover epochs (before
            injection); the balancing step is then corrected for dead
            links (bounce-back) and dropped sends (tracked loss),
            exactly as in the looped engine.
        topology: optional dynamic-topology schedule.  A
            :class:`~repro.topology.spec.TopologySpec` builds one
            fresh schedule per replica (seeded specs offset
            ``seed + r``); alternatively a sequence of ``replicas``
            ready :class:`~repro.topology.schedules.TopologySchedule`
            instances.  Each replica gets its own private
            :class:`~repro.graphs.mutable.MutableBalancingGraph` copy
            (graphs diverge under churn) and its own balancer — the
            shared-balancer shortcut is incompatible with topology
            churn.  Events apply at the top of each round, before
            injection, exactly as in the looped engine.  Mutually
            exclusive with ``faults``.
        record_history: keep per-replica discrepancy trajectories.
        validate_every_round: structural validation of each batch of
            sends matrices or compact rounds (vectorized; cheap).
        engine: any name registered in :data:`repro.engines.ENGINES`
            (``"dense"``, ``"structured"``, ``"spmm"``,
            ``"partitioned"``, ...) or ``"auto"`` (default) — auto picks
            ``structured`` when every balancer supports it.
    """

    def __init__(
        self,
        graph: BalancingGraph,
        balancers: Balancer | Sequence[Balancer],
        initial_loads: np.ndarray,
        *,
        probes: Sequence[Sequence] | None = None,
        dynamics=None,
        faults=None,
        topology=None,
        record_history: bool = True,
        validate_every_round: bool = True,
        engine: str = "auto",
    ) -> None:
        initial_loads = validate_load_matrix(initial_loads)
        if initial_loads.shape[1] != graph.num_nodes:
            raise InvalidSendMatrix(
                f"load rows have {initial_loads.shape[1]} entries for a "
                f"graph with {graph.num_nodes} nodes"
            )
        replicas = initial_loads.shape[0]
        if isinstance(balancers, Balancer):
            balancers = [balancers]
        self._topology_schedules = self._build_topology_schedules(
            topology, replicas
        )
        if self._topology_schedules is not None:
            if faults is not None:
                raise ValueError(
                    "faults and topology cannot be combined: fault "
                    "schedules precompute canonical port maps that "
                    "topology churn invalidates"
                )
            if len(balancers) != replicas:
                raise ValueError(
                    "topology churn diverges the graphs per replica, "
                    "so the shared-balancer shortcut is unavailable; "
                    f"pass one balancer per replica (got "
                    f"{len(balancers)} for {replicas})"
                )
            from repro.graphs.mutable import MutableBalancingGraph

            # Each replica churns its own private copy; the caller's
            # (possibly shared/prebuilt) graph is never mutated.
            self._graphs: list | None = [
                MutableBalancingGraph.from_graph(graph)
                for _ in range(replicas)
            ]
            balancers = [
                b.bind(g) for b, g in zip(balancers, self._graphs)
            ]
        else:
            self._graphs = None
            balancers = [b.bind(graph) for b in balancers]
        if len(balancers) == 1 and replicas > 1:
            shared = balancers[0]
            if not (
                shared.supports_batched_sends
                and shared.properties.stateless
            ):
                raise ValueError(
                    f"balancer {shared.name!r} cannot be shared across "
                    "replicas (needs sends_batch and statelessness); "
                    "pass one instance per replica instead"
                )
        elif len(balancers) != replicas:
            raise ValueError(
                f"got {len(balancers)} balancers for {replicas} replicas"
            )
        self.graph = graph
        self.balancers = balancers
        self._vectorized = (
            len(balancers) == 1
            and balancers[0].supports_batched_sends
            # Under churn every replica owns a divergent graph; the
            # shared-stack shortcut would evaluate them all against
            # the static base topology.
            and self._topology_schedules is None
        )
        if engine != "auto" and split_engine_spec(engine)[0] not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; registered engines: "
                f"{', '.join(engine_names())} (or 'auto')"
            )
        structured_ok = all(
            b.supports_structured_sends for b in balancers
        )
        if engine == "auto":
            engine = "structured" if structured_ok else "dense"
        self._backend = create_engine(engine)
        if self._backend.protocol == STRUCTURED and not structured_ok:
            missing = next(
                b.name
                for b in balancers
                if not b.supports_structured_sends
            )
            raise ValueError(
                f"balancer {missing!r} does not implement structured "
                "sends; use the dense engine"
            )
        self.engine = engine
        self.initial_loads = initial_loads.copy()
        self._loads = initial_loads.copy()
        self.record_history = record_history
        self.validate_every_round = validate_every_round
        self.num_replicas = replicas
        self.totals = initial_loads.sum(axis=1)
        self.round = 1  # paper convention: x_1 is the initial vector
        self._active = np.ones(replicas, dtype=bool)
        self._rounds_executed = np.zeros(replicas, dtype=np.int64)
        self._stopped_early = np.zeros(replicas, dtype=bool)
        self._injectors = self._build_injectors(dynamics, replicas)
        self._tokens_injected = np.zeros(replicas, dtype=np.int64)
        self._fault_schedules = self._build_fault_schedules(
            faults, replicas
        )
        self._round_faults: list = [None] * replicas
        self._tokens_dropped = np.zeros(replicas, dtype=np.int64)
        self._topology_rounds = np.zeros(replicas, dtype=np.int64)
        if self._topology_schedules is not None:
            for replica, schedule in enumerate(
                self._topology_schedules
            ):
                schedule.start(
                    self._graphs[replica], self.initial_loads[replica]
                )
        if self._fault_schedules is not None:
            for replica, schedule in enumerate(self._fault_schedules):
                schedule.start(graph, self.initial_loads[replica])
        if self._injectors is not None:
            for replica, injector in enumerate(self._injectors):
                injector.start(graph, self.initial_loads[replica])
        self.histories: list[list[int]] = (
            [
                [int(row.max() - row.min())]
                for row in initial_loads
            ]
            if record_history
            else []
        )
        if probes is None:
            self.probe_sets: list[tuple[Probe, ...]] = []
        else:
            if len(probes) != replicas:
                raise ValueError(
                    f"got {len(probes)} probe sets for "
                    f"{replicas} replicas"
                )
            self.probe_sets = [build_probes(spec) for spec in probes]
            for replica, probe_set in enumerate(self.probe_sets):
                if not loads_only(probe_set):
                    bad = next(
                        p for p in probe_set if p.needs != "loads"
                    )
                    raise ValueError(
                        f"probe {type(bad).__name__} consumes sends "
                        "matrices; the vectorized batch runner only "
                        "carries loads-only probes — use the looped "
                        "Simulator for sends-consuming probes"
                    )
                for probe in probe_set:
                    probe.start(
                        graph,
                        self._balancer_for(replica),
                        self.initial_loads[replica],
                    )
        self._has_probes = any(self.probe_sets)

    # ------------------------------------------------------------------

    @property
    def loads(self) -> np.ndarray:
        """Current ``(replicas, n)`` load stack (owned; copy to mutate)."""
        return self._loads

    def _balancer_for(self, replica: int) -> Balancer:
        return self.balancers[0 if len(self.balancers) == 1 else replica]

    def _graph_for(self, replica: int):
        """Replica ``replica``'s graph (private copy under churn)."""
        if self._graphs is not None:
            return self._graphs[replica]
        return self.graph

    @staticmethod
    def _build_injectors(dynamics, replicas: int):
        """One fresh injector per replica (or None for static runs)."""
        if dynamics is None:
            return None
        from repro.dynamics.injectors import Injector
        from repro.dynamics.spec import DynamicsSpec

        if isinstance(dynamics, DynamicsSpec):
            return [dynamics.build(replica) for replica in range(replicas)]
        if isinstance(dynamics, Injector):
            if replicas != 1:
                raise ValueError(
                    "a single Injector instance cannot be shared across "
                    f"{replicas} replicas (its state would be corrupted); "
                    "pass a DynamicsSpec or one instance per replica"
                )
            return [dynamics]
        injectors = list(dynamics)
        if len(injectors) != replicas:
            raise ValueError(
                f"got {len(injectors)} injectors for {replicas} replicas"
            )
        return injectors

    @staticmethod
    def _build_fault_schedules(faults, replicas: int):
        """One fresh fault schedule per replica (or None when fault-free)."""
        if faults is None:
            return None
        from repro.faults.schedules import FaultSchedule
        from repro.faults.spec import FaultSpec

        if isinstance(faults, FaultSpec):
            return [faults.build(replica) for replica in range(replicas)]
        if isinstance(faults, FaultSchedule):
            if replicas != 1:
                raise ValueError(
                    "a single FaultSchedule instance cannot be shared "
                    f"across {replicas} replicas (its state would be "
                    "corrupted); pass a FaultSpec or one instance per "
                    "replica"
                )
            return [faults]
        schedules = list(faults)
        if len(schedules) != replicas:
            raise ValueError(
                f"got {len(schedules)} fault schedules for "
                f"{replicas} replicas"
            )
        return schedules

    @staticmethod
    def _build_topology_schedules(topology, replicas: int):
        """One fresh topology schedule per replica (or None if static)."""
        if topology is None:
            return None
        from repro.topology.schedules import TopologySchedule
        from repro.topology.spec import TopologySpec

        if isinstance(topology, TopologySpec):
            return [
                topology.build(replica) for replica in range(replicas)
            ]
        if isinstance(topology, TopologySchedule):
            if replicas != 1:
                raise ValueError(
                    "a single TopologySchedule instance cannot be "
                    f"shared across {replicas} replicas (its state "
                    "would be corrupted); pass a TopologySpec or one "
                    "instance per replica"
                )
            return [topology]
        schedules = list(topology)
        if len(schedules) != replicas:
            raise ValueError(
                f"got {len(schedules)} topology schedules for "
                f"{replicas} replicas"
            )
        return schedules

    def _apply_topology_events(self) -> None:
        """Open the round with each replica's topology churn events.

        Mirrors the looped engine exactly: each replica's schedule
        mutates that replica's private graph copy in place (frozen
        ``run_until`` replicas stop churning, just as a stopped
        Simulator stops stepping) and its balancer repairs its
        graph-derived structures from the dirty node set only.
        """
        for replica in np.flatnonzero(self._active).tolist():
            schedule = self._topology_schedules[replica]
            graph = self._graphs[replica]
            row = self._loads[replica]
            events = schedule.round_events(self.round, row)
            if events is None or events.is_empty():
                continue
            if self.validate_every_round and not events.trusted:
                validate_topology_events(events, graph)
            apply_topology_events(graph, events, row)
            dirty = graph.consume_dirty()
            self._balancer_for(replica).refresh_topology(graph, dirty)
            self._backend.refresh_topology(graph, dirty)
            self._topology_rounds[replica] += 1

    def _apply_fault_events(self) -> None:
        """Open the round with each replica's fault-schedule epochs.

        Mirrors the looped engine exactly: crash/recover load movement
        lands before injection (frozen ``run_until`` replicas stop
        seeing fault events, just as a stopped Simulator stops
        stepping), and the round's dead/dropped port sets are stashed
        for the balancing step to correct against.
        """
        for replica in np.flatnonzero(self._active).tolist():
            schedule = self._fault_schedules[replica]
            row = self._loads[replica]
            faults = schedule.round_state(self.round, row)
            if faults is not None:
                if self.validate_every_round and not faults.trusted:
                    validate_round_faults(faults, self.graph)
                if faults.load_delta is not None:
                    delta = validate_delta(
                        faults.load_delta, row, schedule.name, self.round
                    )
                    row += delta
                    self.totals[replica] += int(delta.sum())
            self._round_faults[replica] = faults

    def _apply_injection(self) -> None:
        """Apply this round's load events to every active replica.

        Mirrors the looped engine exactly: each replica's own injector
        sees its own row (frozen ``run_until`` replicas stop receiving
        events, just as a stopped Simulator stops stepping), and the
        per-replica token total shifts by the delta sum.
        """
        for replica in np.flatnonzero(self._active).tolist():
            injector = self._injectors[replica]
            row = self._loads[replica]
            delta = validate_delta(
                injector.delta(self.round, row),
                row,
                injector.name,
                self.round,
            )
            row += delta  # in place: the runner owns the load stack
            moved = int(delta.sum())
            self.totals[replica] += moved
            self._tokens_injected[replica] += moved

    def step(self) -> np.ndarray:
        """Execute one synchronous round for every active replica."""
        if self._topology_schedules is not None:
            self._apply_topology_events()
        if self._fault_schedules is not None:
            self._apply_fault_events()
        if self._injectors is not None:
            self._apply_injection()
        all_active = bool(self._active.all())
        if all_active:
            # Fast path: no index gathers/scatters on the load stack.
            active = np.arange(self.num_replicas)
            loads = self._loads
        else:
            active = np.flatnonzero(self._active)
            if active.size == 0:
                return self._loads
            loads = self._loads[active]
        if self._backend.protocol == STRUCTURED:
            new_loads = self._round_structured(loads, active)
        else:
            new_loads = self._round_dense(loads, active)
        new_totals = new_loads.sum(axis=1)
        totals = self.totals if all_active else self.totals[active]
        if np.any(new_totals != totals):
            bad = int(active[np.flatnonzero(new_totals != totals)[0]])
            raise ConservationError(
                f"round {self.round}: replica {bad} token count changed "
                f"from {int(self.totals[bad])}"
            )
        if all_active:
            self._loads = new_loads
            self._rounds_executed += 1
        else:
            self._loads[active] = new_loads
            self._rounds_executed[active] += 1
        if self.record_history:
            discrepancies = (
                new_loads.max(axis=1) - new_loads.min(axis=1)
            ).tolist()
            for replica, value in zip(active.tolist(), discrepancies):
                self.histories[replica].append(value)
        if self._has_probes:
            for replica in active.tolist():
                row = self._loads[replica]
                for probe in self.probe_sets[replica]:
                    probe.observe_loads(self.round, row)
        self.round += 1
        return self._loads

    def _round_dense(
        self, loads: np.ndarray, active: np.ndarray
    ) -> np.ndarray:
        """One round's new loads from full ``(batch, n, d+)`` sends."""
        if self._graphs is not None:
            return self._round_dense_churned(loads, active)
        graph = self.graph
        if self._vectorized:
            sends = self.balancers[0].sends_batch(loads, self.round)
        else:
            sends = np.stack(
                [
                    self._balancer_for(int(r)).sends(
                        self._loads[int(r)], self.round
                    )
                    for r in active
                ]
            )
        if self.validate_every_round:
            self._validate_sends(sends, active.size)
        degree = graph.degree
        edge_out = sends[:, :, :degree].sum(axis=2)
        kept = sends[:, :, degree:].sum(axis=2)
        # remainder = loads - (edge_out + kept); new = remainder + in + kept
        # which telescopes to loads - edge_out + incoming.
        self._check_overdraw(loads - edge_out - kept, active)
        incoming = self._backend.incoming(graph, sends)
        new_loads = loads - edge_out
        new_loads += incoming
        if self._fault_schedules is not None:
            for row, replica in enumerate(active.tolist()):
                faults = self._round_faults[replica]
                if faults is None:
                    continue
                self._settle_faults(
                    new_loads[row],
                    replica,
                    faults,
                    lambda pairs, s=sends[row]: dense_port_values(
                        s, pairs
                    ),
                )
        return new_loads

    def _round_dense_churned(
        self, loads: np.ndarray, active: np.ndarray
    ) -> np.ndarray:
        """Dense rounds under churn: one gather per replica's graph.

        The stacked flat-gather shortcut assumes one shared reverse-
        port map; under topology churn each replica's map differs, so
        the round mirrors the looped engine replica by replica.
        """
        new_loads = np.empty_like(loads)
        for row, replica in enumerate(active.tolist()):
            graph = self._graphs[replica]
            replica_loads = self._loads[replica]
            sends = self._balancer_for(replica).sends(
                replica_loads, self.round
            )
            if self.validate_every_round:
                self._validate_sends(sends[None], 1)
            degree = graph.degree
            edge_out = sends[:, :degree].sum(axis=1)
            kept = sends[:, degree:].sum(axis=1)
            self._check_overdraw(
                (replica_loads - edge_out - kept)[None, :],
                np.asarray([replica]),
            )
            incoming = self._backend.incoming(graph, sends)
            new_loads[row] = replica_loads - edge_out
            new_loads[row] += incoming
        return new_loads

    def _settle_faults(
        self, new_row: np.ndarray, replica: int, faults, port_values
    ) -> None:
        """Apply one replica's round corrections and track the loss."""
        dropped = apply_round_faults(
            new_row, self.graph, faults, port_values
        )
        self.totals[replica] -= dropped
        self._tokens_dropped[replica] += dropped

    def _round_structured(
        self, loads: np.ndarray, active: np.ndarray
    ) -> np.ndarray:
        """One round's new loads executed matrix-free.

        The shared stateless balancer evaluates the whole stack in one
        compact description; per-replica balancers (e.g. stateful
        rotors) produce one compact round each — still O(n·d) per
        replica instead of a dense matrix.
        """
        graph = self.graph
        if self._vectorized:
            balancer = self.balancers[0]
            compact = balancer.sends_structured(loads, self.round)
            if self.validate_every_round:
                compact.validate(graph, loads)
            if not balancer.allows_negative:
                remainder = compact.remainder(graph, loads)
                if remainder.min() < 0:
                    self._raise_structured_overdraw(
                        remainder, active, balancer
                    )
            new_loads = self._backend.apply(graph, compact, loads)
            if self._fault_schedules is not None:
                for row, replica in enumerate(active.tolist()):
                    faults = self._round_faults[replica]
                    if faults is None:
                        continue
                    self._settle_faults(
                        new_loads[row],
                        replica,
                        faults,
                        lambda pairs, r=row: structured_port_values(
                            compact, graph, pairs, replica=r
                        ),
                    )
            return new_loads
        new_loads = np.empty_like(loads)
        for row, replica in enumerate(active):
            balancer = self._balancer_for(int(replica))
            graph = self._graph_for(int(replica))
            replica_loads = self._loads[int(replica)]
            compact = balancer.sends_structured(replica_loads, self.round)
            if self.validate_every_round:
                compact.validate(graph, replica_loads)
            if not balancer.allows_negative:
                remainder = compact.remainder(graph, replica_loads)
                if remainder.min() < 0:
                    self._raise_structured_overdraw(
                        remainder[None, :], active[row:], balancer
                    )
            new_loads[row] = self._backend.apply(
                graph, compact, replica_loads
            )
            if self._fault_schedules is not None:
                faults = self._round_faults[int(replica)]
                if faults is not None:
                    self._settle_faults(
                        new_loads[row],
                        int(replica),
                        faults,
                        lambda pairs, c=compact: structured_port_values(
                            c, graph, pairs
                        ),
                    )
        return new_loads

    def _raise_structured_overdraw(
        self,
        remainder: np.ndarray,
        active: np.ndarray,
        balancer: Balancer,
    ) -> None:
        row, node = np.unravel_index(
            int(np.argmin(remainder)), remainder.shape
        )
        raise NegativeLoadError(
            f"round {self.round}: replica {int(active[row])} node "
            f"{int(node)} overdrew its load (balancer "
            f"{balancer.name!r} does not allow negative load)"
        )

    def run(self, rounds: int) -> BatchResult:
        """Execute ``rounds`` rounds for every replica.

        Fault schedules take the per-step path: their corrections are
        per-replica scatter updates, which is exactly the bookkeeping
        the tight vectorized loop exists to avoid.
        """
        if (
            self._vectorized
            and self._active.all()
            and self._fault_schedules is None
            and self._topology_schedules is None
        ):
            self._run_vectorized(rounds)
        else:
            for _ in range(rounds):
                self.step()
        return self._result()

    def _run_vectorized(self, rounds: int) -> None:
        """Tight fixed-round loop for the shared-balancer batch path.

        Semantically identical to ``rounds`` calls of :meth:`step` with
        every replica active; exists because per-step bookkeeping
        (masking, per-replica history appends) would otherwise eat the
        vectorization win at small ``n``.
        """
        graph = self.graph
        balancer = self.balancers[0]
        backend = self._backend
        structured = backend.protocol == STRUCTURED
        degree = graph.degree
        replicas = self.num_replicas
        validate = self.validate_every_round
        check_overdraw = not balancer.allows_negative
        record = self.record_history
        discrepancy_rows: list[np.ndarray] = []
        loads = self._loads
        for _ in range(rounds):
            if self._injectors is not None:
                loads = self._inject_stack(loads)
            if structured:
                compact = balancer.sends_structured(loads, self.round)
                if validate:
                    compact.validate(graph, loads)
                if check_overdraw:
                    remainder = compact.remainder(graph, loads)
                    if remainder.min() < 0:
                        self._raise_structured_overdraw(
                            remainder, np.arange(replicas), balancer
                        )
                new_loads = backend.apply(graph, compact, loads)
            else:
                sends = balancer.sends_batch(loads, self.round)
                if validate:
                    self._validate_sends(sends, replicas)
                edge_out = sends[:, :, :degree].sum(axis=2)
                if check_overdraw:
                    remainder = loads - edge_out
                    remainder -= sends[:, :, degree:].sum(axis=2)
                    if remainder.min() < 0:
                        self._check_overdraw(
                            remainder, np.arange(replicas)
                        )
                incoming = backend.incoming(graph, sends)
                new_loads = loads - edge_out
                new_loads += incoming
            new_totals = new_loads.sum(axis=1)
            if not np.array_equal(new_totals, self.totals):
                bad = int(np.flatnonzero(new_totals != self.totals)[0])
                raise ConservationError(
                    f"round {self.round}: replica {bad} token count "
                    f"changed from {int(self.totals[bad])}"
                )
            loads = new_loads
            if record:
                discrepancy_rows.append(
                    loads.max(axis=1) - loads.min(axis=1)
                )
            if self._has_probes:
                for replica in range(replicas):
                    row = loads[replica]
                    for probe in self.probe_sets[replica]:
                        probe.observe_loads(self.round, row)
            self.round += 1
        self._loads = loads
        self._rounds_executed += rounds
        if record and discrepancy_rows:
            tails = np.stack(discrepancy_rows, axis=1).tolist()
            for history, tail in zip(self.histories, tails):
                history.extend(tail)

    def _inject_stack(self, loads: np.ndarray) -> np.ndarray:
        """Injection for the tight fixed-round loop (all replicas active).

        In place, row by row: each replica's injector sees exactly its
        own row, and no per-round ``(replicas, n)`` scratch array is
        allocated (allocator churn would dominate the vector add).
        """
        for replica in range(self.num_replicas):
            injector = self._injectors[replica]
            row = loads[replica]
            delta = validate_delta(
                injector.delta(self.round, row),
                row,
                injector.name,
                self.round,
            )
            row += delta
            moved = int(delta.sum())
            self.totals[replica] += moved
            self._tokens_injected[replica] += moved
        return loads

    def run_until(
        self,
        predicates: Sequence[Callable[[np.ndarray], bool]],
        max_rounds: int,
        check_every: int = 1,
    ) -> BatchResult:
        """Run until each replica's predicate holds (or budget runs out).

        Mirrors :meth:`Simulator.run_until` replica-for-replica: each
        predicate is evaluated on its replica's load vector before the
        first round and then every ``check_every`` rounds; a satisfied
        replica is frozen (no further rounds) while the rest continue.
        """
        if len(predicates) != self.num_replicas:
            raise ValueError(
                f"got {len(predicates)} predicates for "
                f"{self.num_replicas} replicas"
            )
        for replica in np.flatnonzero(self._active):
            if predicates[replica](self._loads[replica]):
                self._active[replica] = False
                self._stopped_early[replica] = True
        executed = 0
        while executed < max_rounds and self._active.any():
            self.step()
            executed += 1
            if executed % check_every == 0:
                for replica in np.flatnonzero(self._active):
                    if predicates[replica](self._loads[replica]):
                        self._active[replica] = False
                        self._stopped_early[replica] = True
        return self._result()

    # ------------------------------------------------------------------

    def _check_overdraw(
        self, remainder: np.ndarray, active: np.ndarray
    ) -> None:
        if remainder.min() >= 0:
            return
        for row, replica in enumerate(active):
            balancer = self._balancer_for(int(replica))
            if balancer.allows_negative:
                continue
            if remainder[row].min() < 0:
                node = int(np.argmin(remainder[row]))
                raise NegativeLoadError(
                    f"round {self.round}: replica {int(replica)} node "
                    f"{node} overdrew its load (balancer "
                    f"{balancer.name!r} does not allow negative load)"
                )

    def _validate_sends(self, sends: np.ndarray, batch: int) -> None:
        expected = (batch, self.graph.num_nodes, self.graph.total_degree)
        if sends.shape != expected:
            raise InvalidSendMatrix(
                f"batched sends have shape {sends.shape}, "
                f"expected {expected}"
            )
        if not np.issubdtype(sends.dtype, np.integer):
            raise InvalidSendMatrix(
                f"sends must be integer, got dtype {sends.dtype}"
            )
        if sends.min() < 0:
            raise InvalidSendMatrix(
                "sends contain negative entries; tokens can only move "
                "forward along edges"
            )

    def _engine_summary(self, replica: int) -> dict:
        summary = {
            "initial_discrepancy": int(
                self.initial_loads[replica].max()
                - self.initial_loads[replica].min()
            ),
            "final_discrepancy": int(
                self._loads[replica].max()
                - self._loads[replica].min()
            ),
        }
        if self._injectors is not None:
            summary["tokens_injected"] = int(
                self._tokens_injected[replica]
            )
            summary.update(self._injectors[replica].summary())
        if self._fault_schedules is not None:
            schedule = self._fault_schedules[replica]
            summary["fault_schedule"] = schedule.name
            summary["tokens_dropped"] = int(
                self._tokens_dropped[replica]
            )
            summary.update(schedule.summary())
        if self._topology_schedules is not None:
            schedule = self._topology_schedules[replica]
            summary["topology_schedule"] = schedule.name
            summary["topology_rounds"] = int(
                self._topology_rounds[replica]
            )
            summary.update(schedule.summary())
        return summary

    def _result(self) -> BatchResult:
        records = [
            build_record(
                replica=replica,
                rounds_executed=int(self._rounds_executed[replica]),
                stopped_early=bool(self._stopped_early[replica]),
                engine_summary=self._engine_summary(replica),
                discrepancy_history=(
                    self.histories[replica] if self.histories else None
                ),
                probes=(
                    self.probe_sets[replica] if self.probe_sets else ()
                ),
            )
            for replica in range(self.num_replicas)
        ]
        return BatchResult(
            initial_loads=self.initial_loads,
            final_loads=self._loads.copy(),
            rounds_executed=self._rounds_executed.copy(),
            stopped_early=self._stopped_early.copy(),
            histories=[list(h) for h in self.histories],
            records=records,
        )
