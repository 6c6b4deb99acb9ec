"""In-place mutable balancing graphs — the dynamic-topology substrate.

A :class:`~repro.topology.schedules.TopologySchedule` rewires the
fabric *while the process runs*: edges fail and rejoin, nodes leave and
come back, an expander is rewired swap by swap.  Rebuilding an
immutable :class:`~repro.graphs.irregular.PaddedBalancingGraph` per
change would cost O(n·d) per round regardless of how little changed;
:class:`MutableBalancingGraph` instead supports O(1) in-place edge
add/drop with incremental ``reverse_port`` repair and tracks the
*dirty* node set so balancers can refresh only the rows that actually
moved (see ``Balancer.refresh_topology``).  The adjacency is stored
port-major (``(d_max, n)``, the layout the structured round gathers
over) and ``adjacency`` is its ``(n, d_max)`` transposed view, so the
O(1) edge operations keep both layouts current with no repair pass.

The layout discipline is the whole determinism story: an added edge
always lands in the first padding slot (port ``true_degrees[u]``) and a
dropped edge is swap-removed (the last real port moves into the hole).
Any two implementations applying the same event sequence therefore
produce the *same port numbering*, which is what makes rotor-router
trajectories — whose sends depend on port order — bit-identical between
the incremental engines and the rebuild-from-scratch reference
simulator in ``tests/differential``.

Padding semantics are inherited from the irregular layer: a padding
port points at its own node and is its own reverse, so the engine's
gather bounces its tokens straight back — self-loop behavior.  A node
with every edge removed (a *left* node) keeps balancing against itself
and conserves whatever load it still holds.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.graphs.errors import GraphValidationError
from repro.graphs.irregular import PaddedBalancingGraph

__all__ = ["MutableBalancingGraph"]


class MutableBalancingGraph:
    """A padded balancing graph with writable structure.

    Exposes the same structural protocol the engines and balancers
    consume (``num_nodes``, ``degree``, ``total_degree``,
    ``num_self_loops``, ``adjacency``, ``reverse_port``,
    ``true_degrees``, tiers) with three differences:

    * the arrays are writable and mutated in place by the edge/node
      operations below;
    * ``degree`` is a fixed port *capacity* ``d_max`` — true degrees
      may all sink below it under churn (the immutable class requires
      ``true_degrees.max() == d_max``);
    * an :attr:`active` mask records which nodes are currently part of
      the network (an inactive node has zero real edges).

    Mutations accumulate a **dirty node set** — every node whose
    adjacency/reverse-port row changed, including far endpoints touched
    by swap-remove repairs — which :meth:`consume_dirty` hands to the
    balancer's incremental refresh.
    """

    def __init__(
        self,
        adjacency: np.ndarray,
        true_degrees: np.ndarray,
        num_self_loops: int,
        *,
        reverse_port: np.ndarray | None = None,
        active: np.ndarray | None = None,
        name: str = "",
        node_tiers: np.ndarray | Sequence[int] | None = None,
        tier_names: Sequence[str] | None = None,
        validate: bool = True,
    ) -> None:
        # Always a private copy: a caller's array (or another mutable
        # graph's transposed view) must never alias this storage.
        self._adjacency_pm = np.array(
            np.asarray(adjacency).T, dtype=np.int64, order="C"
        )
        self.true_degrees = np.ascontiguousarray(
            true_degrees, dtype=np.int64
        )
        n, d_max = self.adjacency.shape
        if self.true_degrees.shape != (n,):
            raise GraphValidationError(
                "true_degrees length must match adjacency rows"
            )
        if num_self_loops < 0:
            raise GraphValidationError("num_self_loops must be >= 0")
        if validate:
            PaddedBalancingGraph._check_padding(
                self.adjacency, self.true_degrees
            )
        if reverse_port is None:
            reverse_port = PaddedBalancingGraph._padded_reverse_port(
                self.adjacency, self.true_degrees
            )
        self._reverse_port = np.ascontiguousarray(
            reverse_port, dtype=np.int64
        )
        if self._reverse_port.shape != (n, d_max):
            raise GraphValidationError(
                "reverse_port shape must match adjacency"
            )
        self._num_self_loops = int(num_self_loops)
        if active is None:
            active = np.ones(n, dtype=bool)
        self.active = np.ascontiguousarray(active, dtype=bool)
        if self.active.shape != (n,):
            raise GraphValidationError(
                "active mask length must match the number of nodes"
            )
        self.name = name or f"mutable(n={n}, d_max={d_max})"
        self._node_tiers = None
        self._tier_names = None
        if (node_tiers is None) != (tier_names is None):
            raise GraphValidationError(
                "node_tiers and tier_names must be given together"
            )
        if node_tiers is not None:
            self._node_tiers = np.ascontiguousarray(
                node_tiers, dtype=np.int64
            )
            self._tier_names = tuple(str(t) for t in tier_names)
        self._dirty: set[int] = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_graph(cls, graph) -> "MutableBalancingGraph":
        """A writable deep copy of any balancing graph.

        The engines always copy before mutating: prebuilt graphs are
        shared across scenarios (suite ``graph_cache``) and across
        replicas, and an immutable graph's arrays are write-locked
        anyway.
        """
        n = graph.num_nodes
        d = graph.degree
        true_degrees = getattr(graph, "true_degrees", None)
        if true_degrees is None:
            true_degrees = np.full(n, d, dtype=np.int64)
        else:
            true_degrees = true_degrees.copy()
        return cls(
            graph.adjacency,
            true_degrees,
            graph.num_self_loops,
            reverse_port=graph.reverse_port.copy(),
            name=f"mutable({getattr(graph, 'name', '')})",
            node_tiers=getattr(graph, "node_tiers", None),
            tier_names=getattr(graph, "tier_names", None),
            validate=False,
        )

    @classmethod
    def from_neighbor_lists(
        cls,
        neighbor_lists: Sequence[Sequence[int]],
        d_max: int,
        num_self_loops: int,
        *,
        active: Iterable[bool] | None = None,
    ) -> "MutableBalancingGraph":
        """Full rebuild from per-node neighbor lists, *in list order*.

        The rebuild-from-scratch path the naive reference simulator
        uses each round: neighbor blocks are laid out exactly as given
        (NOT sorted — the swap-remove discipline produces unsorted
        blocks, and port order is load-bearing for rotor schemes), the
        reverse-port map is recomputed from nothing, and every padding
        invariant is re-validated.
        """
        n = len(neighbor_lists)
        adjacency = np.broadcast_to(
            np.arange(n, dtype=np.int64)[:, None], (n, d_max)
        ).copy()
        degrees = np.zeros(n, dtype=np.int64)
        for u, row in enumerate(neighbor_lists):
            if len(row) > d_max:
                raise GraphValidationError(
                    f"node {u} has {len(row)} neighbors, capacity {d_max}"
                )
            degrees[u] = len(row)
            adjacency[u, : len(row)] = row
        graph = cls(
            adjacency,
            degrees,
            num_self_loops,
            active=(
                None
                if active is None
                else np.fromiter(active, dtype=bool, count=n)
            ),
        )
        return graph

    # ------------------------------------------------------------------
    # Structural protocol consumed by the engine / balancers
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._adjacency_pm.shape[1]

    @property
    def degree(self) -> int:
        """Port capacity ``d_max`` (original block width, incl. padding)."""
        return self._adjacency_pm.shape[0]

    @property
    def num_self_loops(self) -> int:
        return self._num_self_loops

    @property
    def total_degree(self) -> int:
        return self.degree + self._num_self_loops

    @property
    def adjacency(self) -> np.ndarray:
        """Writable ``(n, d_max)`` view of the port-major storage."""
        return self._adjacency_pm.T

    @property
    def adjacency_pm(self) -> np.ndarray:
        """The port-major ``(d_max, n)`` storage itself."""
        return self._adjacency_pm

    @property
    def reverse_port(self) -> np.ndarray:
        return self._reverse_port

    @property
    def node_tiers(self) -> np.ndarray | None:
        return self._node_tiers

    @property
    def tier_names(self) -> tuple[str, ...] | None:
        return self._tier_names

    def neighbors(self, node: int) -> tuple[int, ...]:
        """Real neighbors only (padding excluded)."""
        deg = int(self.true_degrees[node])
        return tuple(int(v) for v in self._adjacency_pm[:deg, node])

    def port_target(self, node: int, port: int) -> int:
        if not 0 <= port < self.total_degree:
            raise IndexError(
                f"port {port} out of range [0, {self.total_degree})"
            )
        if port < self.degree:
            return int(self._adjacency_pm[port, node])
        return node

    def is_original_port(self, port: int) -> bool:
        return 0 <= port < self.degree

    def padding_count(self, node: int) -> int:
        return self.degree - int(self.true_degrees[node])

    def has_edge(self, u: int, v: int) -> bool:
        deg = int(self.true_degrees[u])
        # Rows are at most d_max entries: a python-level membership test
        # on the materialized block beats a numpy comparison kernel by
        # an order of magnitude at these sizes, and this runs on every
        # churned edge of every churn round.
        return v in self._adjacency_pm[:deg, u].tolist()

    def transition_matrix(self) -> np.ndarray:
        """Doubly stochastic walk matrix of the *current* topology.

        Recomputed on every call — a mutable graph cannot cache it.
        """
        n = self.num_nodes
        d_plus = self.total_degree
        matrix = np.zeros((n, n), dtype=np.float64)
        ports = np.arange(self.degree)
        real = ports[None, :] < self.true_degrees[:, None]
        us, ps = np.nonzero(real)
        np.add.at(
            matrix, (us, self._adjacency_pm[ps, us]), 1.0 / d_plus
        )
        diag = np.arange(n)
        matrix[diag, diag] += (
            self._num_self_loops + self.degree - self.true_degrees
        ) / d_plus
        return matrix

    def describe(self) -> dict:
        return {
            "name": self.name,
            "n": self.num_nodes,
            "d_max": self.degree,
            "min_degree": int(self.true_degrees.min()),
            "d_self": self.num_self_loops,
            "d_plus": self.total_degree,
            "active_nodes": int(self.active.sum()),
        }

    # ------------------------------------------------------------------
    # Mutation (all O(1) per edge; dirty nodes accumulate)
    # ------------------------------------------------------------------

    def add_edge(self, u: int, v: int) -> None:
        """Connect ``u`` and ``v``; the edge lands in each node's first
        padding slot."""
        if u == v:
            raise GraphValidationError(
                f"cannot add self-edge at node {u}"
            )
        if not (self.active[u] and self.active[v]):
            raise GraphValidationError(
                f"cannot add edge ({u}, {v}): endpoint inactive"
            )
        if self.has_edge(u, v):
            raise GraphValidationError(
                f"edge ({u}, {v}) already present"
            )
        pu = int(self.true_degrees[u])
        pv = int(self.true_degrees[v])
        if pu >= self.degree or pv >= self.degree:
            raise GraphValidationError(
                f"cannot add edge ({u}, {v}): port capacity "
                f"{self.degree} exhausted"
            )
        self._adjacency_pm[pu, u] = v
        self._adjacency_pm[pv, v] = u
        self._reverse_port[u, pu] = pv
        self._reverse_port[v, pv] = pu
        self.true_degrees[u] = pu + 1
        self.true_degrees[v] = pv + 1
        self._dirty.add(u)
        self._dirty.add(v)

    def drop_edge(self, u: int, v: int) -> None:
        """Sever the edge between ``u`` and ``v`` (swap-remove)."""
        deg = int(self.true_degrees[u])
        try:
            pu = self._adjacency_pm[:deg, u].tolist().index(v)
        except ValueError:
            raise GraphValidationError(
                f"cannot drop absent edge ({u}, {v})"
            ) from None
        pv = int(self._reverse_port[u, pu])
        self._remove_port(u, pu)
        self._remove_port(v, pv)

    def _remove_port(self, u: int, p: int) -> None:
        """Vacate real port ``p`` of ``u``: last real port moves in."""
        last = int(self.true_degrees[u]) - 1
        if p != last:
            w = int(self._adjacency_pm[last, u])
            q = int(self._reverse_port[u, last])
            self._adjacency_pm[p, u] = w
            self._reverse_port[u, p] = q
            # The moved edge's far endpoint must point back at the new
            # slot — the incremental reverse-port repair.
            self._reverse_port[w, q] = p
            self._dirty.add(w)
        self._adjacency_pm[last, u] = u
        self._reverse_port[u, last] = last
        self.true_degrees[u] = last
        self._dirty.add(u)

    def deactivate_node(self, u: int) -> tuple[int, ...]:
        """Remove ``u`` from the network; returns its severed neighbors.

        All incident edges are dropped (every surviving endpoint gets
        its row repaired) and the node is marked inactive.  Its load is
        untouched — handoff is the topology schedule/engine's business.
        """
        if not self.active[u]:
            raise GraphValidationError(f"node {u} is already inactive")
        severed = self.neighbors(u)
        for v in severed:
            self.drop_edge(u, v)
        self.active[u] = False
        self._dirty.add(u)
        return severed

    def activate_node(
        self, u: int, neighbors: Iterable[int] = ()
    ) -> None:
        """Re-admit ``u``, wiring it to ``neighbors`` in given order."""
        if self.active[u]:
            raise GraphValidationError(f"node {u} is already active")
        if self.true_degrees[u] != 0:
            raise GraphValidationError(
                f"inactive node {u} still has real edges"
            )
        self.active[u] = True
        self._dirty.add(u)
        for v in neighbors:
            self.add_edge(u, int(v))

    def consume_dirty(self) -> np.ndarray:
        """Nodes whose rows changed since the last call (sorted); clears."""
        if not self._dirty:
            return np.empty(0, dtype=np.int64)
        dirty = np.fromiter(
            self._dirty, dtype=np.int64, count=len(self._dirty)
        )
        self._dirty.clear()
        dirty.sort()
        return dirty

    # ------------------------------------------------------------------
    # Invariant checking (tests / reference harness)
    # ------------------------------------------------------------------

    def check_consistency(self) -> None:
        """Full structural re-validation (O(n·d); tests only)."""
        adjacency = self.adjacency
        PaddedBalancingGraph._check_padding(adjacency, self.true_degrees)
        n, d = adjacency.shape
        ports = np.arange(d)
        real = ports[None, :] < self.true_degrees[:, None]
        us, ps = np.nonzero(real)
        vs = adjacency[us, ps]
        qs = self._reverse_port[us, ps]
        if np.any((qs < 0) | (qs >= self.true_degrees[vs])):
            raise GraphValidationError(
                "reverse_port points outside the far real block"
            )
        if not np.array_equal(adjacency[vs, qs], us):
            raise GraphValidationError(
                "reverse_port does not invert adjacency"
            )
        pad_rev = self._reverse_port[~real]
        pad_ports = np.broadcast_to(ports, (n, d))[~real]
        if not np.array_equal(pad_rev, pad_ports):
            raise GraphValidationError(
                "padding ports must be their own reverse"
            )
        if np.any(self.true_degrees[~self.active] != 0):
            raise GraphValidationError(
                "inactive nodes must have zero real edges"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MutableBalancingGraph(name={self.name!r}, "
            f"n={self.num_nodes}, d_max={self.degree}, "
            f"active={int(self.active.sum())})"
        )
