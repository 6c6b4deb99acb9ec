"""The ROTOR-ROUTER (Propp machine) as a load balancer.

Each node's ``d+`` ports are arranged in a fixed cyclic order and the
node keeps a rotor pointing at one of them.  To distribute load ``x``
the node sends one token along the rotor's port, advances the rotor,
and repeats — equivalently, every port receives ``⌊x/d+⌋`` tokens and
the ``x mod d+`` extra tokens go to the next ``x mod d+`` ports in
cyclic order starting at the rotor, which then advances by ``x mod d+``.

Observation 2.2: cumulatively 1-fair (the round-robin guarantees that
cumulative counts of any two ports differ by at most 1).  Table 1
flags: deterministic, **stateful**, never negative, no communication.

Theorem 4.3 is about this algorithm with ``d° = 0``; the class supports
arbitrary self-loop counts including zero, plus custom per-node port
orders and initial rotor positions (needed for the lower-bound
construction in :mod:`repro.lower_bounds.rotor_alternating`).
"""

from __future__ import annotations

import numpy as np

from repro.core.balancer import AlgorithmProperties, Balancer
from repro.core.errors import BindingError
from repro.core.structured import RotorWindow, StructuredRound, in_window
from repro.graphs.balancing import BalancingGraph


def interleaved_port_order(degree: int, num_self_loops: int) -> np.ndarray:
    """A port order alternating original edges and self-loops.

    With ``d° >= d`` this yields ``original, loop, original, loop, ...``
    followed by leftover loops; it spreads self-loop laziness evenly
    through the rotor cycle (the arrangement analyzed in [3]).

    Strided assembly instead of the obvious alternating-pop loop: the
    latter is O(d+²) per call (``list.pop(0)`` shifts the tail), which
    showed up at bind time on high-degree fat-tree core switches.
    """
    paired = min(degree, num_self_loops)
    order = np.empty(degree + num_self_loops, dtype=np.int64)
    order[0: 2 * paired: 2] = np.arange(paired)
    order[1: 2 * paired: 2] = degree + np.arange(paired)
    if degree > paired:
        order[2 * paired:] = np.arange(paired, degree)
    else:
        order[2 * paired:] = degree + np.arange(paired, num_self_loops)
    return order


class RotorRouter(Balancer):
    """Rotor-router load balancing on ``G+``.

    Args:
        port_orders: optional ``(n, d+)`` array; row ``u`` is the cyclic
            port order of node ``u`` (a permutation of ``0..d+-1``).
            Default: the same interleaved order at every node.
        initial_rotors: optional length-``n`` initial rotor positions
            (indices *into the cyclic order*, not port numbers).
    """

    name = "rotor_router"
    properties = AlgorithmProperties(
        deterministic=True,
        stateless=False,
        negative_load_safe=True,
        communication_free=True,
    )
    supports_structured_sends = True

    def __init__(
        self,
        port_orders: np.ndarray | None = None,
        initial_rotors: np.ndarray | None = None,
    ) -> None:
        super().__init__()
        self._custom_orders = port_orders
        self._custom_rotors = initial_rotors
        self._orders: np.ndarray | None = None
        self._rotors: np.ndarray | None = None
        self._reverse_flat: np.ndarray | None = None
        self.refresh_rows = 0
        self.refresh_full = 0

    def _validate_graph(self, graph: BalancingGraph) -> None:
        d_plus = graph.total_degree
        if self._custom_orders is not None:
            orders = np.asarray(self._custom_orders, dtype=np.int64)
            if orders.shape != (graph.num_nodes, d_plus):
                raise BindingError(
                    f"port_orders shape {orders.shape} does not match "
                    f"(n={graph.num_nodes}, d+={d_plus})"
                )
            expected = np.arange(d_plus)
            if not np.all(np.sort(orders, axis=1) == expected[None, :]):
                raise BindingError(
                    "each port_orders row must be a permutation of ports"
                )
        if self._custom_rotors is not None:
            rotors = np.asarray(self._custom_rotors, dtype=np.int64)
            if rotors.shape != (graph.num_nodes,):
                raise BindingError(
                    f"initial_rotors must have length {graph.num_nodes}"
                )
            if rotors.min() < 0 or rotors.max() >= d_plus:
                raise BindingError(
                    f"rotor positions must lie in [0, {d_plus})"
                )

    def _on_bind(self, graph: BalancingGraph) -> None:
        n = graph.num_nodes
        d_plus = graph.total_degree
        # positions is the inverse permutation of the port order (the
        # cyclic position of each port).  One shared order is kept as
        # a single broadcast row, not an (n, d+) tile; custom orders
        # are stored port-major so the round's hit matrix reads each
        # port's positions contiguously.  Both are exposed (n, d+).
        if self._custom_orders is not None:
            self._orders = np.asarray(self._custom_orders, dtype=np.int64)
            self._positions = np.ascontiguousarray(
                np.argsort(self._orders, axis=1).T
            ).T
        else:
            row = interleaved_port_order(
                graph.degree, graph.num_self_loops
            )
            self._orders = np.broadcast_to(row, (n, d_plus))
            self._positions = np.broadcast_to(np.argsort(row), (n, d_plus))
        self._reverse_flat = _port_major_sources(graph)

    def refresh_topology(self, graph: BalancingGraph, dirty=None) -> None:
        """Repair ``reverse_flat`` for the mutated rows only.

        The port orders and positions depend only on ``(n, d+)`` —
        unchanged under in-place churn — and the rotors deliberately
        keep their positions, so the receiver-side gather index is the
        only structure that goes stale.  A dirty node ``v`` owns column
        ``v`` of the port-major index; repair cost is O(|dirty| * d),
        independent of ``n``; the counters back the incrementality
        regression test.
        """
        self._graph = graph
        if dirty is None or self._reverse_flat is None:
            self._on_bind(graph)
            self.refresh_full += 1
            return
        rows = np.asarray(dirty, dtype=np.int64)
        if rows.size == 0:
            return
        n = graph.num_nodes
        view = self._reverse_flat.reshape(graph.degree, n)
        view[:, rows] = (
            graph.reverse_port[rows].T * n + graph.adjacency_pm[:, rows]
        )
        self.refresh_rows += int(rows.size)

    def reset(self) -> None:
        graph = self.graph
        # Per-run contract: the incrementality counters describe the
        # run that is about to start, not the lifetime of the instance
        # — without this they bleed across replicas/reruns of one
        # balancer (bind() resets before every run).
        self.refresh_rows = 0
        self.refresh_full = 0
        if self._custom_rotors is not None:
            self._rotors = np.asarray(
                self._custom_rotors, dtype=np.int64
            ).copy()
        else:
            self._rotors = np.zeros(graph.num_nodes, dtype=np.int64)

    @property
    def rotors(self) -> np.ndarray:
        """Current rotor positions (cyclic-order indices)."""
        return self._rotors

    def sends(self, loads: np.ndarray, t: int) -> np.ndarray:
        graph = self.graph
        d_plus = graph.total_degree
        quotient, extra = np.divmod(loads, d_plus)
        # Value at cyclic position k: quotient, plus 1 if k falls in the
        # window [rotor, rotor + extra) mod d+.
        end = self._rotors + extra
        hits = in_window(
            np.arange(d_plus), self._rotors[:, None], end[:, None], d_plus
        )
        values = quotient[:, None] + hits
        sends = np.empty((graph.num_nodes, d_plus), dtype=np.int64)
        np.put_along_axis(sends, self._orders, values, axis=1)
        self._rotors = _advance(end, d_plus)
        return sends

    def sends_structured(self, loads: np.ndarray, t: int) -> StructuredRound:
        # The compact form of the rule above: the uniform quotient on
        # every port plus a +1 window of length x mod d+ starting at the
        # rotor.  Advances the rotors exactly as sends() does; the
        # handed-out window keeps the pre-advance positions.
        graph = self.graph
        d_plus = graph.total_degree
        if loads.ndim != 1:
            raise ValueError(
                "rotor-router is stateful; structured sends take one "
                "(n,) load vector per instance"
            )
        quotient, extra = np.divmod(loads, d_plus)
        window = RotorWindow(
            rotors=self._rotors,
            extra=extra,
            positions=self._positions,
            reverse_flat=self._reverse_flat,
        )
        self._rotors = _advance(self._rotors + extra, d_plus)
        return StructuredRound(
            edge_share=quotient,
            loop_base=quotient if graph.num_self_loops else None,
            window=window,
        )


def _advance(end: np.ndarray, d_plus: int) -> np.ndarray:
    """``end % d+`` for ``0 <= end < 2·d+``: one conditional subtract."""
    return end - d_plus * (end >= d_plus)


def _port_major_sources(graph: BalancingGraph) -> np.ndarray:
    """The port-major reverse index ``reverse_flat`` (see RotorWindow).

    Entry ``p·n + v`` is ``reverse_port[v, p]·n + adjacency[v, p]``:
    where, in a port-major ``(d, n)`` matrix of sent values, the token
    arriving at ``v`` over port ``p`` sits.
    """
    n = graph.num_nodes
    sources = np.empty((graph.degree, n), dtype=np.int64)
    np.multiply(graph.reverse_port.T, n, out=sources)
    sources += graph.adjacency.T
    return sources.ravel()
