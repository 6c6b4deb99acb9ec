"""ROTOR-ROUTER*: the self-preferring rotor-router variant (Section 1.1).

``num_special`` *special* self-loops receive the ceiling share
``⌈x/d+⌉`` whenever the load does not divide evenly (more precisely,
``min(s, e)`` of them receive ``⌈x/d+⌉`` and the rest ``⌊x/d+⌋``, where
``e = x mod d+``); the remaining tokens are distributed by an ordinary
rotor-router over the other ``d+ - s`` ports.

With ``num_special = 1`` this is exactly the paper's ROTOR-ROUTER*
(Observation 3.2: a good 1-balancer); larger values give a *tunable*
good s-balancer on a fixed graph, which experiment E5 uses to probe
Theorem 3.3's ``d/s`` speed-up without changing ``μ``.

The paper describes the case ``d° = d`` ("maintains d−1 self-loops
together with one special self-loop", i.e. ``d+ = 2d``); the
implementation accepts any ``d° >= num_special``.
"""

from __future__ import annotations

import numpy as np

from repro.core.balancer import AlgorithmProperties, Balancer
from repro.core.errors import BindingError
from repro.graphs.balancing import BalancingGraph


class RotorRouterStar(Balancer):
    """Rotor-router with ``num_special`` always-ceiling self-loops."""

    properties = AlgorithmProperties(
        deterministic=True,
        stateless=False,
        negative_load_safe=True,
        communication_free=True,
    )

    def __init__(self, num_special: int = 1) -> None:
        super().__init__()
        if num_special < 1:
            raise ValueError("num_special must be >= 1")
        self.num_special = num_special
        self.name = (
            "rotor_router_star"
            if num_special == 1
            else f"rotor_router_star[s={num_special}]"
        )
        self._rotors: np.ndarray | None = None
        self._orders: np.ndarray | None = None

    def _validate_graph(self, graph: BalancingGraph) -> None:
        if graph.num_self_loops < self.num_special:
            raise BindingError(
                f"ROTOR-ROUTER* with {self.num_special} special loops "
                f"needs d° >= {self.num_special}, got {graph.num_self_loops}"
            )
        if graph.total_degree - self.num_special < 1:
            raise BindingError("no ports left for the rotor")

    def _on_bind(self, graph: BalancingGraph) -> None:
        # Special self-loops are the last `num_special` ports; the rotor
        # cycles over the rest, interleaving originals and loops.
        d_plus = graph.total_degree
        ordinary: list[int] = []
        originals = list(range(graph.degree))
        loops = list(range(graph.degree, d_plus - self.num_special))
        while originals or loops:
            if originals:
                ordinary.append(originals.pop(0))
            if loops:
                ordinary.append(loops.pop(0))
        order = np.array(ordinary, dtype=np.int64)
        # One order at every node: a broadcast row, not an (n, d+) tile.
        self._orders = np.broadcast_to(order, (graph.num_nodes, order.size))
        self._cycle = d_plus - self.num_special
        self._position_window = np.arange(self._cycle)[None, :]
        self._special_index = np.arange(self.num_special)[None, :]

    def reset(self) -> None:
        self._rotors = np.zeros(self.graph.num_nodes, dtype=np.int64)

    @property
    def rotors(self) -> np.ndarray:
        return self._rotors

    @property
    def special_ports(self) -> tuple[int, ...]:
        """Indices of the always-ceiling self-loop ports."""
        d_plus = self.graph.total_degree
        return tuple(range(d_plus - self.num_special, d_plus))

    def sends(self, loads: np.ndarray, t: int) -> np.ndarray:
        graph = self.graph
        d_plus = graph.total_degree
        quotient, excess = np.divmod(loads, d_plus)
        # min(s, e) special loops take the ceiling, the rest the floor.
        num_ceiling = np.minimum(self.num_special, excess)
        sends = np.zeros((graph.num_nodes, d_plus), dtype=np.int64)
        special = quotient[:, None] + (
            self._special_index < num_ceiling[:, None]
        )
        sends[:, d_plus - self.num_special:] = special
        # Rotor distributes the remaining tokens over the other ports.
        remaining_extra = excess - num_ceiling
        offsets = (
            self._position_window - self._rotors[:, None]
        ) % self._cycle
        values = quotient[:, None] + (offsets < remaining_extra[:, None])
        np.put_along_axis(sends, self._orders, values, axis=1)
        self._rotors = (self._rotors + remaining_extra) % self._cycle
        return sends
