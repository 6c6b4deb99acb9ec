"""Compact round descriptions — the matrix-free structured-sends protocol.

The paper's deterministic schemes never need a full ``(n, d+)`` sends
matrix: a round of SEND(⌊x/d+⌋) / SEND([x/d+]) is fully described by a
*uniform per-edge share* plus a floor/ceil assignment over the
self-loops, and a rotor-router round by the same uniform share plus a
cyclic *window* of ports receiving one extra token.  Self-loop tokens
never leave their node, so executing a round only needs the per-node
edge outflow and a share-gather over the adjacency:

    ``x_{t+1}(u) = x_t(u) - out(u) + Σ_{v ~ u} share(v) [+ window hits]``

:class:`StructuredRound` is that compact description.  Balancers that
can produce it set :attr:`~repro.core.balancer.Balancer.\
supports_structured_sends` and implement ``sends_structured``; the
engines (:class:`~repro.core.engine.Simulator`,
:class:`~repro.scenarios.batch.BatchRunner`) then execute rounds with a
handful of O(n·d) operations over a port-major ``(d, n)`` layout and
validate invariants on the compact form — no ``(n, d+)`` allocation
anywhere on the hot path.  The dense ``sends`` protocol remains the
fallback for arbitrary balancers and for dense-requiring probes
(loads-only and structured-capable probes ride this path; see
:mod:`repro.core.probes`), and :meth:`StructuredRound.to_dense`
reconstructs the exact sends matrix for parity tests.

All arrays are integer; the structured execution is bit-identical to
the dense engine (enforced by the property suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import InvalidSendMatrix
from repro.graphs.balancing import BalancingGraph


def in_window(
    positions: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    d_plus: int,
) -> np.ndarray:
    """Bool mask: does cyclic ``positions`` lie in ``[start, end)`` mod ``d+``?

    ``end = start + length`` with ``0 <= start, length < d+``, so the
    window wraps past ``d+ - 1`` at most once: a position is inside iff
    ``start <= position < end`` or ``position < end - d+``.  Three
    comparisons instead of an integer ``%`` per element; all arguments
    broadcast against each other.
    """
    return ((positions >= start) & (positions < end)) | (
        positions < end - d_plus
    )


@dataclass
class RotorWindow:
    """A cyclic +1 window over each node's ports, in rotor-order space.

    Port ``p`` of node ``u`` receives one extra token iff its cyclic
    position ``positions[u, p]`` lies in the half-open window
    ``[rotors[u], rotors[u] + extra[u])`` taken modulo ``d+``.

    A window describes exactly one round (fresh ``rotors``/``extra``
    every round), so its hit matrix is computed at most once, in the
    port-major layout the round kernel uses, and every consumer reads
    that one matrix: :meth:`port_hits` is the ``(d, n)`` matrix itself,
    :meth:`edge_hit_matrix` its ``(n, d)`` transposed view, and
    :meth:`edge_hits` / :meth:`loop_hits` its column sums.  Callers
    must not mutate ``rotors``/``extra`` after the first query.

    ``positions`` and ``reverse_flat`` are static per-bind precomputes
    owned by the balancer (shared across rounds):

    * ``positions[u, p]`` — cyclic position of port ``p`` in node
      ``u``'s rotor order (the inverse permutation of the port order),
      as an ``(n, d+)`` array (with one order at every node, a
      broadcast view of a single row);
    * ``reverse_flat`` — port-major flat index ``q·n + w`` (raveled
      ``(d, n)``): entry ``p·n + v`` names the sender-side slot of the
      token arriving at ``v`` over port ``p``, which was sent by
      ``w = adjacency[v, p]`` on its port ``q = reverse_port[v, p]``.
      Gathering the per-port values ``share + hit`` through it yields
      every node's incoming tokens, window hits included, in one pass.
    """

    rotors: np.ndarray
    extra: np.ndarray
    positions: np.ndarray
    reverse_flat: np.ndarray
    _hit_cache: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )

    def port_hits(self, graph: BalancingGraph) -> np.ndarray:
        """``(d, n)`` bool: does port ``p`` of ``u`` get a window token?"""
        if self._hit_cache is None:
            self._hit_cache = in_window(
                self.positions.T[: graph.degree],
                self.rotors,
                self.rotors + self.extra,
                graph.total_degree,
            )
        return self._hit_cache

    def edge_hit_matrix(self, graph: BalancingGraph) -> np.ndarray:
        """``(n, d)`` view of :meth:`port_hits` (node-major indexing)."""
        return self.port_hits(graph).T

    def edge_hits(self, graph: BalancingGraph) -> np.ndarray:
        """Per-node count of original-edge ports inside the window."""
        return self.port_hits(graph).sum(axis=0)

    def loop_hits(self, graph: BalancingGraph) -> np.ndarray:
        """Per-node count of self-loop ports inside the window.

        A window of length ``extra < d+`` covers exactly ``extra``
        distinct ports, so the self-loops get whatever the edges don't.
        """
        return self.extra - self.edge_hits(graph)

    def hit_matrix(self, graph: BalancingGraph) -> np.ndarray:
        """``(n, d+)`` bool hits over every port, self-loops included.

        Not cached: only the dense interop paths (``to_dense`` and the
        flow tracker) need the self-loop columns.
        """
        return in_window(
            self.positions,
            self.rotors[:, None],
            (self.rotors + self.extra)[:, None],
            graph.total_degree,
        )


@dataclass
class StructuredRound:
    """One round of sends in compact (matrix-free) form.

    Dense equivalent (see :meth:`to_dense`): every original-edge port of
    node ``u`` carries ``edge_share[u]``, every self-loop port carries
    ``loop_base[u]`` with the first ``loop_ceil[u]`` loops receiving one
    extra token, and — if a :class:`RotorWindow` is attached — every
    port whose cyclic position falls inside the window receives one
    more.  Tokens not covered by any of these stay at the node as its
    remainder.

    ``edge_share`` / ``loop_base`` / ``loop_ceil`` may carry leading
    batch dimensions (``(replicas, n)``) for stateless schemes; a
    ``window`` (stateful rotor schemes) requires plain ``(n,)`` shapes.

    :meth:`apply` works port-major: per-port data is laid out ``(d, n)``
    (port ``p`` of every node contiguous), the layout of
    ``graph.adjacency_pm`` and of the window's ``reverse_flat`` and hit
    matrix, so a round is ``d`` contiguous length-``n`` gathers.
    """

    edge_share: np.ndarray
    loop_base: np.ndarray | None = None
    loop_ceil: np.ndarray | None = None
    window: RotorWindow | None = None

    # -- derived per-node totals (all O(n) vectors) ---------------------

    def edge_outflow(self, graph: BalancingGraph) -> np.ndarray:
        """Tokens leaving each node over original edges this round."""
        out = graph.degree * self.edge_share
        if self.window is not None:
            out = out + self.window.edge_hits(graph)
        return out

    def kept_tokens(self, graph: BalancingGraph) -> np.ndarray:
        """Tokens assigned to self-loop ports (they stay at the node)."""
        kept = np.zeros_like(self.edge_share)
        if self.loop_base is not None:
            kept = kept + graph.num_self_loops * self.loop_base
        if self.loop_ceil is not None:
            kept = kept + self.loop_ceil
        if self.window is not None:
            kept = kept + self.window.loop_hits(graph)
        return kept

    def remainder(
        self, graph: BalancingGraph, loads: np.ndarray
    ) -> np.ndarray:
        """Unassigned tokens per node (negative means overdraw).

        O(n) with no gathers: a rotor window of length ``extra < d+``
        covers exactly ``extra`` distinct ports, so the total assigned
        is ``d·edge_share + d°·loop_base + loop_ceil + extra``
        regardless of where the window falls.
        """
        # Accumulated in place in one int64 buffer: at large n each
        # fresh temporary costs as much as the arithmetic itself.
        assigned = np.multiply(
            self.edge_share, graph.degree, dtype=np.int64
        )
        if self.loop_base is not None:
            assigned += graph.num_self_loops * self.loop_base
        if self.loop_ceil is not None:
            assigned += self.loop_ceil
        if self.window is not None:
            assigned += self.window.extra
        return np.subtract(loads, assigned, out=assigned)

    # -- execution ------------------------------------------------------

    def apply(
        self, graph: BalancingGraph, loads: np.ndarray
    ) -> np.ndarray:
        """Execute the round: the new load vector (or stacked vectors).

        Self-loop tokens and the remainder both stay at the node, so
        only the edge flows move:
        ``new = loads - edge_outflow + share-gather (+ window hits)``.

        Gathers run over the port-major layout one port at a time: row
        ``p`` of ``graph.adjacency_pm`` (or of the window's
        ``reverse_flat``) is a contiguous length-``n`` index, so each
        port costs one gather and one in-place add on ``(..., n)``
        vectors and no ``(n, d)`` temporary is summed across its rows.
        """
        share = self.edge_share
        degree = graph.degree
        if self.window is None:
            index, source = graph.adjacency_pm, share
            new = loads - degree * share
        else:
            # Rotor rounds: the tokens each original-edge port carries
            # are the share plus its window hit, (d, n).  Their column
            # sums leave the node; gathering them through the
            # port-major reverse index brings in what the neighbors
            # sent.
            values = share + self.window.port_hits(graph)
            index = self.window.reverse_flat.reshape(
                degree, graph.num_nodes
            )
            source = values.reshape(-1)
            new = loads - values.sum(axis=0)
        # One gather buffer reused across ports; mode="clip" keeps
        # take() from buffering its output (indices are in range).
        gathered = np.empty_like(new)
        for port in range(degree):
            np.take(source, index[port], axis=-1, out=gathered, mode="clip")
            new += gathered
        return new

    # -- validation (compact form; no dense allocation) -----------------

    def validate(self, graph: BalancingGraph, loads: np.ndarray) -> None:
        """Structural validation mirroring the dense sends checks.

        Shape/dtype/nonnegativity of every component, ``loop_ceil``
        within the number of self-loops, window lengths within
        ``[0, d+)`` — all on O(n) vectors.  Overdraw (negative
        remainder) is checked separately by the engines because it is
        enforced even when per-round validation is off.
        """
        expected = loads.shape
        num_loops = graph.num_self_loops
        for label, array in (
            ("edge_share", self.edge_share),
            ("loop_base", self.loop_base),
            ("loop_ceil", self.loop_ceil),
        ):
            if array is None:
                continue
            if array.shape != expected:
                raise InvalidSendMatrix(
                    f"structured {label} has shape {array.shape}, "
                    f"expected {expected}"
                )
            if not np.issubdtype(array.dtype, np.integer):
                raise InvalidSendMatrix(
                    f"structured {label} must be integer, got dtype "
                    f"{array.dtype}"
                )
            if array.size and array.min() < 0:
                raise InvalidSendMatrix(
                    f"structured {label} contains negative entries; "
                    "tokens can only move forward along edges"
                )
        if num_loops == 0 and (
            (self.loop_base is not None and np.any(self.loop_base != 0))
            or (self.loop_ceil is not None and np.any(self.loop_ceil != 0))
        ):
            raise InvalidSendMatrix(
                "structured round assigns self-loop tokens but the graph "
                "has no self-loops"
            )
        if self.loop_ceil is not None and num_loops > 0:
            if self.loop_ceil.max() > num_loops:
                raise InvalidSendMatrix(
                    f"structured loop_ceil exceeds the {num_loops} "
                    "self-loops available"
                )
        window = self.window
        if window is not None:
            if self.edge_share.ndim != 1:
                raise InvalidSendMatrix(
                    "rotor windows describe per-node state and require "
                    "1-D structured rounds (got batched shares)"
                )
            d_plus = graph.total_degree
            n = graph.num_nodes
            for label, array in (
                ("rotors", window.rotors),
                ("extra", window.extra),
            ):
                if array.shape != (n,):
                    raise InvalidSendMatrix(
                        f"rotor window {label} has shape {array.shape}, "
                        f"expected ({n},)"
                    )
            if window.extra.min() < 0 or window.extra.max() >= d_plus:
                raise InvalidSendMatrix(
                    f"rotor window lengths must lie in [0, {d_plus})"
                )
            if window.rotors.min() < 0 or window.rotors.max() >= d_plus:
                raise InvalidSendMatrix(
                    f"rotor positions must lie in [0, {d_plus})"
                )

    # -- interop --------------------------------------------------------

    def to_dense(self, graph: BalancingGraph) -> np.ndarray:
        """The exact ``(..., n, d+)`` sends matrix this round describes.

        Bit-identical to the balancer's dense ``sends`` output; used by
        the parity tests and anywhere a monitor needs real matrices.
        """
        degree = graph.degree
        d_plus = graph.total_degree
        num_loops = graph.num_self_loops
        sends = np.zeros(self.edge_share.shape + (d_plus,), dtype=np.int64)
        sends[..., :degree] = self.edge_share[..., None]
        if self.loop_base is not None:
            sends[..., degree:] = self.loop_base[..., None]
        if self.loop_ceil is not None and num_loops > 0:
            sends[..., degree:] += (
                np.arange(num_loops) < self.loop_ceil[..., None]
            )
        if self.window is not None:
            sends += self.window.hit_matrix(graph)
        return sends
