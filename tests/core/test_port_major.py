"""The port-major structured round kernel.

``StructuredRound.apply`` gathers over ``graph.adjacency_pm`` (SEND
rounds) and over the rotor's port-major ``reverse_flat`` (rotor
rounds).  These tests pin it bit-identical to ``engine="dense"`` on
the layouts and paths the kernel special-cases — custom (non-broadcast)
port orders, padded irregular graphs, churned mutable graphs, rotor
windows under link failures, stacked ``(B, n)`` SEND shares — pin the
rotor state and the one cached window-hit matrix against their modular
definitions, and pin where the index lives: built lazily on first use,
never at construction or bind, and never pickled with its graph.
"""

import pickle

import numpy as np
import pytest

from repro.algorithms.registry import make
from repro.algorithms.rotor_router import RotorRouter
from repro.algorithms.rotor_router_star import RotorRouterStar
from repro.core.engine import Simulator
from repro.core.probes import ProbeSpec
from repro.core.structured import in_window
from repro.faults import FaultSpec
from repro.faults.schedules import structured_port_values
from repro.graphs import families
from repro.graphs.balancing import estimate_memory_bytes
from repro.graphs.datacenter import fat_tree
from repro.graphs.irregular import from_irregular_edges
from repro.graphs.mutable import MutableBalancingGraph
from repro.lower_bounds.rotor_alternating import (
    build_rotor_alternating_instance,
)
from repro.scenarios.batch import BatchRunner
from repro.topology import TopologySpec


def _irregular():
    """A padded graph: degrees 1-4, so padding ports are self-loops."""
    return from_irregular_edges(
        7, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (4, 5), (5, 6), (6, 0)]
    )


def _loads(graph, seed=11, high=120):
    rng = np.random.default_rng(seed)
    return rng.integers(0, high, graph.num_nodes).astype(np.int64)


def _trajectories(graph, make_balancer, loads, rounds, **kwargs):
    """Per-round load vectors of the dense and structured engines."""
    out = {}
    for engine in ("dense", "structured"):
        simulator = Simulator(
            graph, make_balancer(), loads, engine=engine, **kwargs
        )
        out[engine] = [simulator.step().copy() for _ in range(rounds)]
    return out["dense"], out["structured"]


def _assert_same(dense, structured):
    for t, (a, b) in enumerate(zip(dense, structured), start=1):
        np.testing.assert_array_equal(a, b, err_msg=f"round {t}")


class TestCustomPortOrders:
    def test_rotor_alternating_lower_bound(self):
        # Theorem 4.3's construction: per-node port orders, so the
        # positions are a full port-major array, not a broadcast row.
        graph = families.cycle(9, num_self_loops=0)
        instance = build_rotor_alternating_instance(graph)

        def balancer():
            return build_rotor_alternating_instance(graph).balancer

        structured = balancer().bind(graph)
        assert structured._positions.strides[0] != 0
        dense, fast = _trajectories(
            graph, balancer, instance.initial_loads, 8
        )
        _assert_same(dense, fast)
        # Period two, as the theorem says, on the structured kernel.
        np.testing.assert_array_equal(fast[1], instance.initial_loads)

    def test_random_orders_and_rotors(self, expander24):
        rng = np.random.default_rng(3)
        n, d_plus = expander24.num_nodes, expander24.total_degree
        orders = np.stack([rng.permutation(d_plus) for _ in range(n)])
        rotors = rng.integers(0, d_plus, n)
        dense, fast = _trajectories(
            expander24,
            lambda: RotorRouter(port_orders=orders, initial_rotors=rotors),
            _loads(expander24),
            12,
        )
        _assert_same(dense, fast)

    def test_default_order_is_one_broadcast_row(self, torus9):
        balancer = make("rotor_router").bind(torus9)
        assert balancer._positions.strides[0] == 0
        assert balancer._orders.strides[0] == 0
        assert balancer._positions.shape == (
            torus9.num_nodes,
            torus9.total_degree,
        )


class TestRotorState:
    @pytest.mark.parametrize("custom", [False, True])
    def test_rotors_match_dense(self, expander24, custom):
        # Rotors advance by a conditional subtract on both paths; the
        # state after every round equals the modular definition.
        rng = np.random.default_rng(5)
        n, d_plus = expander24.num_nodes, expander24.total_degree
        kwargs = {}
        if custom:
            kwargs = {
                "port_orders": np.stack(
                    [rng.permutation(d_plus) for _ in range(n)]
                ),
                "initial_rotors": rng.integers(0, d_plus, n),
            }
        balancers = {}
        for engine in ("dense", "structured"):
            balancers[engine] = RotorRouter(**kwargs)
            simulator = Simulator(
                expander24,
                balancers[engine],
                _loads(expander24),
                engine=engine,
            )
            expected = balancers[engine].rotors.copy()
            for _ in range(10):
                loads = simulator.loads.copy()
                simulator.step()
                expected = (expected + loads % d_plus) % d_plus
                np.testing.assert_array_equal(
                    balancers[engine].rotors, expected
                )
        np.testing.assert_array_equal(
            balancers["dense"].rotors, balancers["structured"].rotors
        )

    def test_window_hits_match_modular_definition(self, expander24):
        rng = np.random.default_rng(8)
        n, d_plus = expander24.num_nodes, expander24.total_degree
        degree = expander24.degree
        orders = np.stack([rng.permutation(d_plus) for _ in range(n)])
        balancer = RotorRouter(port_orders=orders).bind(expander24)
        loads = _loads(expander24)
        for t in range(1, 6):
            window = balancer.sends_structured(loads, t).window
            offsets = (window.positions - window.rotors[:, None]) % d_plus
            hits = offsets < window.extra[:, None]
            np.testing.assert_array_equal(
                window.edge_hit_matrix(expander24), hits[:, :degree]
            )
            np.testing.assert_array_equal(
                window.edge_hits(expander24), hits[:, :degree].sum(axis=1)
            )
            np.testing.assert_array_equal(
                window.loop_hits(expander24), hits[:, degree:].sum(axis=1)
            )
            np.testing.assert_array_equal(
                window.hit_matrix(expander24), hits
            )
            loads = balancer.sends_structured(loads, t).apply(
                expander24, loads
            )

    def test_one_hit_matrix_per_round(self, torus9):
        balancer = make("rotor_router").bind(torus9)
        window = balancer.sends_structured(_loads(torus9), 1).window
        first = window.port_hits(torus9)
        assert window.port_hits(torus9) is first
        assert first.shape == (torus9.degree, torus9.num_nodes)
        assert np.shares_memory(window.edge_hit_matrix(torus9), first)

    @pytest.mark.parametrize("custom", [False, True])
    def test_cumulative_fairness_matches_dense(self, expander24, custom):
        # The probe's structured path reads the cached hit matrix.
        rng = np.random.default_rng(2)
        n, d_plus = expander24.num_nodes, expander24.total_degree
        orders = (
            np.stack([rng.permutation(d_plus) for _ in range(n)])
            if custom
            else None
        )
        observed = {}
        for engine in ("dense", "structured"):
            probe = ProbeSpec("cumulative_fairness").build()
            Simulator(
                expander24,
                RotorRouter(port_orders=orders),
                _loads(expander24),
                probes=(probe,),
                engine=engine,
            ).run(30)
            observed[engine] = probe.observed_delta
        assert observed["dense"] == observed["structured"]

    def test_rotor_router_star_broadcast_orders(self, cycle12):
        # One order at every node is a broadcast row; a materialized
        # (n, d+) tile of the same order sends the same tokens.
        broadcast = RotorRouterStar().bind(cycle12)
        assert broadcast._orders.strides[0] == 0
        tiled = RotorRouterStar().bind(cycle12)
        tiled._orders = np.ascontiguousarray(tiled._orders)
        for t in range(1, 9):
            loads = _loads(cycle12, seed=t)
            np.testing.assert_array_equal(
                broadcast.sends(loads, t), tiled.sends(loads, t)
            )
            np.testing.assert_array_equal(broadcast.rotors, tiled.rotors)


class TestPaddedGraphs:
    @pytest.mark.parametrize("algorithm", ["send_floor", "rotor_router"])
    def test_irregular_graph_matches_dense(self, algorithm):
        graph = _irregular()
        dense, fast = _trajectories(
            graph, lambda: make(algorithm), _loads(graph), 20
        )
        _assert_same(dense, fast)


class TestChurnedGraphs:
    @pytest.mark.parametrize("algorithm", ["send_floor", "rotor_router"])
    def test_edge_churn_matches_dense(self, algorithm):
        graph = families.random_regular(64, 4, seed=2)
        spec = TopologySpec(
            "edge_churn", {"rate": 0.1, "downtime": 3, "seed": 4}
        )
        dense, fast = _trajectories(
            graph,
            lambda: make(algorithm),
            _loads(graph),
            30,
            topology=spec.build(),
        )
        _assert_same(dense, fast)

    def test_fat_tree_node_churn_matches_dense(self):
        graph = fat_tree(4)
        spec = TopologySpec(
            "node_join_leave", {"rate": 0.05, "rejoin_after": 3, "seed": 1}
        )
        dense, fast = _trajectories(
            graph,
            lambda: make("rotor_router"),
            _loads(graph),
            30,
            topology=spec.build(),
        )
        _assert_same(dense, fast)

    def test_rotor_refresh_stays_incremental(self):
        graph = families.random_regular(512, 6, seed=5)
        spec = TopologySpec(
            "edge_churn", {"rate": 0.002, "downtime": 2, "seed": 8}
        )
        balancer = make("rotor_router")
        simulator = Simulator(
            graph,
            balancer,
            _loads(graph),
            topology=spec.build(),
            engine="structured",
        )
        simulator.run(20)
        assert balancer.refresh_full == 0
        # A sever and its later re-add each dirty the two endpoints
        # plus at most the two far ends of swap-removed ports: the
        # repair bill is O(|dirty|), not O(n) per churned round.
        edits = simulator.record().summary["edges_severed"]
        assert 0 < balancer.refresh_rows <= 8 * edits
        # The repaired port-major index equals a fresh build.
        mutated = simulator.graph
        fresh = RotorRouter().bind(mutated)
        np.testing.assert_array_equal(
            balancer._reverse_flat, fresh._reverse_flat
        )

    def test_mutable_storage_is_port_major(self):
        graph = MutableBalancingGraph.from_graph(families.cycle(10))
        assert graph.adjacency_pm.flags.c_contiguous
        assert graph.adjacency_pm.shape == (graph.degree, 10)
        assert np.shares_memory(graph.adjacency, graph.adjacency_pm)
        graph.drop_edge(0, 1)
        np.testing.assert_array_equal(
            graph.adjacency_pm, graph.adjacency.T
        )
        graph.check_consistency()

    def test_copy_never_aliases_the_source(self):
        source = MutableBalancingGraph.from_graph(families.cycle(10))
        copy = MutableBalancingGraph.from_graph(source)
        copy.drop_edge(0, 1)
        assert source.has_edge(0, 1)
        assert not np.shares_memory(copy.adjacency_pm, source.adjacency_pm)


class TestFaultedRotorWindows:
    @pytest.mark.parametrize("algorithm", ["rotor_router", "send_floor"])
    def test_link_failures_match_dense(self, algorithm):
        graph = families.random_regular(48, 4, seed=6)
        dense, fast = _trajectories(
            graph,
            lambda: make(algorithm),
            _loads(graph),
            25,
            faults=FaultSpec(
                "link_failures", {"rate": 0.1, "seed": 2}
            ).build(),
        )
        _assert_same(dense, fast)

    def test_port_values_on_broadcast_positions(self, torus9):
        balancer = make("rotor_router").bind(torus9)
        loads = _loads(torus9)
        for t in range(1, 6):
            compact = balancer.sends_structured(loads, t)
            assert compact.window.positions.strides[0] == 0
            dense = compact.to_dense(torus9)
            us, ps = np.nonzero(np.ones((torus9.num_nodes, torus9.degree)))
            pairs = np.stack([us, ps], axis=1)
            np.testing.assert_array_equal(
                structured_port_values(compact, torus9, pairs),
                dense[us, ps],
            )
            # The one cached hit matrix agrees with the dense window.
            np.testing.assert_array_equal(
                compact.window.edge_hit_matrix(torus9),
                dense[:, : torus9.degree] - compact.edge_share[:, None],
            )
            loads = compact.apply(torus9, loads)


class TestBatchedSendStacks:
    @pytest.mark.parametrize("algorithm", ["send_floor", "send_rounded"])
    def test_stacked_shares_match_dense(self, algorithm):
        graph = fat_tree(4)
        rng = np.random.default_rng(9)
        initial = rng.integers(0, 90, (5, graph.num_nodes)).astype(
            np.int64
        )
        finals = {}
        for engine in ("dense", "structured"):
            runner = BatchRunner(
                graph, make(algorithm), initial, engine=engine
            )
            finals[engine] = runner.run(15).final_loads
        np.testing.assert_array_equal(finals["dense"], finals["structured"])

    def test_stacked_apply_equals_rowwise_apply(self, expander24):
        balancer = make("send_floor").bind(expander24)
        stack = np.stack([_loads(expander24, seed=s) for s in range(4)])
        together = balancer.sends_structured(stack, 1).apply(
            expander24, stack
        )
        for row, loads in enumerate(stack):
            alone = balancer.sends_structured(loads, 1).apply(
                expander24, loads
            )
            np.testing.assert_array_equal(together[row], alone)


class TestIndexLifecycle:
    @pytest.mark.parametrize(
        "build",
        [lambda: families.cycle(16), lambda: fat_tree(4), _irregular],
    )
    def test_not_built_by_construction_or_bind(self, build):
        graph = build()
        assert graph._adjacency_pm is None
        for name in ("send_floor", "rotor_router"):
            make(name).bind(graph)
            Simulator(graph, make(name), _loads(graph))
        assert graph._adjacency_pm is None
        Simulator(graph, make("send_floor"), _loads(graph)).step()
        assert graph._adjacency_pm is not None
        np.testing.assert_array_equal(graph.adjacency_pm, graph.adjacency.T)
        assert not graph.adjacency_pm.flags.writeable

    @pytest.mark.parametrize(
        "build",
        [lambda: families.cycle(64), lambda: fat_tree(4), _irregular],
    )
    def test_built_index_is_not_pickled(self, build):
        graph = build()
        bare = len(pickle.dumps(graph))
        graph.adjacency_pm  # build it
        assert graph._adjacency_pm is not None
        payload = pickle.dumps(graph)
        assert len(payload) == bare
        restored = pickle.loads(payload)
        assert restored._adjacency_pm is None
        np.testing.assert_array_equal(
            restored.adjacency_pm, graph.adjacency_pm
        )

    def test_mutable_graph_pickles_one_storage(self):
        graph = MutableBalancingGraph.from_graph(families.cycle(12))
        restored = pickle.loads(pickle.dumps(graph))
        assert np.shares_memory(restored.adjacency, restored.adjacency_pm)
        restored.drop_edge(0, 1)
        restored.check_consistency()


def test_in_window_matches_modular_definition():
    d_plus = 7
    rng = np.random.default_rng(0)
    start = rng.integers(0, d_plus, 200)
    length = rng.integers(0, d_plus, 200)
    positions = np.arange(d_plus)[None, :]
    expected = (positions - start[:, None]) % d_plus < length[:, None]
    got = in_window(
        positions, start[:, None], (start + length)[:, None], d_plus
    )
    np.testing.assert_array_equal(got, expected)


def test_compiled_engine_is_gone():
    graph = families.cycle(8)
    with pytest.raises(ValueError, match="unknown engine 'compiled'"):
        Simulator(graph, make("send_floor"), _loads(graph), engine="compiled")
    with pytest.raises(ValueError, match="unknown engine 'compiled'"):
        estimate_memory_bytes(1024, 4, engine="compiled")
