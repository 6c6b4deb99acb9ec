"""Large-n lane: dense vs structured at the sizes the fast kernels run.

The parity suites prove bit-identity on small hypothesis graphs, but
the port-major structured round only meets realistic memory layouts at
large ``n``.  This lane runs both engines at ``n >= 2^16`` — a cycle
and a fat tree (k = 64: 70 656 nodes, padded degree 64) — and compares
a per-round trajectory checksum instead of a full naive reference, so
a divergence is pinned to its first round.
"""

import hashlib

import numpy as np
import pytest

from repro.algorithms.registry import make
from repro.core.engine import Simulator
from repro.graphs import families
from repro.graphs.datacenter import fat_tree

pytestmark = pytest.mark.slow

N = 1 << 16


def _checksums(graph, algorithm, loads, engine, rounds):
    simulator = Simulator(
        graph, make(algorithm), loads, engine=engine, record_history=False
    )
    return [
        hashlib.blake2b(simulator.step().tobytes(), digest_size=16).digest()
        for _ in range(rounds)
    ]


def _assert_lane(graph, algorithm, rounds, seed=2):
    rng = np.random.default_rng(seed)
    loads = rng.integers(0, 65, graph.num_nodes).astype(np.int64)
    dense = _checksums(graph, algorithm, loads, "dense", rounds)
    structured = _checksums(graph, algorithm, loads, "structured", rounds)
    for t, (a, b) in enumerate(zip(dense, structured), start=1):
        assert a == b, f"{algorithm} diverged at round {t}"


@pytest.fixture(scope="module")
def big_cycle():
    return families.cycle(N)


@pytest.fixture(scope="module")
def big_fat_tree():
    graph = fat_tree(64)
    assert graph.num_nodes >= N
    return graph


@pytest.mark.parametrize(
    "algorithm", ["send_floor", "send_rounded", "rotor_router"]
)
def test_cycle_lane(big_cycle, algorithm):
    _assert_lane(big_cycle, algorithm, rounds=12)


@pytest.mark.parametrize("algorithm", ["send_floor", "rotor_router"])
def test_fat_tree_lane(big_fat_tree, algorithm):
    _assert_lane(big_fat_tree, algorithm, rounds=4)
