"""Integration: autotuning decisions validated against execution.

The loop the paper motivates: measure -> report -> optimize -> win.
The placement test executes the application on the simulated MPI
runtime, so the optimizer (which saw only the report) is validated
against "reality".
"""

import numpy as np
import pytest

from repro.autotune import Advisor, compact_placement, scatter_placement
from repro.netsim import default_comm_config
from repro.simmpi import World
from repro.topology import Cluster, dunnington
from repro.units import KiB


def ring_matrix(n):
    m = np.zeros((n, n))
    for i in range(n - 1):
        m[i, i + 1] = m[i + 1, i] = 1.0
    return m


def execute_ring(cluster, placement, nbytes, iterations=20):
    world = World(cluster, default_comm_config(cluster), placement)

    def prog(rank):
        for it in range(iterations):
            for nb in (rank.id + 1, rank.id - 1):
                if not (0 <= nb < rank.size):
                    continue
                if rank.id % 2 == 0:
                    yield rank.send(nb, nbytes, tag=it)
                    yield rank.recv(nb, tag=it)
                else:
                    yield rank.recv(nb, tag=it)
                    yield rank.send(nb, nbytes, tag=it)

    world.spawn_all(prog)
    return world.run().makespan


class TestPlacementOnDunnington:
    @pytest.fixture(scope="class")
    def setup(self, dunnington_report):
        cluster = Cluster("dunnington", dunnington())
        advisor = Advisor(dunnington_report)
        return cluster, advisor

    def test_optimizer_beats_compact_in_model_and_execution(self, setup):
        cluster, advisor = setup
        n = 12
        matrix = ring_matrix(n)
        result = advisor.place(matrix, message_size=32 * KiB)
        assert result.cost < result.baseline_cost  # model says better

        compact_time = execute_ring(cluster, compact_placement(n), 32 * KiB)
        optimized_time = execute_ring(cluster, result.placement, 32 * KiB)
        assert optimized_time < compact_time  # execution agrees

    def test_optimized_placement_uses_l2_pairs(self, setup):
        cluster, advisor = setup
        matrix = ring_matrix(4)
        result = advisor.place(matrix, message_size=32 * KiB)
        # At least one adjacent rank pair should sit on an L2 pair
        # (cores c and c+12) — the hidden fast links of Fig. 8a.
        l2_links = sum(
            1
            for i in range(3)
            if abs(result.placement[i] - result.placement[i + 1]) == 12
        )
        assert l2_links >= 1

    def test_scatter_is_worst(self, setup):
        cluster, advisor = setup
        n = 12
        scatter_time = execute_ring(
            cluster, scatter_placement(n, cluster.n_cores), 32 * KiB
        )
        compact_time = execute_ring(cluster, compact_placement(n), 32 * KiB)
        assert scatter_time > compact_time


class TestAggregationOnFinisTerrae:
    def test_infiniband_gathering_wins(self, ft_report):
        advisor = Advisor(ft_report)
        # Cross-node traffic on the poorly scalable InfiniBand layer.
        advice = advisor.should_aggregate(0, 16, n_messages=16, message_size=16 * KiB)
        assert advice.aggregate
        # 16 separate sends pay 16 base latencies; the aggregated
        # message pays one (plus packing) — a solid two-digit% win.
        assert advice.speedup > 1.15

    def test_intra_node_gathering_matters_less(self, ft_report):
        advisor = Advisor(ft_report)
        inter = advisor.should_aggregate(0, 16, 16, 16 * KiB)
        intra = advisor.should_aggregate(0, 1, 16, 16 * KiB)
        assert inter.speedup > intra.speedup


class TestTilingUsesDetectedSizes:
    def test_tiles_fit_detected_caches(self, dunnington_report):
        advisor = Advisor(dunnington_report)
        plan = advisor.matmul_tiles(elem_size=8)
        for level, side in plan.sides.items():
            cache = next(c for c in dunnington_report.caches if c.level == level)
            assert 3 * side * side * 8 <= cache.size

    def test_streaming_core_throttle(self, dunnington_report):
        advisor = Advisor(dunnington_report)
        k = advisor.max_useful_streaming_cores()
        # Dunnington's single FSB saturates quickly: far fewer than 24
        # cores are worth using for streaming.
        assert 1 <= k <= 4
