"""Substrate performance — how fast is the simulator itself?

Not a paper figure: these benches track the wall-clock cost of the
substrate's hot paths (the analytic traversal engine, the bandwidth
allocator, the event runtime), so a regression that would make the
figure benches crawl is caught here with real pytest-benchmark numbers.
"""

import pytest

from repro.backends import SimulatedBackend
from repro.memsim import Traversal, TraversalEngine, allocate_bandwidth
from repro.netsim import default_comm_config
from repro.simmpi import World, pingpong_latency
from repro.simmpi.collectives import allgather
from repro.topology import Cluster, dunnington, finis_terrae, finis_terrae_node
from repro.units import KiB, MiB


def test_perf_traversal_engine_large_array(benchmark):
    engine = TraversalEngine(dunnington())
    benchmark(lambda: engine.single(24 * MiB, 1024, rng=1))


def test_perf_traversal_engine_concurrent_pair(benchmark):
    engine = TraversalEngine(dunnington())
    benchmark(
        lambda: engine.run(
            [Traversal(0, 8 * MiB, 1024), Traversal(12, 8 * MiB, 1024)], rng=1
        )
    )


def test_perf_bandwidth_allocator_full_node(benchmark):
    machine = finis_terrae_node()
    demands = {c: machine.core_stream_bw for c in range(16)}
    benchmark(lambda: allocate_bandwidth(machine.bandwidth_root, demands))


def test_perf_pingpong(benchmark):
    cluster = Cluster("dunnington", dunnington())
    config = default_comm_config(cluster)
    benchmark(lambda: pingpong_latency(cluster, config, 0, 3, 32 * KiB))


def test_perf_des_allgather_32_ranks(benchmark):
    cluster = finis_terrae(2)
    config = default_comm_config(cluster)

    def run():
        world = World(cluster, config, list(range(32)))

        def prog(rank):
            yield from allgather(rank, 4 * KiB)

        world.spawn_all(prog)
        return world.run().messages

    assert run() == 32 * 31
    benchmark(run)


def test_perf_backend_measurement(benchmark):
    backend = SimulatedBackend(dunnington(), seed=1)
    benchmark(lambda: backend.traversal_cycles([(0, 4 * MiB)], 1024))
