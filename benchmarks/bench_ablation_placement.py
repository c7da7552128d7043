"""Ablation — what the measured parameters buy an autotuned code.

Section V's promise, closed end-to-end: placements derived from the
Servet report are executed on the simulated MPI runtime and compared
against the standard compact and scatter policies, for a
nearest-neighbour halo application and a gather-heavy master/worker
application.
"""

import numpy as np
import pytest

from repro.autotune import Advisor, compact_placement, scatter_placement
from repro.backends import SimulatedBackend
from repro.core import ServetSuite
from repro.netsim import default_comm_config
from repro.simmpi import World
from repro.simmpi.collectives import bcast
from repro.topology import Cluster, dunnington
from repro.units import KiB, format_time
from repro.viz import ascii_table

N_RANKS = 12
MSG = 32 * KiB
ITERS = 30


@pytest.fixture(scope="module")
def setup():
    cluster = Cluster("dunnington", dunnington())
    report = ServetSuite(SimulatedBackend(cluster, seed=42)).run()
    return cluster, Advisor(report)


def halo_matrix(n):
    m = np.zeros((n, n))
    for i in range(n - 1):
        m[i, i + 1] = m[i + 1, i] = 1.0
    return m


def gather_matrix(n):
    m = np.zeros((n, n))
    m[1:, 0] = 1.0  # workers report to rank 0
    m[0, 1:] = 0.25  # occasional broadcasts back
    return m


def halo_program(rank):
    """Parallel nearest-neighbour exchange (even ranks send first)."""
    for it in range(ITERS):
        for nb in (rank.id + 1, rank.id - 1):
            if not (0 <= nb < rank.size):
                continue
            if rank.id % 2 == 0:
                yield rank.send(nb, MSG, tag=it)
                yield rank.recv(nb, tag=it)
            else:
                yield rank.recv(nb, tag=it)
                yield rank.send(nb, MSG, tag=it)


def master_worker_program(rank):
    """Workers report to rank 0 every iteration; rank 0 broadcasts a
    work descriptor back every fourth iteration."""
    for it in range(ITERS):
        if rank.id == 0:
            for _ in range(rank.size - 1):
                yield rank.recv(tag=it)
        else:
            yield rank.send(0, MSG, tag=it)
        if it % 4 == 0:
            yield from bcast(rank, 0, MSG, tag=900_000 + it)


def execute(cluster, placement, program):
    config = default_comm_config(cluster)
    world = World(cluster, config, placement)
    world.spawn_all(program)
    return world.run().makespan


def test_placement_ablation(setup, figure, benchmark):
    cluster, advisor = setup
    rows = []
    wins = {}
    apps = (
        ("halo-ring", halo_matrix(N_RANKS), halo_program),
        ("master-worker", gather_matrix(N_RANKS), master_worker_program),
    )
    for app_name, matrix, program in apps:
        optimized = advisor.place(matrix, message_size=MSG)
        placements = {
            "compact": compact_placement(N_RANKS),
            "scatter": scatter_placement(N_RANKS, cluster.n_cores),
            "servet-optimized": optimized.placement,
        }
        times = {
            name: execute(cluster, placement, program)
            for name, placement in placements.items()
        }
        wins[app_name] = times
        for name, t in times.items():
            rows.append(
                (
                    app_name,
                    name,
                    format_time(t),
                    f"{times['compact'] / t:.2f}x vs compact",
                )
            )
    benchmark.pedantic(
        lambda: advisor.place(halo_matrix(6), message_size=MSG),
        rounds=3,
        iterations=1,
    )
    table = ascii_table(
        ["application", "placement", "executed time", "speedup"],
        rows,
        title="Ablation: placement policies executed on the simulated runtime "
        "(Dunnington, 12 ranks)",
    )
    figure("Ablation placement policies", table)

    for app_name, times in wins.items():
        assert times["servet-optimized"] <= times["compact"] * 1.001, app_name
        assert times["servet-optimized"] < times["scatter"], app_name
    # The halo ring benefits measurably (it can ride the L2 pairs).
    assert wins["halo-ring"]["compact"] / wins["halo-ring"]["servet-optimized"] > 1.05
