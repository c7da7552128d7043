"""Extension — report-driven collective algorithm selection.

The optimizations the paper motivates with refs. [5]-[7]: on an SMP
cluster a broadcast should cross the interconnect once per node.  The
autotuner (a) derives the node groups blindly from the measured layers,
(b) fits a cost model to the measured curves, (c) simulates flat vs
hierarchical schedules on it, and the bench validates the choice by
executing both on the true substrate across message sizes.
"""

import pytest

from repro.autotune import choose_bcast
from repro.backends import SimulatedBackend
from repro.core import ServetSuite
from repro.netsim import default_comm_config
from repro.simmpi import World
from repro.simmpi.collectives import bcast, hierarchical_bcast
from repro.topology import finis_terrae
from repro.units import KiB, format_size, format_time
from repro.viz import ascii_table

SIZES = (1 * KiB, 4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB, 1024 * KiB)


@pytest.fixture(scope="module")
def setup():
    cluster = finis_terrae(2)
    report = ServetSuite(SimulatedBackend(cluster, seed=42)).run()
    return cluster, report


def execute(cluster, placement, program) -> float:
    world = World(cluster, default_comm_config(cluster), placement)
    world.spawn_all(program)
    return world.run().makespan


def test_bcast_algorithm_selection(setup, figure, benchmark):
    cluster, report = setup
    placement = list(range(32))
    benchmark.pedantic(
        lambda: choose_bcast(report, placement, 16 * KiB), rounds=3, iterations=1
    )

    rows = []
    correct = 0
    for nbytes in SIZES:
        choice = choose_bcast(report, placement, nbytes)
        groups = choice.groups

        def flat_prog(rank, nbytes=nbytes):
            yield from bcast(rank, 0, nbytes)

        def hier_prog(rank, nbytes=nbytes, groups=groups):
            yield from hierarchical_bcast(rank, 0, nbytes, groups)

        flat_t = execute(cluster, placement, flat_prog)
        hier_t = execute(cluster, placement, hier_prog)
        executed_winner = "flat" if flat_t <= hier_t else "hierarchical"
        ok = choice.algorithm == executed_winner
        correct += ok
        rows.append(
            (
                format_size(nbytes),
                choice.algorithm,
                format_time(choice.flat_time),
                format_time(choice.hierarchical_time),
                format_time(flat_t),
                format_time(hier_t),
                "OK" if ok else "WRONG",
            )
        )
    table = ascii_table(
        [
            "msg size",
            "chosen",
            "pred flat",
            "pred hier",
            "exec flat",
            "exec hier",
            "verdict",
        ],
        rows,
        title="Extension: bcast algorithm selection on 2-node Finis Terrae "
        "(32 ranks; groups derived from measured layers)",
    )
    figure("Extension collective selection", table)

    # The chooser must be right for every probed size, and hierarchical
    # must win at the small/medium sizes (one InfiniBand crossing per
    # node instead of O(node size)).
    assert correct == len(SIZES)
    small_choice = choose_bcast(report, placement, 4 * KiB)
    assert small_choice.algorithm == "hierarchical"


def test_groups_recovered_without_topology(setup, benchmark):
    _, report = setup
    from repro.autotune import locality_groups

    benchmark.pedantic(
        lambda: locality_groups(report, list(range(32))), rounds=3, iterations=1
    )
    choice = choose_bcast(report, list(range(32)), 16 * KiB)
    assert choice.groups == [list(range(16)), list(range(16, 32))]
