"""Pinned outcomes of the simulated MPI, exact to the last bit.

Each program runs through the real runtime on ``dunnington`` and on
``finis_terrae(2)``.  For every ``World.run`` it records the number of
callbacks ``Engine.run`` executed, every rank's finish time, the
makespan and the message, byte and per-layer counts; floats are
compared exactly.  A change that reorders, adds or drops a single
event, or rounds one virtual time differently, fails here; a change
meant only to make the runtime faster must pass it untouched.

The exchange program stays below the eager threshold: above it both
blocking sends rendezvous and deadlock, a standing defect whose fix is
expected to change that program's events.
"""

from __future__ import annotations

import pytest

from repro.netsim import default_comm_config
from repro.simmpi import (
    ANY_SOURCE,
    ANY_TAG,
    World,
    concurrent_exchanges,
    concurrent_transfers,
    pingpong_latency,
)
from repro.simmpi import collectives
from repro.simmpi.events import Engine
from repro.topology import Cluster, dunnington, finis_terrae
from repro.units import KiB

MACHINES = {
    "dunnington": lambda: Cluster("dunnington", dunnington()),
    "finis_terrae2": lambda: finis_terrae(2),
}

#: Per machine: a ping-pong pair, concurrent pairs, eight collective
#: ranks and three nonblocking ranks, spread over every layer.
PLACES = {
    "dunnington": {
        "pair": (0, 12),
        "pairs": [(0, 12), (1, 5), (2, 23), (3, 4)],
        "group": [0, 12, 1, 5, 9, 17, 22, 3],
        "trio": [0, 12, 7],
    },
    "finis_terrae2": {
        "pair": (3, 20),
        "pairs": [(0, 1), (2, 9), (4, 17), (5, 30)],
        "group": [0, 1, 5, 9, 16, 17, 24, 31],
        "trio": [2, 18, 9],
    },
}


def _collective(name, *args):
    def program(rank):
        yield from getattr(collectives, name)(rank, *args)

    return program


def _nonblocking(rank):
    """Unexpected eager, rendezvous and pre-posted wildcard receives."""
    if rank.id == 0:
        early = yield rank.isend(1, 2 * KiB, tag=1)  # eager, unexpected at 1
        big = yield rank.isend(1, 256 * KiB, tag=2)  # rendezvous
        yield rank.wait(early)  # already complete
        yield rank.wait(big)  # blocks until the transfer ends
        yield rank.recv(ANY_SOURCE, tag=3)
        yield rank.send(2, 512 * KiB, tag=4)
    elif rank.id == 1:
        yield rank.compute(5e-6)  # the eager payload lands first
        big = yield rank.irecv(0, tag=2)
        small = yield rank.irecv(ANY_SOURCE, tag=1)
        yield rank.wait(small)
        yield rank.wait(big)
        yield rank.send(0, 64, tag=3)
    else:
        handle = yield rank.irecv(ANY_SOURCE, ANY_TAG)  # posted before the send
        yield rank.compute(1e-6)
        yield rank.wait(handle)


def _world_program(places_key, program):
    def run(cluster, config, places):
        world = World(cluster, config, places[places_key])
        world.spawn_all(program)
        world.run()

    return run


PROGRAMS = {
    "pingpong_eager": lambda c, k, p: pingpong_latency(c, k, *p["pair"], 1 * KiB),
    "pingpong_rendezvous": lambda c, k, p: pingpong_latency(
        c, k, *p["pair"], 256 * KiB
    ),
    "concurrent_transfers": lambda c, k, p: concurrent_transfers(
        c, k, p["pairs"], 32 * KiB
    ),
    "concurrent_exchanges_eager": lambda c, k, p: concurrent_exchanges(
        c, k, p["pairs"], 8 * KiB
    ),
    "barrier": _world_program("group", _collective("barrier")),
    "bcast": _world_program("group", _collective("bcast", 2, 48 * KiB)),
    "gather": _world_program("group", _collective("gather", 0, 4 * KiB)),
    "allgather": _world_program("group", _collective("allgather", 8 * KiB)),
    "nonblocking": _world_program("trio", _nonblocking),
}


def observe(machine: str, program: str, monkeypatch) -> list[dict]:
    """Run one program; one record per ``World.run``."""
    events: list[int] = []
    results = []
    engine_run, world_run = Engine.run, World.run

    def counted_engine_run(self, *args, **kwargs):
        events.append(engine_run(self, *args, **kwargs))
        return events[-1]

    def recorded_world_run(self, *args, **kwargs):
        results.append(world_run(self, *args, **kwargs))
        return results[-1]

    monkeypatch.setattr(Engine, "run", counted_engine_run)
    monkeypatch.setattr(World, "run", recorded_world_run)
    cluster = MACHINES[machine]()
    PROGRAMS[program](cluster, default_comm_config(cluster), PLACES[machine])
    monkeypatch.undo()
    assert len(events) == len(results)
    return [
        {
            "events": n,
            "finish_times": r.finish_times,
            "makespan": r.makespan,
            "messages": r.messages,
            "bytes_sent": r.bytes_sent,
            "per_layer_messages": r.per_layer_messages,
        }
        for n, r in zip(events, results)
    ]


#: Recorded from the runtime.  Re-record only for a change that is meant
#: to alter what the simulation does, and say so.
EXPECTED: dict[tuple[str, str], list[dict]] = {
    ("dunnington", "allgather"): [
        {
            "events": 176,
            "finish_times": {
                0: 8.145715151515153e-05,
                1: 7.960909090909091e-05,
                2: 7.065678787878788e-05,
                3: 7.140151515151517e-05,
                4: 7.214624242424243e-05,
                5: 7.289096969696971e-05,
                6: 7.363569696969697e-05,
                7: 7.539821818181819e-05,
            },
            "makespan": 8.145715151515153e-05,
            "messages": 56,
            "bytes_sent": 458752,
            "per_layer_messages": {"shared-l2": 7, "shared-l3": 7, "same-node": 42},
        },
    ],
    ("dunnington", "barrier"): [
        {
            "events": 80,
            "finish_times": {
                0: 2.5533257575757574e-06,
                1: 2.3024943181818176e-06,
                2: 2.552689393939394e-06,
                3: 2.1020242424242424e-06,
                4: 3.003818181818182e-06,
                5: 3.0039090909090907e-06,
                6: 2.553210606060606e-06,
                7: 1.852283712121212e-06,
            },
            "makespan": 3.0039090909090907e-06,
            "messages": 24,
            "bytes_sent": 24,
            "per_layer_messages": {"shared-l2": 2, "shared-l3": 6, "same-node": 16},
        },
    ],
    ("dunnington", "bcast"): [
        {
            "events": 29,
            "finish_times": {
                0: 0.00010030400000000001,
                1: 0.000115964,
                2: 0.0,
                3: 5.462036363636364e-05,
                4: 5.0152000000000004e-05,
                5: 0.00010924072727272728,
                6: 4.568363636363636e-05,
                7: 0.00010477236363636363,
            },
            "makespan": 0.000115964,
            "messages": 7,
            "bytes_sent": 344064,
            "per_layer_messages": {"same-node": 6, "shared-l2": 1},
        },
    ],
    ("dunnington", "concurrent_exchanges_eager"): [
        {
            "events": 32,
            "finish_times": {
                0: 2.9880000000000004e-06,
                1: 2.86e-06,
                2: 9.192000000000001e-06,
                3: 8.447272727272727e-06,
                4: 1.0681454545454546e-05,
                5: 9.936727272727273e-06,
                6: 4.236400000000001e-06,
                7: 3.963333333333333e-06,
            },
            "makespan": 1.0681454545454546e-05,
            "messages": 8,
            "bytes_sent": 65536,
            "per_layer_messages": {"shared-l2": 2, "same-node": 4, "shared-l3": 2},
        },
    ],
    ("dunnington", "concurrent_transfers"): [
        {
            "events": 20,
            "finish_times": {
                0: 0.0,
                1: 1.054e-05,
                2: 0.0,
                3: 3.078909090909091e-05,
                4: 0.0,
                5: 3.3768e-05,
                6: 0.0,
                7: 1.4203333333333333e-05,
            },
            "makespan": 3.3768e-05,
            "messages": 4,
            "bytes_sent": 131072,
            "per_layer_messages": {"shared-l2": 1, "same-node": 2, "shared-l3": 1},
        },
    ],
    ("dunnington", "gather"): [
        {
            "events": 29,
            "finish_times": {
                0: 6.2130909090909085e-06,
                1: 0.0,
                2: 0.0,
                3: 0.0,
                4: 0.0,
                5: 0.0,
                6: 0.0,
                7: 0.0,
            },
            "makespan": 6.2130909090909085e-06,
            "messages": 7,
            "bytes_sent": 28672,
            "per_layer_messages": {"shared-l2": 1, "shared-l3": 1, "same-node": 5},
        },
    ],
    ("dunnington", "nonblocking"): [
        {
            "events": 23,
            "finish_times": {
                0: 0.0005658154545454546,
                1: 8.747e-05,
                2: 0.0005658154545454546,
            },
            "makespan": 0.0005658154545454546,
            "messages": 4,
            "bytes_sent": 788544,
            "per_layer_messages": {"shared-l2": 3, "same-node": 1},
        },
    ],
    ("dunnington", "pingpong_eager"): [
        {
            "events": 26,
            "finish_times": {
                0: 4.96e-06,
                1: 4.34e-06,
            },
            "makespan": 4.96e-06,
            "messages": 8,
            "bytes_sent": 8192,
            "per_layer_messages": {"shared-l2": 8},
        },
    ],
    ("dunnington", "pingpong_rendezvous"): [
        {
            "events": 26,
            "finish_times": {
                0: 0.0006597599999999999,
                1: 0.0006597599999999999,
            },
            "makespan": 0.0006597599999999999,
            "messages": 8,
            "bytes_sent": 2097152,
            "per_layer_messages": {"shared-l2": 8},
        },
    ],
    ("finis_terrae2", "allgather"): [
        {
            "events": 176,
            "finish_times": {
                0: 8.658026666666667e-05,
                1: 7.772835555555556e-05,
                2: 7.772835555555556e-05,
                3: 7.24199111111111e-05,
                4: 8.750186666666666e-05,
                5: 8.246151111111111e-05,
                6: 7.948053333333333e-05,
                7: 6.974613333333333e-05,
            },
            "makespan": 8.750186666666666e-05,
            "messages": 56,
            "bytes_sent": 458752,
            "per_layer_messages": {"same-cell": 28, "same-node": 14, "inter-node": 14},
        },
    ],
    ("finis_terrae2", "barrier"): [
        {
            "events": 80,
            "finish_times": {
                0: 1.4005773611111112e-05,
                1: 1.4005447222222223e-05,
                2: 1.4004580555555557e-05,
                3: 1.0004495833333333e-05,
                4: 1.40060625e-05,
                5: 1.4006426388888889e-05,
                6: 1.4005158333333334e-05,
                7: 1.0004131944444444e-05,
            },
            "makespan": 1.4006426388888889e-05,
            "messages": 24,
            "bytes_sent": 24,
            "per_layer_messages": {"same-cell": 5, "same-node": 5, "inter-node": 14},
        },
    ],
    ("finis_terrae2", "bcast"): [
        {
            "events": 29,
            "finish_times": {
                0: 0.00014342613333333335,
                1: 0.00017983253333333336,
                2: 0.00012922666666666667,
                3: 0.00016194666666666667,
                4: 0.00012922666666666667,
                5: 0.00016194666666666667,
                6: 0.00014342613333333335,
                7: 0.00017798933333333335,
            },
            "makespan": 0.00017983253333333336,
            "messages": 7,
            "bytes_sent": 344064,
            "per_layer_messages": {"inter-node": 3, "same-node": 1, "same-cell": 3},
        },
    ],
    ("finis_terrae2", "concurrent_exchanges_eager"): [
        {
            "events": 32,
            "finish_times": {
                0: 7.427200000000001e-06,
                1: 7.12e-06,
                2: 7.427200000000001e-06,
                3: 7.12e-06,
                4: 1.7468799999999998e-05,
                5: 1.5102222222222222e-05,
                6: 2.2201955555555556e-05,
                7: 1.983537777777778e-05,
            },
            "makespan": 2.2201955555555556e-05,
            "messages": 8,
            "bytes_sent": 65536,
            "per_layer_messages": {"same-cell": 2, "same-node": 2, "inter-node": 4},
        },
    ],
    ("finis_terrae2", "concurrent_transfers"): [
        {
            "events": 20,
            "finish_times": {
                0: 0.0,
                1: 2.248e-05,
                2: 0.0,
                3: 2.248e-05,
                4: 4.640888888888889e-05,
                5: 4.640888888888889e-05,
                6: 5.58752e-05,
                7: 5.58752e-05,
            },
            "makespan": 5.58752e-05,
            "messages": 4,
            "bytes_sent": 131072,
            "per_layer_messages": {"same-cell": 1, "same-node": 1, "inter-node": 2},
        },
    ],
    ("finis_terrae2", "gather"): [
        {
            "events": 29,
            "finish_times": {
                0: 1.4100977777777778e-05,
                1: 0.0,
                2: 0.0,
                3: 0.0,
                4: 0.0,
                5: 0.0,
                6: 0.0,
                7: 0.0,
            },
            "makespan": 1.4100977777777778e-05,
            "messages": 7,
            "bytes_sent": 28672,
            "per_layer_messages": {"same-cell": 2, "same-node": 1, "inter-node": 4},
        },
    ],
    ("finis_terrae2", "nonblocking"): [
        {
            "events": 22,
            "finish_times": {
                0: 0.0007187527111111111,
                1: 0.00038200159999999996,
                2: 0.0007187527111111111,
            },
            "makespan": 0.0007187527111111111,
            "messages": 4,
            "bytes_sent": 788544,
            "per_layer_messages": {"inter-node": 3, "same-node": 1},
        },
    ],
    ("finis_terrae2", "pingpong_eager"): [
        {
            "events": 26,
            "finish_times": {
                0: 5.710222222222223e-05,
                1: 4.996444444444445e-05,
            },
            "makespan": 5.710222222222223e-05,
            "messages": 8,
            "bytes_sent": 8192,
            "per_layer_messages": {"inter-node": 8},
        },
    ],
    ("finis_terrae2", "pingpong_rendezvous"): [
        {
            "events": 26,
            "finish_times": {
                0: 0.0024101688888888886,
                1: 0.0024101688888888886,
            },
            "makespan": 0.0024101688888888886,
            "messages": 8,
            "bytes_sent": 2097152,
            "per_layer_messages": {"inter-node": 8},
        },
    ],
}


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_outcome_is_pinned_exactly(machine, program, monkeypatch):
    observed = observe(machine, program, monkeypatch)
    expected = EXPECTED[machine, program]
    assert observed == expected
    # Equal floats can differ in sign and equal dicts in order; the
    # reprs are the bytes.
    assert repr(observed) == repr(expected)
