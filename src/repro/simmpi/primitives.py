"""Measurement primitives built on the simulated MPI.

These are the micro-benchmarks Servet's communication suite runs:
ping-pong between a pinned pair of cores (the Fig. 7 latency probe and
the Fig. 10c/d bandwidth characterization) and simultaneous one-way
transfers across many pairs (the Fig. 10b scalability probe).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from ..errors import MeasurementError
from ..netsim.model import CommConfig
from ..topology.machine import Cluster, CorePair
from .comm import Rank, World


def pingpong_latency(
    cluster: Cluster,
    config: CommConfig,
    core_a: int,
    core_b: int,
    nbytes: int,
    repetitions: int = 4,
) -> float:
    """One-way message latency (seconds) between two pinned cores.

    Runs ``repetitions`` ping-pong round trips through the runtime and
    halves the average round-trip time — the standard MPI latency
    measurement the paper's Fig. 10(a) reports.
    """
    if repetitions < 1:
        raise MeasurementError("need at least one repetition")
    if core_a == core_b:
        raise MeasurementError("ping-pong needs two distinct cores")
    world = World(cluster, config, placement=[core_a, core_b])

    def pinger(rank: Rank):
        for rep in range(repetitions):
            yield rank.send(1, nbytes, tag=rep)
            yield rank.recv(1, tag=rep)

    def ponger(rank: Rank):
        for rep in range(repetitions):
            yield rank.recv(0, tag=rep)
            yield rank.send(0, nbytes, tag=rep)

    world.add_process(pinger, 0)
    world.add_process(ponger, 1)
    result = world.run()
    return result.makespan / (2 * repetitions)


@dataclass
class ConcurrentResult:
    """Latencies observed when several pairs transfer simultaneously."""

    per_pair: dict[CorePair, float]
    mean: float
    worst: float

    @classmethod
    def from_times(cls, per_pair: dict[CorePair, float]) -> "ConcurrentResult":
        values = list(per_pair.values())
        return cls(
            per_pair=per_pair,
            mean=sum(values) / len(values),
            worst=max(values),
        )


def concurrent_transfers(
    cluster: Cluster,
    config: CommConfig,
    pairs: Sequence[CorePair],
    nbytes: int,
) -> ConcurrentResult:
    """One-way transfer time per pair when all pairs send at once.

    Every pair sends a single ``nbytes`` message starting at virtual
    time zero; the per-pair completion time is the receiver's finish
    time.  ``worst`` is the paper's scalability metric ("a message sent
    when there are other N-1 messages").
    """
    if not pairs:
        raise MeasurementError("need at least one pair")
    cores: list[int] = []
    for a, b in pairs:
        cores.extend((a, b))
    if len(set(cores)) != len(cores):
        raise MeasurementError("concurrent pairs must not share cores")
    world = World(cluster, config, placement=cores)

    def sender(rank: Rank):
        yield rank.send(rank.id + 1, nbytes, tag=rank.id)

    def receiver(rank: Rank):
        yield rank.recv(rank.id - 1, tag=rank.id - 1)

    for i in range(len(pairs)):
        world.add_process(sender, 2 * i)
        world.add_process(receiver, 2 * i + 1)
    result = world.run()
    per_pair = {
        pair: result.finish_times[2 * i + 1] for i, pair in enumerate(pairs)
    }
    return ConcurrentResult.from_times(per_pair)


def concurrent_exchanges(
    cluster: Cluster,
    config: CommConfig,
    pairs: Sequence[CorePair],
    nbytes: int,
) -> ConcurrentResult:
    """Bidirectional variant: both cores of every pair send at once.

    With ``k`` pairs this puts ``2k`` simultaneous messages on the
    layer — the paper's Fig. 10(b) setup, where 32 cores across two
    Finis Terrae nodes produce 32 concurrent InfiniBand messages.
    The per-pair time is when *both* directions have completed.
    """
    if not pairs:
        raise MeasurementError("need at least one pair")
    cores: list[int] = []
    for a, b in pairs:
        cores.extend((a, b))
    if len(set(cores)) != len(cores):
        raise MeasurementError("concurrent pairs must not share cores")
    world = World(cluster, config, placement=cores)

    def exchanger(rank: Rank):
        peer = rank.id ^ 1  # ranks 2i and 2i+1 are partners
        request = yield rank.isend(peer, nbytes, tag=rank.id)
        yield rank.recv(peer, tag=peer)
        yield rank.wait(request)

    for r in range(2 * len(pairs)):
        world.add_process(exchanger, r)
    result = world.run()
    per_pair = {
        pair: max(result.finish_times[2 * i], result.finish_times[2 * i + 1])
        for i, pair in enumerate(pairs)
    }
    return ConcurrentResult.from_times(per_pair)
