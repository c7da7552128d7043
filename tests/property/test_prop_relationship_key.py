"""Ping-pong latency depends on a core pair only through its relationship.

A two-rank ping-pong sees its pair only through
``CommConfig.params_for_pair``, that is through
``cluster.relationship(a, b)``.  So every pair with the same
relationship must give a bit-equal ``pingpong_latency``, at eager and at
rendezvous sizes.  This is what makes it sound to simulate one
ping-pong per (relationship, size) instead of one per core pair.

Pairs are sampled per relationship (the first, the last and a few drawn
with a fixed seed, each in both orientations), so large machines cost
no more than small ones.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict

import pytest

from repro.netsim import default_comm_config
from repro.simmpi import pingpong_latency
from repro.topology import Cluster, dempsey, dunnington, finis_terrae
from repro.units import MiB
from repro.zoo import family_names, generate_machine

#: Eager and rendezvous on every layer of every system below.
SIZES = (64, 1 * MiB)

#: Random pairs per relationship, besides its first and last pair.
DRAWN = 4


def _paper(cluster: Cluster):
    return lambda: (cluster, default_comm_config(cluster))


def _zoo(family: str):
    def build():
        generated = generate_machine(family, 0)
        return generated.cluster, generated.comm

    return build


SYSTEMS = {
    "dempsey": _paper(Cluster("dempsey", dempsey())),
    "dunnington": _paper(Cluster("dunnington", dunnington())),
    "finis_terrae2": _paper(finis_terrae(2)),
    "finis_terrae8": _paper(finis_terrae(8)),
    **{f"zoo_{family}": _zoo(family) for family in family_names()},
}


def sampled_pairs(cluster: Cluster, seed: str) -> dict[str, list[tuple[int, int]]]:
    """Per relationship: its first and last pair plus ``DRAWN`` more."""
    by_relationship = defaultdict(list)
    for a, b in itertools.combinations(cluster.cores, 2):
        by_relationship[cluster.relationship(a, b)].append((a, b))
    assert set(by_relationship) == cluster.relationships()
    rng = random.Random(seed)
    samples = {}
    for key, pairs in by_relationship.items():
        chosen = {pairs[0], pairs[-1], *rng.sample(pairs, min(DRAWN, len(pairs)))}
        samples[key] = sorted(chosen) + sorted((b, a) for a, b in chosen)
    return samples


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_pairs_of_one_relationship_have_bit_equal_pingpong(system):
    cluster, config = SYSTEMS[system]()
    for key, pairs in sampled_pairs(cluster, system).items():
        layer = config.params_for_relationship(key)
        assert [layer.is_eager(size) for size in SIZES] == [True, False]
        for size in SIZES:
            latencies = {
                pingpong_latency(cluster, config, a, b, size).hex() for a, b in pairs
            }
            assert len(latencies) == 1, (key, size, sorted(latencies))


def test_distinct_relationships_are_told_apart():
    """The equalities above are not trivial: on Dunnington each of the
    three relationships has its own latencies over ``SIZES``."""
    cluster, config = SYSTEMS["dunnington"]()
    latencies = {
        key: tuple(pingpong_latency(cluster, config, *pairs[0], n) for n in SIZES)
        for key, pairs in sampled_pairs(cluster, "dunnington").items()
    }
    assert len(set(latencies.values())) == len(latencies) == 3
