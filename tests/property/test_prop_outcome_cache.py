"""Property: the outcome cache is semantically invisible.

For any seed, any traversal mix (single-core and concurrent), and any
number of repeat calls, a :class:`TraversalEngine` with the outcome
cache enabled must return results identical to a cache-bypassed engine
driven by an identically seeded RNG — field for field, including the
RNG stream state left behind (the suite's determinism rests on it).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lru import LRUCache
from repro.memsim.outcome import DEFAULT_MAX_ENTRIES, stream_identity
from repro.memsim.paging import ColoredPaging, RandomPaging
from repro.memsim.traversal import Traversal, TraversalEngine
from repro.topology import dempsey, dunnington
from repro.units import KiB, MiB

SEEDS = list(range(24))


def random_traversals(rng: np.random.Generator, machine) -> list[Traversal]:
    """A random batch: 1-3 cores, mixed array sizes and strides."""
    n = int(rng.integers(1, min(4, machine.n_cores + 1)))
    cores = rng.choice(machine.n_cores, size=n, replace=False)
    sizes = rng.choice(
        [16 * KiB, 64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB], size=n
    )
    stride = int(rng.choice([64, 128, 256]))
    return [
        Traversal(int(core), int(nbytes), stride)
        for core, nbytes in zip(cores, sizes)
    ]


def results_equal(a, b) -> bool:
    return (
        a.cycles_per_access == b.cycles_per_access
        and a.miss_fraction == b.miss_fraction
        and a.n_accesses == b.n_accesses
        and a.seconds_per_round == b.seconds_per_round
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_cached_equals_bypassed(seed):
    machine = dempsey() if seed % 2 else dunnington()
    batch_rng = np.random.default_rng(seed + 5000)
    batches = [random_traversals(batch_rng, machine) for _ in range(4)]

    cache = LRUCache(DEFAULT_MAX_ENTRIES)
    cached_engine = TraversalEngine(machine, outcome_cache=cache)
    bypass_engine = TraversalEngine(machine, outcome_cache=None)

    rng_cached = np.random.default_rng(seed)
    rng_bypass = np.random.default_rng(seed)
    for batch in batches:
        hit_or_miss = cached_engine.run(batch, rng=rng_cached)
        fresh = bypass_engine.run(batch, rng=rng_bypass)
        assert results_equal(hit_or_miss, fresh)
        # Both paths must consume the parent stream identically, or the
        # *next* batch would diverge.
        assert stream_identity(rng_cached) == stream_identity(rng_bypass)
    assert cache.stats() == {
        "hits": 0,
        "misses": len(batches),
        "evictions": 0,
        "entries": len(batches),
    }

    # Replaying the whole sequence from an identically seeded parent
    # stream reproduces every key: all hits, same results.
    rng_replay = np.random.default_rng(seed)
    rng_check = np.random.default_rng(seed)
    for batch in batches:
        assert results_equal(
            cached_engine.run(batch, rng=rng_replay),
            bypass_engine.run(batch, rng=rng_check),
        )
    assert cache.stats()["hits"] == len(batches)
    assert cache.stats()["misses"] == len(batches)


@pytest.mark.parametrize("seed", SEEDS)
def test_cached_equals_bypassed_under_coloring(seed):
    """Same property under the page-coloring ablation policy."""
    machine = dunnington()
    paging = ColoredPaging(n_colors=64)
    batch = random_traversals(np.random.default_rng(seed + 9000), machine)

    cache = LRUCache(DEFAULT_MAX_ENTRIES)
    cached_engine = TraversalEngine(machine, paging=paging, outcome_cache=cache)
    bypass_engine = TraversalEngine(machine, paging=paging, outcome_cache=None)
    for _ in range(2):  # second pass hits
        assert results_equal(
            cached_engine.run(batch, rng=np.random.default_rng(seed)),
            bypass_engine.run(batch, rng=np.random.default_rng(seed)),
        )
    assert cache.stats() == {
        "hits": 1,
        "misses": 1,
        "evictions": 0,
        "entries": 1,
    }


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_outcomes_do_not_leak_across_policies(seed):
    """Equal (array, stride, stream) under different policies must not
    collide in one outcome cache: the policy token keeps their keys
    apart, and each policy's answer equals its own bypassed run."""
    machine = dempsey()
    batch = [Traversal(0, 256 * KiB, 64)]
    cache = LRUCache(DEFAULT_MAX_ENTRIES)
    for paging in (RandomPaging(), ColoredPaging(n_colors=64)):
        cached_engine = TraversalEngine(machine, paging=paging, outcome_cache=cache)
        bypass_engine = TraversalEngine(machine, paging=paging, outcome_cache=None)
        assert results_equal(
            cached_engine.run(batch, rng=np.random.default_rng(seed)),
            bypass_engine.run(batch, rng=np.random.default_rng(seed)),
        )
    # A collision would turn the second run into a hit and hand the
    # colored engine the randomly placed outcome.
    assert cache.stats()["hits"] == 0
    assert cache.stats()["misses"] == 2
