"""Traversal outcome cache: compute each distinct simulation once.

The suite issues thousands of traversal probes per run, and fleet
surveys multiply that by hundreds of machines — yet the simulated
substrate is fully deterministic: a traversal's steady-state outcome is
a pure function of the machine model, the traversal workloads, the
paging policy, the prefetcher, and the RNG stream that draws the page
placement.  This module keys whole :meth:`TraversalEngine.run` results
on a canonical fingerprint of exactly those inputs so any *repeat* of
the same simulation — a golden re-run, a fleet worker surveying a
duplicate hardware class, a warm bench repeat, a resumed suite — is
answered from memory instead of re-simulated.

Why the RNG stream is part of the key
-------------------------------------
Two calls with identical geometry are *not* the same measurement: each
``run`` draws fresh page placements from child streams spawned off the
caller's generator, and repeat-sampling exists precisely to average
over those placements.  The stream identity — the generator's seed
entropy, spawn path, and the number of children already spawned — pins
*which* placements a call would draw, so a cache hit returns the exact
result a fresh simulation would have produced, bit for bit.  A
generator whose stream cannot be identified (no inspectable seed
sequence) bypasses the cache rather than risking a wrong answer.

Side-effect fidelity
--------------------
A miss consumes ``len(traversals)`` spawn keys from the caller's
generator; a hit consumes the same keys (without building the child
generators) so cached and uncached runs leave the RNG in identical
states and later calls key identically either way.

Composition with the planner memo
---------------------------------
The :class:`~repro.planner.executor.PlanExecutor` memoizes at probe
granularity; probes answered there never reach the backend, so they are
invisible to this cache.  Each layer counts its own events once, and the
suite exports both at the end of a run: ``planner.cache_hits`` (a
``PlannerStats`` count) counts probes that skipped the backend, and
``memsim.outcome.hits + memsim.outcome.misses`` — this cache's own
``stats()`` difference across the run — equals the traversal calls that
reached the engine.  Outcomes never expire (the
cache is an :class:`~repro.lru.LRUCache` bounded by capacity only): an
outcome is a pure function of its key.
"""

from __future__ import annotations

import numpy as np

from ..lru import LRUCache

#: Default bound on cached outcomes.  One full unpruned suite run on a
#: 24-core machine produces ~3k distinct outcomes; the default keeps a
#: comfortable multiple of that while bounding memory (an outcome is a
#: few hundred bytes).
DEFAULT_MAX_ENTRIES: int = 65536


def stream_identity(rng: np.random.Generator) -> tuple | None:
    """Canonical identity of the stream ``rng`` would spawn children from.

    Returns ``(entropy, spawn_key, n_children_spawned, pool_size)`` of
    the generator's seed sequence, or ``None`` when the generator
    carries no inspectable :class:`numpy.random.SeedSequence` (then the
    placement draws cannot be predicted and caching must be bypassed).
    """
    try:
        seed_seq = rng.bit_generator.seed_seq
    except AttributeError:
        return None
    entropy = getattr(seed_seq, "entropy", None)
    if entropy is None:
        return None
    if isinstance(entropy, (list, tuple)):
        entropy = tuple(int(e) for e in entropy)
    else:
        entropy = int(entropy)
    return (
        entropy,
        tuple(int(k) for k in seed_seq.spawn_key),
        int(seed_seq.n_children_spawned),
        int(seed_seq.pool_size),
    )


#: Process-wide default cache.  Shared deliberately: the whole point is
#: that a second backend simulating the same machine with the same seed
#: (golden re-runs, fleet duplicates, warm bench repeats) reuses the
#: first one's outcomes.  Hard bypass = construct the engine with
#: ``outcome_cache=None`` (the reference path of the property tests).
GLOBAL_OUTCOME_CACHE = LRUCache(DEFAULT_MAX_ENTRIES)

#: Companion cache for the discrete-event communication substrate.
#: Ping-pong and concurrent-exchange simulations involve no RNG at all
#: — they are pure functions of (cluster, comm config, pairs, message
#: size) — so their keying needs no stream identity; the same bounded
#: LRU serves.  Kept separate from the traversal cache so the
#: "traversal hits + misses == traversal probes issued" accounting
#: invariant stays exact.
GLOBAL_COMM_CACHE = LRUCache(DEFAULT_MAX_ENTRIES)


def clear_global_cache() -> None:
    """Reset the process-wide caches (benches and tests)."""
    GLOBAL_OUTCOME_CACHE.clear()
    GLOBAL_COMM_CACHE.clear()
