"""Unit tests for the traversal outcome cache and per-call page placement."""

import gc
import weakref

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.lru import LRUCache
from repro.memsim import (
    GLOBAL_OUTCOME_CACHE,
    clear_global_cache,
    stream_identity,
)
from repro.memsim.outcome import DEFAULT_MAX_ENTRIES
from repro.memsim.paging import AddressSpace, RandomPaging
from repro.memsim.prefetch import NO_PREFETCH
from repro.memsim.traversal import Traversal, TraversalEngine
from repro.obs.metrics import MetricsRegistry
from repro.topology import dempsey, dunnington
from repro.topology.cache import Indexing
from repro.units import KiB, MiB


def make_engine(**kw) -> TraversalEngine:
    return TraversalEngine(dempsey(), prefetch=NO_PREFETCH, **kw)


class TestStreamIdentity:
    def test_same_seed_same_identity(self):
        assert stream_identity(np.random.default_rng(7)) == stream_identity(
            np.random.default_rng(7)
        )

    def test_different_seeds_differ(self):
        assert stream_identity(np.random.default_rng(7)) != stream_identity(
            np.random.default_rng(8)
        )

    def test_spawning_advances_identity(self):
        rng = np.random.default_rng(7)
        before = stream_identity(rng)
        rng.bit_generator.seed_seq.spawn(2)
        after = stream_identity(rng)
        assert before != after
        assert after[2] == before[2] + 2  # n_children_spawned

    def test_drawing_values_does_not_change_identity(self):
        # Child streams derive from the seed sequence, not the
        # generator state: noise draws must not perturb the cache key.
        rng = np.random.default_rng(7)
        before = stream_identity(rng)
        rng.normal(size=100)
        assert stream_identity(rng) == before

    def test_uninspectable_generator_returns_none(self):
        class Opaque:
            pass

        assert stream_identity(Opaque()) is None


def outcome_cache() -> LRUCache:
    """A private cache shaped like the process-wide outcome cache."""
    return LRUCache(DEFAULT_MAX_ENTRIES)


def cache_stats(hits: int, misses: int, entries: int) -> dict[str, int]:
    return {
        "hits": hits,
        "misses": misses,
        "evictions": 0,
        "entries": entries,
    }


class TestTraversalOutcomeCache:
    def test_lru_eviction(self):
        cache = LRUCache(2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1  # refresh "a"
        cache.put(("c",), 3)  # evicts "b"
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1
        assert cache.get(("c",)) == 3

    def test_counters_and_clear(self):
        cache = outcome_cache()
        assert cache.get(("x",)) is None
        cache.put(("x",), 42)
        assert cache.get(("x",)) == 42
        assert cache.stats() == cache_stats(hits=1, misses=1, entries=1)
        cache.clear()
        assert cache.stats() == cache_stats(hits=0, misses=0, entries=0)

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ConfigurationError):
            LRUCache(0)


class TestEngineCaching:
    def setup_method(self):
        clear_global_cache()

    def test_repeat_run_hits_and_matches(self):
        cache = outcome_cache()
        engine = make_engine(outcome_cache=cache)
        travs = [Traversal(0, 64 * KiB, 64)]
        first = engine.run(travs, rng=np.random.default_rng(3))
        second = engine.run(travs, rng=np.random.default_rng(3))
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert first == second

    def test_hit_returns_independent_copy(self):
        cache = outcome_cache()
        engine = make_engine(outcome_cache=cache)
        travs = [Traversal(0, 64 * KiB, 64)]
        first = engine.run(travs, rng=np.random.default_rng(3))
        first.cycles_per_access[0] = -1.0
        first.miss_fraction[0].append(99.0)
        second = engine.run(travs, rng=np.random.default_rng(3))
        assert second.cycles_per_access[0] != -1.0
        assert 99.0 not in second.miss_fraction[0]

    def test_hit_leaves_rng_in_miss_state(self):
        """Cached and uncached runs must consume identical spawn keys."""
        cache = outcome_cache()
        cached_engine = make_engine(outcome_cache=cache)
        bypass_engine = make_engine(outcome_cache=None)
        travs = [Traversal(0, 64 * KiB, 64), Traversal(1, 32 * KiB, 64)]
        cached_engine.run(travs, rng=np.random.default_rng(5))  # prime

        rng_cached = np.random.default_rng(5)
        rng_bypass = np.random.default_rng(5)
        hit = cached_engine.run(travs, rng=rng_cached)
        miss = bypass_engine.run(travs, rng=rng_bypass)
        assert cache.stats()["hits"] == 1
        assert hit == miss
        assert stream_identity(rng_cached) == stream_identity(rng_bypass)
        # Follow-up runs key identically either way.
        assert cached_engine.run(travs, rng=rng_cached) == bypass_engine.run(
            travs, rng=rng_bypass
        )

    def test_bypassed_engine_never_consults_cache(self):
        engine = make_engine(outcome_cache=None)
        before = GLOBAL_OUTCOME_CACHE.stats()
        engine.run([Traversal(0, 64 * KiB, 64)], rng=np.random.default_rng(3))
        assert GLOBAL_OUTCOME_CACHE.stats() == before

    def test_traversal_order_is_part_of_the_key(self):
        """Child streams are positional: a permutation is a different run."""
        cache = outcome_cache()
        engine = make_engine(outcome_cache=cache)
        a, b = Traversal(0, 64 * KiB, 64), Traversal(1, 256 * KiB, 64)
        engine.run([a, b], rng=np.random.default_rng(3))
        engine.run([b, a], rng=np.random.default_rng(3))
        assert cache.stats()["misses"] == 2
        assert cache.stats()["hits"] == 0

    def test_custom_policy_without_token_bypasses_cache(self):
        class OpaquePolicy(RandomPaging):
            def cache_token(self):
                return None

        cache = outcome_cache()
        engine = make_engine(outcome_cache=cache, paging=OpaquePolicy())
        engine.run([Traversal(0, 64 * KiB, 64)], rng=np.random.default_rng(3))
        engine.run([Traversal(0, 64 * KiB, 64)], rng=np.random.default_rng(3))
        assert cache.stats() == cache_stats(hits=0, misses=0, entries=0)

    def test_equal_valued_machines_share_outcomes(self):
        cache = outcome_cache()
        one = TraversalEngine(dempsey(), prefetch=NO_PREFETCH, outcome_cache=cache)
        two = TraversalEngine(dempsey(), prefetch=NO_PREFETCH, outcome_cache=cache)
        travs = [Traversal(0, 64 * KiB, 64)]
        first = one.run(travs, rng=np.random.default_rng(3))
        second = two.run(travs, rng=np.random.default_rng(3))
        assert cache.stats() == cache_stats(hits=1, misses=1, entries=1)
        assert first == second

    def test_bind_metrics_exports_counters(self):
        cache = outcome_cache()
        engine = make_engine(outcome_cache=cache)
        metrics = MetricsRegistry()
        engine.bind_metrics(metrics)
        travs = [Traversal(0, 64 * KiB, 64)]
        engine.run(travs, rng=np.random.default_rng(3))
        engine.run(travs, rng=np.random.default_rng(3))
        assert metrics.counter("memsim.outcome.hits").value == 1
        assert metrics.counter("memsim.outcome.misses").value == 1


class TestPagePlacementLifetime:
    def test_spaces_die_with_the_run_and_translate_once_per_granule(
        self, monkeypatch
    ):
        """A cache-miss run keeps no page table alive after it returns,
        and derives each traversal's physical lines once per granule
        (dunnington's L2 and L3 share one translation)."""
        built: list[weakref.ref] = []
        translations: list[int] = []
        init = AddressSpace.__init__
        physical_lines = AddressSpace.physical_lines

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(weakref.ref(self))

        def counting_physical_lines(self, vaddrs, line_size):
            translations.append(line_size)
            return physical_lines(self, vaddrs, line_size)

        monkeypatch.setattr(AddressSpace, "__init__", recording_init)
        monkeypatch.setattr(AddressSpace, "physical_lines", counting_physical_lines)

        machine = dunnington()
        # Cores 0 and 12 share an L2; cores 0, 1 and 12 share an L3.
        travs = [
            Traversal(0, 4 * MiB, 64),
            Traversal(12, 2 * MiB, 64),
            Traversal(1, 1 * MiB, 128),
        ]
        engine = TraversalEngine(machine, outcome_cache=None)
        result = engine.run(travs, rng=np.random.default_rng(11))
        assert set(result.cycles_per_access) == {0, 12, 1}

        granules = {
            machine.levels[0].spec.line_size * level.spec.sector_lines
            for level in machine.levels
            if level.spec.indexing is Indexing.PHYSICAL
        }
        assert len(built) == len(travs)
        assert len(translations) == len(travs) * len(granules)
        gc.collect()
        assert [ref() for ref in built] == [None] * len(travs)

    def test_one_stride_pair_takes_page_units_without_translating(
        self, monkeypatch
    ):
        """A pair with one page-dividing stride over whole pages is
        simulated page by page: its sets come from the page tables
        directly (no ``physical_lines`` call), and its spaces still die
        with the run."""
        built: list[weakref.ref] = []
        translations: list[int] = []
        init = AddressSpace.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(weakref.ref(self))

        monkeypatch.setattr(AddressSpace, "__init__", recording_init)
        monkeypatch.setattr(
            AddressSpace,
            "physical_lines",
            lambda self, vaddrs, line_size: translations.append(line_size),
        )

        # Cores 0 and 12 share an L2: the Fig. 5 probe at 2/3 of it.
        travs = [Traversal(0, 2 * MiB, 1024), Traversal(12, 2 * MiB, 1024)]
        engine = TraversalEngine(dunnington(), outcome_cache=None)
        assert engine._accesses_per_page(travs) == 4
        result = engine.run(travs, rng=np.random.default_rng(11))
        assert set(result.cycles_per_access) == {0, 12}

        assert len(built) == len(travs)
        assert translations == []
        gc.collect()
        assert [ref() for ref in built] == [None] * len(travs)
