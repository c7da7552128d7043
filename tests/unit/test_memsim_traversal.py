"""Unit tests for the analytic traversal engine."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.memsim import (
    ContiguousPaging,
    PrefetchModel,
    Traversal,
    TraversalEngine,
    strided_addresses,
)
from repro.memsim.prefetch import NO_PREFETCH
from repro.topology import CacheLevel, CacheSpec, dunnington, generic_smp
from repro.topology.cache import private_groups
from repro.units import KiB, MiB


def test_strided_addresses_shape():
    addrs = strided_addresses(8 * KiB, 1 * KiB)
    assert list(addrs) == [i * 1024 for i in range(8)]


def test_strided_addresses_minimum_one_access():
    assert list(strided_addresses(100, 1024)) == [0]


@pytest.mark.parametrize("bad", [(0, 1024), (4096, 0), (4096, -64)])
def test_strided_addresses_rejects_bad_args(bad):
    with pytest.raises(MeasurementError):
        strided_addresses(*bad)


class TestSingleCore:
    def engine(self, **kw):
        machine = generic_smp(
            n_cores=2,
            levels=[("32KB", 8, 1, 3.0), ("1MB", 8, 2, 20.0)],
            mem_latency=200.0,
        )
        return TraversalEngine(machine, **kw)

    def test_l1_resident_array_costs_l1_latency(self):
        engine = self.engine()
        assert engine.single(16 * KiB, 1024, rng=0) == pytest.approx(3.0)

    def test_l1_cliff_is_exactly_at_capacity(self):
        engine = self.engine()
        at = engine.single(32 * KiB, 1024, rng=0)
        above = engine.single(64 * KiB, 1024, rng=0)
        assert at == pytest.approx(3.0)
        assert above >= 3.0 + 20.0  # every access falls through L1

    def test_contiguous_paging_gives_sharp_l2_cliff(self):
        engine = self.engine(paging=ContiguousPaging())
        at = engine.single(1 * MiB, 1024, rng=0)
        above = engine.single(2 * MiB, 1024, rng=0)
        assert at == pytest.approx(23.0)
        assert above == pytest.approx(223.0)

    def test_random_paging_smears_l2_cliff(self):
        engine = self.engine()
        at = engine.single(1 * MiB, 1024, rng=0)
        # With random pages some conflict misses appear *at* capacity
        # (at size == CS the expected conflict miss rate is ~50%)...
        assert at > 23.0
        # ...but it is nowhere near the all-miss plateau of 223 cycles.
        assert at < 200.0

    def test_miss_fractions_telescope(self):
        engine = self.engine()
        result = engine.run([Traversal(0, 4 * MiB, 1024)], rng=0)
        fractions = result.miss_fraction[0]
        assert len(fractions) == 2
        assert 1.0 >= fractions[0] >= fractions[1] >= 0.0

    def test_rejects_unknown_core(self):
        with pytest.raises(MeasurementError):
            self.engine().run([Traversal(7, 4 * KiB, 1024)])

    def test_rejects_duplicate_core(self):
        engine = self.engine()
        with pytest.raises(MeasurementError):
            engine.run([Traversal(0, 4 * KiB, 1024), Traversal(0, 8 * KiB, 1024)])

    def test_seconds_per_round_accounting(self):
        engine = self.engine()
        result = engine.run([Traversal(0, 16 * KiB, 1024)], rng=0)
        n, cyc = result.n_accesses[0], result.cycles_per_access[0]
        assert result.seconds_per_round[0] == pytest.approx(
            n * cyc / engine.machine.clock_hz
        )


class TestSectorsLargerThanAPage:
    """A 16 KiB-sector 8 MiB L2 on 4 KiB pages."""

    def engine(self):
        base = generic_smp(n_cores=1, levels=[("32KB", 8, 1, 3.0)])
        l2 = CacheSpec(2, 8 * MiB, ways=8, sector_lines=256, latency=20.0)
        machine = replace(
            base, levels=base.levels + (CacheLevel(l2, private_groups(1)),)
        )
        return TraversalEngine(
            machine, paging=ContiguousPaging(), prefetch=NO_PREFETCH
        )

    def test_fitting_array_hits_a_sectored_cache(self):
        """A contiguous 4 MiB array fits: every sector has its own tag,
        4 per 8-way set."""
        result = self.engine().run([Traversal(0, 4 * MiB, 16 * KiB)], rng=0)
        assert result.miss_fraction[0] == [1.0, 0.0]
        assert result.cycles_per_access[0] == pytest.approx(23.0)

    def test_sectors_spanning_pages_are_simulated_per_access(self):
        # A page holds part of a sector, so pages cannot be the units.
        travs = [Traversal(0, 4 * MiB, 1 * KiB)]
        assert self.engine()._accesses_per_page(travs) == 0


class TestPrefetchInteraction:
    def test_small_stride_hides_memory_latency(self):
        machine = generic_smp(
            n_cores=1, levels=[("32KB", 8, 1, 3.0)], mem_latency=200.0
        )
        engine = TraversalEngine(machine, prefetch=PrefetchModel(512, 0.9))
        hidden = engine.single(1 * MiB, 256, rng=0)
        exposed = engine.single(1 * MiB, 1024, rng=0)
        assert hidden < exposed / 3  # prefetcher flattens the curve

    def test_no_prefetch_model_equalizes(self):
        machine = generic_smp(
            n_cores=1, levels=[("32KB", 8, 1, 3.0)], mem_latency=200.0
        )
        engine = TraversalEngine(machine, prefetch=NO_PREFETCH)
        small = engine.single(1 * MiB, 256, rng=0)
        assert small == pytest.approx(203.0)


class TestConcurrentTraversals:
    def test_shared_cache_pair_thrashes(self):
        machine = dunnington()
        engine = TraversalEngine(machine)
        size = 2 * MiB  # (2/3) of the 3MB L2
        ref = engine.single(size, 1024, rng=1)
        pair = engine.run(
            [Traversal(0, size, 1024), Traversal(12, size, 1024)], rng=1
        )
        mean = np.mean(list(pair.cycles_per_access.values()))
        assert mean / ref > 2.0  # the Fig. 5 criterion

    def test_private_cache_pair_does_not(self):
        machine = dunnington()
        engine = TraversalEngine(machine)
        size = 2 * MiB
        ref = engine.single(size, 1024, rng=1)
        pair = engine.run(
            [Traversal(0, size, 1024), Traversal(3, size, 1024)], rng=1
        )
        mean = np.mean(list(pair.cycles_per_access.values()))
        assert mean / ref < 1.5
