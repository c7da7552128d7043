"""Unit tests for the TLB model and detector (extension)."""

import pytest

from repro.backends import SimulatedBackend
from repro.core.tlb import detect_tlb_entries
from repro.errors import ConfigurationError
from repro.memsim import TLBSpec, TraversalEngine
from repro.memsim.prefetch import NO_PREFETCH
from repro.topology import generic_smp
from repro.units import KiB, MiB


def machine_with_tlb(entries=64, ways=None, walk=40.0):
    return generic_smp(
        n_cores=2,
        levels=[("32KB", 8, 1, 3.0), ("2MB", 8, 1, 18.0)],
        tlb=TLBSpec(entries=entries, ways=ways, walk_cycles=walk),
    )


class TestTLBSpec:
    def test_fully_associative_default(self):
        spec = TLBSpec(entries=64)
        assert spec.effective_ways == 64
        assert spec.num_sets == 1

    def test_set_associative(self):
        spec = TLBSpec(entries=256, ways=4)
        assert spec.num_sets == 64

    def test_rejects_non_dividing_ways(self):
        with pytest.raises(ConfigurationError):
            TLBSpec(entries=48, ways=5)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigurationError):
            TLBSpec(entries=96, ways=8)  # 12 sets

    def test_rejects_negative_walk(self):
        with pytest.raises(ConfigurationError):
            TLBSpec(entries=64, walk_cycles=-1.0)


class TestTraversalWithTLB:
    def test_within_entries_no_walk_cost(self):
        machine = machine_with_tlb(entries=64)
        engine = TraversalEngine(machine, prefetch=NO_PREFETCH)
        # 16KB at 1KB stride touches 4 pages: far below 64 entries.
        assert engine.single(16 * KiB, 1024, rng=0) == pytest.approx(3.0)

    def test_beyond_entries_pays_walks(self):
        machine = machine_with_tlb(entries=16, walk=40.0)
        no_tlb = generic_smp(
            n_cores=2, levels=[("32KB", 8, 1, 3.0), ("2MB", 8, 1, 18.0)]
        )
        with_cost = TraversalEngine(machine, prefetch=NO_PREFETCH).single(
            128 * KiB, 1024, rng=0
        )
        without = TraversalEngine(no_tlb, prefetch=NO_PREFETCH).single(
            128 * KiB, 1024, rng=0
        )
        # 32 pages > 16 entries: every page walks once per revolution;
        # 4 accesses per page -> +40/4 = +10 cycles per access.
        assert with_cost - without == pytest.approx(10.0)

    def test_cliff_is_sharp_at_entry_count(self):
        machine = machine_with_tlb(entries=32, walk=40.0)
        engine = TraversalEngine(machine, prefetch=NO_PREFETCH)
        at = engine.single(32 * 4 * KiB, 1024, rng=0)
        above = engine.single(64 * 4 * KiB, 1024, rng=0)
        assert above - at >= 9.0  # the walk penalty appears


class TestDetector:
    @pytest.mark.parametrize("entries,ways", [(64, None), (256, 4), (2048, None)])
    def test_detects_entry_count(self, entries, ways):
        machine = machine_with_tlb(entries=entries, ways=ways)
        backend = SimulatedBackend(machine, seed=7)
        result = detect_tlb_entries(backend, [32 * KiB, 2 * MiB])
        assert result.entries == entries

    def test_unbounded_tlb_reports_none(self):
        machine = generic_smp(
            n_cores=2, levels=[("32KB", 8, 1, 3.0), ("2MB", 8, 1, 18.0)]
        )
        backend = SimulatedBackend(machine, seed=7)
        result = detect_tlb_entries(backend, [32 * KiB, 2 * MiB])
        assert result.entries is None
        # The L1 line-capacity artifact was seen and discounted.
        assert result.discounted_regions

    def test_ambiguous_tlb_at_cache_capacity_reports_none(self):
        # 512 entries == the 32KB L1's line capacity: genuinely
        # indistinguishable under this probe; must not guess.
        machine = machine_with_tlb(entries=512)
        backend = SimulatedBackend(machine, seed=7)
        result = detect_tlb_entries(backend, [32 * KiB, 2 * MiB])
        assert result.entries is None
