"""Unit tests for the max-min fair bandwidth allocator."""

import pytest

from repro.errors import ConfigurationError, MeasurementError
from repro.memsim.bandwidth import allocate_bandwidth, effective_bandwidth_curve
from repro.memsim.stream import stream_copy_bandwidth
from repro.topology import BandwidthDomain, dunnington, finis_terrae_node


def flat_tree(capacity, n_cores):
    return BandwidthDomain("root", capacity, frozenset(range(n_cores)))


class TestAllocate:
    def test_single_core_gets_demand_when_uncontended(self):
        alloc = allocate_bandwidth(flat_tree(10.0, 4), {0: 3.0})
        assert alloc[0] == pytest.approx(3.0)

    def test_saturated_root_splits_equally(self):
        alloc = allocate_bandwidth(flat_tree(4.0, 4), {0: 3.0, 1: 3.0})
        assert alloc[0] == pytest.approx(2.0)
        assert alloc[1] == pytest.approx(2.0)

    def test_unequal_demands_max_min(self):
        # Core 1 only wants 1.0; core 0 should soak up the slack.
        alloc = allocate_bandwidth(flat_tree(4.0, 4), {0: 5.0, 1: 1.0})
        assert alloc[1] == pytest.approx(1.0)
        assert alloc[0] == pytest.approx(3.0)

    def test_never_exceeds_any_domain(self):
        ft = finis_terrae_node()
        alloc = allocate_bandwidth(
            ft.bandwidth_root, {c: ft.core_stream_bw for c in range(16)}
        )
        for domain in ft.bandwidth_root.walk():
            used = sum(alloc[c] for c in domain.cores if c in alloc)
            assert used <= domain.capacity * (1 + 1e-9)

    def test_finis_terrae_pair_structure(self):
        ft = finis_terrae_node()
        demand = ft.core_stream_bw

        def pair_bw(other):
            alloc = allocate_bandwidth(ft.bandwidth_root, {0: demand, other: demand})
            return alloc[0]

        bus = pair_bw(1)
        cell = pair_bw(4)
        cross = pair_bw(8)
        assert bus < cell < cross
        assert cross == pytest.approx(demand)
        assert cell == pytest.approx(0.75 * demand, rel=0.01)  # paper: ~25% loss

    def test_rejects_core_outside_tree(self):
        with pytest.raises(ConfigurationError):
            allocate_bandwidth(flat_tree(4.0, 2), {5: 1.0})

    def test_rejects_nonpositive_demand(self):
        with pytest.raises(ConfigurationError):
            allocate_bandwidth(flat_tree(4.0, 2), {0: 0.0})


class TestEffectiveCurve:
    def test_monotone_nonincreasing(self):
        dn = dunnington()
        curve = effective_bandwidth_curve(
            dn.bandwidth_root, list(range(8)), dn.core_stream_bw
        )
        assert all(a >= b - 1e-9 for a, b in zip(curve, curve[1:]))

    def test_first_point_is_reference(self):
        dn = dunnington()
        curve = effective_bandwidth_curve(
            dn.bandwidth_root, list(range(4)), dn.core_stream_bw
        )
        assert curve[0] == pytest.approx(dn.core_stream_bw)

    def test_rejects_empty_group(self):
        with pytest.raises(ConfigurationError):
            effective_bandwidth_curve(flat_tree(4.0, 2), [], 1.0)


class TestStreamCopy:
    def test_matches_allocator(self):
        ft = finis_terrae_node()
        bw = stream_copy_bandwidth(ft, [0, 1])
        assert bw[0] == pytest.approx(4.6e9 / 2)

    def test_rejects_duplicate_cores(self):
        ft = finis_terrae_node()
        with pytest.raises(MeasurementError):
            stream_copy_bandwidth(ft, [0, 0])

    def test_rejects_unknown_core(self):
        ft = finis_terrae_node()
        with pytest.raises(MeasurementError):
            stream_copy_bandwidth(ft, [99])
