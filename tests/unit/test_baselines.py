"""Unit tests for the prior-work baseline detectors."""

import pytest

from repro.backends import SimulatedBackend
from repro.baselines import xray, xray_cache_sizes
from repro.errors import DetectionError
from repro.memsim.paging import ColoredPaging, ContiguousPaging
from repro.topology import dempsey, dunnington, generic_smp
from repro.units import KiB, MiB


class TestXRayPositional:
    def test_exact_under_contiguous_pages(self):
        backend = SimulatedBackend(dempsey(), paging=ContiguousPaging(), seed=4)
        result = xray_cache_sizes(backend)
        assert result.sizes == [16 * KiB, 2 * MiB]

    def test_exact_under_page_coloring(self):
        machine = dempsey()
        colors = machine.levels[1].spec.page_colors(machine.page_size)
        backend = SimulatedBackend(
            machine, paging=ColoredPaging(n_colors=colors), seed=4
        )
        result = xray_cache_sizes(backend)
        assert result.sizes == [16 * KiB, 2 * MiB]

    def test_wrong_under_random_paging(self):
        backend = SimulatedBackend(dempsey(), seed=4)
        result = xray_cache_sizes(backend)
        # The L1 is virtually indexed and still read correctly...
        assert result.sizes[0] == 16 * KiB
        # ...but the physically indexed L2's positional estimate sits
        # below the true capacity (the smear's steepest point).
        assert result.sizes[1] < 2 * MiB

    def test_level_count_matches_hierarchy_depth(self):
        backend = SimulatedBackend(dunnington(), paging=ContiguousPaging(), seed=4)
        result = xray_cache_sizes(backend)
        assert len(result.sizes) == 3

    def test_flat_curve_raises(self, monkeypatch):
        # Probe a range entirely inside the L1: nothing to see.
        monkeypatch.setattr(xray, "MAX_CACHE", 256 * KiB)
        machine = generic_smp(n_cores=1, levels=[("2MB", 8, 1, 3.0)])
        backend = SimulatedBackend(machine, seed=4)
        with pytest.raises(DetectionError):
            xray_cache_sizes(backend)

    def test_keeps_raw_curve_for_inspection(self):
        backend = SimulatedBackend(dempsey(), seed=4)
        result = xray_cache_sizes(backend)
        assert len(result.mcalibrator.sizes) > 10
