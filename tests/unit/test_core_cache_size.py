"""Unit tests for the Fig. 4 cache-level detection pipeline."""

import numpy as np
import pytest

from repro.backends import SimulatedBackend
from repro.core.cache_size import (
    _gradient_regions,
    _split_at_valleys,
    detect_cache_levels,
    detect_caches,
)
from repro.core import cache_size
from repro.core.mcalibrator import McalibratorResult
from repro.errors import DetectionError
from repro.memsim.paging import ColoredPaging, ContiguousPaging
from repro.topology import dempsey, generic_smp
from repro.units import KiB, MiB


def mres_from(cycles, start=1024):
    cycles = np.asarray(cycles, dtype=np.float64)
    sizes = start * 2 ** np.arange(len(cycles))
    return McalibratorResult(sizes=sizes, cycles=cycles, stride=1024, core=0)


class TestGradientRegions:
    def test_single_cliff(self):
        g = np.array([1.0, 1.0, 5.0, 1.0, 1.0])
        assert _gradient_regions(g) == [(2, 2)]

    def test_wide_region(self):
        g = np.array([1.0, 1.2, 1.4, 1.2, 1.0])
        assert _gradient_regions(g) == [(1, 3)]

    def test_region_touching_the_end(self):
        g = np.array([1.0, 1.0, 1.3, 1.5])
        assert _gradient_regions(g) == [(2, 3)]

    def test_no_regions_on_flat_curve(self):
        assert _gradient_regions(np.ones(6)) == []


class TestSplitAtValleys:
    def test_two_separated_peaks_split(self):
        g = np.array([1.0, 1.6, 1.06, 1.06, 1.7, 1.0])
        pieces = _split_at_valleys(g, 1, 4)
        assert len(pieces) == 2
        assert pieces[0][0] == 1 and pieces[1][1] == 4

    def test_single_peak_untouched(self):
        g = np.array([1.0, 1.2, 1.8, 1.3, 1.0])
        assert _split_at_valleys(g, 1, 3) == [(1, 3)]

    def test_shallow_valley_not_split(self):
        g = np.array([1.0, 1.6, 1.55, 1.65, 1.0])
        assert _split_at_valleys(g, 1, 3) == [(1, 3)]


class TestDetectCacheLevels:
    def test_synthetic_l1_only(self):
        # 3 cycles until 8KB, 20 after: L1 = 8KB positionally.
        cycles = [3, 3, 3, 3, 20, 20, 20]
        res = detect_cache_levels(mres_from(cycles), page_size=4 * KiB)
        assert len(res.levels) == 1
        assert res.levels[0].size == 1024 * 2**3
        assert res.levels[0].method == "l1-peak"

    def test_flat_curve_raises(self):
        with pytest.raises(DetectionError):
            detect_cache_levels(mres_from([3.0] * 8), page_size=4 * KiB)

    def test_noise_spike_is_ignored(self):
        cycles = [3, 3, 3, 20, 20, 20.9, 20, 20]  # one small bump
        res = detect_cache_levels(mres_from(cycles), page_size=4 * KiB)
        assert len(res.levels) == 1


class TestDetectCaches:
    def test_page_coloring_yields_positional_estimates(self):
        machine = generic_smp(
            n_cores=1,
            levels=[("32KB", 8, 1, 3.0), ("2MB", 8, 1, 20.0)],
            mem_latency=250.0,
        )
        colors = (2 * MiB) // (8 * 4 * KiB)  # page sets of the L2
        backend = SimulatedBackend(
            machine, paging=ColoredPaging(n_colors=colors), seed=1
        )
        res = detect_caches(backend)
        assert res.sizes == [32 * KiB, 2 * MiB]
        assert res.levels[1].method == "positional"

    def test_contiguous_paging_also_positional(self):
        machine = generic_smp(
            n_cores=1,
            levels=[("32KB", 8, 1, 3.0), ("2MB", 8, 1, 20.0)],
        )
        backend = SimulatedBackend(machine, paging=ContiguousPaging(), seed=1)
        res = detect_caches(backend)
        assert res.sizes == [32 * KiB, 2 * MiB]
        assert res.levels[1].method == "positional"

    def test_random_paging_uses_probabilistic(self):
        backend = SimulatedBackend(dempsey(), seed=1)
        res = detect_caches(backend)
        assert res.sizes == [16 * KiB, 2 * MiB]
        assert res.levels[1].method.startswith("probabilistic")

    def test_small_max_cache_misses_l2_gracefully(self, monkeypatch):
        monkeypatch.setattr(cache_size, "MAX_CACHE", 256 * KiB)
        backend = SimulatedBackend(dempsey(), seed=1)
        res = detect_caches(backend)
        assert [l.size for l in res.levels] == [16 * KiB]
