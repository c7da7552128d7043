"""Unit tests for :mod:`repro.memsim.paging`."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.memsim.paging import (
    AddressSpace,
    ColoredPaging,
    ContiguousPaging,
    PagePolicy,
    RandomPaging,
    _has_duplicates,
)
from repro.units import KiB


def rng():
    return np.random.default_rng(123)


class DuplicatingPolicy(PagePolicy):
    """A broken user policy: maps every virtual page to frame 0."""

    def place(self, n_pages, rng):
        self._check(n_pages)
        return np.zeros(n_pages, dtype=np.int64)


class LyingPolicy(DuplicatingPolicy):
    """Duplicates frames while claiming it cannot."""

    guarantees_distinct_frames = True


class TestRandomPaging:
    def test_places_distinct_pages(self):
        pages = RandomPaging(physical_pages=4096).place(1000, rng())
        assert len(np.unique(pages)) == 1000
        assert pages.min() >= 0 and pages.max() < 4096

    def test_rejects_overcommit(self):
        with pytest.raises(SimulationError):
            RandomPaging(physical_pages=10).place(11, rng())

    def test_rejects_zero_pages(self):
        with pytest.raises(SimulationError):
            RandomPaging().place(0, rng())

    def test_uniformity_over_colors(self):
        # Chi-square-ish sanity: 64 colors, many pages, no color starved.
        pages = RandomPaging(physical_pages=1 << 20).place(6400, rng())
        counts = np.bincount(pages % 64, minlength=64)
        assert counts.min() > 50  # mean is 100

    def test_invalid_physical_pages(self):
        with pytest.raises(ConfigurationError):
            RandomPaging(physical_pages=0)


class TestColoredPaging:
    def test_preserves_virtual_color(self):
        policy = ColoredPaging(n_colors=16, physical_pages=1 << 16)
        pages = policy.place(640, rng())
        vcolors = np.arange(640) % 16
        assert np.array_equal(pages % 16, vcolors)
        assert len(np.unique(pages)) == 640

    def test_rejects_bad_color_count(self):
        with pytest.raises(ConfigurationError):
            ColoredPaging(n_colors=7, physical_pages=1 << 16)  # must divide


class TestContiguousPaging:
    def test_contiguity(self):
        pages = ContiguousPaging(physical_pages=1 << 16).place(100, rng())
        assert np.array_equal(np.diff(pages), np.ones(99, dtype=np.int64))


class TestAddressSpace:
    def test_physical_lines_follow_page_table(self):
        space = AddressSpace(4 * KiB, ContiguousPaging(), 8 * KiB, rng())
        base = space.page_table[0]
        lines = space.physical_lines(np.array([0, 64, 4096]), 64)
        assert lines[0] == base * 64
        assert lines[1] == base * 64 + 1
        assert lines[2] == (base + 1) * 64

    def test_virtual_lines(self):
        space = AddressSpace(4 * KiB, RandomPaging(), 8 * KiB, rng())
        assert list(space.virtual_lines(np.array([0, 63, 64, 1024]), 64)) == [
            0,
            0,
            1,
            16,
        ]

    def test_lines_larger_than_a_page_come_from_the_physical_address(self):
        # A 16 KiB sector spans four 4 KiB pages: its number is the
        # physical address shifted by 14.
        space = AddressSpace(4 * KiB, RandomPaging(), 64 * KiB, rng())
        vaddrs = np.arange(0, 64 * KiB, 1 * KiB)
        frames = space.page_table[vaddrs // (4 * KiB)]
        paddrs = frames * (4 * KiB) + vaddrs % (4 * KiB)
        lines = space.physical_lines(vaddrs, 16 * KiB)
        assert list(lines) == list(paddrs // (16 * KiB))
        assert len(set(lines.tolist())) > 1

    def test_rejects_non_power_of_two_line(self):
        space = AddressSpace(4 * KiB, RandomPaging(), 4 * KiB, rng())
        with pytest.raises(ConfigurationError):
            space.physical_lines(np.array([0]), 96)

    def test_rejects_out_of_range_addresses(self):
        space = AddressSpace(4 * KiB, RandomPaging(), 4 * KiB, rng())
        with pytest.raises(SimulationError):
            space.physical_lines(np.array([4096]), 64)

    def test_rejects_non_power_of_two_page(self):
        with pytest.raises(ConfigurationError):
            AddressSpace(3000, RandomPaging(), 8 * KiB, rng())

    def test_page_count_rounds_up(self):
        space = AddressSpace(4 * KiB, RandomPaging(), 5 * KiB, rng())
        assert space.n_pages == 2


class TestDuplicateValidation:
    def test_user_policy_with_duplicates_raises(self):
        # User-supplied policies default to guarantees_distinct_frames
        # == False, so the construction-time check must still catch a
        # genuinely duplicating placement.
        with pytest.raises(SimulationError, match="duplicate"):
            AddressSpace(4 * KiB, DuplicatingPolicy(), 8 * KiB, rng())

    def test_builtin_policies_skip_check_but_forced_check_works(self):
        # A policy that *claims* distinctness skips validation; running
        # the check on its page table by hand still finds the duplicate.
        space = AddressSpace(4 * KiB, LyingPolicy(), 8 * KiB, rng())  # no raise
        assert _has_duplicates(space.page_table)

    def test_has_duplicates_dense_path(self):
        # Value range small enough to bincount.
        assert _has_duplicates(np.array([5, 6, 7, 6], dtype=np.int64))
        assert not _has_duplicates(np.array([5, 6, 7, 8], dtype=np.int64))

    def test_has_duplicates_sparse_path(self):
        # Range >> size: falls back to the set-based check.
        huge = np.array([0, 10**12, 2 * 10**12], dtype=np.int64)
        assert not _has_duplicates(huge)
        assert _has_duplicates(np.array([0, 10**12, 0], dtype=np.int64))

    def test_trivial_sizes(self):
        assert not _has_duplicates(np.array([], dtype=np.int64))
        assert not _has_duplicates(np.array([3], dtype=np.int64))
