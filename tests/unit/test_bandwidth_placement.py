"""Unit tests for bandwidth-aware (memory-overhead-driven) placement."""

import pytest

from repro.autotune import Advisor, bandwidth_aware_placement
from repro.backends.simulated import SimulatedBackend
from repro.core.suite import ServetSuite
from repro.errors import ReproError
from repro.topology.builders import finis_terrae

from .test_core_report import sample_report


class TestBandwidthAwarePlacement:
    def test_avoids_measured_overhead_pairs(self, ft_report):
        # Finis Terrae: cores 0-3 share a bus, 0-7 a cell; two ranks
        # should land on different cells.
        placement = bandwidth_aware_placement(ft_report, 2)
        a, b = placement
        assert ft_report.memory_level_of(a, b) is None

    def test_four_ranks_one_per_bus(self):
        # The suite measures memory overheads on one node (the paper's
        # setup), so place on a one-node machine.
        report = ServetSuite(SimulatedBackend(finis_terrae(1), seed=42)).run()
        placement = bandwidth_aware_placement(report, 4)
        buses = {core // 4 for core in placement}
        assert len(buses) == 4

    def test_too_many_ranks_rejected(self, ft_report):
        with pytest.raises(ReproError):
            bandwidth_aware_placement(ft_report, 99)

    def test_sample_report_first_pick_contention_free(self):
        report = sample_report()  # pairs (0,1) contend
        placement = bandwidth_aware_placement(report, 2)
        assert sorted(placement) != [0, 1]

    def test_deterministic(self, ft_report):
        a = bandwidth_aware_placement(ft_report, 6)
        b = bandwidth_aware_placement(ft_report, 6)
        assert a == b


class TestAdvisorNewMethods:
    def test_streaming_placement_delegates(self, ft_report):
        advisor = Advisor(ft_report)
        assert advisor.streaming_placement(2) == bandwidth_aware_placement(
            ft_report, 2
        )

    def test_choose_bcast_delegates(self, ft_report):
        advisor = Advisor(ft_report)
        choice = advisor.choose_bcast(list(range(32)), 16 * 1024)
        assert choice.algorithm in ("flat", "hierarchical")
        assert choice.groups