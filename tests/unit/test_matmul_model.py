"""Unit tests for the blocked-matmul cost model and conflict-aware tiling."""

import pytest

from repro.autotune.tiling import conflict_aware_tile, matmul_tile_side
from repro.errors import ConfigurationError, ReproError
from repro.memsim import matmul
from repro.memsim.matmul import best_tile, blocked_matmul_cost, tile_sweep
from repro.topology import dempsey, generic_smp

from .test_core_report import sample_report


class TestBlockedMatmulCost:
    def test_cost_curve_is_u_shaped(self):
        machine = dempsey()
        sweep = tile_sweep(machine, 2048, [16, 64, 128, 256, 512])
        costs = [e.lines_fetched for e in sweep]
        best = min(range(len(costs)), key=costs.__getitem__)
        assert 0 < best < len(costs) - 1  # interior optimum

    def test_fitting_working_set_has_low_miss_rate(self):
        machine = dempsey()  # 2MB L2
        est = blocked_matmul_cost(machine, 2048, 64)  # 96KB working set
        assert est.working_set_miss_rate < 0.01

    def test_overflowing_working_set_thrashes(self):
        machine = dempsey()
        est = blocked_matmul_cost(machine, 2048, 512)  # 6MB >> 2MB
        assert est.working_set_miss_rate == 1.0

    def test_virtually_indexed_target_has_no_conflicts_below_capacity(self, monkeypatch):
        monkeypatch.setattr(matmul, "TARGET_LEVEL", 1)
        machine = generic_smp(
            n_cores=1, levels=[("256KB", 8, 1, 3.0)], mem_latency=200.0
        )
        est = blocked_matmul_cost(machine, 1024, 64)
        assert est.working_set_miss_rate == 0.0

    def test_tile_clamped_to_matrix(self):
        machine = dempsey()
        small = blocked_matmul_cost(machine, 64, 512)
        assert small.tile == 64

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            blocked_matmul_cost(dempsey(), 0, 64)
        with pytest.raises(ConfigurationError):
            blocked_matmul_cost(dempsey(), 64, 0)

    def test_best_tile_returns_sweep_minimum(self):
        machine = dempsey()
        tiles = [32, 64, 128, 256]
        winner = best_tile(machine, 2048, tiles)
        sweep = tile_sweep(machine, 2048, tiles)
        assert winner == min(sweep, key=lambda e: e.lines_fetched).tile


class TestConflictAwareTile:
    def test_uses_measured_ways(self, dunnington_report):
        side = conflict_aware_tile(dunnington_report, 2)
        l2 = next(c for c in dunnington_report.caches if c.level == 2)
        # The working set must stay comfortably below the capacity.
        assert 3 * side * side * 8 < 0.7 * l2.size
        assert side >= 64  # and not be absurdly conservative

    def test_requires_measured_associativity(self):
        report = sample_report()  # carries no ways
        with pytest.raises(ReproError):
            conflict_aware_tile(report, 2)

    def test_default_matmul_tile_falls_back_without_ways(self):
        report = sample_report()
        side = matmul_tile_side(report, 2)  # falls back to fill 0.5
        expected = matmul_tile_side(report, 2, fill_fraction=0.5)
        assert side == expected

    def test_explicit_fraction_overrides(self, dunnington_report):
        conservative = matmul_tile_side(dunnington_report, 2, fill_fraction=0.1)
        aware = matmul_tile_side(dunnington_report, 2)
        assert conservative < aware

    def test_report_ways_populated_by_suite(self, dunnington_report):
        by_level = {c.level: c.ways for c in dunnington_report.caches}
        assert by_level[1] is None  # l1-peak carries no associativity
        assert by_level[2] is not None
        assert by_level[3] is not None
