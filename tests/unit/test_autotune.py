"""Unit tests for the autotuning consumers."""

from pathlib import Path

import numpy as np
import pytest

from repro.autotune import (
    Advisor,
    aggregation_advice,
    compact_placement,
    matmul_plan,
    matmul_tile_side,
    matmul_traffic,
    optimize_placement,
    placement_cost,
    scatter_placement,
    tile_elements,
)
from repro.core.report import ServetReport
from repro.errors import ReproError
from repro.units import KiB

from .test_core_report import sample_report


class TestTiling:
    def test_tile_elements_formula(self):
        report = sample_report()  # L1 32KB
        assert tile_elements(report, 1, n_arrays=2, elem_size=8) == 1024

    def test_matmul_tile_side(self):
        report = sample_report()
        side = matmul_tile_side(report, 1, elem_size=8)
        assert 3 * side * side * 8 <= 32768 * 0.5
        assert 3 * (side + 2) * (side + 2) * 8 > 32768 * 0.5

    def test_plan_covers_all_levels(self):
        plan = matmul_plan(sample_report())
        assert set(plan.sides) == {1, 2}
        assert plan.innermost() < plan.outermost()

    def test_unknown_level_raises(self):
        with pytest.raises(ReproError):
            tile_elements(sample_report(), 5, 2, 8)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ReproError):
            tile_elements(sample_report(), 1, 2, 8, fill_fraction=0.0)

    def test_traffic_model_tiled_beats_naive(self):
        naive = matmul_traffic(1024, None)
        tiled = matmul_traffic(1024, 64)
        assert naive / tiled > 10

    def test_traffic_huge_tile_equals_naive(self):
        assert matmul_traffic(256, 512) == matmul_traffic(256, None)

    def test_traffic_rejects_bad_args(self):
        with pytest.raises(ReproError):
            matmul_traffic(0, 8)
        with pytest.raises(ReproError):
            matmul_traffic(64, 0)


class TestPlacementBasics:
    def test_compact(self):
        assert compact_placement(4) == [0, 1, 2, 3]

    def test_scatter_no_collisions(self):
        placement = scatter_placement(5, 16)
        assert len(set(placement)) == 5

    def test_scatter_too_many_ranks(self):
        with pytest.raises(ReproError):
            scatter_placement(10, 4)


class TestPlacementCost:
    def matrix(self):
        m = np.zeros((4, 4))
        m[0, 1] = m[1, 0] = 10.0
        m[2, 3] = m[3, 2] = 10.0
        return m

    def test_cost_prefers_fast_layers(self):
        report = sample_report()
        # Layer 0 serves (0,1),(2,3); layer 1 the cross pairs.
        fast = placement_cost(report, [0, 1, 2, 3], self.matrix(), 1024)
        slow = placement_cost(report, [0, 2, 1, 3], self.matrix(), 1024)
        assert fast < slow

    def test_rejects_duplicate_cores(self):
        with pytest.raises(ReproError):
            placement_cost(sample_report(), [0, 0], np.zeros((2, 2)))

    def test_rejects_non_square_matrix(self):
        with pytest.raises(ReproError):
            placement_cost(sample_report(), [0, 1], np.zeros((2, 3)))

    def test_rejects_negative_traffic(self):
        with pytest.raises(ReproError):
            placement_cost(sample_report(), [0, 1], np.array([[0, -1], [0, 0]]))


class TestOptimizePlacement:
    def test_never_worse_than_compact(self):
        report = sample_report()
        result = optimize_placement(report, self_matrix())
        assert result.cost <= result.baseline_cost

    def test_finds_the_fast_pairs(self):
        report = sample_report()
        # Ranks 0-1 talk a lot; they should land on a layer-0 pair.
        # (message_size stays inside layer 0's characterized sweep —
        # beyond it the extrapolation legitimately crosses layer 1.)
        m = np.zeros((2, 2))
        m[0, 1] = m[1, 0] = 100.0
        result = optimize_placement(report, m, message_size=1024)
        a, b = sorted(result.placement)
        assert (a, b) in {(0, 1), (2, 3)}

    def test_too_many_ranks_rejected(self):
        with pytest.raises(ReproError):
            optimize_placement(sample_report(), np.zeros((9, 9)))

    def test_same_placement_on_every_call(self):
        golden = Path(__file__).resolve().parents[1] / "golden" / "dunnington.json"
        report = ServetReport.load(golden)
        ring = np.zeros((6, 6))
        for i in range(6):
            ring[i, (i + 1) % 6] = ring[(i + 1) % 6, i] = 1.0
        results = [
            optimize_placement(report, ring, message_size=32 * KiB)
            for _ in range(20)
        ]
        assert len({tuple(r.placement) for r in results}) == 1
        compact = placement_cost(
            report, compact_placement(6), ring, message_size=32 * KiB
        )
        assert results[0].cost <= compact


def self_matrix():
    m = np.zeros((4, 4))
    m[0, 1] = m[1, 0] = 10.0
    m[2, 3] = m[3, 2] = 10.0
    return m


class TestAggregation:
    def test_poorly_scalable_layer_prefers_aggregation(self):
        layer = sample_report().comm_layers[0]  # steep scalability
        advice = aggregation_advice(layer, n_messages=4, message_size=1024)
        assert advice.aggregate
        assert advice.speedup > 1.0

    def test_single_message_never_aggregates(self):
        layer = sample_report().comm_layers[0]
        advice = aggregation_advice(layer, n_messages=1, message_size=1024)
        assert not advice.aggregate  # packing overhead only hurts

    def test_rejects_bad_args(self):
        layer = sample_report().comm_layers[0]
        with pytest.raises(ReproError):
            aggregation_advice(layer, 0, 1024)


class TestAdvisor:
    def test_from_file_roundtrip(self, tmp_path):
        report = sample_report()
        path = tmp_path / "r.json"
        report.save(path)
        advisor = Advisor.from_file(path)
        assert advisor.report == report

    def test_max_useful_streaming_cores(self):
        advisor = Advisor(sample_report())
        # scalability [3e9, 2e9] with ref 3e9: the 2nd core only adds
        # (2*2e9 - 3e9)/3e9 = 0.33 of a core -> not worth it at 0.5.
        assert advisor.max_useful_streaming_cores() == 1
        assert advisor.max_useful_streaming_cores(efficiency_floor=0.2) == 2

    def test_should_aggregate_uses_pair_layer(self):
        advisor = Advisor(sample_report())
        advice = advisor.should_aggregate(0, 1, 4, 1024)
        assert advice.layer_index == 0

    def test_place_delegates(self):
        advisor = Advisor(sample_report())
        result = advisor.place(self_matrix())
        assert result.cost <= result.baseline_cost
