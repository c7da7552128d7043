"""Unit tests for :class:`ServetReport` (de)serialization and queries."""

import pytest

from repro.core.report import (
    CacheLevelReport,
    CommLayerReport,
    MemoryLevelReport,
    ServetReport,
)
from repro.errors import ReproError


def sample_report() -> ServetReport:
    return ServetReport(
        system="toy",
        n_cores=4,
        page_size=4096,
        caches=[
            CacheLevelReport(level=1, size=32768, method="l1-peak"),
            CacheLevelReport(
                level=2,
                size=2 * 1024 * 1024,
                method="probabilistic",
                shared_pairs=[(0, 1), (2, 3)],
                sharing_groups=[[0, 1], [2, 3]],
            ),
        ],
        memory_reference=3e9,
        memory_levels=[
            MemoryLevelReport(
                bandwidth=2e9,
                pairs=[(0, 1)],
                groups=[[0, 1]],
                scalability=[3e9, 2e9],
            )
        ],
        comm_probe_size=32768,
        comm_layers=[
            CommLayerReport(
                index=0,
                latency=1e-6,
                pairs=[(0, 1), (2, 3)],
                characterization=[(1024, 1e-6, 1.024e9), (4096, 2e-6, 2.048e9)],
                scalability=[(2, 1.5e-6, 1.5), (4, 3e-6, 3.0)],
            ),
            CommLayerReport(
                index=1,
                latency=5e-6,
                pairs=[(0, 2), (0, 3), (1, 2), (1, 3)],
            ),
        ],
        timings={"cache_size": (120.0, 0.5)},
    )


class TestQueries:
    def test_cache_sizes(self):
        assert sample_report().cache_sizes == [32768, 2 * 1024 * 1024]

    def test_cache_sharing_group(self):
        report = sample_report()
        assert report.cache_sharing_group(0, 2) == [0, 1]
        assert report.cache_sharing_group(0, 1) == [0]
        with pytest.raises(ReproError):
            report.cache_sharing_group(0, 9)

    def test_comm_layer_of_order_insensitive(self):
        report = sample_report()
        assert report.comm_layer_of(1, 0).index == 0
        assert report.comm_layer_of(3, 0).index == 1
        with pytest.raises(ReproError):
            report.comm_layer_of(0, 0)

    def test_memory_level_of(self):
        report = sample_report()
        assert report.memory_level_of(1, 0).bandwidth == 2e9
        assert report.memory_level_of(2, 3) is None

    def test_private_flag(self):
        report = sample_report()
        assert report.caches[0].private
        assert not report.caches[1].private


class TestLayerEstimates:
    def test_latency_estimate_below_curve(self):
        layer = sample_report().comm_layers[0]
        assert layer.estimate_latency(10) == pytest.approx(1e-6)

    def test_latency_estimate_midpoint(self):
        layer = sample_report().comm_layers[0]
        mid = layer.estimate_latency((1024 + 4096) // 2)
        assert 1e-6 < mid < 2e-6

    def test_latency_estimate_without_curve_falls_back(self):
        layer = sample_report().comm_layers[1]
        assert layer.estimate_latency(123456) == 5e-6


class TestSerialization:
    def test_roundtrip_dict(self):
        report = sample_report()
        clone = ServetReport.from_dict(report.to_dict())
        assert clone == report

    def test_roundtrip_file(self, tmp_path):
        report = sample_report()
        path = tmp_path / "report.json"
        report.save(path)
        assert ServetReport.load(path) == report

    def test_json_is_plain(self, tmp_path):
        import json

        report = sample_report()
        path = tmp_path / "report.json"
        report.save(path)
        data = json.loads(path.read_text())
        assert data["system"] == "toy"
        assert data["caches"][1]["shared_pairs"] == [[0, 1], [2, 3]]

    def test_malformed_data_raises_repro_error(self):
        with pytest.raises(ReproError):
            ServetReport.from_dict({"system": "x"})

    def test_roundtrip_with_phase_status_and_errors(self):
        report = sample_report()
        report.phase_status = {
            "cache_size": "ok",
            "shared_caches": "degraded",
            "memory_overhead": "failed",
            "communication_costs": "skipped",
        }
        report.phase_errors = {
            "shared_caches": "recovered from measurement faults (2 retries)",
            "memory_overhead": "copy_bandwidth: no valid measurement",
        }
        clone = ServetReport.from_dict(report.to_dict())
        assert clone == report
        assert clone.phase_status["memory_overhead"] == "failed"
        assert clone.phase_errors == report.phase_errors

    def test_pre_resilience_report_loads_with_empty_status(self):
        data = sample_report().to_dict()
        del data["phase_status"]
        del data["phase_errors"]
        clone = ServetReport.from_dict(data)
        assert clone.phase_status == {}
        assert not clone.degraded
        assert clone.phase_ok("cache_size")


class TestDegradedQueries:
    def test_degraded_flag_and_failed_phases(self):
        report = sample_report()
        assert not report.degraded
        report.phase_status = {"cache_size": "ok", "memory_overhead": "failed"}
        assert report.degraded
        assert report.failed_phases == ["memory_overhead"]
        assert not report.phase_ok("memory_overhead")

    def test_skipped_alone_does_not_flag_degraded(self):
        # A structurally skipped phase (e.g. unicore communication) is
        # not a fault; only degraded/failed statuses taint the run.
        report = sample_report()
        report.phase_status = {"cache_size": "ok", "communication_costs": "skipped"}
        assert not report.degraded

    def test_summary_shows_degraded_phases(self):
        report = sample_report()
        report.phase_status = {"cache_size": "ok", "memory_overhead": "failed"}
        report.phase_errors = {"memory_overhead": "dead bandwidth meter"}
        text = report.summary()
        assert "Phase status (degraded run):" in text
        assert "memory_overhead: failed — dead bandwidth meter" in text

    def test_summary_silent_when_healthy(self):
        report = sample_report()
        report.phase_status = {name: "ok" for name in report.timings}
        assert "Phase status" not in report.summary()


def test_summary_mentions_everything():
    text = sample_report().summary()
    for token in ("toy", "L1", "32KB", "2MB", "layer 0", "cache_size"):
        assert token in text


def test_save_is_atomic(tmp_path):
    """Save replaces the target in one rename and leaves no temp files."""
    path = tmp_path / "report.json"
    path.write_text("previous contents")
    sample_report().save(path)
    data = path.read_text()
    assert "previous" not in data and '"system": "toy"' in data
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
