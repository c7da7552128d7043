"""Acceptance scenarios for resilient suite execution (ISSUE 1).

- With a seeded transient-fault plan (5% NaN readings) the hardened,
  lenient suite completes and detects the *same cache sizes* as the
  fault-free run on dunnington, with affected phases at worst marked
  ``degraded``.
- With a persistent dead-phase fault the suite still emits a partial
  report (that phase ``failed``, downstream fallbacks applied), while
  ``strict=True`` preserves the historical raise-loudly behavior.
"""

import pytest

from repro import (
    FaultInjectingBackend,
    FaultPlan,
    HardenedBackend,
    ServetSuite,
    SimulatedBackend,
    dunnington,
)
from repro.core.suite import COMM_PROBE_FALLBACK
from repro.errors import ReproError
from repro.units import KiB


def hardened(plan: FaultPlan, retries: int = 5) -> HardenedBackend:
    return HardenedBackend(
        FaultInjectingBackend(SimulatedBackend(dunnington(), seed=42), plan),
        retries=retries,
    )


@pytest.fixture(scope="module")
def clean_report():
    return ServetSuite(SimulatedBackend(dunnington(), seed=42)).run()


class TestTransientFaults:
    def test_five_percent_nan_matches_fault_free_caches(self, clean_report):
        backend = hardened(FaultPlan(seed=7, nan_rate=0.05))
        report = ServetSuite(backend).run(strict=False)
        assert report.cache_sizes == clean_report.cache_sizes
        # Affected phases are at worst degraded — never failed/skipped.
        assert set(report.phase_status.values()) <= {"ok", "degraded"}
        # The drill did inject faults (the run wasn't trivially clean).
        assert backend.inner.log.corrupted > 0
        assert report.degraded

    def test_sharing_structure_survives_transient_faults(self, clean_report):
        backend = hardened(FaultPlan(seed=7, nan_rate=0.05))
        report = ServetSuite(backend).run(strict=False)
        for clean_cache, cache in zip(clean_report.caches, report.caches):
            assert cache.sharing_groups == clean_cache.sharing_groups


class TestPersistentFaults:
    def test_dead_cache_phase_applies_comm_fallback(self, clean_report):
        # Traversal readings permanently dead: cache detection fails,
        # shared-cache and TLB phases are skipped, memory and
        # communication still run — comm probes at the 32 KiB fallback.
        plan = FaultPlan(seed=1, nan_rate=1.0, only=("traversal",))
        report = ServetSuite(hardened(plan, retries=1)).run(strict=False)
        assert report.phase_status["cache_size"] == "failed"
        assert report.phase_status["shared_caches"] == "skipped"
        assert report.phase_status["tlb_detection"] == "skipped"
        assert report.phase_status["memory_overhead"] == "ok"
        assert report.phase_status["communication_costs"] == "degraded"
        assert COMM_PROBE_FALLBACK == 32 * KiB
        assert report.comm_probe_size == COMM_PROBE_FALLBACK
        assert report.comm_layers  # layers measured despite the fallback
        assert report.caches == []
        assert "cache_size" in report.phase_errors
        assert report.failed_phases == ["cache_size"]

    def test_partial_report_is_serializable(self, tmp_path):
        plan = FaultPlan(seed=1, nan_rate=1.0, only=("traversal",))
        report = ServetSuite(hardened(plan, retries=1)).run(strict=False)
        path = tmp_path / "degraded.json"
        report.save(path)
        from repro import ServetReport

        clone = ServetReport.load(path)
        assert clone == report
        assert clone.degraded

    def test_strict_mode_preserves_raise_loudly(self):
        plan = FaultPlan(seed=1, nan_rate=1.0, only=("traversal",))
        with pytest.raises(ReproError):
            ServetSuite(hardened(plan, retries=1)).run(strict=True)

    def test_timings_cover_failed_phases_too(self):
        # A failed phase still spent virtual time before bailing; the
        # Table I accounting must include it.
        plan = FaultPlan(seed=1, nan_rate=1.0, only=("bandwidth",))
        report = ServetSuite(hardened(plan, retries=1)).run(strict=False)
        assert report.phase_status["memory_overhead"] == "failed"
        virtual, _ = report.timings["memory_overhead"]
        assert virtual > 0
