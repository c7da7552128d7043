"""Unit tests for ServetSuite options and timings bookkeeping."""

import pytest

import repro.service
from repro import ServetSuite, SimulatedBackend, dempsey, dunnington, generic_smp
from repro.core.suite import ALL_PHASES, PHASES, SuiteTimings
from repro.memsim import TLBSpec, clear_global_cache


class TestSuiteTimings:
    def test_record_and_total(self):
        timings = SuiteTimings()
        timings.record("a", 10.0, 0.1)
        timings.record("b", 20.0, 0.2)
        virtual, wall = timings.total
        assert virtual == 30.0
        assert wall == pytest.approx(0.3)

    def test_phase_names_constant(self):
        assert PHASES == (
            "cache_size",
            "shared_caches",
            "memory_overhead",
            "communication_costs",
        )

    def test_one_phase_order_for_suite_and_staleness(self):
        # The staleness table imports the order the suite runs in, so
        # the two cannot drift apart.
        assert repro.service.ALL_PHASES is ALL_PHASES
        assert ALL_PHASES == (
            "cache_size",
            "shared_caches",
            "tlb_detection",
            "memory_overhead",
            "communication_costs",
        )
        report = ServetSuite(SimulatedBackend(dunnington(), seed=42, noise=0.0)).run()
        assert tuple(report.phase_status) == ALL_PHASES


class TestProbeTlbOption:
    def test_disabled_probe_skips_phase(self):
        backend = SimulatedBackend(dempsey(), seed=2)
        report = ServetSuite(backend, probe_tlb=False).run()
        assert report.tlb_entries is None
        assert "tlb_detection" not in report.timings

    def test_enabled_probe_records_phase(self):
        machine = generic_smp(
            n_cores=2,
            levels=[("32KB", 8, 1, 3.0), ("2MB", 8, 1, 18.0)],
            tlb=TLBSpec(entries=128, walk_cycles=40.0),
        )
        backend = SimulatedBackend(machine, seed=2)
        report = ServetSuite(backend).run()
        assert report.tlb_entries == 128
        assert "tlb_detection" in report.timings
        virtual, _ = report.timings["tlb_detection"]
        assert virtual > 0

    def test_no_tlb_machine_reports_none_but_still_probes(self):
        backend = SimulatedBackend(dempsey(), seed=2)
        report = ServetSuite(backend).run()
        assert report.tlb_entries is None
        assert "tlb_detection" in report.timings


class TestSuiteCoreSelection:
    def test_explicit_node_cores_subset(self):
        backend = SimulatedBackend(dempsey(), seed=2)
        report = ServetSuite(backend, node_cores=[0], comm_cores=[0, 1]).run()
        # Shared-cache detection over a single core finds nothing.
        assert all(not c.shared_pairs for c in report.caches)
        assert len(report.comm_layers) == 1


class TestOutcomeCacheTransparency:
    def test_cold_and_warm_reports_identical(self):
        clear_global_cache()
        cold = ServetSuite(SimulatedBackend(dempsey(), seed=2)).run()
        warm = ServetSuite(SimulatedBackend(dempsey(), seed=2)).run()
        assert cold.measurement_dict() == warm.measurement_dict()
