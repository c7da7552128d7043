"""Failure injection: broken backends must fail loudly, not mis-detect.

A real deployment can hit broken timers (zero/negative/NaN readings),
dead cores, or backends that return constants.  The detectors must
raise :class:`MeasurementError`/:class:`DetectionError` instead of
producing a confidently wrong report — and, when the backend is
hardened with the resilience layer, transient faults must be absorbed
while persistent faults degrade only the affected phase.
"""

import math

import pytest

from repro import (
    FaultInjectingBackend,
    FaultPlan,
    HardenedBackend,
    ServetSuite,
    SimulatedBackend,
    dempsey,
)
from repro.backends.base import Backend, ConcurrentLatency
from repro.core.cache_size import detect_caches
from repro.core.comm_costs import detect_comm_layers
from repro.core.mcalibrator import run_mcalibrator
from repro.core.memory_overhead import characterize_memory_overhead
from repro.errors import DetectionError, MeasurementError
from repro.units import KiB


class FakeBackend(Backend):
    """Backend returning scripted values for failure scenarios."""

    def __init__(self, cycles=10.0, bandwidth=1e9, latency=1e-6, n_cores=4):
        self.name = "fake"
        self.n_cores = n_cores
        self.page_size = 4096
        self.virtual_time = 0.0
        self._cycles = cycles
        self._bandwidth = bandwidth
        self._latency = latency

    def _value(self, scripted, *args):
        return scripted(*args) if callable(scripted) else scripted

    def traversal_cycles(self, arrays, stride):
        return {core: self._value(self._cycles, nbytes) for core, nbytes in arrays}

    def copy_bandwidth(self, cores):
        return {core: self._value(self._bandwidth, core) for core in cores}

    def message_latency(self, core_a, core_b, nbytes):
        return self._value(self._latency, core_a, core_b)

    def concurrent_message_latency(self, pairs, nbytes):
        value = self._value(self._latency, *pairs[0])
        return ConcurrentLatency(mean=value, worst=value)


class TestBrokenTraversalTimer:
    def test_constant_cycles_raise_detection_error(self):
        with pytest.raises(DetectionError):
            detect_caches(FakeBackend(cycles=42.0))

    def test_nan_cycles_raise_measurement_error(self):
        with pytest.raises(MeasurementError):
            run_mcalibrator(FakeBackend(cycles=float("nan")), samples=1)

    def test_zero_cycles_raise_measurement_error(self):
        with pytest.raises(MeasurementError):
            run_mcalibrator(FakeBackend(cycles=0.0), samples=1)

    def test_negative_cycles_raise_measurement_error(self):
        with pytest.raises(MeasurementError):
            run_mcalibrator(FakeBackend(cycles=-5.0), samples=1)

    def test_infinite_cycles_raise_measurement_error(self):
        with pytest.raises(MeasurementError):
            run_mcalibrator(FakeBackend(cycles=math.inf), samples=1)


class TestBrokenBandwidthMeter:
    def test_zero_reference_bandwidth_rejected(self):
        with pytest.raises(MeasurementError):
            characterize_memory_overhead(FakeBackend(bandwidth=0.0))

    def test_nan_reference_bandwidth_rejected(self):
        with pytest.raises(MeasurementError):
            characterize_memory_overhead(FakeBackend(bandwidth=float("nan")))

    def test_uniform_bandwidth_yields_no_overhead_levels(self):
        result = characterize_memory_overhead(FakeBackend(bandwidth=2e9))
        assert result.n_levels == 0  # no contention is a valid answer


class TestBrokenLatencyMeter:
    def test_zero_latency_rejected(self):
        with pytest.raises(MeasurementError):
            detect_comm_layers(FakeBackend(latency=0.0), 16 * KiB)

    def test_nan_latency_rejected(self):
        with pytest.raises(MeasurementError):
            detect_comm_layers(FakeBackend(latency=float("nan")), 16 * KiB)

    def test_uniform_latency_yields_single_layer(self):
        result = detect_comm_layers(FakeBackend(latency=2e-6), 16 * KiB)
        assert result.n_layers == 1


class TestPartialBreakage:
    def test_one_dead_core_pair_poisons_loudly(self):
        def latency(a, b):
            return float("inf") if (a, b) == (0, 1) else 2e-6

        backend = FakeBackend(latency=latency)
        # Infinity is technically > 0; the clusterer will isolate it
        # into its own "layer" — which is at least visible — but NaN
        # must be rejected outright:
        def nan_latency(a, b):
            return float("nan") if (a, b) == (2, 3) else 2e-6

        with pytest.raises(MeasurementError):
            detect_comm_layers(FakeBackend(latency=nan_latency), 16 * KiB)


class TestScriptedFaultScenarios:
    """Scripted fault plans through FaultInjectingBackend + retry policy."""

    def hardened(self, plan: FaultPlan, retries: int = 5) -> HardenedBackend:
        inner = SimulatedBackend(dempsey(), seed=42)
        return HardenedBackend(
            FaultInjectingBackend(inner, plan),
            retries=retries,
        )

    def test_transient_nan_fault_recovered_by_retry(self):
        clean = detect_caches(SimulatedBackend(dempsey(), seed=42))
        backend = self.hardened(FaultPlan(seed=3, nan_rate=0.05))
        detection = detect_caches(backend)
        assert detection.sizes == clean.sizes
        # Recovery happened (the plan did inject faults) but was absorbed.
        assert backend.inner.log.corrupted > 0

    def test_transient_spike_fault_recovered_by_sampling_and_retry(self):
        # Spikes pass the plausibility validators (they are finite and
        # positive), so retry alone cannot catch them: median
        # repeat-sampling votes them out instead.
        clean = detect_caches(SimulatedBackend(dempsey(), seed=42))
        inner = SimulatedBackend(dempsey(), seed=42)
        backend = HardenedBackend(
            FaultInjectingBackend(
                inner, FaultPlan(seed=5, spike_rate=0.03, spike_factor=80.0)
            ),
            retries=3,
            samples=3,
        )
        assert detect_caches(backend).sizes == clean.sizes

    def test_persistent_fault_degrades_phase_not_suite(self):
        # A permanently dead bandwidth meter kills the memory-overhead
        # phase; the suite still delivers caches and communication.
        plan = FaultPlan(seed=1, nan_rate=1.0, only=("bandwidth",))
        report = ServetSuite(self.hardened(plan, retries=1)).run(strict=False)
        assert report.phase_status["memory_overhead"] == "failed"
        assert "memory_overhead" in report.phase_errors
        assert report.memory_levels == []
        assert report.phase_status["cache_size"] == "ok"
        assert report.phase_status["communication_costs"] == "ok"
        assert report.cache_sizes  # caches were still detected
        assert report.comm_layers  # comm layers were still measured

    def test_persistent_fault_still_raises_in_strict_mode(self):
        plan = FaultPlan(seed=1, nan_rate=1.0, only=("bandwidth",))
        with pytest.raises(MeasurementError):
            ServetSuite(self.hardened(plan, retries=1)).run(strict=True)
