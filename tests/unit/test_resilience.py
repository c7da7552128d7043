"""Unit tests for :mod:`repro.resilience` (faults, policy, checkpoint)."""

import json
import math

import pytest

from repro.backends.base import Backend, ConcurrentLatency
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    MeasurementError,
    MeasurementTimeout,
)
from repro.resilience import policy
from repro.resilience import (
    FaultInjectingBackend,
    FaultPlan,
    HardenedBackend,
    ReadingBounds,
    SuiteCheckpoint,
    relative_spread,
    robust_estimate,
)


class ScriptedBackend(Backend):
    """Backend whose readings come from per-channel callables/values."""

    def __init__(self, cycles=10.0, bandwidth=1e9, latency=1e-6, n_cores=4):
        self.name = "scripted"
        self.n_cores = n_cores
        self.page_size = 4096
        self.virtual_time = 0.0
        self.cycles = cycles
        self.bandwidth = bandwidth
        self.latency = latency
        self.calls = 0
        self.cluster = "sentinel-cluster"

    def _value(self, scripted):
        return scripted(self.calls) if callable(scripted) else scripted

    def traversal_cycles(self, arrays, stride):
        self.calls += 1
        return {core: self._value(self.cycles) for core, _ in arrays}

    def copy_bandwidth(self, cores):
        self.calls += 1
        return {core: self._value(self.bandwidth) for core in cores}

    def message_latency(self, core_a, core_b, nbytes):
        self.calls += 1
        return self._value(self.latency)

    def concurrent_message_latency(self, pairs, nbytes):
        self.calls += 1
        value = self._value(self.latency)
        return ConcurrentLatency(mean=value, worst=value)


# -- robust statistics -----------------------------------------------------


class TestRobustStats:
    def test_median_odd_and_even(self):
        assert robust_estimate([3.0, 1.0, 2.0]) == 2.0
        assert robust_estimate([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_median_survives_outlier(self):
        assert robust_estimate([10.0, 10.1, 500.0]) == 10.1

    def test_empty_rejected(self):
        with pytest.raises(MeasurementError):
            robust_estimate([])

    def test_relative_spread(self):
        assert relative_spread([10.0]) == 0.0
        assert relative_spread([10.0, 10.0]) == 0.0
        assert relative_spread([8.0, 10.0, 12.0]) == pytest.approx(0.4)


# -- fault plans -----------------------------------------------------------


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(nan_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(nan_rate=0.6, zero_rate=0.6)

    def test_unknown_channel_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(only=("timers",))

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            seed=3,
            nan_rate=0.1,
            spike_rate=0.05,
            dead_cores=(3, 1),
            lockup_after=10,
            only=("latency",),
        )
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan
        # dead_cores normalized to a sorted tuple
        assert plan.dead_cores == (1, 3)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            FaultPlan.load(path)
        path.write_text(json.dumps({"frobnicate": 1}))
        with pytest.raises(ConfigurationError):
            FaultPlan.load(path)


class TestFaultInjectingBackend:
    def test_no_faults_is_transparent(self):
        inner = ScriptedBackend()
        backend = FaultInjectingBackend(inner, FaultPlan())
        assert backend.traversal_cycles([(0, 1024)], 64) == {0: 10.0}
        assert backend.message_latency(0, 1, 64) == 1e-6
        assert backend.cluster == "sentinel-cluster"  # attribute delegation

    def test_deterministic_for_seed(self):
        def run(seed):
            backend = FaultInjectingBackend(
                ScriptedBackend(), FaultPlan(seed=seed, nan_rate=0.3)
            )
            return [
                math.isnan(backend.message_latency(0, 1, 64)) for _ in range(50)
            ]

        assert run(11) == run(11)
        assert run(11) != run(12)

    def test_nan_zero_negative_spike(self):
        for kwargs, check in [
            ({"nan_rate": 1.0}, math.isnan),
            ({"zero_rate": 1.0}, lambda v: v == 0.0),
            ({"negative_rate": 1.0}, lambda v: v == -10.0),
            ({"spike_rate": 1.0, "spike_factor": 3.0}, lambda v: v == 30.0),
        ]:
            backend = FaultInjectingBackend(ScriptedBackend(), FaultPlan(**kwargs))
            value = backend.traversal_cycles([(0, 1024)], 64)[0]
            assert check(value), (kwargs, value)

    def test_dead_cores_poison_their_readings_only(self):
        backend = FaultInjectingBackend(
            ScriptedBackend(), FaultPlan(dead_cores=(2,))
        )
        readings = backend.copy_bandwidth([0, 1, 2, 3])
        assert math.isnan(readings[2])
        assert readings[0] == 1e9 and readings[3] == 1e9

    def test_lockup_returns_constant_after_threshold(self):
        backend = FaultInjectingBackend(
            ScriptedBackend(), FaultPlan(lockup_after=2, lockup_value=7.0)
        )
        assert backend.message_latency(0, 1, 64) == 1e-6
        assert backend.message_latency(0, 1, 64) == 1e-6
        assert backend.message_latency(0, 1, 64) == 7.0
        assert backend.message_latency(0, 1, 64) == 7.0

    def test_hang_charges_virtual_time_and_raises(self):
        backend = FaultInjectingBackend(
            ScriptedBackend(), FaultPlan(hang_rate=1.0, hang_seconds=30.0)
        )
        with pytest.raises(MeasurementTimeout) as err:
            backend.copy_bandwidth([0])
        assert err.value.waited == 30.0
        assert backend.take_virtual_time() == 30.0

    def test_channel_restriction(self):
        backend = FaultInjectingBackend(
            ScriptedBackend(), FaultPlan(nan_rate=1.0, only=("bandwidth",))
        )
        assert math.isnan(backend.copy_bandwidth([0])[0])
        assert backend.message_latency(0, 1, 64) == 1e-6
        assert backend.traversal_cycles([(0, 1024)], 64)[0] == 10.0

    def test_virtual_time_forwards_to_inner(self):
        inner = ScriptedBackend()
        backend = FaultInjectingBackend(inner, FaultPlan())
        backend.charge(5.0)
        assert inner.virtual_time == 5.0
        assert backend.take_virtual_time() == 5.0
        assert inner.virtual_time == 0.0


# -- hardening policy ------------------------------------------------------


class TestPolicyValidation:
    def test_retry_policy_validated(self):
        with pytest.raises(ConfigurationError):
            HardenedBackend(ScriptedBackend(), retries=-1)
        HardenedBackend(ScriptedBackend(), retries=0)  # one attempt, no retry

    def test_backoff_grows_exponentially(self, monkeypatch):
        monkeypatch.setattr(policy, "BACKOFF_BASE", 0.1)
        inner = ScriptedBackend(
            latency=lambda call: float("nan") if call <= 3 else 1e-6
        )
        backend = HardenedBackend(inner, retries=3)
        assert backend.message_latency(0, 1, 64) == 1e-6
        # three retries: 0.1 + 0.2 + 0.4
        assert backend.take_virtual_time() == pytest.approx(0.7)

    def test_sampling_policy_validated(self):
        with pytest.raises(ConfigurationError):
            HardenedBackend(ScriptedBackend(), samples=0)

    def test_bounds_problems(self):
        bounds = ReadingBounds(lo=1.0, hi=100.0)
        assert bounds.problem(50.0) is None
        assert "NaN" in bounds.problem(float("nan"))
        assert "infinite" in bounds.problem(float("inf"))
        assert "non-positive" in bounds.problem(0.0)
        assert "small" in bounds.problem(0.5)
        assert "large" in bounds.problem(1e6)


class TestHardenedBackend:
    def test_transparent_for_healthy_backend(self):
        backend = HardenedBackend(ScriptedBackend())
        assert backend.traversal_cycles([(0, 1024)], 64) == {0: 10.0}
        result = backend.concurrent_message_latency([(0, 1)], 64)
        assert result.mean == 1e-6
        assert backend.total_incidents == 0
        assert backend.cluster == "sentinel-cluster"

    def test_transient_nan_recovered_by_retry(self):
        # First reading NaN, later ones healthy.
        inner = ScriptedBackend(
            cycles=lambda call: float("nan") if call <= 1 else 10.0
        )
        backend = HardenedBackend(inner, retries=2)
        assert backend.traversal_cycles([(0, 1024)], 64) == {0: 10.0}
        incidents = backend.take_incidents()
        assert incidents["retries"] == 1
        assert incidents["invalid_readings"] == 1
        assert backend.total_incidents == 0  # reset by take

    def test_backoff_charged_to_virtual_time(self, monkeypatch):
        monkeypatch.setattr(policy, "BACKOFF_BASE", 0.5)
        inner = ScriptedBackend(
            latency=lambda call: float("nan") if call <= 2 else 1e-6
        )
        backend = HardenedBackend(inner, retries=2)
        assert backend.message_latency(0, 1, 64) == 1e-6
        # two retries: backoff 0.5 + 1.0
        assert backend.take_virtual_time() == pytest.approx(1.5)

    def test_persistent_fault_exhausts_retries(self):
        backend = HardenedBackend(ScriptedBackend(bandwidth=float("nan")), retries=3)
        with pytest.raises(MeasurementError, match="after 4 attempt"):
            backend.copy_bandwidth([0, 1])
        assert backend.incidents["retries"] == 3

    def test_timeouts_are_retried(self):
        calls = {"n": 0}

        class Hanging(ScriptedBackend):
            def copy_bandwidth(self, cores):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise MeasurementTimeout("hung", waited=10.0)
                return super().copy_bandwidth(cores)

        backend = HardenedBackend(Hanging(), retries=1)
        assert backend.copy_bandwidth([0]) == {0: 1e9}
        assert backend.incidents["timeouts"] == 1

    def test_implausible_reading_rejected(self):
        backend = HardenedBackend(
            ScriptedBackend(latency=1e9),  # a 31-year "latency"
            retries=0,
        )
        with pytest.raises(MeasurementError, match="implausibly large"):
            backend.message_latency(0, 1, 64)

    def test_median_sampling_rejects_spike(self, monkeypatch):
        monkeypatch.setattr(policy, "MAX_EXTRA_SAMPLES", 0)  # no re-sampling
        inner = ScriptedBackend(
            cycles=lambda call: 500.0 if call == 2 else 10.0
        )
        backend = HardenedBackend(inner, samples=3)
        assert backend.traversal_cycles([(0, 1024)], 64) == {0: 10.0}
        assert inner.calls == 3

    def test_spread_gate_triggers_resampling(self):
        # Samples 1..3 wildly spread, later ones stable: the gate should
        # request extras and the median should land on a stable value.
        inner = ScriptedBackend(
            bandwidth=lambda call: {1: 1e9, 2: 5e9, 3: 1e10}.get(call, 2e9)
        )
        backend = HardenedBackend(inner, samples=3)
        value = backend.copy_bandwidth([0])[0]
        assert backend.incidents["resamples"] == 2
        assert value == pytest.approx(2e9)


# -- checkpoints -----------------------------------------------------------


class TestSuiteCheckpoint:
    def test_round_trip(self, tmp_path):
        ckpt = SuiteCheckpoint(
            fingerprint={"system": "toy", "n_cores": 4},
            completed=["cache_size"],
            status={"cache_size": "ok"},
            errors={},
            report={"system": "toy"},
            timings={"cache_size": (10.0, 0.1)},
            rng_state={"bit_generator": "PCG64", "state": {"state": 1, "inc": 2}},
        )
        path = tmp_path / "ckpt.json"
        ckpt.save(path)
        loaded = SuiteCheckpoint.load(path)
        assert loaded == ckpt
        assert loaded.matches({"system": "toy", "n_cores": 4})
        assert not loaded.matches({"system": "other", "n_cores": 4})

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        ckpt = SuiteCheckpoint(fingerprint={})
        data = ckpt.to_dict()
        data["version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError):
            SuiteCheckpoint.load(path)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{truncated")
        with pytest.raises(CheckpointError):
            SuiteCheckpoint.load(path)
