"""Unit tests for the observability layer (:mod:`repro.obs`).

Covers the three behaviors the rest of the suite leans on:

- span nesting stays correct from a suite phase through the planner's
  probes down to the backend calls;
- histogram percentiles agree with a straightforward reference
  implementation (and with the tuning service's historical convention);
- provenance survives a ``ServetReport.save``/``load`` round trip
  byte-for-byte.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.backends.base import (
    MEASUREMENT_METHODS,
    Backend,
    ConcurrentLatency,
    instrument_backend,
)
from repro.core.report import ServetReport
from repro.errors import ConfigurationError, ReproError
from repro.obs import (
    MetricsRegistry,
    ParameterProvenance,
    Tracer,
    explain,
    load_jsonl,
    record_provenance,
    summarize,
)
from repro.obs.metrics import Histogram, percentile
from repro.planner import PlanExecutor
from repro.topology.machine import all_pairs

# ---------------------------------------------------------------- tracing


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_span_nesting_is_implicit_in_straight_line_code():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    # finish order: inner closes first
    assert [s.name for s in tracer.spans()] == ["inner", "outer"]


def test_span_error_status_and_attributes():
    tracer = Tracer(clock=FakeClock())
    with pytest.raises(ValueError):
        with tracer.span("work", kind="probe"):
            raise ValueError("boom")
    (span,) = tracer.spans()
    assert span.status == "error"
    assert span.attributes["kind"] == "probe"
    assert "ValueError: boom" in span.attributes["error"]


def test_virtual_duration_clamps_across_clock_reset():
    virtual = {"now": 10.0}
    tracer = Tracer(clock=FakeClock(), virtual_clock=lambda: virtual["now"])
    with tracer.span("phase"):
        virtual["now"] = 0.0  # the suite resets the backend between phases
    (span,) = tracer.spans()
    assert span.virtual_duration == 0.0


def test_trace_jsonl_round_trip(tmp_path):
    tracer = Tracer(clock=FakeClock(), virtual_clock=FakeClock())
    with tracer.span("phase", phase="cache_size"):
        with tracer.span("probe", kind="traversal"):
            pass
    path = tmp_path / "trace.jsonl"
    tracer.save(path)
    loaded = load_jsonl(path)
    assert [s.to_dict() for s in loaded] == [s.to_dict() for s in tracer.spans()]
    summary = summarize(loaded)
    assert "cache_size" in summary and "traversal=1" in summary


class ConstantBackend(Backend):
    """Constant-answer backend: cheap probes for span-tree tests."""

    name = "constant"
    n_cores = 6
    page_size = 4096

    def traversal_cycles(self, arrays, stride):
        return {core: 10.0 for core, _ in arrays}

    def copy_bandwidth(self, cores):
        return {core: 1e9 for core in cores}

    def message_latency(self, core_a, core_b, nbytes):
        return 1e-6

    def concurrent_message_latency(self, pairs, nbytes):
        return ConcurrentLatency(mean=1e-6, worst=1e-6)


def test_spans_nest_phase_probe_backend():
    """Every probe span hangs off the phase that asked for it, and every
    backend call off its probe: phase ⊃ probe ⊃ ``backend.*``."""
    backend = ConstantBackend()
    tracer = Tracer()
    calls = dict.fromkeys(MEASUREMENT_METHODS, 0)
    instrument_backend(backend, tracer, calls)
    executor = PlanExecutor(backend, tracer=tracer)
    pairs = all_pairs(list(range(6)))
    with tracer.span("phase", phase="communication_costs") as phase_span:
        executor.pairwise_message_latency(pairs, 16 * 1024)
    assert calls == {**dict.fromkeys(MEASUREMENT_METHODS, 0), "message_latency": len(pairs)}
    probe_spans = tracer.find("probe")
    assert len(probe_spans) == len(pairs)
    by_id = {s.span_id: s for s in tracer.spans()}
    for span in probe_spans:
        assert span.parent_id == phase_span.span_id, span.span_id
    # every backend call nests under its probe span
    backend_spans = [s for s in tracer.spans() if s.name.startswith("backend.")]
    assert len(backend_spans) == len(probe_spans)
    for span in backend_spans:
        assert by_id[span.parent_id].name == "probe", span.name


# ---------------------------------------------------------------- metrics


def reference_percentile(samples, fraction):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


@pytest.mark.parametrize("seed", range(10))
def test_percentile_matches_reference_implementation(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 200))
    samples = rng.uniform(0.0, 1e3, size=n).tolist()
    for fraction in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
        assert percentile(samples, fraction) == reference_percentile(
            samples, fraction
        ), (seed, n, fraction)


def test_percentile_edge_cases():
    assert percentile([], 0.5) == 0.0
    assert percentile([3.0], 0.99) == 3.0
    with pytest.raises(ConfigurationError):
        percentile([1.0], 1.5)


def test_histogram_window_and_totals():
    hist = Histogram("h", window=4)
    for v in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
        hist.observe(v)
    # window keeps the newest 4 samples; count/sum accumulate over all
    assert hist.samples() == [3.0, 4.0, 5.0, 6.0]
    assert hist.count == 6
    assert hist.total == 21.0
    assert hist.percentile(0.5) == reference_percentile(hist.samples(), 0.5)


def test_registry_get_or_create_and_export():
    registry = MetricsRegistry()
    registry.counter("probes", kind="traversal").inc(3)
    assert registry.counter("probes", kind="traversal") is registry.counter(
        "probes", kind="traversal"
    )
    registry.gauge("occupancy").set(2.5)
    registry.histogram("latency").observe(0.25)
    snapshot = registry.as_dict()
    assert snapshot["counters"]['probes{kind="traversal"}'] == 3
    assert snapshot["gauges"]["occupancy"] == 2.5
    assert snapshot["histograms"]["latency"]["count"] == 1
    assert registry.value("counter", "probes", kind="traversal") == 3
    text = registry.render_text()
    assert 'probes{kind="traversal"} 3' in text


# ------------------------------------------------------------- provenance


def make_report_with_provenance() -> ServetReport:
    report = ServetReport(system="toy", n_cores=2, page_size=4096)
    record_provenance(
        report,
        [
            ParameterProvenance(
                parameter="cache.L1.size",
                value=32768,
                method="l1-peak",
                probes=["traversal:abc123def456"],
                measurements={"traversal:abc123def456": 3.0},
                note="unit-test record",
            ),
            ParameterProvenance(
                parameter="comm.layer0.latency",
                value=1.05e-5,
                method="latency-clustering",
                probes=["message:0123456789ab"],
                measurements={"message:0123456789ab": 1.05e-5},
            ),
        ],
        phase="cache_size",
    )
    return report


def test_provenance_round_trips_through_save_load(tmp_path):
    report = make_report_with_provenance()
    path = tmp_path / "report.json"
    report.save(path)
    loaded = ServetReport.load(path)
    assert loaded.provenance == report.provenance
    assert json.dumps(loaded.provenance, sort_keys=True) == json.dumps(
        report.provenance, sort_keys=True
    )
    # provenance must stay out of the measurement payload
    assert "provenance" not in report.measurement_dict()
    assert ParameterProvenance.from_dict(
        loaded.provenance["cache.L1.size"]
    ).phase == "cache_size"


def test_explain_lists_matches_and_rejects_unknown():
    report = make_report_with_provenance()
    listing = explain(report)
    assert "cache.L1.size" in listing and "comm.layer0.latency" in listing
    block = explain(report, "cache.L1")
    assert "l1-peak" in block and "traversal:abc123def456" in block
    with pytest.raises(ReproError):
        explain(report, "nope.such.parameter")
    empty = ServetReport(system="bare", n_cores=1, page_size=4096)
    assert "no provenance" in explain(empty)
