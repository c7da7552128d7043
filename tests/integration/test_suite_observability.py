"""What a suite run records, traced and untraced.

An untraced suite (the default, and what autotuners, fleet workers and
benchmarks run) builds no tracer and records no span, yet still counts
every backend call and every planner probe.  ``servet run --trace``
records the full phase → probe → backend span tree, and
``servet run --metrics`` exports the counters.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

import repro.core.suite as suite_mod
import repro.obs.metrics as metrics_mod
from repro import ServetReport, ServetSuite, SimulatedBackend
from repro.backends.base import MEASUREMENT_METHODS
from repro.cli import main
from repro.errors import MeasurementError
from repro.obs import Tracer, load_jsonl
from repro.topology import Cluster, generic_smp, save_cluster


#: The seven ``PlannerStats`` counts, exported as ``planner.<name>``.
PLANNER_COUNTS = (
    "cache_hits",
    "issued",
    "pairwise_measured",
    "pairwise_requested",
    "pruned",
    "spot_checks",
    "verify_fallbacks",
)

#: Every instrument a ``servet run --metrics`` document holds for
#: :func:`small_machine`, fresh or resumed.  A rename or a new metric
#: has to change this on purpose.
METRICS_DOCUMENT = {
    "counters": sorted(
        [
            *(f'backend.calls{{method="{m}"}}' for m in MEASUREMENT_METHODS),
            "memsim.outcome.hits",
            "memsim.outcome.misses",
            *(f"planner.{name}" for name in PLANNER_COUNTS),
            "simmpi.comm.hits",
            "simmpi.comm.misses",
            *(f'suite.probes_issued{{phase="{p}"}}' for p in suite_mod.ALL_PHASES),
        ]
    ),
    "gauges": sorted(
        f'suite.phase_{clock}_seconds{{phase="{p}"}}'
        for clock in ("virtual", "wall")
        for p in suite_mod.ALL_PHASES
    ),
    "histograms": [],
}


def small_machine():
    return generic_smp(name="obs-smp", n_cores=4)


def crash_comm_costs_once(monkeypatch) -> None:
    """Make the first communication phase raise, as a mid-run crash."""
    original = suite_mod.run_comm_costs
    crashes = iter([True])

    def crash_once(*args, **kwargs):
        if next(crashes, False):
            raise MeasurementError("simulated mid-run crash")
        return original(*args, **kwargs)

    monkeypatch.setattr(suite_mod, "run_comm_costs", crash_once)


def count_calls(backend) -> Counter:
    """Count every measurement call the suite makes, independently of
    the suite's own ``backend.calls`` instrumentation."""
    calls: Counter = Counter()
    for method in MEASUREMENT_METHODS:

        def counted(*args, _original=getattr(backend, method), _name=method, **kw):
            calls[_name] += 1
            return _original(*args, **kw)

        setattr(backend, method, counted)
    return calls


def assert_probe_accounting(suite: ServetSuite, report: ServetReport) -> None:
    """README: the per-phase ``suite.probes_issued`` counters sum
    exactly to ``ServetReport.planner["issued"]``."""
    per_phase = report.planner["per_phase"]
    assert set(per_phase) == set(report.phase_status)
    assert sum(per_phase.values()) == report.planner["issued"] > 0
    for phase, issued in per_phase.items():
        counted = suite.metrics.value("counter", "suite.probes_issued", phase=phase)
        assert counted == issued, phase


def test_untraced_suite_records_no_span_but_counts_every_call(monkeypatch):
    def no_tracer(self, *args, **kwargs):
        raise AssertionError("an untraced suite built a Tracer")

    monkeypatch.setattr(Tracer, "__init__", no_tracer)
    backend = SimulatedBackend(small_machine(), seed=3, noise=0.0)
    calls = count_calls(backend)
    suite = ServetSuite(backend)
    report = suite.run()
    assert suite.tracer is None
    assert suite.planner.tracer is None
    assert calls["traversal_cycles"] > 0 and calls["message_latency"] > 0
    for method in MEASUREMENT_METHODS:
        counted = suite.metrics.value("counter", "backend.calls", method=method)
        assert counted == calls[method], method
    assert_probe_accounting(suite, report)


def test_traced_run_writes_phase_probe_and_backend_spans(tmp_path, capsys):
    machine = small_machine()
    machine_file = tmp_path / "machine.json"
    save_cluster(Cluster(machine.name, machine), machine_file)
    trace, out = tmp_path / "trace.jsonl", tmp_path / "report.json"
    argv = ["run", "--machine-file", str(machine_file), "--noise", "0"]
    assert main([*argv, "--trace", str(trace), "-o", str(out)]) == 0
    spans = load_jsonl(trace)
    assert f"({len(spans)} spans)" in capsys.readouterr().out

    phases = list(ServetReport.load(out).timings)
    assert phases
    by_name = Counter(s.name for s in spans)
    assert by_name["phase"] == len(phases)
    assert by_name["probe"] > 0
    assert any(name.startswith("backend.") for name in by_name)
    assert {s.attributes["phase"] for s in spans if s.name == "phase"} == set(phases)

    assert main(["trace", "summarize", str(trace)]) == 0
    summary = capsys.readouterr().out
    for phase in phases:
        assert f"  {phase}: " in summary, phase


def test_probe_accounting_survives_checkpoint_resume(tmp_path, monkeypatch):
    def make_suite() -> ServetSuite:
        return ServetSuite(SimulatedBackend(small_machine(), seed=3, noise=0.0))

    fresh = make_suite().run()

    crash_comm_costs_once(monkeypatch)
    checkpoint = tmp_path / "ckpt.json"
    with pytest.raises(MeasurementError, match="mid-run crash"):
        make_suite().run(checkpoint=checkpoint)
    resumed_suite = make_suite()
    resumed = resumed_suite.run(checkpoint=checkpoint, resume=True)
    assert_probe_accounting(resumed_suite, resumed)
    assert resumed.planner["per_phase"] == fresh.planner["per_phase"]
    assert resumed.planner["issued"] == fresh.planner["issued"]


def test_each_probe_is_counted_once(monkeypatch):
    """While the phases run, a probe costs one ``backend.calls`` count
    (plus the simulator's own outcome/comm cache counts); the planner's
    counts are written once, after the last phase."""
    touched: Counter = Counter()
    inc, set_ = metrics_mod.Counter.inc, metrics_mod.Counter.set

    def counted_inc(self, amount=1.0):
        touched[self.name, self.labels] += 1
        inc(self, amount)

    def counted_set(self, value):
        touched[self.name, self.labels] += 1
        set_(self, value)

    monkeypatch.setattr(metrics_mod.Counter, "inc", counted_inc)
    monkeypatch.setattr(metrics_mod.Counter, "set", counted_set)
    backend = SimulatedBackend(small_machine(), seed=3, noise=0.0)
    calls = count_calls(backend)
    report = ServetSuite(backend).run()
    assert report.planner["issued"] > 1

    for method in MEASUREMENT_METHODS:
        assert touched.pop(("backend.calls", (("method", method),))) == calls[method]
    simulator_caches = ("memsim.outcome.", "simmpi.comm.")
    per_run = {
        key: count
        for key, count in touched.items()
        if not key[0].startswith(simulator_caches)
    }
    assert set(per_run.values()) == {1}, per_run
    assert {name for name, _ in per_run} == {"planner." + n for n in PLANNER_COUNTS} | {
        "suite.probes_issued"
    }


@pytest.mark.parametrize("resumed", [False, True], ids=["fresh", "resumed"])
def test_run_metrics_document_is_pinned(tmp_path, monkeypatch, resumed):
    machine = small_machine()
    machine_file = tmp_path / "machine.json"
    save_cluster(Cluster(machine.name, machine), machine_file)
    out, metrics = tmp_path / "report.json", tmp_path / "metrics.json"
    argv = [
        "run", "--machine-file", str(machine_file), "--noise", "0",
        "-o", str(out), "--metrics", str(metrics),
    ]
    if resumed:
        argv += ["--checkpoint", str(tmp_path / "ckpt.json")]
        crash_comm_costs_once(monkeypatch)
        assert main(argv) == 1
        assert not metrics.exists()
        argv.append("--resume")
    assert main(argv) == 0

    document = json.loads(metrics.read_text())
    assert {kind: sorted(names) for kind, names in document.items()} == METRICS_DOCUMENT
    planner = ServetReport.load(out).planner
    counters = document["counters"]
    for name in PLANNER_COUNTS:
        assert counters[f"planner.{name}"] == planner[name], name
    assert set(planner["per_phase"]) == set(suite_mod.ALL_PHASES)
    for phase, issued in planner["per_phase"].items():
        assert counters[f'suite.probes_issued{{phase="{phase}"}}'] == issued, phase
    assert planner["issued"] == sum(planner["per_phase"].values()) > 0
