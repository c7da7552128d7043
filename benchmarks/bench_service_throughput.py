"""Tuning-service throughput — cached query serving and incremental
refresh versus full re-measurement.

Two claims the service layer makes, measured:

1. **Query serving is cheap.**  The concurrent-client harness drives the
   cached service and an uncached baseline over the same deterministic
   schedule; the bench records queries/second and hit rate for a cold
   cache (capacity 1 — every distinct key misses the LRU, so the rate is
   the advisor's raw answer cost) versus the warm default cache, and
   asserts the acceptance bar: warm hit rate >= 90% with zero wrong
   answers.

2. **Refreshing beats re-measuring.**  After a single-parameter topology
   change (the Dunnington FSB loses half its bandwidth), an incremental
   refresh must issue strictly fewer probes and spend less virtual
   benchmark time measuring than the from-scratch run, while producing
   a byte-identical ``measurement_dict()``.

Results land in ``BENCH_service.json`` at the repository root (uploaded
as a CI artifact).  Quick mode (``REPRO_BENCH_QUICK=1``) shrinks the
harness traffic; the refresh comparison always runs in full.
"""

from __future__ import annotations

import dataclasses
import json
import time

import pytest

from repro.backends import SimulatedBackend
from repro.core import ServetSuite
from repro.service import (
    ReportRegistry,
    TuningService,
    fingerprint_of,
    incremental_refresh,
    run_harness,
)
from repro.topology import dunnington
from repro.viz import ascii_table

from bench_paths import QUICK, bench_path

BENCH_PATH = bench_path("BENCH_service.json")

CLIENTS = 4 if QUICK else 8
QUERIES_PER_CLIENT = 250 if QUICK else 1000


def degraded_dunnington():
    machine = dunnington()
    root = machine.bandwidth_root
    return dataclasses.replace(
        machine, bandwidth_root=dataclasses.replace(root, capacity=root.capacity / 2)
    )


@pytest.fixture(scope="module")
def baseline_report():
    backend = SimulatedBackend(dunnington(), seed=42, noise=0.0)
    return ServetSuite(backend).run()


def drive(service) -> dict:
    result = run_harness(
        service, clients=CLIENTS, queries_per_client=QUERIES_PER_CLIENT, seed=1234
    )
    return {
        "clients": result.clients,
        "queries": result.queries,
        "wall_seconds": result.wall_seconds,
        "queries_per_second": result.queries_per_second,
        "hit_rate": result.hit_rate,
        "mismatches": result.mismatches,
        "latency_p50": result.metrics["latency_p50"],
        "latency_p99": result.metrics["latency_p99"],
    }


def test_service_throughput(baseline_report, figure, tmp_path):
    # capacity=1 keeps the LRU thrashing: every pool rotation evicts, so
    # this measures the uncached answer path under the same traffic.
    cold = drive(TuningService(baseline_report, capacity=1))
    warm = drive(TuningService(baseline_report))

    # -- refresh vs re-measure ------------------------------------------
    registry = ReportRegistry(tmp_path / "registry")
    backend = SimulatedBackend(dunnington(), seed=42, noise=0.0)
    registry.put(fingerprint_of(backend), baseline_report)

    changed = SimulatedBackend(degraded_dunnington(), seed=42, noise=0.0)
    refresh_start = time.perf_counter()
    refreshed = incremental_refresh(registry, changed)
    refresh_wall = time.perf_counter() - refresh_start

    scratch_backend = SimulatedBackend(degraded_dunnington(), seed=42, noise=0.0)
    scratch_start = time.perf_counter()
    scratch = ServetSuite(scratch_backend).run()
    scratch_wall = time.perf_counter() - scratch_start

    refresh_stats = refreshed.report.to_dict()["planner"]
    scratch_stats = scratch.to_dict()["planner"]
    # A merged report keeps the stored timings of the phases it did not
    # re-run, so count only the re-measured phases as refresh cost.
    refresh_virtual = sum(
        refreshed.report.timings[p][0]
        for p in refreshed.staleness.affected
        if p in refreshed.report.timings
    )
    scratch_virtual = sum(v for v, _ in scratch.timings.values())
    identical = json.dumps(
        refreshed.report.measurement_dict(), sort_keys=True
    ) == json.dumps(scratch.measurement_dict(), sort_keys=True)

    table = ascii_table(
        ["configuration", "queries/s", "hit rate", "mismatches"],
        [
            ("cold cache (capacity 1)", f"{cold['queries_per_second']:,.0f}",
             f"{100 * cold['hit_rate']:.1f}%", str(cold["mismatches"])),
            ("warm cache (default)", f"{warm['queries_per_second']:,.0f}",
             f"{100 * warm['hit_rate']:.1f}%", str(warm["mismatches"])),
        ],
        title=f"Tuning-service throughput ({CLIENTS} clients x "
        f"{QUERIES_PER_CLIENT} queries)",
    )
    refresh_table = ascii_table(
        ["strategy", "probes issued", "virtual time measured", "wall time"],
        [
            ("full re-measurement", str(scratch_stats["issued"]),
             f"{scratch_virtual / 60:.1f}'", f"{scratch_wall:.2f}s"),
            ("incremental refresh", str(refresh_stats["issued"]),
             f"{refresh_virtual / 60:.1f}'", f"{refresh_wall:.2f}s"),
        ],
        title="Refresh after one topology change (Dunnington, FSB halved)",
    )
    figure("Tuning service throughput", table + "\n\n" + refresh_table)

    payload = {
        "benchmark": "service_throughput",
        "seed": 42,
        "noise": 0.0,
        "quick": QUICK,
        "harness": {"cold": cold, "warm": warm},
        "refresh": {
            "changed_inputs": list(refreshed.staleness.changed),
            "stale_phases": list(refreshed.staleness.affected),
            "mode": refreshed.mode,
            "probes_issued": refresh_stats["issued"],
            "probes_issued_scratch": scratch_stats["issued"],
            "virtual_seconds_remeasured": refresh_virtual,
            "virtual_seconds_scratch": scratch_virtual,
            "wall_seconds": refresh_wall,
            "wall_seconds_scratch": scratch_wall,
            "measurements_identical": identical,
        },
    }
    # bench_serviced_load.py shares this file: keep its section intact
    # so the two benches can run in either order.
    if BENCH_PATH.exists():
        try:
            existing = json.loads(BENCH_PATH.read_text())
        except json.JSONDecodeError:
            existing = {}
        if "serviced" in existing:
            payload["serviced"] = existing["serviced"]
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    # Acceptance bars (ISSUE, new_subsystem): warm hit rate >= 90% with
    # zero wrong answers; refresh strictly cheaper and byte-identical.
    assert warm["mismatches"] == 0 and cold["mismatches"] == 0
    assert warm["hit_rate"] >= 0.90, f"warm hit rate {warm['hit_rate']:.1%}"
    assert refreshed.mode == "incremental"
    assert 0 < refresh_stats["issued"] < scratch_stats["issued"]
    assert refresh_virtual < scratch_virtual
    assert identical, "refresh diverged from the from-scratch run"
