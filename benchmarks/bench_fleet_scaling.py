"""Fleet survey scaling — dedup leverage and fault overhead.

The fleet coordinator's pitch is that characterizing an installation
costs O(#hardware classes), not O(#machines): identical machines are
deduped by fingerprint and measured once.  This bench surveys
synthetic heterogeneous fleets of growing size — with and without
injected faults (worker crashes + stragglers) — and records machines
per wall-second, dedup ratio, and protocol overhead (reassignments,
lease expiries, speculative dispatches) in ``BENCH_fleet.json`` at the
repository root.

Acceptance (ISSUE, robustness): the 200-machine fleet dedups at least
5x (at most 40 distinct classes) and the faulty run finishes with
every non-quarantined machine ``ok`` or ``degraded`` — asserted here,
not just recorded.

Quick mode (``REPRO_BENCH_QUICK=1``, used by CI) runs only the
smallest fleet plus the 200-machine acceptance point.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.fleet import (
    FleetConfig,
    FleetCoordinator,
    FleetFaultPlan,
    generate_fleet,
)
from repro.viz import ascii_table

from bench_paths import QUICK, bench_path

BENCH_PATH = bench_path("BENCH_fleet.json")

#: (n_machines, n_classes) scaling points; 200/40 is the acceptance
#: configuration from the ISSUE.
FLEETS = (
    [(50, 10), (200, 40)] if QUICK else [(50, 10), (100, 20), (200, 40), (400, 40)]
)

FAULT_PLAN = FleetFaultPlan(
    seed=2,
    crash_rate=0.15,
    respawn_seconds=150.0,
    straggler_rate=0.1,
    straggle_factor=10.0,
)


def run_survey(n_machines: int, n_classes: int, faults: bool) -> dict:
    spec = generate_fleet(n_machines, n_classes, seed=7, name=f"bench-{n_machines}")
    coordinator = FleetCoordinator(
        spec,
        config=FleetConfig(workers=8),
        fault_plan=FAULT_PLAN if faults else None,
    )
    wall_start = time.perf_counter()
    report = coordinator.survey()
    wall = time.perf_counter() - wall_start
    assert report.complete
    return {
        "machines": n_machines,
        "classes": report.dedup["classes"],
        "faults": faults,
        "dedup_ratio": report.dedup["ratio"],
        "counts": dict(report.counts),
        "wall_seconds": wall,
        "machines_per_second": n_machines / wall,
        "crashes": sum(w.crashes for w in coordinator.workers.values()),
        "dispatches": report.protocol["dispatches"],
        "reassignments": report.protocol["reassignments"],
        "lease_expiries": report.protocol["lease_expiries"],
        "speculative_dispatches": report.protocol["speculative_dispatches"],
        "quarantines": report.protocol["quarantines"],
    }


@pytest.fixture(scope="module")
def results() -> list[dict]:
    out = []
    for n_machines, n_classes in FLEETS:
        out.append(run_survey(n_machines, n_classes, faults=False))
        out.append(run_survey(n_machines, n_classes, faults=True))
    return out


def test_fleet_scaling(results, figure):
    rows = [
        (
            str(data["machines"]),
            str(data["classes"]),
            "yes" if data["faults"] else "no",
            f"{data['dedup_ratio']:.1f}x",
            f"{data['machines_per_second']:.0f}",
            str(data["dispatches"]),
            str(data["reassignments"]),
            str(data["crashes"]),
        )
        for data in results
    ]
    table = ascii_table(
        [
            "machines",
            "classes",
            "faults",
            "dedup",
            "machines/s",
            "dispatches",
            "reassigned",
            "crashes",
        ],
        rows,
        title="Fleet survey scaling: dedup leverage and fault overhead",
    )
    figure("Fleet survey scaling (clean vs faulty)", table)

    payload = {
        "benchmark": "fleet_scaling",
        "seed": 7,
        "fault_plan": FAULT_PLAN.to_dict(),
        "quick": QUICK,
        "fleets": results,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    # Acceptance bar: the 200-machine fleet dedups >=5x across <=40
    # classes, faults or not.
    for data in results:
        if data["machines"] == 200:
            assert data["classes"] <= 40
            assert data["dedup_ratio"] >= 5.0, (
                f"dedup only {data['dedup_ratio']:.1f}x"
            )
        # Every non-quarantined machine was characterized.
        statuses = set(data["counts"])
        assert statuses <= {"ok", "degraded", "quarantined"}, data["counts"]
        # Faults must actually have been exercised in faulty runs.
        if data["faults"] and data["machines"] >= 200:
            assert data["crashes"] >= 1
            assert data["reassignments"] >= 1
