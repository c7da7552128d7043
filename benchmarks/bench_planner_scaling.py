"""Planner scaling — pairwise measurements and virtual time, pruned
versus unpruned.

The measurement planner's pitch is O(n²) → O(#classes) on the pairwise
phases (Figs. 5–7 all probe every pair of cores).  This bench runs the
full suite with ``prune="off"`` and ``prune="topology"`` (plus
``"verify"`` outside quick mode) on the single-node Dunnington model
and the 2-node Finis Terrae cluster, and records measurement counts,
virtual seconds, and wall seconds per configuration in
``BENCH_planner.json`` at the repository root.

Acceptance (ISSUE, perf_opt): on the 32-core cluster, topology pruning
issues at most 20% of the pairwise measurements and cuts total virtual
time at least 3x — asserted here, not just recorded.

Quick mode (``REPRO_BENCH_QUICK=1``, used by CI) skips the ``verify``
configuration; the off/topology comparison the acceptance bar is
defined on always runs.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.backends import SimulatedBackend
from repro.core import ServetSuite
from repro.topology import dunnington, finis_terrae
from repro.viz import ascii_table

from bench_paths import QUICK, bench_path

BENCH_PATH = bench_path("BENCH_planner.json")

MACHINES = {
    "dunnington": dunnington,
    "finis_terrae_2node": lambda: finis_terrae(2),
}

PRUNE_MODES = ("off", "topology") if QUICK else ("off", "topology", "verify")


def run_config(build, prune: str) -> dict:
    backend = SimulatedBackend(build(), seed=42, noise=0.0)
    suite = ServetSuite(backend, prune=prune)
    wall_start = time.perf_counter()
    report = suite.run()
    wall = time.perf_counter() - wall_start
    virtual = sum(v for v, _ in report.timings.values())
    stats = dict(report.planner)
    return {
        "prune": prune,
        "issued": stats["issued"],
        "saved": stats["saved"],
        "pruned": stats["pruned"],
        "cache_hits": stats["cache_hits"],
        "pairwise_requested": stats["pairwise_requested"],
        "pairwise_measured": stats["pairwise_measured"],
        "virtual_seconds": virtual,
        "wall_seconds": wall,
        "phase_virtual_seconds": {
            name: v for name, (v, _) in report.timings.items()
        },
    }


@pytest.fixture(scope="module")
def results() -> dict:
    out: dict = {}
    for name, build in MACHINES.items():
        out[name] = {prune: run_config(build, prune) for prune in PRUNE_MODES}
    return out


def test_planner_scaling(results, figure):
    rows = []
    for machine, configs in results.items():
        baseline = configs["off"]
        for prune, data in configs.items():
            fraction = data["pairwise_measured"] / data["pairwise_requested"]
            speedup = baseline["virtual_seconds"] / data["virtual_seconds"]
            rows.append(
                (
                    machine,
                    prune,
                    str(data["pairwise_measured"]),
                    str(data["pairwise_requested"]),
                    f"{100 * fraction:.1f}%",
                    f"{data['virtual_seconds'] / 60:.1f}'",
                    f"{speedup:.1f}x",
                )
            )
    table = ascii_table(
        [
            "machine",
            "prune",
            "pairwise measured",
            "requested",
            "fraction",
            "virtual time",
            "speedup",
        ],
        rows,
        title="Planner scaling: pairwise probes and virtual time by prune mode",
    )
    figure("Planner scaling (pruned vs unpruned)", table)

    payload = {
        "benchmark": "planner_scaling",
        "seed": 42,
        "noise": 0.0,
        "quick": QUICK,
        "machines": results,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    # Acceptance bar: ≤20% of pairwise measurements and ≥3x virtual-time
    # cut on the 32-core cluster with topology pruning.
    ft = results["finis_terrae_2node"]
    fraction = (
        ft["topology"]["pairwise_measured"]
        / ft["topology"]["pairwise_requested"]
    )
    assert fraction <= 0.20, f"pruned run measured {100 * fraction:.1f}% of pairs"
    cut = ft["off"]["virtual_seconds"] / ft["topology"]["virtual_seconds"]
    assert cut >= 3.0, f"virtual-time cut only {cut:.2f}x"

    # Pruning must never change what the phases asked for.
    for machine, configs in results.items():
        requested = {c["pairwise_requested"] for c in configs.values()}
        assert len(requested) == 1, f"{machine}: phases diverged across modes"
