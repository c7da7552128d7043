"""Machine-zoo recovery — blind detection accuracy off the paper's map.

The four paper machines only show the suite can re-measure the
hardware its model was built from.  This bench generates seeded
machines from families the paper never touched (exclusive and victim
caches, sectored lines, non-power-of-two associativity, sub-NUMA
cells, big.LITTLE cores, multi-NIC and oversubscribed fat-tree
interconnects), runs the full suite blind against each, and scores
every ground-truth parameter ``match`` / ``tolerated`` /
``undetectable`` / ``WRONG``.  Per-family accuracy and wall time land
in ``BENCH_zoo.json`` at the repository root.

Acceptance (ISSUE): the full sweep covers >= 200 machines across
>= 6 families with **zero WRONG verdicts** — asserted here, not just
recorded.

Quick mode (``REPRO_BENCH_QUICK=1``, used by CI) runs 3 seeds per
family (24 machines); the zero-WRONG bar still applies.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.viz import ascii_table
from repro.zoo import family_names, generate_zoo, recover_all

from bench_paths import QUICK, bench_path

BENCH_PATH = bench_path("BENCH_zoo.json")

#: Machines per family.  8 families x 25 seeds = 200 machines in the
#: full run — the ISSUE's acceptance floor.
SEEDS_PER_FAMILY = 3 if QUICK else 25


@pytest.fixture(scope="module")
def sweep():
    machines = generate_zoo(seeds=SEEDS_PER_FAMILY)
    start = time.perf_counter()
    report = recover_all(machines)
    wall = time.perf_counter() - start
    return report, wall


def test_zoo_recovery(sweep, figure):
    report, wall = sweep
    per_family = report.per_family()
    rows = []
    for family in sorted(per_family):
        agg = per_family[family]
        scored = agg["match"] + agg["tolerated"] + agg["undetectable"] + agg["WRONG"]
        rows.append(
            (
                family,
                str(int(agg["machines"])),
                str(int(agg["match"])),
                str(int(agg["tolerated"])),
                str(int(agg["undetectable"])),
                str(int(agg["WRONG"])),
                f"{100.0 * (scored - agg['WRONG']) / scored:.1f}%",
                f"{agg['wall_seconds']:.2f}s",
            )
        )
    table = ascii_table(
        [
            "family",
            "machines",
            "match",
            "tolerated",
            "undetectable",
            "WRONG",
            "accuracy",
            "wall",
        ],
        rows,
        title="Machine-zoo blind recovery vs frozen ground truth",
    )
    figure("Machine zoo recovery accuracy", table)

    payload = {
        "benchmark": "zoo_recovery",
        "quick": QUICK,
        "seeds_per_family": SEEDS_PER_FAMILY,
        "machines": report.machines,
        "families": report.families,
        "wrong_total": report.wrong_total,
        "wall_seconds": wall,
        "per_family": per_family,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    # Acceptance bar.
    assert len(report.families) >= 6
    assert report.families == family_names()
    if not QUICK:
        assert report.machines >= 200
    assert report.wrong_total == 0, report.summary()
