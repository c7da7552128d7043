"""Golden regression for the fleet coordinator's event timeline.

A fleet survey is a discrete-event simulation under a fixed seed, so a
faulty survey — crashed workers, lease expiries, stragglers and their
speculative duplicates — replays the same timeline every time.  This
test pins that timeline byte-for-byte: the measured content
(``survey_dict()``), the logical clock at the end of the survey, and
the protocol accounting with its per-type message counts.  Any change
to how the coordinator orders deliveries and lease checks shows up
here.  The golden lives in ``tests/golden/fleet_timeline.json`` and is
regenerated with::

    pytest tests/integration/test_golden_fleet_timeline.py --update-golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.fleet import FleetConfig, FleetCoordinator, FleetFaultPlan, generate_fleet

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden" / "fleet_timeline.json"


def timeline_bytes() -> bytes:
    spec = generate_fleet(8, 3, seed=1, name="timeline")
    plan = FleetFaultPlan(
        seed=1,
        crash_rate=0.3,
        respawn_seconds=200.0,
        straggler_rate=0.3,
        straggle_factor=10.0,
    )
    # speculate_after=1 lets a three-class fleet trigger speculation.
    config = FleetConfig(workers=3, speculate_after=1)
    report = FleetCoordinator(spec, config=config, fault_plan=plan).survey()
    timeline = {
        "logical_seconds": report.timing["logical_seconds"],
        "protocol": report.protocol,
        "survey": report.survey_dict(),
    }
    return (json.dumps(timeline, sort_keys=True, indent=2) + "\n").encode("utf-8")


def test_golden_fleet_timeline(update_golden):
    got = timeline_bytes()
    if update_golden:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_bytes(got)
        return
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"missing golden fixture {GOLDEN_PATH}; generate it with "
            "`pytest tests/integration/test_golden_fleet_timeline.py "
            "--update-golden`"
        )
    want = GOLDEN_PATH.read_bytes()
    if got != want:
        got_d, want_d = json.loads(got), json.loads(want)
        changed = sorted(
            k for k in set(got_d) | set(want_d) if got_d.get(k) != want_d.get(k)
        )
        pytest.fail(
            "fleet timeline diverged from the golden in section(s) "
            f"{changed}; if intended, regenerate with --update-golden "
            "and review the diff"
        )


def test_timeline_exercises_every_fault_path():
    """The pinned survey really crashes, expires leases and speculates."""
    timeline = json.loads(GOLDEN_PATH.read_text())
    protocol = timeline["protocol"]
    assert protocol["lease_expiries"] >= 1
    assert protocol["reassignments"] >= 1
    assert protocol["speculative_dispatches"] >= 1
    assert protocol["duplicate_results"] >= 1
    assert protocol["messages"]["HEARTBEAT"] >= 1
    assert set(timeline["survey"]["machines"].values()) == {"ok"}
