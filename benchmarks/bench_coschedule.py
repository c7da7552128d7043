"""Co-scheduling advisor vs interleaved cache simulation.

The advisor ranks placements from composed reuse-CDFs alone — it never
simulates an interleaved run.  This bench is the acceptance check for
that shortcut: every pairing of the fixed four-workload mix onto two
shared-L2 instances of dunnington is also ground-truthed by pushing
the actual access streams through ``SetAssociativeCache`` under the
round-robin interleaving the model assumes, and the predicted ordering
must match the simulated ordering.  The payoff being bought is also
recorded: the advisor answers in milliseconds where the simulation
takes seconds.

Results land in ``BENCH_coschedule.json`` at the repository root.
Quick mode (``REPRO_BENCH_QUICK=1``, used by CI) shrinks every stream
8x and scales the modeled capacity to match; the ordering bar is the
same.
"""

from __future__ import annotations

import json
import time

import pytest

from repro import ServetSuite, SimulatedBackend, dunnington
from repro.memsim.cache import SetAssociativeCache
from repro.viz import ascii_table
from repro.workload import (
    CachePressureModel,
    co_schedule,
    parse_workload,
)

from bench_paths import QUICK, bench_path

BENCH_PATH = bench_path("BENCH_coschedule.json")

#: Four archetypes with equal stream lengths: a hog bigger than the
#: shared cache, a tiny cache-friendly kernel, and two mid-size
#: victims.  The full mix is the golden-test mix (163840 accesses per
#: stream on the real dunnington L2); quick mode shrinks streams 8x
#: and models a 1/8 capacity so the contention structure is preserved.
if QUICK:
    MIX = (
        "streaming:lines=10240,rounds=2",
        "blocked:lines=256,block=64,repeats=16,rounds=5",
        "zipf:accesses=20480,lines=4096,s=1.1",
        "stencil:lines=2048,halo=2,sweeps=2",
    )
    CAPACITY_LINES = 6144  # dunnington L2 (3 MB / 64 B) / 8
else:
    MIX = (
        "streaming:lines=81920,rounds=2",
        "blocked:lines=2048,block=256,repeats=16,rounds=5",
        "zipf:accesses=163840,lines=32768,s=1.1",
        "stencil:lines=16384,halo=2,sweeps=2",
    )
    CAPACITY_LINES = None  # use the detected L2 capacity

SEED = 0
WAYS = 8


@pytest.fixture(scope="module")
def report():
    backend = SimulatedBackend(dunnington(), seed=42, noise=0.0)
    return ServetSuite(backend).run()


def simulated_miss_ratios(streams: dict, capacity: int) -> dict:
    """Ground truth: round-robin interleave through one shared cache."""
    cache = SetAssociativeCache(num_sets=capacity // WAYS, ways=WAYS)
    length = len(next(iter(streams.values())))
    assert all(len(a) == length for a in streams.values())
    hits = {name: 0 for name in streams}
    for i in range(length):
        for name, stream in streams.items():
            line = int(stream[i])
            if cache.access(line % cache.num_sets, (name, line)):
                hits[name] += 1
    return {name: 1.0 - hits[name] / length for name in streams}


def test_prediction_ordering_matches_simulation(report, figure):
    model = (
        CachePressureModel(capacity_lines=CAPACITY_LINES) if QUICK else None
    )
    t0 = time.perf_counter()
    advice = co_schedule(
        report, MIX, seed=SEED, level=2, instances=2, top=3, model=model
    )
    advise_wall = time.perf_counter() - t0
    # A second call hits the profile memo: this is the steady-state
    # cost of re-ranking (new mixes over known workloads, more
    # instances, ...), which is what the simulation alternative pays
    # per pairing, every time.
    t0 = time.perf_counter()
    co_schedule(
        report, MIX, seed=SEED, level=2, instances=2, top=3, model=model
    )
    advise_warm_wall = time.perf_counter() - t0
    capacity = advice.provenance["model"]["capacity_lines"]
    cost = CachePressureModel(capacity_lines=capacity)

    streams = {
        spec: parse_workload(spec).lines(SEED) for spec in advice.names
    }
    t0 = time.perf_counter()
    solo = {
        spec: simulated_miss_ratios({spec: stream}, capacity)[spec]
        for spec, stream in streams.items()
    }
    sim_worst = []
    for option in advice.options:
        worst = 1.0
        for block in option.blocks:
            specs = [advice.names[i] for i in block]
            corun = simulated_miss_ratios(
                {s: streams[s] for s in specs}, capacity
            )
            for s in specs:
                worst = max(
                    worst,
                    cost.cycles_per_access(corun[s])
                    / cost.cycles_per_access(solo[s]),
                )
        sim_worst.append(worst)
    sim_wall = time.perf_counter() - t0

    rows = []
    for rank, (option, sim) in enumerate(zip(advice.options, sim_worst), 1):
        blocks = " | ".join(
            "+".join(advice.names[i].split(":")[0] for i in block)
            for block in option.blocks
        )
        rows.append(
            (str(rank), blocks, f"{option.worst_slowdown:.3f}", f"{sim:.3f}")
        )
    table = ascii_table(
        ["rank", "pairing", "predicted worst", "simulated worst"],
        rows,
        title=f"Co-schedule ranking vs simulation (L2, {capacity} lines)",
    )
    figure("Co-scheduling advisor vs interleaved simulation", table)

    payload = {
        "benchmark": "coschedule",
        "quick": QUICK,
        "mix": list(advice.names),
        "capacity_lines": capacity,
        "predicted_worst": [o.worst_slowdown for o in advice.options],
        "simulated_worst": sim_worst,
        "ordering_matches": True,
        "advise_wall_seconds": advise_wall,
        "advise_warm_wall_seconds": advise_warm_wall,
        "simulate_wall_seconds": sim_wall,
        "advisor_warm_speedup": sim_wall / max(advise_warm_wall, 1e-9),
    }

    # The acceptance bar: the cheap prediction ranks pairings the same
    # way the expensive ground-truth simulation does.
    order = sorted(range(len(sim_worst)), key=lambda i: sim_worst[i])
    assert order == list(range(len(sim_worst))), (
        f"advisor ordering diverges from simulation: "
        f"predicted {[o.worst_slowdown for o in advice.options]}, "
        f"simulated {sim_worst}"
    )
    assert len(advice.options) == 3  # all pairings of 4 onto 2x2

    merged = {}
    if BENCH_PATH.exists():
        merged = json.loads(BENCH_PATH.read_text())
    merged.update(payload)
    BENCH_PATH.write_text(json.dumps(merged, indent=2) + "\n")
