"""Simulation-substrate speedup — the outcome cache.

Runs the unpruned (``prune="off"``) Dunnington suite — the configuration
the seed repository's ``BENCH_planner.json`` timed at ~3.29 wall seconds
— cold (empty process-wide caches) and then warm (caches populated by
the cold run).  Records wall clocks, the per-phase
breakdown, outcome/comm cache statistics, and a simmpi event-engine
throughput microbench in ``BENCH_memsim.json`` at the repository root.

Asserted, not just recorded:

- every warm report is byte-identical to the cold one (the cache is
  semantically invisible);
- outcome-cache hits + misses equal exactly the traversal probes the
  backend issued (no probe is double- or un-counted);
- the warm suite beats the seed baseline by >= 10x (full mode) or
  >= 5x (quick mode, ``REPRO_BENCH_QUICK=1``, used by CI).
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.backends import SimulatedBackend
from repro.core import ServetSuite
from repro.memsim import clear_global_cache
from repro.memsim.outcome import GLOBAL_COMM_CACHE, GLOBAL_OUTCOME_CACHE
from repro.simmpi.events import Engine
from repro.topology import dunnington
from repro.viz import ascii_table

from bench_paths import QUICK, bench_path

BENCH_PATH = bench_path("BENCH_memsim.json")

#: Wall seconds of this exact configuration (unpruned Dunnington suite,
#: seed=42, noise=0) in the seed repository's BENCH_planner.json —
#: before the outcome cache existed.
#: Embedded because BENCH_planner.json is regenerated by the current
#: substrate and no longer describes the seed.
SEED_BASELINE_WALL = 3.287

WARM_REPEATS = 3 if QUICK else 5
SPEEDUP_FLOOR = 5.0 if QUICK else 10.0


def timed_suite_run() -> dict:
    """One full unpruned Dunnington suite run; returns wall + report."""
    backend = SimulatedBackend(dunnington(), seed=42, noise=0.0)
    issued = {"traversal": 0}
    inner = backend.traversal_cycles

    def counted(arrays, stride):
        issued["traversal"] += 1
        return inner(arrays, stride)

    backend.traversal_cycles = counted  # suite instrumentation wraps this
    suite = ServetSuite(backend, prune="off")
    wall_start = time.perf_counter()
    report = suite.run()
    wall = time.perf_counter() - wall_start
    return {
        "wall_seconds": wall,
        "traversal_probes_issued": issued["traversal"],
        "phase_wall_seconds": {
            name: w for name, (_, w) in report.timings.items()
        },
        "report": report,
    }


def cache_stats_delta(before: dict, after: dict) -> dict:
    return {
        key: after[key] - before[key] for key in ("hits", "misses")
    } | {"entries": after["entries"]}


def engine_events_per_second(n_events: int) -> float:
    """Drain a mixed event storm; half the events chain a zero-delay one."""
    engine = Engine()
    delays = np.random.default_rng(7).uniform(1e-6, 1.0, size=n_events)

    def chained():
        engine.schedule(0.0, lambda: None)

    for i, delay in enumerate(delays):
        engine.schedule(float(delay), chained if i % 2 == 0 else (lambda: None))
    start = time.perf_counter()
    executed = engine.run()
    wall = time.perf_counter() - start
    assert executed == n_events + (n_events + 1) // 2
    return executed / wall


@pytest.fixture(scope="module")
def results() -> dict:
    clear_global_cache()
    outcome_before = GLOBAL_OUTCOME_CACHE.stats()
    comm_before = GLOBAL_COMM_CACHE.stats()
    cold = timed_suite_run()
    cold["outcome_cache"] = cache_stats_delta(
        outcome_before, GLOBAL_OUTCOME_CACHE.stats()
    )
    cold["comm_cache"] = cache_stats_delta(comm_before, GLOBAL_COMM_CACHE.stats())

    warm_runs = []
    for _ in range(WARM_REPEATS):
        outcome_before = GLOBAL_OUTCOME_CACHE.stats()
        run = timed_suite_run()
        run["outcome_cache"] = cache_stats_delta(
            outcome_before, GLOBAL_OUTCOME_CACHE.stats()
        )
        warm_runs.append(run)

    n_events = 5_000 if QUICK else 40_000
    events = {
        "n_events": n_events,
        "engine_events_per_sec": engine_events_per_second(n_events),
    }
    return {
        "cold": cold,
        "warm_runs": warm_runs,
        "events": events,
    }


def strip(run: dict) -> dict:
    return {k: v for k, v in run.items() if k != "report"}


def test_substrate_speedup(results, figure):
    cold = results["cold"]
    warm_runs = results["warm_runs"]
    warm_walls = sorted(r["wall_seconds"] for r in warm_runs)
    warm_best = warm_walls[0]
    warm_median = warm_walls[len(warm_walls) // 2]

    # The cache must be semantically invisible: identical measurements
    # whether every probe simulates (cold) or every repeat is answered
    # from the outcome cache (warm).
    cold_dict = cold["report"].measurement_dict()
    for run in warm_runs:
        assert run["report"].measurement_dict() == cold_dict

    # Counter exactness: every traversal probe the backend issued is
    # either a hit or a miss — nothing more, nothing less.
    for run in (cold, *warm_runs):
        stats = run["outcome_cache"]
        assert (
            stats["hits"] + stats["misses"] == run["traversal_probes_issued"]
        ), f"cache counters {stats} vs {run['traversal_probes_issued']} probes"
    assert cold["outcome_cache"]["misses"] > 0
    for run in warm_runs:
        assert run["outcome_cache"]["misses"] == 0  # fully warm

    speedup_vs_seed = SEED_BASELINE_WALL / warm_best
    rows = [
        ("seed baseline", f"{SEED_BASELINE_WALL:.3f}", "-"),
        (
            "cold (empty caches)",
            f"{cold['wall_seconds']:.3f}",
            f"{SEED_BASELINE_WALL / cold['wall_seconds']:.1f}x",
        ),
        (
            f"warm best of {len(warm_walls)}",
            f"{warm_best:.3f}",
            f"{speedup_vs_seed:.1f}x",
        ),
        (
            "warm median",
            f"{warm_median:.3f}",
            f"{SEED_BASELINE_WALL / warm_median:.1f}x",
        ),
    ]
    events = results["events"]
    rows.append(
        (
            f"simmpi engine ({events['n_events']} events)",
            f"{events['engine_events_per_sec'] / 1e6:.2f}M ev/s",
            "-",
        )
    )
    figure(
        "Simulation substrate speedup (unpruned Dunnington suite)",
        ascii_table(
            ["configuration", "wall seconds", "speedup vs seed"],
            rows,
            title="Outcome cache",
        ),
    )

    payload = {
        "benchmark": "memsim_speedup",
        "seed": 42,
        "noise": 0.0,
        "quick": QUICK,
        "seed_baseline_wall_seconds": SEED_BASELINE_WALL,
        "speedup_floor": SPEEDUP_FLOOR,
        "cold": strip(cold),
        "warm_runs": [strip(r) for r in warm_runs],
        "warm_best_wall_seconds": warm_best,
        "warm_median_wall_seconds": warm_median,
        "speedup_vs_seed": speedup_vs_seed,
        "events": events,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    assert speedup_vs_seed >= SPEEDUP_FLOOR, (
        f"warm suite only {speedup_vs_seed:.1f}x over the seed baseline "
        f"(floor {SPEEDUP_FLOOR}x, warm walls {warm_walls})"
    )
