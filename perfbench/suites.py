"""One fresh-process iteration of a suite workload.

Run by ``run.py`` as ``python3 perfbench/suites.py WORKLOAD SEED TRACE``
with ``src`` on ``PYTHONPATH``.  A fresh interpreter is the only way to
start with empty process-wide caches (traversal outcomes, comm results,
workload profiles, lru caches), so every iteration pays the import and
machine build that ``setup_s`` measures, then runs the workload's cold
pass and its warm repeats.  The last stdout line is one JSON object.

With TRACE=1 the layer wrappers of ``layers.py`` are installed before
anything is built, and the per-layer self times come back too.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE.parent / "tests" / "golden"

#: The fixed four-workload L2 mix of ``tests/golden/dunnington_coschedule.json``.
COSCHEDULE_MIX = (
    "streaming:lines=81920,rounds=2",
    "blocked:lines=2048,block=256,repeats=16,rounds=5",
    "zipf:accesses=163840,lines=32768,s=1.1",
    "stencil:lines=16384,halo=2,sweeps=2",
)

#: Golden seed of ``tests/golden/dunnington.json``.
GOLDEN_SEED = 42

#: Warm repeats per iteration; ``warm_s`` is their median.
WARM_REPEATS = 7


def canonical(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def digest(data) -> str:
    return hashlib.sha256(canonical(data).encode("utf-8")).hexdigest()


class Checks:
    """Named pass/fail checks; each one is an attempted operation."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), "" if ok else detail))


def ranking(advice: dict) -> dict:
    """A co-schedule advice without its provenance."""
    return {key: value for key, value in advice.items() if key != "provenance"}


def sharing(groups) -> list[list[int]]:
    return sorted(sorted(int(c) for c in g) for g in groups if len(g) > 1)


def check_detection(checks: Checks, report, machine) -> None:
    """Detected cache sizes and sharing groups equal the configured ones."""
    sizes = list(machine.cache_sizes)
    checks.add(
        "cache sizes equal the configured CacheSpecs",
        report.cache_sizes == sizes,
        f"detected {report.cache_sizes}, configured {sizes}",
    )
    detected = [sharing(c.sharing_groups) for c in report.caches]
    configured = [sharing(level.groups) for level in machine.levels]
    checks.add(
        "sharing groups equal the configured CacheSpecs",
        detected == configured,
        f"detected {detected}, configured {configured}",
    )


def outcome_counts(cache) -> tuple[int, int]:
    stats = cache.stats()
    return stats["hits"], stats["misses"]


def comm_counts() -> dict[str, int]:
    from repro.memsim.outcome import GLOBAL_COMM_CACHE

    hits, misses = outcome_counts(GLOBAL_COMM_CACHE)
    return {"comm_hits": hits, "comm_misses": misses}


def run_suite(checks: Checks, backend, cold: bool) -> dict:
    """One ``ServetSuite.run()`` (prune off, noise 0) with its cache audit.

    A cold run must simulate every traversal (0 outcome hits, misses ==
    traversal calls); a warm run must replay every one (hits == calls).
    """
    from repro import ServetSuite
    from repro.memsim.outcome import GLOBAL_OUTCOME_CACHE

    hits0, misses0 = outcome_counts(GLOBAL_OUTCOME_CACHE)
    start = time.perf_counter()
    suite = ServetSuite(backend)
    report = suite.run()
    wall = time.perf_counter() - start
    hits1, misses1 = outcome_counts(GLOBAL_OUTCOME_CACHE)
    hits, misses = hits1 - hits0, misses1 - misses0
    calls = int(
        suite.metrics.value("counter", "backend.calls", method="traversal_cycles")
    )
    if cold:
        ok = hits == 0 and misses == calls
    else:
        ok = hits == calls and misses == 0
    checks.add(
        f"{'cold' if cold else 'warm'} run outcome cache audit",
        ok,
        f"{hits} hits, {misses} misses, {calls} traversal calls",
    )
    return {
        "report": report,
        "wall": wall,
        "virtual_s": sum(v for v, _ in report.timings.values()),
        "probes_issued": int(report.planner["issued"]),
        "probes_saved": int(report.planner["saved"]),
        "traversal_calls": calls,
        "outcome_hits": hits,
        "outcome_misses": misses,
    }


def suite_workload(name: str, seed: int, checks: Checks, timer, host) -> dict:
    from repro import SimulatedBackend, dunnington, finis_terrae
    import repro.workload

    start = time.perf_counter()
    machine = dunnington() if name == "suite-dunnington" else finis_terrae(8)
    backend = SimulatedBackend(machine, seed=seed, noise=0.0)
    out = {"build_s": time.perf_counter() - start, "ready": time.monotonic()}

    host.mark()
    cold = run_suite(checks, backend, cold=True)
    host.mark()
    rel = {"cold": host.rel(cold["wall"])}
    out["cold_layers"] = timer.snapshot() if timer is not None else None
    # The warm repeats build a new backend with the same seed, so every
    # traversal key recurs; they are timed separately and the median kept.
    warm = [
        run_suite(checks, SimulatedBackend(machine, seed=seed, noise=0.0), cold=False)
        for _ in range(WARM_REPEATS)
    ]
    steps = {
        "suite_cold_s": cold["wall"],
        "suite_warm_s": statistics.median(run["wall"] for run in warm),
    }
    host.mark()
    rel["warm"] = host.rel(steps["suite_warm_s"])
    report = cold["report"]
    check_detection(checks, report, backend.machine)
    measured = report.measurement_dict()
    for run in warm:
        checks.add(
            "cold and warm reports are identical",
            measured == run["report"].measurement_dict(),
            "measurement_dict() differs between the cold and a warm run",
        )
    if name == "suite-dunnington" and seed == GOLDEN_SEED:
        golden = (GOLDEN_DIR / "dunnington.json").read_text()
        checks.add(
            "report equals tests/golden/dunnington.json",
            canonical(measured) == golden,
            "measurement_dict() diverged from the golden",
        )
    total = cold["wall"] + sum(run["wall"] for run in warm)

    if name == "suite-dunnington":
        golden = (GOLDEN_DIR / "dunnington_coschedule.json").read_text()

        def advise() -> float:
            start = time.perf_counter()
            advice = repro.workload.co_schedule(
                report, COSCHEDULE_MIX, seed=0, level=2, instances=2, top=3
            ).to_dict()
            wall = time.perf_counter() - start
            if seed == GOLDEN_SEED:
                same = canonical(advice) == golden
            else:
                # Other seeds may reach the same sizes by another detection
                # method, which the advice's provenance names.
                same = ranking(advice) == ranking(json.loads(golden))
            checks.add(
                "co-schedule ranking equals tests/golden/dunnington_coschedule.json",
                same,
                "co_schedule() ranking diverged from the golden",
            )
            return wall

        steps["coschedule_cold_s"] = advise()
        host.mark()
        rel["cold"] += host.rel(steps["coschedule_cold_s"])
        walls = [advise() for _ in range(WARM_REPEATS)]
        steps["coschedule_warm_s"] = statistics.median(walls)
        host.mark()
        rel["warm"] += host.rel(steps["coschedule_warm_s"])
        total += steps["coschedule_cold_s"] + sum(walls)
    steps["cold_s"] = steps["suite_cold_s"] + steps.get("coschedule_cold_s", 0.0)
    steps["warm_s"] = steps["suite_warm_s"] + steps.get("coschedule_warm_s", 0.0)
    steps["cold_rel"], steps["warm_rel"] = rel["cold"], rel["warm"]
    out.update(
        steps=steps,
        total_s=total,
        counts={
            "suite_virtual_s": cold["virtual_s"],
            "planner.probes_issued": cold["probes_issued"],
            "planner.probes_saved": cold["probes_saved"],
            "backends.traversal_cycles.calls": cold["traversal_calls"],
            "report_digest": digest(measured),
        },
        extra={
            "outcome_hits": sum(run["outcome_hits"] for run in [cold, *warm]),
            "outcome_misses": sum(run["outcome_misses"] for run in [cold, *warm]),
        },
    )
    return out


def main(argv: list[str]) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    start = time.perf_counter()
    import repro.cli  # noqa: F401  (the import graph `servet` pays)
    import repro.workload  # noqa: F401

    import_s = time.perf_counter() - start
    # The script's directory is on sys.path.  Imported after the timed
    # imports so that numpy's import stays in ``setup.import_s``.
    from hostref import HostClock, compute

    timer = None
    if trace:
        from layers import LayerTimer  # the script's directory is on sys.path

        timer = LayerTimer()
        timer.install()
    checks = Checks()
    host = HostClock(compute)
    out = suite_workload(workload, seed, checks, timer, host)
    out["extra"].update(comm_counts())
    out.update(
        import_s=import_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        ref_s=host.ref_s(),
        checks=checks.results,
    )
    if timer is not None:
        out["layers"] = timer.snapshot()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
