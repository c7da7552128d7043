"""The repository benchmark: three workloads, end-to-end and per-layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload suite-dunnington --seed 42 \\
        --seconds 20 --trace 0

``--trace 0`` repeats the workload, untraced, for ``--seconds`` seconds
and reports the end-to-end metrics of ``BENCHMARK.json`` as medians
over the iterations.  ``--trace 1`` alternates untraced and traced
iterations (the order flips every pair, so neither side always runs
first) for at least ``MIN_PAIRS`` pairs, even past ``--seconds``, and
reports the per-layer self-time table from the traced ones and the
tracing overhead with its quartiles from the pairs.  Every
iteration checks its outputs; each check is one attempted operation.
The last stdout line is the JSON result; everything above it is for
people.  ``--record`` (with ``--trace 1``) stores the exact simulated
counts and report digests of the given seed in ``expected.json``.

End-to-end metrics, per workload (a median over iterations):

==============  ==============================  ============================
metric          suite-dunnington / suite-ft8     daemon-zipf
==============  ==============================  ============================
setup_s         process start to ready: imports, machine build (daemon:
                registry + ``servet serve --listen`` until ``listening on``)
cold_rel        first ``ServetSuite.run()`` in   first load pass (with hot
                a fresh process (dunnington:     reloads) on a fresh daemon
                plus the first ``co_schedule``)
warm_rel        the same, repeated in-process    the same, repeated
peak_rss_mb     peak RSS of the process doing the work (the daemon for
                daemon-zipf)
==============  ==============================  ============================

``cold_rel`` and ``warm_rel`` are the wall times ``cold_s`` and
``warm_s`` in units of a fixed reference computation (``hostref.py``)
timed in the same process just before and just after each pass, so the
host's drifting speed cancels out.  The human table prints ``cold_s``,
``warm_s`` and ``ref_s`` (the reference's median time) in seconds
beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
WORK_DIR = ROOT / ".perfbench"

#: Every run must end within this many seconds.
DEADLINE_S = 170.0

#: The benchmark's own definition: workload names and whys, metric names
#: and units.  ``WORKLOADS`` below adds only what the file cannot hold.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END: dict[str, str] = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
#: Every workload reports all of them; a layer it does not load reads 0.
PER_LAYER: dict[str, str] = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WHY: dict[str, str] = {w["name"]: w["why"] for w in SPEC["workloads"]}

#: Seeds, passes and the layers each workload loads and bypasses.
WORKLOADS: dict[str, dict] = {
    "suite-dunnington": {
        "seed": 42,
        "held_out_seed": 7,
        "passes": "cold suite, warm suite, cold co_schedule, warm co_schedule",
        "loads": "core, planner, backends, memsim (pairwise traversals), workload",
        "bypasses": "simmpi (about 3%), fleet, service, serviced",
    },
    "suite-ft8": {
        "seed": 42,
        "held_out_seed": 7,
        "passes": "cold suite, warm suite",
        "loads": "core, planner, backends, simmpi + netsim (communication_costs)",
        "bypasses": "memsim mostly, workload, fleet, service, serviced",
    },
    "daemon-zipf": {
        "seed": 42,
        "held_out_seed": 7,
        "passes": "cold load with 3 hot reloads, warm load",
        "loads": "serviced (framing, batching, snapshot swap), service cache",
        "bypasses": "core, planner, backends, memsim, simmpi, workload, fleet",
    },
}

PHASES = (
    "cache_size",
    "shared_caches",
    "tlb_detection",
    "memory_overhead",
    "communication_costs",
)
BACKEND_METHODS = (
    "traversal_cycles",
    "copy_bandwidth",
    "message_latency",
    "concurrent_message_latency",
)

#: Exact simulated counts compared against ``expected.json``.
EXACT_COUNTS = (
    "suite_virtual_s",
    "planner.probes_issued",
    "planner.probes_saved",
    "backends.traversal_cycles.calls",
    "memsim.traversal.calls",
    "memsim.outcome.misses",
    "simmpi.events",
    "workload.recorder.accesses",
    "report_digest",
)

#: The layer self times of a traced step must add up to its wall time
#: within this share.  A root layer's self time (see ``layers.ROOTS``)
#: is not in the sum: it is whatever no other wrapper covers.
CLOSURE = 0.05

#: Traced/untraced pairs a traced run makes at least, so that the
#: quartiles of ``obs.trace_overhead`` are read between measured values.
MIN_PAIRS = 5


class Tally:
    """Checks across iterations: one attempted operation each."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")

    def count(self, attempted: int, failed: int, errors: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.failures += errors


def host_stamp() -> str:
    return (
        f"nproc={os.cpu_count()} python={sys.version.split()[0]} "
        f"numpy={metadata.version('numpy')} scipy={metadata.version('scipy')}"
    )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Quartiles that never leave the range of ``values`` (``inclusive``:
    the default ``exclusive`` method extrapolates on few samples)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def stop(start: float, rounds: int, seconds: float, enough: bool = True) -> bool:
    """Whether another round of the mean length would overrun the run."""
    elapsed = time.monotonic() - start
    projected = elapsed * (1 + 1 / rounds)
    return (enough and projected > seconds) or projected > DEADLINE_S


def median_metrics(rows: list[dict]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def declared(row: dict[str, float]) -> dict[str, float]:
    """``row`` if it holds exactly the per-layer metrics of BENCHMARK.json."""
    if set(row) != set(PER_LAYER):
        raise KeyError(f"per-layer row differs from BENCHMARK.json: {set(row) ^ set(PER_LAYER)}")
    return row


def unattributed(layers: dict, wall: float) -> float:
    """Traced wall time that no non-root layer's self time accounts for."""
    from layers import ROOTS  # the script's directory is on sys.path

    return wall - sum(v for k, v in layers["self_s"].items() if k not in ROOTS)


def src_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- in-process workloads (fresh worker per iteration) ---------------------


def run_worker(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "suites.py"), workload, str(seed), str(int(traced))],
        cwd=ROOT,
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out["ready"] - spawn
    return out


def layer_row(out: dict) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    layers = out["layers"]
    own, total, calls = layers["self_s"], layers["total_s"], layers["calls"]
    tallies, cold = layers["tallies"], out["cold_layers"]
    extra, counts = out["extra"], out["counts"]
    row = dict.fromkeys(PER_LAYER, 0.0)
    row["host.ref_s"] = out["ref_s"]
    row["setup.import_s"] = out["import_s"]
    row["setup.build_s"] = out["build_s"]
    row["core.suite_s"] = own.get("core.suite", 0.0)
    for phase in PHASES:
        row[f"core.{phase}_s"] = own.get(f"core.{phase}", 0.0)
    for key in ("suite_virtual_s", "planner.probes_issued", "planner.probes_saved"):
        row[key] = counts.get(key, 0)
    row["planner.self_s"] = own.get("planner", 0.0)
    for method in BACKEND_METHODS:
        row[f"backends.{method}.calls"] = calls.get(f"backends.{method}", 0)
        row[f"backends.{method}_s"] = total.get(f"backends.{method}", 0.0)
    row["backends.self_s"] = sum(v for k, v in own.items() if k.startswith("backends."))
    row["memsim.traversal.calls"] = calls.get("memsim.traversal", 0)
    row["memsim.traversal_s"] = own.get("memsim.traversal", 0.0)
    cold_calls = cold["calls"].get("memsim.traversal", 0)
    if cold_calls:
        row["memsim.us_per_traversal"] = 1e6 * cold["self_s"]["memsim.traversal"] / cold_calls
    row["memsim.stream_s"] = own.get("memsim.stream", 0.0)
    hits, misses = extra["outcome_hits"], extra["outcome_misses"]
    row["memsim.outcome.hits"] = hits
    row["memsim.outcome.misses"] = misses
    row["memsim.outcome.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    row["simmpi.pingpong.calls"] = calls.get("simmpi.pingpong", 0)
    row["simmpi.concurrent.calls"] = calls.get("simmpi.concurrent", 0)
    row["simmpi_s"] = sum(v for k, v in own.items() if k.startswith("simmpi."))
    row["simmpi.events"] = tallies.get("simmpi.events", 0)
    if row["simmpi.events"]:
        row["simmpi.us_per_event"] = 1e6 * row["simmpi_s"] / row["simmpi.events"]
    row["simmpi.comm_cache.hits"] = extra["comm_hits"]
    row["simmpi.comm_cache.misses"] = extra["comm_misses"]
    row["workload.recorder.accesses"] = tallies.get("workload.recorder.accesses", 0)
    row["workload.recorder_s"] = own.get("workload.recorder", 0.0)
    if row["workload.recorder.accesses"]:
        row["workload.ns_per_access"] = (
            1e9 * row["workload.recorder_s"] / row["workload.recorder.accesses"]
        )
    row["workload.profile_s"] = own.get("workload.profile", 0.0)
    row["workload.rank_s"] = own.get("workload.rank", 0.0)
    row["workload.coschedule_s"] = own.get("workload.coschedule", 0.0)
    row["obs.spans"] = sum(calls.values())
    row["unattributed_s"] = unattributed(layers, out["total_s"])
    return declared(row)


def in_process(args, tally: Tally) -> tuple[list[dict], dict, list[dict]]:
    """Iterations of a suite workload.

    Returns the end-to-end values of each untraced iteration, the
    per-layer medians of the traced ones, and every worker's output.
    """
    start = time.monotonic()
    deadline = start + DEADLINE_S
    plain: list[dict] = []
    traced: list[dict] = []
    overheads: list[float] = []
    while True:
        if args.trace:
            # Alternate which side of the pair runs first.
            order = (False, True) if len(overheads) % 2 == 0 else (True, False)
            pair = {flag: run_worker(args.workload, args.seed, flag, deadline) for flag in order}
            plain.append(pair[False])
            traced.append(pair[True])
            overheads.append(pair[True]["total_s"] / pair[False]["total_s"] - 1.0)
        else:
            plain.append(run_worker(args.workload, args.seed, False, deadline))
        if stop(start, len(plain), args.seconds, enough=len(overheads) >= MIN_PAIRS or not args.trace):
            break

    for out in plain + traced:
        for name, ok, detail in out["checks"]:
            tally.add(name, ok, detail)
    for out in traced:
        wall = out["total_s"]
        gap = unattributed(out["layers"], wall)
        tally.add(
            "layer self times add up to the traced wall time",
            abs(gap) <= CLOSURE * wall,
            f"{gap:.3f} s of {wall:.3f} s unattributed",
        )
    check_counts(args, plain, traced, tally)

    rows = [
        {
            "setup_s": out["setup_s"],
            "peak_rss_mb": out["peak_rss_mb"],
            **out["steps"],
            "ref_s": out["ref_s"],
            "suite_virtual_s": out["counts"].get("suite_virtual_s", 0.0),
        }
        for out in plain
    ]
    layers = {}
    if traced:
        layers = median_metrics([layer_row(out) for out in traced])
        q1, q2, q3 = quartiles(overheads)
        layers["obs.trace_overhead"] = q2
        layers["obs.trace_overhead_q1"] = q1
        layers["obs.trace_overhead_q3"] = q3
        layers["obs.trace_pairs"] = len(overheads)
        print("trace overhead per pair: " + ", ".join(f"{v:+.3f}" for v in overheads))
    return rows, layers, plain + traced


def observed_counts(out: dict) -> dict:
    counts = dict(out["counts"])
    if "layers" in out:
        layers = out["layers"]
        counts["memsim.traversal.calls"] = layers["calls"].get("memsim.traversal", 0)
        counts["simmpi.events"] = layers["tallies"].get("simmpi.events", 0)
        counts["workload.recorder.accesses"] = layers["tallies"].get(
            "workload.recorder.accesses", 0
        )
    return counts


def check_counts(args, plain: list[dict], traced: list[dict], tally: Tally) -> None:
    """Exact simulated counts: equal across iterations and to the record."""
    runs = [observed_counts(out) for out in plain + traced]
    for key in EXACT_COUNTS:
        seen = {repr(run[key]) for run in runs if key in run}
        if seen:
            tally.add(f"{key} repeats exactly", len(seen) == 1, f"saw {sorted(seen)}")
    record = load_expected().get(args.workload, {}).get(str(args.seed))
    if record is None:
        return
    for key in EXACT_COUNTS:
        for run in runs:
            if key in run and key in record:
                tally.add(
                    f"{key} equals expected.json",
                    run[key] == record[key],
                    f"{run[key]!r} != recorded {record[key]!r}",
                )


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def record_expected(args, outs: list[dict], tally: Tally) -> None:
    if tally.failed:
        raise SystemExit(f"error: not recording seed {args.seed}: {tally.failed} checks failed")
    data = load_expected()
    merged: dict = {}
    for out in outs:
        merged.update(observed_counts(out))
    data.setdefault(args.workload, {})[str(args.seed)] = {
        key: merged[key] for key in EXACT_COUNTS if key in merged
    }
    EXPECTED.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


# -- the daemon workload (client in this process) ---------------------------


def daemon_workload(args, tally: Tally) -> tuple[list[dict], dict, list[dict]]:
    sys.path.insert(0, str(ROOT / "src"))
    import daemon  # the script's directory is on sys.path

    start = time.monotonic()
    outs: list[dict] = []
    while True:
        outs.append(daemon.iteration(ROOT, src_env(), args.seed, len(outs)))
        if stop(start, len(outs), args.seconds):
            break
    rows, layer_rows = [], []
    for out in outs:
        for name, ok, detail in out["checks"]:
            tally.add(name, ok, detail)
        for label in ("cold", "warm"):
            res = out[label]["result"]
            tally.count(res.attempted, res.failed, res.errors)
        cold, warm = out["cold"], out["warm"]
        lat = sorted(cold["result"].latencies)
        warm_lat = sorted(warm["result"].latencies)
        rows.append(
            {
                "setup_s": out["setup_s"],
                "cold_s": cold["wall"],
                "warm_s": warm["wall"],
                "cold_rel": cold["rel"],
                "warm_rel": warm["rel"],
                "ref_s": out["ref_s"],
                "peak_rss_mb": out["peak_rss_mb"],
                "qps": len(lat) / cold["wall"],
                "warm_qps": len(warm_lat) / warm["wall"],
                "latency_p50_ms": 1e3 * daemon.percentile(lat, 0.50),
                "latency_p99_ms": 1e3 * daemon.percentile(lat, 0.99),
                "latency_samples": len(lat),
            }
        )
        # Daemon histograms keep their newest 8192 samples (the tail of
        # the cold pass); the service counters belong to the snapshot
        # in use, i.e. everything since the last reload.
        hist = cold["stats"]["daemon"]["histograms"]
        counters = cold["stats"]["daemon"]["counters"]
        service = warm["stats"]["service"]
        server = hist["serviced.request_latency_seconds"]
        row = dict.fromkeys(PER_LAYER, 0.0)
        row.update(
            {
                "host.ref_s": out["ref_s"],
                "service.cache.hits": service["hits"],
                "service.cache.misses": service["misses"],
                "service.cache.hit_ratio": service["hit_rate"],
                "serviced.qps": rows[-1]["qps"],
                "serviced.latency_p50_ms": rows[-1]["latency_p50_ms"],
                "serviced.latency_p99_ms": rows[-1]["latency_p99_ms"],
                "serviced.latency_samples": len(lat),
                "serviced.warm_latency_p99_ms": 1e3 * daemon.percentile(warm_lat, 0.99),
                "serviced.batch_size_mean": hist["serviced.batch_size"]["mean"],
                "serviced.coalesced": counters.get("serviced.coalesced_requests", 0),
                "serviced.reloads": counters.get("serviced.reloads", 0),
                "serviced.server_latency_p50_ms": 1e3 * server["p50"],
                "serviced.server_latency_p99_ms": 1e3 * server["p99"],
                "serviced.wire_p50_ms": rows[-1]["latency_p50_ms"] - 1e3 * server["p50"],
                "serviced.client_encode_s": cold["result"].encode_s,
                "serviced.client_decode_s": cold["result"].decode_s,
            }
        )
        layer_rows.append(declared(row))
    return rows, median_metrics(layer_rows), outs


# -- output ------------------------------------------------------------------

#: Human table: the issue's metric names per workload, with units.
NAMED = {
    "suite-dunnington": (
        ("cold_s", "s"),
        ("warm_s", "s"),
        ("ref_s", "s"),
        ("suite_cold_s", "s"),
        ("suite_warm_s", "s"),
        ("coschedule_cold_s", "s"),
        ("suite_virtual_s", "simulated s"),
    ),
    "suite-ft8": (
        ("cold_s", "s"),
        ("warm_s", "s"),
        ("ref_s", "s"),
        ("suite_cold_s", "s"),
        ("suite_warm_s", "s"),
        ("suite_virtual_s", "simulated s"),
    ),
    "daemon-zipf": (
        ("cold_s", "s"),
        ("warm_s", "s"),
        ("ref_s", "s"),
        ("qps", "1/s"),
        ("latency_p50_ms", "ms"),
        ("latency_p99_ms", "ms"),
    ),
}


def print_report(args, rows: list[dict], layers: dict, tally: Tally) -> None:
    info = WORKLOADS[args.workload]
    print(f"workload {args.workload} (seed {args.seed}; default {info['seed']}, "
          f"held out {info['held_out_seed']})")
    print(f"  why: {WHY[args.workload]}")
    print(f"  passes: {info['passes']}")
    print(f"  loads: {info['loads']}; bypasses: {info['bypasses']}")
    print(f"  host: {host_stamp()}")
    mode = "untraced iterations" if not args.trace else "traced/untraced pairs"
    print(f"  {len(rows)} {mode}; medians, with every iteration in brackets:")
    for name, unit in (*END_TO_END.items(), *NAMED[args.workload]):
        values = [row[name] for row in rows]
        each = ", ".join(f"{v:.4g}" for v in values)
        print(f"  {name:<22} {statistics.median(values):>12.6g} {unit:<12} [{each}]")
    if args.workload == "daemon-zipf":
        print(f"  (latency over {rows[0]['latency_samples']} replies of each cold pass)")
    rate = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'error_rate':<22} {rate:>14.6g} ({tally.failed} of {tally.attempted} operations)")
    for failure in tally.failures[:10]:
        print(f"  FAILED {failure}")
    if layers:
        print("  per-layer (median of traced iterations):")
        for name, unit in PER_LAYER.items():
            print(f"    {name:<38} {layers[name]:>14.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        action="store_true",
        help="store this seed's exact counts in expected.json (needs --trace 1)",
    )
    args = parser.parse_args(argv)
    if args.record and not args.trace:
        parser.error("--record needs --trace 1 (the traced run has every count)")
    if set(WORKLOADS) != set(WHY):
        print("error: run.py and BENCHMARK.json name different workloads", file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = WORKLOADS[args.workload]["seed"]
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    tally = Tally()
    try:
        if args.workload == "daemon-zipf":
            rows, layers, outs = daemon_workload(args, tally)
            if not args.trace:
                layers = {}
        else:
            rows, layers, outs = in_process(args, tally)
    finally:
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    if args.record and args.workload != "daemon-zipf":
        record_expected(args, outs, tally)
    print_report(args, rows, layers, tally)
    e2e = median_metrics(rows)
    metrics = (
        {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
        if args.trace
        else {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    )
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
