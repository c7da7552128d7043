"""Serving-daemon load: wire-level throughput, SLO, and hot-reload p99.

Three claims the daemon makes, measured over real loopback sockets:

1. **Batching amortizes the socket tax.**  A zipf-skewed load (s = 1.1
   over the default query pool — the skew every real tuning client
   shows: a few hot tile/latency questions, a long tail) driven by
   pipelined clients must clear the acceptance floor queries/second
   *warm*, with every single answer byte-identical to the uncached
   Advisor reference.  The load generator pre-encodes one request frame
   per pool entry (ids are opaque to the daemon), so the measured cost
   is the daemon's, not the client's JSON encoder.

2. **Instrumentation is near-free.**  The same load against an
   ``instrument=False`` daemon gives the no-measurement ceiling.  The
   two daemons run interleaved segment pairs (the order flips every
   pair); the median pair overhead must stay within a few percent
   (LIKWID discipline: you can leave the counters on).

3. **Hot reloads do not stall the tail.**  While a publisher stores new
   report versions mid-load, answers must keep flowing — every response
   consistent with exactly the version it names, p99 latency bounded,
   and the daemon ends on the newest version.

Results extend ``BENCH_service.json`` (key ``serviced``) next to the
in-process service numbers; quick mode (``REPRO_BENCH_QUICK=1``)
shrinks the traffic and relaxes the floors for CI smoke.
"""

from __future__ import annotations

import bisect
import copy
import itertools
import json
import random
import socket
import statistics
import threading
import time

import pytest

from repro.autotune import Advisor
from repro.backends import SimulatedBackend
from repro.core import ServetSuite
from repro.core.report import ServetReport
from repro.service import ReportRegistry, fingerprint_of
from repro.service.server import answer, default_query_pool
from repro.serviced import TuningDaemon
from repro.serviced.protocol import encode_frame, query_request, read_frame
from repro.topology import dunnington
from repro.viz import ascii_table

from bench_paths import QUICK, bench_path

BENCH_PATH = bench_path("BENCH_service.json")

#: Zipf skew of the query mix.
ZIPF_S = 1.1

CLIENTS = 4 if QUICK else 8
PER_CLIENT = 2_500 if QUICK else 125_000  # full mode: 1M total
WINDOW = 256 if QUICK else 512
WORKERS = 4
BATCH_MAX = 256

#: Warm-throughput floor (q/s).  The full floor is the acceptance bar
#: from the issue; quick mode keeps a smoke-level floor so CI catches
#: order-of-magnitude regressions without timing sensitivity.
QPS_FLOOR = 5_000 if QUICK else 50_000

#: Instrumentation overhead ceiling vs. the metrics-off daemon.  Short
#: quick-mode segments are noise-dominated, so the bound loosens there.
OVERHEAD_CEILING = 0.25 if QUICK else 0.05
OVERHEAD_SEGMENT = 20_000 if QUICK else 100_000
#: Clients driving each overhead segment.  On a 2-vCPU host, four
#: pipelining clients against four workers switch between throughput
#: regimes up to 3x apart, however long the segment (quick-mode pair
#: IQRs of 20-190% at 5k-100k queries); one client keeps the IQR near
#: 10%, well inside the quick ceiling.
OVERHEAD_CLIENTS = 1 if QUICK else CLIENTS
#: Interleaved instrumented/uninstrumented segment pairs.
OVERHEAD_PAIRS = 5

#: p99 arrival-to-answer latency bound while hot-reloads land (seconds).
RELOAD_P99_CEILING = 2.0 if QUICK else 0.5
RELOAD_CLIENTS = 4
RELOAD_PER_CLIENT = 2_500 if QUICK else 50_000
RELOAD_PUBLISH_GAP = 0.05 if QUICK else 0.3
VERSION_FACTORS = (1.0, 1.25, 1.5, 2.0)


@pytest.fixture(scope="module")
def baseline_report():
    backend = SimulatedBackend(dunnington(), seed=42, noise=0.0)
    return ServetSuite(backend).run()


def scaled_report(base: ServetReport, factor: float) -> ServetReport:
    """Scale every communication latency: distinguishable versions."""
    d = copy.deepcopy(base.to_dict())
    for layer in d["comm_layers"]:
        layer["latency"] *= factor
        layer["characterization"] = [
            [size, lat * factor, bw / factor]
            for size, lat, bw in layer["characterization"]
        ]
        layer["scalability"] = [
            [n, lat * factor, ratio] for n, lat, ratio in layer["scalability"]
        ]
    return ServetReport.from_dict(d)


def reference_answers(report: ServetReport, pool) -> list[dict]:
    advisor = Advisor(report)
    return [answer(advisor, q) for q in pool]


def zipf_cumulative(n: int) -> tuple[list[float], float]:
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(n)]
    cumulative = list(itertools.accumulate(weights))
    return cumulative, cumulative[-1]


def drive_load(
    daemon: TuningDaemon,
    pool,
    refs_by_version: dict[int, list[dict]],
    clients: int,
    per_client: int,
    window: int,
    seed: int,
    stop_check=None,
) -> dict:
    """Hammer the daemon with zipf-skewed pipelined clients.

    The request frame for pool entry *i* is encoded once with id ``i``;
    responses are verified against ``refs_by_version[version][id]``, so
    verification is a dict lookup, not a JSON re-encode.  Returns wall
    time, throughput, and the mismatch count (which must be 0).
    """
    frames = [encode_frame(query_request(q, i)) for i, q in enumerate(pool)]
    cumulative, total_weight = zipf_cumulative(len(pool))
    mismatches = [0] * clients
    served = [0] * clients
    barrier = threading.Barrier(clients + 1)

    def client(index: int) -> None:
        rng = random.Random(seed + index)
        picks = [
            bisect.bisect_left(cumulative, rng.random() * total_weight)
            for _ in range(per_client)
        ]
        sock = socket.create_connection((daemon.host, daemon.port))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        rfile = sock.makefile("rb")
        bad = done = 0
        barrier.wait()
        for offset in range(0, per_client, window):
            chunk = picks[offset : offset + window]
            sock.sendall(b"".join(frames[i] for i in chunk))
            for _ in chunk:
                response = read_frame(rfile.read)
                refs = refs_by_version.get(response.get("version"))
                if refs is None or response.get("answer") != refs[response["id"]]:
                    bad += 1
                done += 1
            if stop_check is not None and stop_check():
                break
        mismatches[index] = bad
        served[index] = done
        sock.close()

    threads = [
        threading.Thread(target=client, args=(i,), name=f"load-client-{i}")
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    queries = sum(served)
    return {
        "clients": clients,
        "queries": queries,
        "wall_seconds": wall,
        "queries_per_second": queries / wall if wall else 0.0,
        "mismatches": sum(mismatches),
    }


def warm_up(daemon: TuningDaemon, pool, refs) -> None:
    """One full pool pass so the timed run measures the warm cache."""
    result = drive_load(
        daemon, pool, {daemon.version: refs}, clients=1,
        per_client=len(pool), window=len(pool), seed=97,
    )
    assert result["mismatches"] == 0


def daemon_latency(daemon: TuningDaemon) -> dict:
    histogram = daemon.metrics.histogram("serviced.request_latency_seconds")
    return {
        "p50": histogram.percentile(0.50),
        "p99": histogram.percentile(0.99),
    }


def test_serviced_load(baseline_report, figure, tmp_path):
    pool = default_query_pool(baseline_report)
    refs = reference_answers(baseline_report, pool)

    # -- 1. warm wire throughput, instrumented --------------------------
    daemon = TuningDaemon(
        report=baseline_report, workers=WORKERS, batch_max=BATCH_MAX
    ).start()
    warm_up(daemon, pool, refs)
    steady = drive_load(
        daemon, pool, {0: refs}, CLIENTS, PER_CLIENT, WINDOW, seed=1234
    )
    steady.update(daemon_latency(daemon))
    stats = daemon.stats()
    steady["batch_size_mean"] = stats["daemon"]["histograms"][
        "serviced.batch_size"
    ]["mean"]
    steady["coalesced"] = stats["daemon"]["counters"].get(
        "serviced.coalesced_requests", 0
    )
    daemon.drain()

    # -- 2. instrumentation overhead ------------------------------------
    # Interleaved on/off pairs, the order flipped in every other pair,
    # so host drift and warm-up hit both modes alike; the verdict is
    # the median pair overhead, not a best-of-N ratio.
    daemons = {
        instrument: TuningDaemon(
            report=baseline_report,
            workers=WORKERS,
            batch_max=BATCH_MAX,
            instrument=instrument,
        ).start()
        for instrument in (True, False)
    }
    for dm in daemons.values():
        warm_up(dm, pool, refs)
    pair_rates: list[dict[bool, float]] = []
    for pair_index in range(OVERHEAD_PAIRS):
        order = (True, False) if pair_index % 2 == 0 else (False, True)
        rates: dict[bool, float] = {}
        for instrument in order:
            segment = drive_load(
                daemons[instrument], pool, {0: refs}, OVERHEAD_CLIENTS,
                OVERHEAD_SEGMENT // OVERHEAD_CLIENTS, WINDOW,
                seed=50 + pair_index,
            )
            assert segment["mismatches"] == 0
            rates[instrument] = segment["queries_per_second"]
        pair_rates.append(rates)
    for dm in daemons.values():
        dm.drain()
    pair_overheads = [1.0 - r[True] / r[False] for r in pair_rates]
    q1, overhead, q3 = statistics.quantiles(pair_overheads, n=4)
    overhead_table = ascii_table(
        ["pair", "order", "on q/s", "off q/s", "overhead"],
        [
            (str(index), "on, off" if index % 2 == 0 else "off, on",
             f"{rates[True]:,.0f}", f"{rates[False]:,.0f}",
             f"{pair_overhead:+.1%}")
            for index, (rates, pair_overhead)
            in enumerate(zip(pair_rates, pair_overheads))
        ],
        title=f"Instrumentation overhead: median {overhead:+.1%}, quartiles "
        f"{q1:+.1%} .. {q3:+.1%} (ceiling {OVERHEAD_CEILING:.0%})",
    )

    # -- 3. hot-reload under load ---------------------------------------
    backend = SimulatedBackend(dunnington(), seed=42, noise=0.0)
    fingerprint = fingerprint_of(backend)
    reports = [scaled_report(baseline_report, f) for f in VERSION_FACTORS]
    refs_by_version = {
        index: reference_answers(report, pool)
        for index, report in enumerate(reports, start=1)
    }
    registry = ReportRegistry(tmp_path / "registry")
    registry.put(fingerprint, reports[0])
    reload_daemon = TuningDaemon(
        registry=registry, workers=WORKERS, batch_max=BATCH_MAX,
        poll_interval=0.02,
    ).start()
    warm_up(reload_daemon, pool, refs_by_version[1])
    published = threading.Event()

    def publisher():
        for report in reports[1:]:
            time.sleep(RELOAD_PUBLISH_GAP)
            registry.put(fingerprint, report)
        published.set()

    publisher_thread = threading.Thread(target=publisher)
    publisher_thread.start()
    reload_run = drive_load(
        reload_daemon, pool, refs_by_version, RELOAD_CLIENTS,
        RELOAD_PER_CLIENT, WINDOW, seed=777,
        stop_check=published.is_set,
    )
    publisher_thread.join()
    reload_daemon.check_reload()  # deterministic final swap
    reload_run.update(daemon_latency(reload_daemon))
    reload_run["reloads"] = reload_daemon.metrics.value(
        "counter", "serviced.reloads"
    )
    final_version = reload_daemon.version
    reload_daemon.drain()

    # -- report -----------------------------------------------------------
    table = ascii_table(
        ["phase", "queries", "q/s", "p99", "mismatches"],
        [
            ("steady state (instrumented)", f"{steady['queries']:,}",
             f"{steady['queries_per_second']:,.0f}",
             f"{steady['p99'] * 1e3:.1f} ms", str(steady["mismatches"])),
            ("metrics off (ceiling, median pair)",
             f"{OVERHEAD_PAIRS * OVERHEAD_SEGMENT:,}",
             f"{statistics.median(r[False] for r in pair_rates):,.0f}", "-", "0"),
            ("hot-reload storm", f"{reload_run['queries']:,}",
             f"{reload_run['queries_per_second']:,.0f}",
             f"{reload_run['p99'] * 1e3:.1f} ms",
             str(reload_run["mismatches"])),
        ],
        title=f"Serving daemon over loopback ({CLIENTS} clients, "
        f"window {WINDOW}, batch_max {BATCH_MAX}, zipf s={ZIPF_S})",
    )
    figure("Serving daemon load", table + "\n\n" + overhead_table)

    payload = {}
    if BENCH_PATH.exists():
        try:
            payload = json.loads(BENCH_PATH.read_text())
        except json.JSONDecodeError:
            payload = {}
    payload["serviced"] = {
        "benchmark": "serviced_load",
        "quick": QUICK,
        "zipf_s": ZIPF_S,
        "workers": WORKERS,
        "batch_max": BATCH_MAX,
        "window": WINDOW,
        "steady": steady,
        "instrumentation": {
            "queries_per_second_on": [r[True] for r in pair_rates],
            "queries_per_second_off": [r[False] for r in pair_rates],
            "pair_overheads": pair_overheads,
            "overhead": overhead,
            "overhead_q1": q1,
            "overhead_q3": q3,
            "segment_queries": OVERHEAD_SEGMENT,
            "segment_clients": OVERHEAD_CLIENTS,
            "pairs": OVERHEAD_PAIRS,
        },
        "hot_reload": {
            **reload_run,
            "versions_published": len(VERSION_FACTORS),
            "final_version": final_version,
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    # Acceptance bars (ISSUE, perf_opt): warm floor, exactness,
    # near-free instrumentation, bounded tail through reloads.
    assert steady["mismatches"] == 0
    assert steady["queries"] == CLIENTS * PER_CLIENT
    if not QUICK:
        assert steady["queries"] >= 1_000_000
    assert steady["queries_per_second"] >= QPS_FLOOR, (
        f"{steady['queries_per_second']:,.0f} q/s below the "
        f"{QPS_FLOOR:,} floor"
    )
    assert overhead <= OVERHEAD_CEILING, (
        f"instrumentation costs {overhead:.1%} in the median of "
        f"{OVERHEAD_PAIRS} interleaved pairs (quartiles {q1:.1%} .. {q3:.1%})"
    )
    assert reload_run["mismatches"] == 0, "torn or stale answers under reload"
    assert reload_run["reloads"] >= len(VERSION_FACTORS) - 1
    assert final_version == len(VERSION_FACTORS)
    assert reload_run["p99"] <= RELOAD_P99_CEILING, (
        f"p99 {reload_run['p99']:.3f}s during hot-reload"
    )
