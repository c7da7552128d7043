"""Unit tests for the tuning daemon: serving, batching, control, drain.

Everything runs over real loopback sockets against a report-backed
daemon (no registry, so no watcher thread) — the hot-reload behaviour
has its own integration drill in
``tests/integration/test_serviced_reload.py``.
"""

import os
import socket
import sys
import struct
import threading
import time

import pytest

from repro.autotune import Advisor
from repro.errors import ServicedError
from repro.service.server import (
    MatmulTileQuery,
    TileQuery,
    answer,
    default_query_pool,
)
from repro.serviced import ServicedClient, TuningDaemon
from repro.serviced.protocol import encode_frame, query_request, read_frame


@pytest.fixture(scope="module")
def daemon(dunnington_report):
    with TuningDaemon(report=dunnington_report, workers=2) as d:
        yield d


@pytest.fixture
def client(daemon):
    with ServicedClient(daemon.host, daemon.port) as c:
        yield c


# -- serving correctness -------------------------------------------------


def test_every_pool_query_matches_uncached_reference(daemon, client, dunnington_report):
    reference = Advisor(dunnington_report)
    for query in default_query_pool(dunnington_report):
        assert client.query(query) == answer(reference, query)


def test_query_versioned_reports_file_snapshot(client):
    answer_dict, version = client.query_versioned(MatmulTileQuery(level=1))
    assert answer_dict["side"] > 0
    assert version == 0  # report-backed daemon serves version 0


def test_pipelined_query_many_lines_up(daemon, client, dunnington_report):
    pool = default_query_pool(dunnington_report)
    reference = Advisor(dunnington_report)
    results = client.query_many(pool * 3)
    assert len(results) == 3 * len(pool)
    for query, (got, _version) in zip(pool * 3, results):
        assert got == answer(reference, query)


def test_ping_reports_version_and_digest(client, daemon):
    pong = client.ping()
    assert pong["version"] == 0
    assert pong["digest"] == daemon.digest
    assert pong["draining"] is False


def test_stats_exposes_daemon_and_service_metrics(client, dunnington_report):
    client.query(TileQuery(level=1))
    stats = client.stats()
    assert stats["version"] == 0
    assert stats["service"]["queries"] >= 1
    counters = stats["daemon"]["counters"]
    assert counters['serviced.requests{kind="query"}'] >= 1
    assert counters['serviced.requests{kind="stats"}'] >= 1
    assert "serviced.request_latency_seconds" in stats["daemon"]["histograms"]


def test_batch_coalesces_identical_queries(dunnington_report):
    # White-box: hand one worker batch of 12 identical queries straight
    # to _process_batch — they must collapse to one service lookup, and
    # every client still gets its own response frame.
    from repro.serviced.daemon import _Connection
    from repro.serviced.protocol import read_frame

    d = TuningDaemon(report=dunnington_report, workers=1, batch_max=32)
    left, right = socket.socketpair()
    try:
        conn = _Connection(right)
        query = MatmulTileQuery(level=2)
        batch = [(conn, rid, query, 0.0) for rid in range(12)]
        for item in batch:
            d._queue.put(item)
        d._process_batch(batch)
        rfile = left.makefile("rb")
        responses = [read_frame(rfile.read) for _ in range(12)]
        assert sorted(r["id"] for r in responses) == list(range(12))
        assert len({str(r["answer"]) for r in responses}) == 1
        assert all(r["version"] == 0 for r in responses)
        assert d.metrics.value("counter", "service.queries", result="miss") == 1
        assert d.metrics.value("counter", "serviced.coalesced_requests") == 11
        assert d.metrics.value("histogram", "serviced.batch_size") == 1
    finally:
        left.close()
        right.close()


def test_error_answers_keep_worker_alive(client):
    # An out-of-range query must error the one request, not the daemon.
    with pytest.raises(ServicedError):
        client.query(TileQuery(level=99))
    assert client.query(MatmulTileQuery(level=1))["side"] > 0


def test_unknown_request_kind_is_diagnosed(daemon):
    with ServicedClient(daemon.host, daemon.port) as c:
        c._send(encode_frame({"kind": "teleport", "id": 1}))
        response = c._read_response()
    assert response["ok"] is False
    assert "unknown request kind" in response["error"]


def test_malformed_frame_gets_error_then_hangup(daemon):
    sock = socket.create_connection((daemon.host, daemon.port))
    rfile = sock.makefile("rb")
    body = b"{broken"
    sock.sendall(struct.pack(">I", len(body)) + body)
    header = rfile.read(4)
    (length,) = struct.unpack(">I", header)
    assert b"malformed frame payload" in rfile.read(length)
    assert rfile.read(1) == b""  # daemon hung up after diagnosing
    sock.close()


def test_oversize_frame_rejected_without_allocation(daemon):
    sock = socket.create_connection((daemon.host, daemon.port))
    rfile = sock.makefile("rb")
    sock.sendall(struct.pack(">I", (1 << 20) + 1))
    header = rfile.read(4)
    (length,) = struct.unpack(">I", header)
    assert b"exceeds" in rfile.read(length)
    sock.close()


# -- lifecycle -----------------------------------------------------------


def test_constructor_validates_shape(dunnington_report):
    with pytest.raises(ServicedError, match="exactly one"):
        TuningDaemon()
    with pytest.raises(ServicedError, match="workers"):
        TuningDaemon(report=dunnington_report, workers=0)
    with pytest.raises(ServicedError, match="batch_max"):
        TuningDaemon(report=dunnington_report, batch_max=0)


def test_drain_via_control_request_stops_daemon(dunnington_report):
    d = TuningDaemon(report=dunnington_report, workers=2).start()
    with ServicedClient(d.host, d.port) as c:
        c.drain()
    assert d.wait(timeout=10.0)
    assert d.draining


def test_drain_answers_inflight_then_refuses_new(dunnington_report):
    # Queries pipelined *before* the drain request on the same
    # connection must all be answered; queries after it are refused.
    d = TuningDaemon(report=dunnington_report, workers=1, batch_max=4).start()
    reference = Advisor(dunnington_report)
    pool = default_query_pool(dunnington_report)
    with ServicedClient(d.host, d.port) as c:
        results = c.query_many(pool)
        for query, (got, _v) in zip(pool, results):
            assert got == answer(reference, query)
        c.drain()
    assert d.wait(timeout=10.0)
    with pytest.raises(ServicedError, match="cannot connect|closed|send"):
        with ServicedClient(d.host, d.port) as late:
            late.query(pool[0])


def test_drain_is_idempotent(dunnington_report):
    d = TuningDaemon(report=dunnington_report).start()
    d.drain(wait=False)
    d.drain(wait=True)
    d.drain(wait=True)
    assert d.wait(0)


def test_concurrent_clients_all_match(daemon, dunnington_report):
    pool = default_query_pool(dunnington_report)
    reference = {str(q): answer(Advisor(dunnington_report), q) for q in pool}
    mismatches = []

    def hammer(seed):
        import random

        rng = random.Random(seed)
        with ServicedClient(daemon.host, daemon.port) as c:
            picks = [rng.choice(pool) for _ in range(40)]
            for query, (got, _v) in zip(picks, c.query_many(picks)):
                if got != reference[str(query)]:
                    mismatches.append(query)

    threads = [threading.Thread(target=hammer, args=(s,)) for s in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not mismatches


def test_uninstrumented_daemon_serves_and_skips_metrics(dunnington_report):
    with TuningDaemon(report=dunnington_report, instrument=False) as d:
        with ServicedClient(d.host, d.port) as c:
            assert c.query(MatmulTileQuery(level=1))["side"] > 0
            stats = c.stats()
    assert "daemon" not in stats
    assert d.metrics.value("counter", "serviced.requests", kind="query") == 0


# -- hot reload ----------------------------------------------------------


def test_reload_labels_report_with_the_version_it_loaded(
    tmp_path, dunnington_backend, dunnington_report
):
    # A put that lands while check_reload reads the newest file must not
    # pair that file's report with the newer version number.  The daemon
    # is never started, so nothing but check_reload touches the registry.
    from repro.core.report import ServetReport
    from repro.service import ReportRegistry, fingerprint_of

    fingerprint = fingerprint_of(dunnington_backend)

    def variant(tag):
        return ServetReport.from_dict({**dunnington_report.to_dict(), "system": tag})

    registry = ReportRegistry(tmp_path / "registry")
    registry.put(fingerprint, variant("v1"))
    daemon = TuningDaemon(registry=registry)
    registry.put(fingerprint, variant("v2"))
    load = registry._load_verified

    def load_then_publish(path, quarantined):
        loaded = load(path, quarantined)
        registry._load_verified = load  # publish once, mid-load
        registry.put(fingerprint, variant("v3"))
        return loaded

    registry._load_verified = load_then_publish
    assert daemon.check_reload()
    assert (daemon.version, daemon.report.system) == (2, "v2")
    assert daemon.check_reload()
    assert (daemon.version, daemon.report.system) == (3, "v3")


# -- failure drills ------------------------------------------------------


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _settle(check, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not check():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_client_hangup_mid_batch_leaves_no_trace(dunnington_report):
    """A client that hangs up with its pipelined batch still in flight
    must not disturb another client's answers, and must leave no reader
    thread, single-flight entry or open socket behind."""
    pool = default_query_pool(dunnington_report)
    reference = Advisor(dunnington_report)
    with TuningDaemon(report=dunnington_report, workers=2, batch_max=8) as d:
        flights = d._snapshot.service.single_flight
        threads, fds = threading.active_count(), _open_fds()
        threads_at_start = len(d._threads)

        for _ in range(3):
            hangup = socket.create_connection((d.host, d.port))
            batch = b"".join(
                encode_frame(query_request(q, i)) for i, q in enumerate(pool * 4)
            )
            hangup.sendall(batch)
            with ServicedClient(d.host, d.port) as steady:
                hangup.close()  # gone before its answers come back
                got = steady.query_many(pool)
            assert [g for g, _v in got] == [answer(reference, q) for q in pool]

        assert _settle(lambda: threading.active_count() == threads)
        assert _settle(lambda: flights.live() == 0)
        assert _settle(lambda: _open_fds() == fds), (_open_fds(), fds)
        with d._conns_lock:
            assert d._conns == []
        assert len(d._threads) == threads_at_start


def _replies_until_close(sock: socket.socket) -> list[dict]:
    """Every frame the daemon sends on ``sock`` until it hangs up.

    A reset or a frame cut short by the hangup also ends the stream:
    the daemon closes while the frames it never read still sit in its
    receive buffer, so its close may reach the client as a reset.
    """
    rfile = sock.makefile("rb")
    replies = []
    try:
        while (frame := read_frame(rfile.read)) is not None:
            replies.append(frame)
    except (ConnectionResetError, ServicedError):
        pass
    finally:
        rfile.close()
    return replies


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_malformed_frame_mid_batch_leaves_no_trace(dunnington_report):
    """A malformed frame in the middle of a pipelined batch ends that
    connection with a typed error reply, after every frame before it
    has been answered, correctly; none after it is read.  Another
    client's answers stay correct, and no reader thread, single-flight
    entry or open socket is left behind."""
    pool = default_query_pool(dunnington_report)
    reference = Advisor(dunnington_report)
    expected = {i: answer(reference, q) for i, q in enumerate(pool * 4)}
    good = [encode_frame(query_request(q, i)) for i, q in enumerate(pool * 4)]
    half = len(good) // 2
    body = b"{broken"
    batch = b"".join(
        [*good[:half], struct.pack(">I", len(body)) + body, *good[half:]]
    )
    # More workers than cores and a short switch interval stress the
    # per-connection count of unanswered queries; a lost update either
    # drops answers or hangs the hangup past the socket timeout.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with TuningDaemon(report=dunnington_report, workers=4, batch_max=8) as d:
            flights = d._snapshot.service.single_flight
            threads, fds = threading.active_count(), _open_fds()
            threads_at_start = len(d._threads)

            for _ in range(3):
                bad = socket.create_connection((d.host, d.port), timeout=30)
                bad.sendall(batch)
                with ServicedClient(d.host, d.port) as steady:
                    got = steady.query_many(pool)
                assert [g for g, _v in got] == [answer(reference, q) for q in pool]
                replies = _replies_until_close(bad)
                bad.close()
                errors = [r for r in replies if not r["ok"]]
                assert len(errors) == 1
                assert errors[0]["id"] is None
                assert "malformed frame payload" in errors[0]["error"]
                answered = {r["id"]: r["answer"] for r in replies if r["ok"]}
                # Every frame sent before the bad one, and none after it.
                assert answered == {i: expected[i] for i in range(half)}

            assert _settle(lambda: threading.active_count() == threads)
            assert _settle(lambda: flights.live() == 0)
            assert _settle(lambda: _open_fds() == fds), (_open_fds(), fds)
            with d._conns_lock:
                assert d._conns == []
            assert len(d._threads) == threads_at_start
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("payload", ["5", "null", "{broken"])
def test_version_corrupted_before_its_load_leaves_no_trace(
    tmp_path, dunnington_backend, dunnington_report, payload
):
    """A version file corrupted between the watcher's ``latest_version``
    probe and the load is quarantined: the daemon keeps serving the old
    version, the watcher lives on and swaps in the next good version,
    and no reader thread, single-flight entry or open socket is left
    behind."""
    from repro.core.report import ServetReport
    from repro.service import ReportRegistry, fingerprint_of

    fingerprint = fingerprint_of(dunnington_backend)

    def variant(tag):
        return ServetReport.from_dict({**dunnington_report.to_dict(), "system": tag})

    registry = ReportRegistry(tmp_path / "registry")
    registry.put(fingerprint, variant("v1"))
    v2 = registry.root / fingerprint.digest / "v000002.json"
    probe = registry.latest_version
    corrupted = threading.Event()

    def probe_then_corrupt(digest):
        latest = probe(digest)
        if latest == 2 and not corrupted.is_set():
            v2.write_text(payload)
            corrupted.set()
        return latest

    pool = default_query_pool(dunnington_report)
    reference = [answer(Advisor(dunnington_report), q) for q in pool]
    with TuningDaemon(registry=registry, workers=2, poll_interval=0.01) as d:
        threads, fds = threading.active_count(), _open_fds()
        threads_at_start = len(d._threads)
        watcher = next(t for t in d._threads if t.name == "serviced-watcher")

        registry.latest_version = probe_then_corrupt
        registry.put(fingerprint, variant("v2"))
        assert corrupted.wait(10)
        assert _settle(lambda: v2.with_name(v2.name + ".quarantined").exists())
        time.sleep(0.05)  # a few more polls over the quarantined version
        assert watcher.is_alive()
        with ServicedClient(d.host, d.port) as c:
            assert c.ping()["version"] == 1
            got = c.query_many(pool)
        assert got == [(a, 1) for a in reference]
        assert d.report.system == "v1"

        # The quarantined number is free again, so the next put reuses it.
        good = registry.put(fingerprint, variant("v3")).version
        assert _settle(lambda: d.report.system == "v3")
        with ServicedClient(d.host, d.port) as c:
            got = c.query_many(pool)
        assert got == [(a, good) for a in reference]

        assert watcher.is_alive()
        assert _settle(lambda: threading.active_count() == threads)
        assert _settle(lambda: d._snapshot.service.single_flight.live() == 0)
        assert _settle(lambda: _open_fds() == fds), (_open_fds(), fds)
        with d._conns_lock:
            assert d._conns == []
        assert len(d._threads) == threads_at_start
