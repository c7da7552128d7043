"""Unit tests for the tuning service: cache, answers, metrics, harness."""

import threading

import pytest

from repro.autotune import Advisor
from repro.errors import ConfigurationError, ReproError, ServiceError
from repro.lru import LRUCache
from repro.service import server
from repro.service.server import (
    AggregationQuery,
    CommLatencyQuery,
    CoScheduleQuery,
    MatmulTileQuery,
    SingleFlightTable,
    StreamingCoresQuery,
    TileQuery,
    TuningService,
    answer,
    default_query_pool,
    query_from_spec,
    run_harness,
)


# -- answer cache (LRU) --------------------------------------------------


def test_cache_hit_miss():
    cache = LRUCache(4)
    assert cache.get("k") is None
    cache.put("k", 42)
    assert cache.get("k") == 42


def test_cache_evicts_least_recently_used():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")  # refresh "a"; "b" becomes the LRU victim
    cache.put("c", 3)
    assert cache.get("a") == 1
    assert cache.get("b") is None
    assert cache.get("c") == 3
    assert cache.evictions == 1
    assert len(cache) == 2


def test_cache_rejects_bad_shape():
    with pytest.raises(ConfigurationError):
        LRUCache(0)


# -- answers and metrics -------------------------------------------------


def test_answers_match_uncached_advisor(dunnington_report):
    service = TuningService(dunnington_report)
    reference = Advisor(dunnington_report)
    for query in default_query_pool(dunnington_report):
        assert service.query(query) == answer(reference, query)


def test_answers_are_json_scalars(dunnington_report):
    import json

    service = TuningService(dunnington_report)
    for query in default_query_pool(dunnington_report):
        json.dumps(service.query(query))  # must not raise


def test_unknown_query_type_rejected(dunnington_report):
    with pytest.raises(ServiceError, match="unknown query type"):
        answer(Advisor(dunnington_report), object())


def test_metrics_count_hits_and_misses(dunnington_report):
    service = TuningService(dunnington_report)
    query = MatmulTileQuery(level=1)
    service.query(query)
    service.query(query)
    service.query(query)
    metrics = service.metrics()
    assert metrics["queries"] == 3
    assert metrics["misses"] == 1
    assert metrics["hits"] == 2
    assert metrics["hit_rate"] == pytest.approx(2 / 3)
    assert metrics["cache_entries"] == 1
    assert metrics["latency_p50"] >= 0.0
    assert metrics["latency_p99"] >= metrics["latency_p50"]


# -- bounded single-flight table ------------------------------------------


def single_flight_table(monkeypatch, cap, stripes=server.SINGLE_FLIGHT_STRIPES):
    monkeypatch.setattr(server, "SINGLE_FLIGHT_CAP", cap)
    monkeypatch.setattr(server, "SINGLE_FLIGHT_STRIPES", stripes)
    return SingleFlightTable()


def test_single_flight_entries_recycle(monkeypatch):
    table = single_flight_table(monkeypatch, cap=8)
    with table.flight("a"):
        assert table.live() == 1
    # The entry is reclaimed the moment its last holder leaves, so a
    # stream of distinct keys never grows the table.
    for key in range(100):
        with table.flight(key):
            pass
    assert table.live() == 0
    assert table.peak <= 8
    assert table.fallbacks == 0


def test_single_flight_memory_stays_bounded_under_concurrency(monkeypatch):
    """Regression for the bound: 16 threads x 500 distinct keys each
    must never hold more than ``cap`` live entries, spilling to the
    fixed stripe array beyond that instead of growing."""
    import threading

    table = single_flight_table(monkeypatch, cap=32)
    peak_violation = []

    def churn(base):
        for i in range(500):
            with table.flight((base, i % 40)):
                if table.live() > 32:
                    peak_violation.append(table.live())

    threads = [threading.Thread(target=churn, args=(t,)) for t in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not peak_violation
    assert table.peak <= 32
    assert table.live() == 0


def test_single_flight_fallback_still_excludes(monkeypatch):
    # cap=1: the second concurrent key cannot get its own entry and must
    # take a stripe lock — correctness (mutual exclusion per stripe) is
    # preserved, and the spill is counted.
    table = single_flight_table(monkeypatch, cap=1)
    with table.flight("pinned"):
        with table.flight("spilled"):
            pass
    assert table.fallbacks == 1
    assert table.live() == 0


def test_single_flight_same_key_shares_entry(monkeypatch):
    table = single_flight_table(monkeypatch, cap=4)
    order = []
    gate = threading.Barrier(2)

    def hold():
        gate.wait()
        with table.flight("k"):
            order.append("enter")
            order.append("exit")

    threads = [threading.Thread(target=hold) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Mutual exclusion: enters and exits strictly alternate.
    assert order == ["enter", "exit", "enter", "exit"]
    assert table.peak == 1


def test_service_accepts_single_flight_cap(dunnington_report, monkeypatch):
    monkeypatch.setattr(server, "SINGLE_FLIGHT_CAP", 2)
    service = TuningService(dunnington_report)
    assert service.single_flight.cap == 2
    for query in default_query_pool(dunnington_report):
        service.query(query)
    assert service.single_flight.live() == 0
    assert service.single_flight.peak <= 2


# -- the deterministic concurrent harness --------------------------------


def test_harness_small_run_no_mismatches(dunnington_report):
    service = TuningService(dunnington_report)
    result = run_harness(service, clients=3, queries_per_client=60, seed=5)
    assert result.queries == 180
    assert result.mismatches == 0
    assert result.hit_rate > 0.5
    assert result.queries_per_second > 0


def test_harness_is_deterministic_in_shape(dunnington_report):
    a = run_harness(TuningService(dunnington_report), clients=2,
                    queries_per_client=40, seed=9)
    b = run_harness(TuningService(dunnington_report), clients=2,
                    queries_per_client=40, seed=9)
    # Same seed deals the same schedule, so the cache sees the same
    # distinct-key set and both runs end with identical hit counts.
    assert a.metrics["hits"] == b.metrics["hits"]
    assert a.metrics["misses"] == b.metrics["misses"]


def test_harness_validates_shape(dunnington_report):
    service = TuningService(dunnington_report)
    with pytest.raises(ServiceError):
        run_harness(service, clients=0)


# -- single-flight error paths -------------------------------------------


def test_single_flight_releases_entry_when_body_raises(monkeypatch):
    """An exception inside the critical section must not leak the entry.

    The per-key lock and its refcounted table entry are acquired before
    the protected computation runs; if the computation raises, both
    must be released — otherwise the key's entry (and eventually the
    table's cap) leaks one slot per failing query.
    """
    table = single_flight_table(monkeypatch, cap=4)
    with pytest.raises(RuntimeError, match="boom"):
        with table.flight("key"):
            raise RuntimeError("boom")
    assert table.live() == 0
    # The same key is immediately usable again, without deadlock.
    with table.flight("key"):
        assert table.live() == 1
    assert table.live() == 0


def test_single_flight_waiters_recover_from_leader_error(monkeypatch):
    """Racers blocked behind a failing holder run and clean up."""
    table = single_flight_table(monkeypatch, cap=4)
    outcomes: list[str] = []
    leader_in, release_leader = threading.Event(), threading.Event()

    def leader():
        try:
            with table.flight("key"):
                leader_in.set()
                release_leader.wait(timeout=5)
                raise RuntimeError("leader failed")
        except RuntimeError:
            outcomes.append("leader-raised")

    def waiter():
        with table.flight("key"):
            outcomes.append("waiter-ran")

    threads = [threading.Thread(target=leader)]
    threads[0].start()
    assert leader_in.wait(timeout=5)
    threads += [threading.Thread(target=waiter) for _ in range(3)]
    for t in threads[1:]:
        t.start()
    release_leader.set()
    for t in threads:
        t.join(timeout=5)
        assert not t.is_alive(), "single-flight deadlocked after error"
    assert outcomes.count("leader-raised") == 1
    assert outcomes.count("waiter-ran") == 3
    assert table.live() == 0


def test_single_flight_fallback_path_releases_on_error(monkeypatch):
    """Errors on the striped overflow path must release the stripe too."""
    table = single_flight_table(monkeypatch, cap=1, stripes=2)
    with table.flight("pinned"):  # occupies the only table slot
        with pytest.raises(ValueError):
            with table.flight("overflow"):  # degrades to a stripe
                raise ValueError("boom")
        assert table.fallbacks == 1
        # The stripe lock is free again: same overflow key re-enters.
        with table.flight("overflow"):
            pass
    assert table.live() == 0


def test_service_query_error_does_not_poison_single_flight(
    dunnington_report,
):
    """A failing answer() leaves the service fully usable."""
    service = TuningService(dunnington_report)
    bad = AggregationQuery(core_a=0, core_b=99999, n_messages=1, message_size=8)
    for _ in range(2):  # repeat: the error path must be re-runnable too
        with pytest.raises(ReproError):
            service.query(bad)
    assert service.single_flight.live() == 0
    good = TileQuery(level=1)
    assert service.query(good) == answer(Advisor(dunnington_report), good)


# -- CLI query specs -----------------------------------------------------


def test_query_from_spec_builds_each_kind():
    q = query_from_spec("tile", level=2, n_arrays=3)
    assert q == TileQuery(level=2, n_arrays=3, elem_size=8)
    q = query_from_spec("matmul-tile", level=1)
    assert q == MatmulTileQuery(level=1)
    q = query_from_spec("streaming-cores")
    assert q == StreamingCoresQuery()
    q = query_from_spec("aggregate", core_a=0, core_b=1)
    assert q == AggregationQuery(0, 1, 16, 4096)
    q = query_from_spec("latency", core_a=0, core_b=2, nbytes=128)
    assert q == CommLatencyQuery(0, 2, 128)
    bq = query_from_spec("bcast", placement=[0, 1, 2, 3])
    assert bq.placement == (0, 1, 2, 3)
    cq = query_from_spec(
        "co-schedule",
        workloads=["streaming", "zipf"],
        level=2,
        top=1,
    )
    assert cq == CoScheduleQuery(
        workloads=("streaming", "zipf"), level=2, top=1
    )
    assert query_from_spec("co-schedule", workloads=["streaming"]) == CoScheduleQuery(
        workloads=("streaming",)
    )


def test_query_from_spec_rejects_unknown_kind():
    with pytest.raises(ServiceError, match="unknown query kind"):
        query_from_spec("warp-factor")


def test_query_from_spec_names_missing_parameter():
    with pytest.raises(ServiceError, match="needs parameter"):
        query_from_spec("aggregate", core_a=0)
