"""Unit tests for the package's one bounded LRU map (``repro.lru``)."""

import threading

from repro.lru import LRUCache


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_stats_count_every_outcome():
    clock = FakeClock()
    cache = LRUCache(2, ttl=5.0, clock=clock)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # hit
    cache.put("c", 3)  # evicts "b"
    assert cache.get("b") is None  # miss
    clock.now = 6.0
    assert cache.get("a") is None  # expired: an expiration and a miss
    assert cache.stats() == {
        "hits": 1,
        "misses": 2,
        "evictions": 1,
        "expirations": 1,
        "entries": 1,
    }


def test_put_refreshes_recency_and_age():
    clock = FakeClock()
    cache = LRUCache(2, ttl=5.0, clock=clock)
    cache.put("a", 1)
    cache.put("b", 2)
    clock.now = 4.0
    cache.put("a", 10)  # "a" is now the most recent and restamped
    cache.put("c", 3)  # so "b" is the victim
    clock.now = 8.0
    assert cache.get("a") == 10
    assert cache.get("b") is None
    assert cache.stats()["expirations"] == 0


def test_no_ttl_never_reads_the_clock():
    def clock():
        raise AssertionError("a cache without a ttl must not read the clock")

    cache = LRUCache(1, clock=clock)
    cache.put("k", "v")
    assert cache.get("k") == "v"


def test_concurrent_traffic_keeps_the_bound_and_the_counts():
    cache = LRUCache(16)
    barrier = threading.Barrier(4)

    def client(offset: int) -> None:
        barrier.wait()
        for i in range(500):
            key = (offset + i) % 40
            if cache.get(key) is None:
                cache.put(key, key)

    threads = [threading.Thread(target=client, args=(10 * n,)) for n in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stats = cache.stats()
    assert stats["entries"] == len(cache) <= 16
    assert stats["hits"] + stats["misses"] == 4 * 500
