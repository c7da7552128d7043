"""Unit tests for the package's one bounded LRU map (``repro.lru``)."""

import threading

from repro.lru import LRUCache


def test_stats_count_every_outcome():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # hit
    cache.put("c", 3)  # evicts "b"
    assert cache.get("b") is None  # miss
    assert cache.get("d") is None  # miss
    assert cache.stats() == {
        "hits": 1,
        "misses": 2,
        "evictions": 1,
        "entries": 2,
    }


def test_put_refreshes_recency_and_age():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)  # "a" is now the most recent
    cache.put("c", 3)  # so "b" is the victim
    assert cache.get("a") == 10
    assert cache.get("b") is None
    assert cache.get("c") == 3
    assert cache.stats()["evictions"] == 1


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
