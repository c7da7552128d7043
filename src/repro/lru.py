"""The bounded LRU map behind the package's shared caches.

A thread-safe least-recently-used map with a fixed capacity.  Every
instance counts its traffic the same way — ``stats()`` returns
``{hits, misses, evictions, entries}`` — so the traversal outcome and
comm caches, the workload-profile memo and the tuning service's answer
cache all report alike.  Entries never expire: every cached value is a
pure function of its key (and, for the answer cache, of an immutable
report that a reload replaces together with its cache).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Hashable

from .errors import ConfigurationError

__all__ = ["LRUCache"]


class LRUCache:
    """Bounded, thread-safe LRU map.

    ``get`` returns ``None`` on a miss, so ``None`` is not a storable
    value.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError("cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable):
        """The value stored under ``key``, or None (counts hit/miss)."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value) -> None:
        """Store ``value``, evicting the least recently used if full."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.evictions = 0

    def stats(self) -> dict[str, int]:
        """Snapshot of ``{hits, misses, evictions, entries}``."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
            }
