"""The bounded LRU map behind the package's shared caches.

A thread-safe least-recently-used map with a fixed capacity and an
optional per-entry time-to-live read from an injectable clock.  Every
instance counts its traffic the same way — ``stats()`` returns
``{hits, misses, evictions, expirations, entries}`` — so the traversal
outcome and comm caches, the workload-profile memo and the tuning
service's answer cache all report alike.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Hashable

from .errors import ConfigurationError

__all__ = ["LRUCache"]


class LRUCache:
    """Bounded, thread-safe LRU map with an optional time-to-live.

    ``get`` returns ``None`` on a miss, so ``None`` is not a storable
    value.  An entry older than ``ttl`` seconds (by ``clock``) counts as
    an expiration and a miss, and is dropped.  ``ttl=None`` disables
    expiry.
    """

    def __init__(
        self,
        capacity: int,
        ttl: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError("cache capacity must be >= 1")
        if ttl is not None and ttl <= 0:
            raise ConfigurationError("cache ttl must be > 0 (or None)")
        self.capacity = capacity
        self.ttl = ttl
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        #: key -> time stored, kept only when entries can expire.  Values
        #: are not wrapped with their stamp: one extra tuple per entry
        #: raised the 8-node Finis Terrae suite's peak RSS by about 10 MB.
        self._stamps: dict[Hashable, float] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable):
        """The value stored under ``key``, or None (counts hit/miss)."""
        with self._lock:
            value = self._entries.get(key)
            if (
                value is not None
                and self.ttl is not None
                and self._clock() - self._stamps[key] > self.ttl
            ):
                del self._entries[key]
                del self._stamps[key]
                self.expirations += 1
                value = None
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value) -> None:
        """Store ``value``, evicting the least recently used if full."""
        with self._lock:
            if self.ttl is not None:
                self._stamps[key] = self._clock()
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                evicted, _ = self._entries.popitem(last=False)
                self._stamps.pop(evicted, None)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._stamps.clear()
            self.hits = self.misses = self.evictions = self.expirations = 0

    def stats(self) -> dict[str, int]:
        """Snapshot of ``{hits, misses, evictions, expirations, entries}``."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "entries": len(self._entries),
            }
