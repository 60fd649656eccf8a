"""One thread-safe, bounded LRU map with hit/miss/eviction counters.

Every memo in the repository is this class: the estimation service's
signature-keyed result cache, the exact executor's result cache and
per-(table, predicate-set) scan memo, the materialized samples' bitmap cache
(the only bitmap memo) and the featurizer's cache of compiled element keys.
All of them key on immutable snapshots (a database, a sample set, a model
generation), so an entry never goes stale; the bound only caps memory.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Iterable

__all__ = ["LRU"]

_MISSING = object()


class LRU:
    """A bounded least-recently-used mapping.

    All operations are guarded by one lock: lookups, inserts and the LRU
    reordering are tiny next to the work a hit saves, and a single lock keeps
    the hit/miss/eviction counters exactly consistent with the contents.
    Stored values must not be ``None`` (a lookup returns ``None`` on a miss).
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> Any:
        """The cached value for ``key``, recording a hit or a miss."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def get_many(self, keys: Iterable[Hashable]) -> list[Any]:
        """:meth:`get` for each key in order, under one lock acquisition.

        Values (``None`` for a miss), hit/miss counters and LRU order end up
        exactly as a loop of :meth:`get` calls would leave them; a fan-out of
        lookups just pays for the lock once.
        """
        values = []
        with self._lock:
            entries = self._entries
            for key in keys:
                value = entries.get(key, _MISSING)
                if value is _MISSING:
                    self._misses += 1
                    values.append(None)
                else:
                    entries.move_to_end(key)
                    self._hits += 1
                    values.append(value)
        return values

    def peek(self, key: Hashable) -> Any:
        """Like :meth:`get` but without touching LRU order or counters.

        For internal re-checks that are not request traffic (e.g. a service
        batch re-checking coalesced queries an earlier batch may have just
        answered), so they do not skew the hit rate.
        """
        with self._lock:
            value = self._entries.get(key, _MISSING)
            return None if value is _MISSING else value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the LRU entry if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            self._entries[key] = value
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry; the counters keep counting."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """One consistent snapshot of size and counters (health endpoints)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return self.peek(key) is not None

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    @property
    def evictions(self) -> int:
        with self._lock:
            return self._evictions
