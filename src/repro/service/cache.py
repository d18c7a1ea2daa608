"""LRU result cache of the serving engine.

Keys are the canonicalised query identities of :mod:`repro.service.model`
(``Request.cache_key()``); values are the canonical result tables, so a
hit is indistinguishable from a fresh execution by construction — the
differential test in ``tests/service`` asserts exactly that.  Entries
never expire: every answer comes from an immutable tree, and a stopped
tier drops its cache.

The cache keeps hit/miss/insert/eviction counters and, when given a
tracer, emits one ``SVC_CACHE_*`` event per transition so the
``service-ledger`` spec (``protocol:service-ledger``) can reconcile the
counters against the request ledger.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

from ..trace import NULL_TRACER, EventKind

__all__ = ["ResultCache", "MISS"]

#: Sentinel distinguishing "not cached" from a cached ``None``.
MISS = object()


class ResultCache:
    """Bounded mapping with least-recently-used eviction.

    ``capacity`` bounds the entry count (0 disables caching entirely).
    An entry pushed out by capacity is one eviction; an entry still held
    at :meth:`clear` (a stopped tier's) leaves uncounted, so evictions
    never exceed inserts.
    """

    def __init__(self, capacity: int = 1024, *, tracer=NULL_TRACER):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self.tracer = tracer
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- operations -----------------------------------------------------------
    def get(self, key: Hashable):
        """The cached value for *key*, or :data:`MISS`; a hit refreshes
        the entry's LRU position."""
        value = self._entries.get(key, MISS)
        if value is not MISS:
            self._entries.move_to_end(key)
            self.hits += 1
            if self.tracer.enabled:
                self.tracer.emit(EventKind.SVC_CACHE_HIT, key=repr(key))
            return value
        self.misses += 1
        if self.tracer.enabled:
            self.tracer.emit(EventKind.SVC_CACHE_MISS, key=repr(key))
        return MISS

    def put(self, key: Hashable, value) -> None:
        """Insert (or refresh) *key*, evicting the LRU tail if over capacity."""
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        self.inserts += 1
        if self.tracer.enabled:
            self.tracer.emit(EventKind.SVC_CACHE_INSERT, key=repr(key))
        while len(self._entries) > self.capacity:
            victim, _ = self._entries.popitem(last=False)
            self.evictions += 1
            if self.tracer.enabled:
                self.tracer.emit(EventKind.SVC_CACHE_EVICT, key=repr(victim))

    def clear(self) -> None:
        """Drop every entry; the counters keep their values."""
        self._entries.clear()

    # -- reporting ------------------------------------------------------------
    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def stats(self) -> dict:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "inserts": self.inserts,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return (
            f"<ResultCache {len(self._entries)}/{self.capacity} "
            f"hits={self.hits} misses={self.misses} evictions={self.evictions}>"
        )
