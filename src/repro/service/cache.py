"""LRU + TTL result cache of the serving engine.

Keys are the canonicalised query identities of :mod:`repro.service.model`
(``Request.cache_key()``); values are the canonical result tables, so a
hit is indistinguishable from a fresh execution by construction — the
differential test in ``tests/service`` asserts exactly that.

The cache keeps hit/miss/insert/eviction/expiration counters and, when
given a tracer, emits one ``SVC_CACHE_*`` event per transition so the
``service-ledger`` spec (``protocol:service-ledger``) can reconcile the
counters against the request ledger.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Callable, Hashable, Optional

from ..trace import NULL_TRACER, EventKind

__all__ = ["ResultCache", "MISS"]

#: Sentinel distinguishing "not cached" from a cached ``None``.
MISS = object()


class ResultCache:
    """Bounded mapping with least-recently-used eviction and optional TTL.

    ``capacity`` bounds the entry count (0 disables caching entirely);
    ``ttl_s`` is the time-to-live of an entry in seconds (``None`` means
    entries never expire).  ``clock`` is injectable for tests.  An
    expired entry is deleted when it is read and counted as one
    expiration; an entry pushed out by capacity is one eviction.  An
    entry still held at :meth:`clear` (a stopped tier's) leaves
    uncounted, so evictions + expirations never exceed inserts.
    """

    def __init__(
        self,
        capacity: int = 1024,
        ttl_s: Optional[float] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        tracer=NULL_TRACER,
    ):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("ttl_s must be positive (or None)")
        self.capacity = capacity
        self.ttl_s = ttl_s
        self._clock = clock
        self.tracer = tracer
        #: key -> (value, expires_at)
        self._entries: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.evictions = 0
        self.expirations = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- operations -----------------------------------------------------------
    def get(self, key: Hashable):
        """The cached value for *key*, or :data:`MISS`.

        A TTL-expired entry is deleted and counts as a miss (and as one
        expiration); a hit refreshes the entry's LRU position but not
        its TTL.
        """
        entry = self._entries.get(key)
        if entry is not None:
            value, expires_at = entry
            if expires_at is not None and self._clock() >= expires_at:
                del self._entries[key]
                self.expirations += 1
                if self.tracer.enabled:
                    self.tracer.emit(EventKind.SVC_CACHE_EXPIRE, key=repr(key))
            else:
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
        expires_at = None if self.ttl_s is None else self._clock() + self.ttl_s
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = (value, expires_at)
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
            "expirations": self.expirations,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return (
            f"<ResultCache {len(self._entries)}/{self.capacity} "
            f"hits={self.hits} misses={self.misses} evictions={self.evictions}>"
        )
