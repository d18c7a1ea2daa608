"""LRU + TTL result cache of the serving engine.

Keys are the canonicalised query identities of :mod:`repro.service.model`
(``Request.cache_key()``); values are the canonical result tables, so a
hit is indistinguishable from a fresh execution by construction — the
differential test in ``tests/service`` asserts exactly that.

The cache keeps hit/miss/insert/eviction/expiration counters and, when
given a tracer, emits one ``SVC_CACHE_*`` event per transition so the
:class:`~repro.trace.checkers.ServiceAccountingChecker` can reconcile the
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
    entries never expire).  ``clock`` is injectable for tests.

    ``keep_stale`` retains TTL-expired entries so a degraded mode can
    still serve them explicitly via :meth:`get_stale` — the
    circuit-breaker's serve-stale-on-open path.  A stale serve is
    *never* a plain hit: :meth:`get` treats an expired entry as a miss
    either way, and stale reads are counted and traced separately
    (``stale_hits``, ``SVC_CACHE_STALE_HIT``).

    Retention of stale entries is bounded: ``stale_ttl_s`` (default
    4 × ``ttl_s``) is how long past expiry an entry may linger before it
    is dropped — on any read that touches it, and amortizedly from the
    LRU front on :meth:`put` (expired entries never refresh their LRU
    position, so they drift there).  Without the bound, long-dead
    entries would squat on capacity and push out fresh ones under
    churn.  Stale removals count as ``stale_evictions``, distinct from
    ``evictions`` (which covers only live entries), so one insert never
    double-counts as both an expiration and an eviction in the
    accounting checker's ledger.
    """

    def __init__(
        self,
        capacity: int = 1024,
        ttl_s: Optional[float] = None,
        *,
        keep_stale: bool = False,
        stale_ttl_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        tracer=NULL_TRACER,
    ):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("ttl_s must be positive (or None)")
        if stale_ttl_s is not None and stale_ttl_s < 0:
            raise ValueError("stale_ttl_s must be >= 0 (or None)")
        if stale_ttl_s is None and keep_stale and ttl_s is not None:
            stale_ttl_s = 4.0 * ttl_s
        self.capacity = capacity
        self.ttl_s = ttl_s
        self.keep_stale = keep_stale
        self.stale_ttl_s = stale_ttl_s
        self._clock = clock
        self.tracer = tracer
        #: key -> [value, expires_at, expiration_counted]
        self._entries: "OrderedDict[Hashable, list]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.evictions = 0
        self.expirations = 0
        self.stale_hits = 0
        self.stale_evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- operations -----------------------------------------------------------
    def get(self, key: Hashable):
        """The cached value for *key*, or :data:`MISS`.

        A TTL-expired entry counts as a miss (and as one expiration); a
        hit refreshes the entry's LRU position but not its TTL.
        """
        entry = self._entries.get(key)
        if entry is not None:
            value, expires_at, counted = entry
            now = self._clock()
            if expires_at is not None and now >= expires_at:
                if not counted:
                    self.expirations += 1
                    entry[2] = True
                    if self.tracer.enabled:
                        self.tracer.emit(
                            EventKind.SVC_CACHE_EXPIRE, key=repr(key)
                        )
                if not self.keep_stale:
                    del self._entries[key]
                elif self._dead(expires_at, now):
                    del self._entries[key]
                    self.stale_evictions += 1
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

    def get_stale(self, key: Hashable):
        """The cached value for *key* even if TTL-expired, or :data:`MISS`.

        The degraded read of the serve-stale-on-open-circuit path: it
        never refreshes LRU position or TTL, counts as a ``stale_hit``
        (not a hit) and emits ``SVC_CACHE_STALE_HIT`` so stale serves
        stay visible in the metrics.  An entry past the ``stale_ttl_s``
        retention bound is too old even for degraded serving: it is
        dropped and the read is a :data:`MISS`.
        """
        entry = self._entries.get(key)
        if entry is None:
            return MISS
        if entry[1] is not None and self._dead(entry[1], self._clock()):
            del self._entries[key]
            self.stale_evictions += 1
            return MISS
        self.stale_hits += 1
        if self.tracer.enabled:
            self.tracer.emit(EventKind.SVC_CACHE_STALE_HIT, key=repr(key))
        return entry[0]

    def put(self, key: Hashable, value) -> None:
        """Insert (or refresh) *key*, evicting the LRU tail if over capacity."""
        if self.capacity == 0:
            return
        now = self._clock()
        expires_at = None if self.ttl_s is None else now + self.ttl_s
        if self.keep_stale and self.stale_ttl_s is not None:
            # Amortized purge: expired entries never refresh their LRU
            # position, so the dead ones pool at the front — drop every
            # leading entry past the retention bound before sizing.
            while self._entries:
                front_key = next(iter(self._entries))
                front = self._entries[front_key]
                if front[1] is None or not self._dead(front[1], now):
                    break
                del self._entries[front_key]
                self.stale_evictions += 1
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = [value, expires_at, False]
        self.inserts += 1
        if self.tracer.enabled:
            self.tracer.emit(EventKind.SVC_CACHE_INSERT, key=repr(key))
        while len(self._entries) > self.capacity:
            victim, entry = self._entries.popitem(last=False)
            if entry[2]:
                # Already counted as an expiration when first observed
                # stale; counting an eviction too would double-charge
                # the insert in the accounting checker's ledger.
                self.stale_evictions += 1
                continue
            self.evictions += 1
            if self.tracer.enabled:
                self.tracer.emit(EventKind.SVC_CACHE_EVICT, key=repr(victim))

    def _dead(self, expires_at: float, now: float) -> bool:
        """Expired longer ago than the stale retention bound allows."""
        return (
            self.stale_ttl_s is not None
            and now >= expires_at + self.stale_ttl_s
        )

    def clear(self) -> None:
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
            "stale_hits": self.stale_hits,
            "stale_evictions": self.stale_evictions,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return (
            f"<ResultCache {len(self._entries)}/{self.capacity} "
            f"hits={self.hits} misses={self.misses} evictions={self.evictions}>"
        )
