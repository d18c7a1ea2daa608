"""Unit tests for the LRU + TTL result cache and the canonical keys."""

import pytest

from repro.geometry import Rect
from repro.service import (
    MISS,
    JoinRequest,
    KNNRequest,
    ResultCache,
    WindowRequest,
    canonical_rect,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestCanonicalRect:
    def test_orders_corners(self):
        assert canonical_rect((3.0, 4.0, 1.0, 2.0)) == (1.0, 2.0, 3.0, 4.0)

    def test_accepts_rect_objects(self):
        assert canonical_rect(Rect(1, 2, 3, 4)) == (1.0, 2.0, 3.0, 4.0)

    def test_rounds_float_noise(self):
        a = canonical_rect((0.1 + 0.2, 0.0, 1.0, 1.0))
        b = canonical_rect((0.3, 0.0, 1.0, 1.0))
        assert a == b

    def test_negative_zero_normalised(self):
        assert canonical_rect((-0.0, -0.0, 1.0, 1.0)) == (0.0, 0.0, 1.0, 1.0)

    def test_request_keys_distinguish_classes(self):
        window = WindowRequest("t", Rect(0, 0, 1, 1)).cache_key()
        knn = KNNRequest("t", 0, 0, 1).cache_key()
        join = JoinRequest("t", "t").cache_key()
        assert len({window, knn, join}) == 3

    def test_window_key_ignores_noise(self):
        a = WindowRequest("t", Rect(0.1 + 0.2, 0, 1, 1)).cache_key()
        b = WindowRequest("t", Rect(0.3, 0, 1, 1)).cache_key()
        assert a == b


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        assert cache.get("a") is MISS
        cache.put("a", (1, 2))
        assert cache.get("a") == (1, 2)
        assert cache.hits == 1 and cache.misses == 1 and cache.inserts == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b becomes LRU
        cache.put("c", 3)
        assert cache.evictions == 1
        assert cache.get("b") is MISS
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_ttl_expiry_counts_as_miss(self):
        clock = FakeClock()
        cache = ResultCache(capacity=4, ttl_s=10.0, clock=clock)
        cache.put("a", 1)
        clock.advance(9.9)
        assert cache.get("a") == 1
        clock.advance(0.2)  # past the original expiry (hits don't refresh TTL)
        assert cache.get("a") is MISS
        assert cache.expirations == 1
        assert cache.misses == 1

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is MISS
        assert len(cache) == 0 and cache.inserts == 0

    def test_counters_reconcile(self):
        cache = ResultCache(capacity=3)
        for i in range(10):
            key = i % 5
            if cache.get(key) is MISS:
                cache.put(key, key)
        assert cache.lookups == cache.hits + cache.misses == 10
        assert cache.inserts <= cache.misses
        assert cache.evictions <= cache.inserts
        assert len(cache) <= 3

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=-1)
        with pytest.raises(ValueError):
            ResultCache(ttl_s=0.0)

    def test_put_refreshes_existing_key(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 99)  # refresh moves a to MRU; no eviction yet
        cache.put("c", 3)
        assert cache.get("b") is MISS
        assert cache.get("a") == 99


class TestStaleness:
    """An expired entry is never served again: the read that finds it
    expired counts a miss and deletes it."""

    def test_expired_entry_deleted_without_keep_stale(self):
        clock = FakeClock()
        cache = ResultCache(capacity=4, ttl_s=10.0, clock=clock)
        cache.put("a", (1, 2))
        clock.advance(11.0)  # expire it
        assert cache.get("a") is MISS
        assert cache.expirations == 1
        assert len(cache) == 0
        assert cache.get("a") is MISS  # gone, not merely expired
        assert cache.expirations == 1
