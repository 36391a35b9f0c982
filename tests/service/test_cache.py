"""The L1 report LRU/TTL cache and the service's cache stats."""

import threading
from pathlib import Path

import pytest

from repro.service import PredictRequest, PredictionService
from repro.service.cache import LRUCache

ABSENT = object()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestLRUCache:
    def test_roundtrip(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", 42) == 42

    def test_evicts_least_recently_used(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b becomes the LRU tail
        cache.put("c", 3)
        assert cache.get("a", ABSENT) == 1
        assert cache.get("c", ABSENT) == 3
        assert cache.get("b", ABSENT) is ABSENT
        assert cache.evictions == 1

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, not a second entry
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert cache.get("b", ABSENT) is ABSENT

    def test_ttl_expiry_uses_injected_clock(self):
        clock = FakeClock()
        cache = LRUCache(capacity=4, ttl=10.0, clock=clock)
        cache.put("a", 1)
        clock.advance(9.9)
        assert cache.get("a") == 1
        clock.advance(0.2)  # now 10.1s old
        assert cache.get("a") is None
        assert cache.expirations == 1
        assert len(cache) == 0

    def test_stats_counters(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 1
        assert stats["capacity"] == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)
        with pytest.raises(ValueError):
            LRUCache(ttl=0)

    def test_thread_hammer(self):
        cache = LRUCache(capacity=64)
        errors = []

        def worker(base):
            try:
                for i in range(200):
                    cache.put((base, i % 32), i)
                    cache.get((base, (i * 7) % 32))
            except Exception as exc:  # pragma: no cover — failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 64


class TestServiceCacheStats:
    def test_report_tier_and_stats(self):
        # The analytic rung needs no simulation: its second answer is an
        # L1 hit, and the persistent tier is a private memo directory.
        with PredictionService(tier_policy="fast") as service:
            request = PredictRequest("BT", "S", 4)
            first = service.predict(request)
            assert service.predict(request) is first
            cache = service.stats()["cache"]
        assert set(cache) == {"l1", "l2"}
        assert cache["l1"]["hits"] == 1
        assert cache["l2"] == {"path": cache["l2"]["path"]}
        assert not Path(cache["l2"]["path"]).exists()
