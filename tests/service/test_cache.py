"""LRU/TTL cache and the two-tier composition."""

import threading

import pytest

from repro.service.cache import LRUCache, TieredPredictionCache


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
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, not a second entry
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache

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


class TestTieredPredictionCache:
    def test_owns_and_closes_internal_database(self):
        # Without a cache_dir the persistent tier is a private temporary
        # memo directory, removed on close.
        cache = TieredPredictionCache()
        root = cache.memo.root
        cache.memo.put({"kind": "test"}, {"v": 1})
        assert root.is_dir()
        cache.close()
        assert not root.exists()

    def test_external_database_left_open(self, tmp_path):
        cache = TieredPredictionCache(cache_dir=str(tmp_path / "memo"))
        cache.memo.put({"kind": "test"}, {"v": 1})
        cache.close()
        assert len(cache.memo) == 1  # still there, still usable
        assert cache.memo.get({"kind": "test"}) == {"v": 1}

    def test_external_empty_database_is_not_replaced(self, tmp_path):
        # An empty memo store has len() 0 (falsy); the tier must still
        # adopt the given directory, not a private one.
        cache = TieredPredictionCache(cache_dir=str(tmp_path))
        assert cache.memo.root == tmp_path
        cache.close()
        assert tmp_path.is_dir()

    def test_report_tier_and_stats(self):
        cache = TieredPredictionCache(capacity=8)
        key = ("BT", "S", 4, 2, 0)
        assert cache.get_report(key) is None
        cache.put_report(key, "report")
        assert cache.get_report(key) == "report"
        stats = cache.stats()
        assert stats["l1"]["hits"] == 1
        assert stats["l2"]["path"] == str(cache.memo.root)
        cache.close()
