"""LRU cache semantics, telemetry, and budget-class cacheability."""

import threading

import pytest

from repro.core.querycache import LRUCache
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import instrumented
from repro.utils.budget import Budget


class TestLRUCache:
    def test_put_get_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert "a" in cache
        assert len(cache) == 1

    def test_miss_returns_none(self):
        cache = LRUCache(4)
        assert cache.get("missing") is None

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            LRUCache(0)
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b becomes LRU
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache

    def test_put_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh a; b becomes LRU
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_clear(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_hit_miss_counters(self):
        cache = LRUCache(2, kind="probe")
        with instrumented(trace=False) as inst:
            cache.put("a", 1)
            cache.get("a")
            cache.get("nope")
        counters = inst.metrics.counters()
        # One counter per lookup, named by kind; /healthz sums the kinds.
        assert counters["cache.hit.probe"] == 1
        assert counters["cache.miss.probe"] == 1
        assert "cache.hit" not in counters
        assert "cache.miss" not in counters

    def test_batch_lookup_is_counted_once(self):
        """A batch counts every lookup, with one registry call per
        outcome, and refreshes the recency of its hits."""
        cache = LRUCache(3, kind="probe")
        for key in "abc":
            cache.put(key, key.upper())
        calls = []

        class Recording(MetricsRegistry):
            def inc(self, name, amount=1):
                calls.append((name, amount))
                super().inc(name, amount)

        with instrumented(metrics=Recording(), trace=False):
            assert cache.get_many(["a", "x", "b", "y", "a"]) == [
                "A", None, "B", None, "A",
            ]
        assert sorted(calls) == [("cache.hit.probe", 3), ("cache.miss.probe", 2)]
        cache.put("d", "D")  # c, untouched by the batch, is the LRU entry
        assert "c" not in cache and "a" in cache and "b" in cache

    def test_eviction_counter(self):
        cache = LRUCache(1)
        with instrumented(trace=False) as inst:
            cache.put("a", 1)
            cache.put("b", 2)
        assert inst.metrics.counters()["cache.evictions"] == 1

    def test_threaded_access_is_safe(self):
        cache = LRUCache(8)

        def worker(tag):
            for i in range(200):
                cache.put((tag, i % 16), i)
                cache.get((tag, (i + 1) % 16))

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) <= 8
