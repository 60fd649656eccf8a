"""Tests of the one thread-safe LRU (every memo in the library is one)."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.serving import ResultCache
from repro.utils.lru import LRU


def test_result_cache_is_the_lru():
    assert ResultCache is LRU


class TestBasicOperations:
    def test_miss_then_hit(self):
        cache = LRU(capacity=4)
        assert cache.get("a") is None
        cache.put("a", 42.0)
        assert cache.get("a") == 42.0
        assert cache.hits == 1
        assert cache.misses == 1

    def test_put_refreshes_value(self):
        cache = LRU(capacity=4)
        cache.put("a", 1.0)
        cache.put("a", 2.0)
        assert cache.get("a") == 2.0
        assert len(cache) == 1

    def test_contains_and_len(self):
        cache = LRU(capacity=4)
        cache.put("a", 1.0)
        assert "a" in cache
        assert "b" not in cache
        assert len(cache) == 1

    def test_peek_does_not_touch_counters_or_order(self):
        cache = LRU(capacity=2)
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        assert cache.peek("a") == 1.0
        assert cache.peek("missing") is None
        assert cache.hits == 0
        assert cache.misses == 0
        # "a" was peeked, not touched: it is still the LRU entry and evicts.
        cache.put("c", 3.0)
        assert "a" not in cache
        assert "b" in cache

    def test_clear(self):
        cache = LRU(capacity=4)
        cache.put("a", 1.0)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_clear_keeps_the_counters(self):
        cache = LRU(capacity=1)
        cache.put("a", 1.0)
        cache.get("a")
        cache.get("b")
        cache.put("b", 2.0)  # evicts "a"
        cache.clear()
        assert (cache.hits, cache.misses, cache.evictions) == (1, 1, 1)
        assert cache.stats() == {
            "entries": 0, "capacity": 1, "hits": 1, "misses": 1, "evictions": 1,
        }

    @pytest.mark.parametrize("capacity", (0, -3))
    def test_rejects_non_positive_capacity(self, capacity):
        with pytest.raises(ValueError):
            LRU(capacity=capacity)


class TestLRUEviction:
    def test_evicts_least_recently_used(self):
        cache = LRU(capacity=2)
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        cache.get("a")  # "a" is now the most recently used
        cache.put("c", 3.0)
        assert "a" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_capacity_is_never_exceeded(self):
        cache = LRU(capacity=3)
        for index in range(10):
            cache.put(index, float(index))
        assert len(cache) == 3
        assert cache.evictions == 7
        assert all(index in cache for index in (7, 8, 9))

    def test_put_on_existing_key_refreshes_without_eviction(self):
        cache = LRU(capacity=2)
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        cache.put("a", 10.0)  # refresh: "a" becomes most recent, nothing evicted
        assert cache.evictions == 0
        assert len(cache) == 2
        cache.put("c", 3.0)  # so "b" is the LRU entry now
        assert cache.peek("a") == 10.0
        assert "b" not in cache
        assert cache.evictions == 1

    def test_peek_moves_neither_order_nor_counters_on_eviction(self):
        cache = LRU(capacity=3)
        for key in "abc":
            cache.put(key, key)
        for _ in range(5):
            cache.peek("a")
        cache.get("b")
        cache.put("d", "d")  # "a" is still the least recently *used*
        assert "a" not in cache
        assert all(key in cache for key in "bcd")
        assert (cache.hits, cache.misses) == (1, 0)


class TestGetMany:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sequential_gets(self, seed):
        rng = np.random.default_rng(seed)
        keys = [f"k{i}" for i in range(12)]
        batched, sequential = LRU(capacity=6), LRU(capacity=6)
        for value, key in enumerate(rng.permutation(keys)[:8].tolist()):
            batched.put(key, float(value))
            sequential.put(key, float(value))
        for _ in range(20):
            lookup = [str(key) for key in rng.choice(keys, size=int(rng.integers(0, 9)))]
            assert batched.get_many(lookup) == [sequential.get(key) for key in lookup]
            assert (batched.hits, batched.misses) == (sequential.hits, sequential.misses)
            fresh = str(rng.choice(keys))
            batched.put(fresh, 1.0)
            sequential.put(fresh, 1.0)
        # Equal LRU order: each new key evicts the same entry from both.
        for extra in range(6):
            batched.put(f"new{extra}", 0.0)
            sequential.put(f"new{extra}", 0.0)
            assert [key in batched for key in keys] == [key in sequential for key in keys]
        assert batched.stats() == sequential.stats()

    def test_repeated_key_hits_after_first_lookup(self):
        cache = LRU(capacity=2)
        cache.put("a", 1.0)
        assert cache.get_many(["a", "b", "a", "b"]) == [1.0, None, 1.0, None]
        assert (cache.hits, cache.misses) == (2, 2)


class TestThreadSafety:
    def test_mixed_get_put_hammer_keeps_invariants(self):
        cache = LRU(capacity=16)
        errors: list[BaseException] = []
        lookups = [0] * 8
        max_size = [0] * 8
        start = threading.Barrier(8)

        def worker(slot: int) -> None:
            rng = np.random.default_rng(slot)
            try:
                start.wait()
                for _ in range(10000):
                    key = int(rng.integers(0, 64))
                    if rng.random() < 0.5:
                        cache.put(key, float(key))
                    else:
                        value = cache.get(key)
                        lookups[slot] += 1
                        assert value is None or value == float(key)
                    max_size[slot] = max(max_size[slot], len(cache))
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often to expose lost updates
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert max(max_size) <= 16
        assert len(cache) <= 16
        assert cache.hits + cache.misses == sum(lookups)
