"""The bounded LRU cache behind sessions and the server."""

import threading
import unittest

from repro.obs.metrics import collecting_metrics
from repro.service import LRUCache


class TestLRUCache(unittest.TestCase):
    def test_get_put(self):
        cache = LRUCache(4)
        self.assertIsNone(cache.get("a"))
        cache.put("a", 1)
        self.assertEqual(cache.get("a"), 1)
        self.assertIn("a", cache)
        self.assertNotIn("b", cache)
        self.assertEqual(len(cache), 1)

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # freshen a; b is now LRU
        cache.put("c", 3)
        self.assertIn("a", cache)
        self.assertNotIn("b", cache)
        self.assertIn("c", cache)
        self.assertEqual(cache.evictions, 1)

    def test_overwrite_does_not_evict(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("a", 2)
        cache.put("b", 3)
        self.assertEqual(cache.get("a"), 2)
        self.assertEqual(cache.evictions, 0)

    def test_capacity_must_be_positive(self):
        with self.assertRaises(ValueError):
            LRUCache(0)

    def test_local_counters(self):
        cache = LRUCache(2)
        cache.get("missing")
        cache.put("a", 1)
        cache.get("a")
        stats = cache.stats()
        self.assertEqual(stats["hits"], 1)
        self.assertEqual(stats["misses"], 1)
        self.assertEqual(stats["size"], 1)
        self.assertEqual(stats["capacity"], 2)

    def test_metric_counters_use_prefix(self):
        cache = LRUCache(1, metric_prefix="test.cache")
        with collecting_metrics() as registry:
            cache.get("miss")
            cache.put("a", 1)
            cache.get("a")
            cache.put("b", 2)  # evicts a
        self.assertEqual(registry.counter("test.cache.misses").value, 1)
        self.assertEqual(registry.counter("test.cache.hits").value, 1)
        self.assertEqual(registry.counter("test.cache.evictions").value, 1)

    def test_counts_without_metrics_enabled(self):
        cache = LRUCache(8)
        cache.get("miss")  # must not explode with no registry installed
        cache.put("a", 1)
        self.assertEqual(cache.misses, 1)

    def test_concurrent_access(self):
        cache = LRUCache(16)
        errors = []

        def worker(base):
            try:
                for i in range(200):
                    cache.put((base, i % 20), i)
                    cache.get((base, (i * 7) % 20))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.assertEqual(errors, [])
        self.assertLessEqual(len(cache), 16)


if __name__ == "__main__":
    unittest.main()
