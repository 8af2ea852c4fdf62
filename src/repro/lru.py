"""Thread-safe LRU cache for compiled programs and analysis verdicts.

Two users: every :class:`~repro.api.KremlinSession`'s compile cache
(code objects keyed by source hash — a hit skips recompilation *and*
codegen) and the service's shared result cache (typed compile/check
payloads). Both are bounded so a long-running server cannot grow without
limit, and both feed hit/miss/eviction counters into the metrics
registry when collection is enabled (guarded, so the disabled path costs
one boolean check).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.obs.metrics import get_metrics, metrics_enabled

_MISSING = object()


class LRUCache:
    """Bounded mapping with least-recently-used eviction.

    ``metric_prefix`` names the counters this cache feeds
    (``<prefix>.hits`` / ``.misses`` / ``.evictions``); the same totals
    are always available locally via :attr:`hits`/:attr:`misses`/
    :attr:`evictions` regardless of whether metrics are enabled.
    """

    def __init__(self, capacity: int = 64, metric_prefix: str = "cache"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.metric_prefix = metric_prefix
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key, default=None):
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                self._count("misses")
                return default
            self._data.move_to_end(key)
            self.hits += 1
            self._count("hits")
            return value

    def put(self, key, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1
                self._count("evictions")

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def keys(self) -> list:
        """Current keys, least- to most-recently used."""
        with self._lock:
            return list(self._data.keys())

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def stats(self) -> dict:
        """Snapshot for status endpoints: size + lifetime totals."""
        with self._lock:
            return {
                "size": len(self._data),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def _count(self, kind: str) -> None:
        if metrics_enabled():
            get_metrics().counter(f"{self.metric_prefix}.{kind}").inc()


__all__ = ["LRUCache"]
