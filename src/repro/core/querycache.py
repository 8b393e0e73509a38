"""Maintenance-aware caching primitives for the query-serving path.

PRs 3–4 made index *construction* fast; the remaining cold-start cost at
query time is derived data recomputed per query — ``Gen^m`` keyword
translations, ``Spec``/answer-recovery fan-outs, and whole query results
for repeated workloads.  This module provides the piece every such
cache shares: :class:`LRUCache`, a small thread-safe LRU with
``cache.hit`` / ``cache.miss`` telemetry, used for the evaluator's
query-result cache and the index's specialization memo.  (Budgeted
executions never reach the result cache; see
:meth:`repro.core.evaluator.HierarchicalEvaluator.evaluate` for why.)

Invalidation is **epoch-based**: every :class:`~repro.graph.digraph.Graph`
carries a ``mutation_epoch`` bumped by its mutators, and
:class:`~repro.core.index.BiGIndex` exposes an ``epoch`` combining its
maintenance counter with the base graph's.  Cache owners remember the
epoch their entries were computed under and clear everything when it
moves — cached and uncached evaluation must stay byte-identical, which
the ``verify`` cache drill and the maintenance fuzzer enforce.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Optional

from repro.obs.runtime import OBS


class LRUCache:
    """A bounded least-recently-used mapping with hit/miss telemetry.

    Thread-safe: ``serve`` handler threads share one evaluator and so
    one cache, so get/put/clear take an internal lock.  Entries must
    be treated as immutable by callers — a hit returns the stored object
    itself.

    Parameters
    ----------
    maxsize:
        Entry cap; the least recently used entry is evicted beyond it.
    kind:
        Short tag for per-cache telemetry (``cache.hit.<kind>`` rides
        along next to the aggregate ``cache.hit``).
    """

    def __init__(self, maxsize: int, kind: str = "cache") -> None:
        if maxsize <= 0:
            raise ValueError("LRUCache needs a positive maxsize")
        self.maxsize = maxsize
        self.kind = kind
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[object]:
        """The cached value, refreshing recency; ``None`` on miss."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                if OBS.enabled:
                    OBS.metrics.inc("cache.miss")
                    OBS.metrics.inc(f"cache.miss.{self.kind}")
                return None
            self._data.move_to_end(key)
        if OBS.enabled:
            OBS.metrics.inc("cache.hit")
            OBS.metrics.inc(f"cache.hit.{self.kind}")
        return value

    def put(self, key: Hashable, value: object) -> None:
        """Insert/refresh ``key``, evicting the LRU entry when full."""
        evicted = 0
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                evicted += 1
        if evicted and OBS.enabled:
            OBS.metrics.inc("cache.evictions", evicted)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        # Taking the lock (rather than relying on a single dict op) keeps
        # the answer ordered against concurrent clear/evict — a caller
        # must never see ``key in cache`` succeed after a clear it
        # happened-before.
        with self._lock:
            return key in self._data

