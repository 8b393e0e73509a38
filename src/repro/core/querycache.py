"""Bounded caching for the query-serving path.

Derived data recomputed per query — ``Spec``/answer-recovery fan-outs,
keyword frontiers and root profiles on frozen graphs, whole query
results for repeated workloads — is memoized in :class:`LRUCache`, a
small thread-safe LRU with ``cache.hit.<kind>`` / ``cache.miss.<kind>``
telemetry.  (Budgeted executions never reach the result cache; see
:meth:`repro.core.evaluator.HierarchicalEvaluator.evaluate` for why.)

Caches key on the state they derive from instead of being invalidated.
The frozen-graph memos hang off the frozen adjacency itself and go with
it on the first write.  Every :class:`~repro.graph.digraph.Graph`
carries a ``mutation_epoch`` bumped by its mutators, and
:class:`~repro.core.index.BiGIndex` exposes an ``epoch`` combining its
maintenance counter with the base graph's; the evaluator's result cache
and the index's Spec memo put that epoch, read before computing, into
every key.  Both components only grow, so a value computed under a
superseded epoch lands under a key no later lookup forms and ages out
of the bound; a fill needs no lock beyond the LRU's own.  Cached and uncached evaluation stay byte-identical, which
the ``verify`` cache drill and the maintenance fuzzer enforce.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Iterable, List, Optional

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
        Short tag for per-cache telemetry: a lookup counts one
        ``cache.hit.<kind>`` or ``cache.miss.<kind>``, published once per
        :meth:`get_many` batch (``/healthz`` sums the kinds for its
        aggregate).
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
                    OBS.metrics.inc(f"cache.miss.{self.kind}")
                return None
            self._data.move_to_end(key)
        if OBS.enabled:
            OBS.metrics.inc(f"cache.hit.{self.kind}")
        return value

    def get_many(self, keys: Iterable[Hashable]) -> List[Optional[object]]:
        """:meth:`get` of each key under one lock hold; a batch's hits and
        misses are counted with one call each."""
        data = self._data
        values = []
        with self._lock:
            for key in keys:
                value = data.get(key)
                if value is not None:
                    data.move_to_end(key)
                values.append(value)
        if OBS.enabled:
            misses = values.count(None)
            if misses:
                OBS.metrics.inc(f"cache.miss.{self.kind}", misses)
            if len(values) > misses:
                OBS.metrics.inc(f"cache.hit.{self.kind}", len(values) - misses)
        return values

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

