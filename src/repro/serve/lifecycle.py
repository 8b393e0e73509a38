"""Server runtime: copy-on-write snapshots, pinning, and retirement.

The shared :class:`~repro.core.evaluator.HierarchicalEvaluator` caches
are epoch-keyed, but epochs alone cannot make *in-place* index mutation
safe under concurrency: a reader halfway through a query holds a searcher
and adjacency rows over the live graph, and a concurrent
:meth:`~repro.core.index.BiGIndex.insert_edge` would mutate them under
its feet.  The runtime therefore never mutates a published index:

* **Pin** — every query pins the current :class:`Snapshot` (a refcount
  bump under a short state lock, never a blocking read lock).  The
  pinned index is immutable for the pin's lifetime, so the reader needs
  no further coordination with writers.
* **Mutate without drain** — a mutation is one WAL op.  It takes a
  *writer-only* lock, builds a copy-on-write clone of the current index
  (:meth:`~repro.core.index.BiGIndex.cow_clone` — a clone shares every
  row until a write replaces it), applies the op to the clone with
  :func:`~repro.core.wal.apply_wal_op` while readers keep serving the
  old snapshot, commits the op to the durable WAL when it applied (see
  :mod:`repro.core.wal`: write, flush, fsync), and publishes the clone
  with a pointer swap.  Readers never block on a mutation and a
  mutation never waits for readers.
* **Retire by refcount** — a superseded snapshot is retired (counted in
  ``RuntimeStats.retired`` and the ``snapshot.retired`` metric) when its
  last pin releases; with no pins it retires at publish time.  Python's
  GC then reclaims it; the explicit count is what the serve drill and
  ``/healthz`` observe.
* **Reload** — swapping in a different index object (e.g. re-loaded
  from disk) is the same publish path; readers still holding the old
  snapshot keep evaluating the old index, which nobody mutates.

Each snapshot owns a fresh evaluator: after a mutation the epoch-keyed
caches would be invalid anyway, and a per-snapshot evaluator means a
pinned reader can never observe another epoch's cache state.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.core.evaluator import HierarchicalEvaluator
from repro.core.index import BiGIndex
from repro.core.wal import MutationWAL, apply_wal_op
from repro.obs.runtime import OBS

#: Builds the per-snapshot evaluator for an index.
EvaluatorFactory = Callable[[BiGIndex], HierarchicalEvaluator]


@dataclass(frozen=True)
class Snapshot:
    """One immutable serving generation: (index, evaluator, epoch).

    ``serial`` increases with every publish, so two snapshots at the
    same epoch value (e.g. after a reload from the same files) are still
    distinguishable in traces and tests.  Pin counts live in the
    runtime, keyed by serial — the snapshot itself stays frozen.
    """

    index: BiGIndex
    evaluator: HierarchicalEvaluator
    epoch: Tuple[int, int]
    serial: int = 0

    @property
    def storage_kind(self) -> str:
        """Where this snapshot's graphs live: ``"mmap"`` when every
        graph is still zero-copy over the v4 container, ``"heap"`` when
        none is, ``"mixed"`` after some (but not all) detached — e.g. a
        WAL replay materialized the base graph while the summary layers
        stayed frozen.

        ``iter_layer_graphs`` walks every storage unit of the index (a
        sharded index's locales each mmap their own v4 container), so
        pinning a snapshot pins every constituent mmap at once."""
        graphs = list(self.index.iter_layer_graphs())
        frozen = sum(1 for g in graphs if g.is_mmap_backed)
        if frozen == 0:
            return "heap"
        return "mmap" if frozen == len(graphs) else "mixed"


@dataclass
class RuntimeStats:
    """Mutation/reload/retirement accounting surfaced by ``/healthz``."""

    mutations: int = 0
    reloads: int = 0
    publishes: int = 0
    #: Superseded snapshots whose last pin has released (or that had no
    #: pins when superseded).  ``publishes - retired - 1`` snapshots are
    #: still reachable: the current one plus any still pinned.
    retired: int = 0


class EngineRuntime:
    """The engine layer: pinned copy-on-write snapshots over one index.

    Parameters
    ----------
    index:
        The initial index to serve.  Treated as frozen from here on —
        all mutations go through :meth:`mutate`, which clones.
    evaluator_factory:
        Builds a fresh evaluator per published snapshot.
    wal:
        Optional open :class:`~repro.core.wal.MutationWAL`.  When set,
        :meth:`mutate` commits each op that applied — fsync and all —
        *before* publishing, so nothing is acked that a crash could
        lose.
    """

    def __init__(
        self,
        index: BiGIndex,
        evaluator_factory: EvaluatorFactory,
        wal: Optional[MutationWAL] = None,
        metrics=None,
    ) -> None:
        self._factory = evaluator_factory
        self.wal = wal
        #: Fallback registry for runtime counters (snapshot.retired,
        #: snapshot.published) when the process-wide OBS switch is off.
        #: QueryService points this at its own registry, so /healthz and
        #: /metrics always show COW accounting; when OBS is on, its
        #: registry wins (in the serve CLI both are the same object).
        self.metrics = metrics
        # Serializes writers (mutate/reload) against each other only;
        # readers never touch it.
        self._mutate_lock = threading.Lock()
        # Guards _snapshot/_pins/stats; held for pointer swaps and
        # refcount bumps, never across evaluation or cloning.
        self._state_lock = threading.Lock()
        self._pins: Dict[int, int] = {}
        self.stats = RuntimeStats()
        self._snapshot = Snapshot(
            index=index,
            evaluator=evaluator_factory(index),
            epoch=index.epoch,
            serial=0,
        )

    # ------------------------------------------------------------------
    @property
    def current(self) -> Snapshot:
        """The snapshot a request arriving now would pin."""
        return self._snapshot

    @property
    def epoch(self) -> Tuple[int, int]:
        return self._snapshot.epoch

    def pinned_snapshots(self) -> int:
        """Number of distinct snapshot generations currently pinned."""
        with self._state_lock:
            return len(self._pins)

    @contextmanager
    def pin(self) -> Iterator[Snapshot]:
        """Pin the current snapshot for one query.

        A refcount bump, not a lock hold: concurrent mutations proceed
        on their own clone and publish past this reader, which simply
        finishes on the snapshot it pinned.  The snapshot retires when
        the last pin on a superseded generation releases.
        """
        with self._state_lock:
            snapshot = self._snapshot
            self._pins[snapshot.serial] = self._pins.get(snapshot.serial, 0) + 1
        try:
            yield snapshot
        finally:
            self._release(snapshot)

    def _release(self, snapshot: Snapshot) -> None:
        with self._state_lock:
            remaining = self._pins.get(snapshot.serial, 0) - 1
            if remaining > 0:
                self._pins[snapshot.serial] = remaining
                return
            self._pins.pop(snapshot.serial, None)
            if snapshot is not self._snapshot:
                self._retire()

    def _metric_inc(self, name: str) -> None:
        """Count into the OBS registry (when on) or the fallback one.

        Exactly one registry records: in the serve CLI OBS routes into
        the service registry anyway, and double-counting there would
        skew the /healthz COW accounting.
        """
        if OBS.enabled:
            OBS.metrics.inc(name)
        elif self.metrics is not None:
            self.metrics.inc(name)

    def _retire(self) -> None:
        """Account one superseded snapshot (caller holds _state_lock)."""
        self.stats.retired += 1
        self._metric_inc("snapshot.retired")

    # ------------------------------------------------------------------
    def _publish(self, index: BiGIndex) -> Snapshot:
        """Build and install a fresh snapshot for ``index``'s epoch."""
        evaluator = self._factory(index)
        with self._state_lock:
            previous = self._snapshot
            snapshot = Snapshot(
                index=index,
                evaluator=evaluator,
                epoch=index.epoch,
                serial=previous.serial + 1,
            )
            self._snapshot = snapshot
            self.stats.publishes += 1
            self._metric_inc("snapshot.published")
            if previous.serial not in self._pins:
                self._retire()
            return snapshot

    def mutate(self, op: Dict[str, Any]) -> Tuple[bool, Snapshot]:
        """Apply one WAL op to a copy-on-write clone and publish it.

        Returns whether the op applied (see
        :func:`~repro.core.wal.apply_wal_op`) and the published snapshot.
        Readers are never drained: the op runs against a private clone
        (:meth:`BiGIndex.cow_clone`) while in-flight queries keep
        serving the published snapshot; the swap at the end is a pointer
        assignment.

        When the runtime has a WAL and the op applied, the op is
        committed — fsync and all — *before* the publish, so a caller
        that sees the new snapshot (or an HTTP ack built from it) is
        guaranteed the op survives ``kill -9``.  A no-op (a duplicate
        insert, an absent delete) is not logged.

        If applying raises, nothing is logged or published and the clone
        is discarded — the published state never reflects a half-applied
        mutation.
        """
        with self._mutate_lock:
            clone = self._snapshot.index.cow_clone()
            applied = apply_wal_op(clone, op)
            if applied and self.wal is not None:
                self.wal.commit(op)
            self.stats.mutations += 1
            return applied, self._publish(clone)

    def reload(self, index: BiGIndex) -> Snapshot:
        """Swap in a different index object with zero downtime.

        No reader drain: the replacement snapshot is fully built before
        the atomic publish, and readers pinned to the old snapshot keep
        serving from the old (now immutable) index until they finish.
        Serialized against :meth:`mutate` so a concurrent mutation's
        clone cannot clobber the reload (or vice versa).
        """
        with self._mutate_lock:
            snapshot = self._publish(index)
            self.stats.reloads += 1
            return snapshot
