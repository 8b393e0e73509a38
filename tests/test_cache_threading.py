"""Concurrency battery for the cache/memo substrate under the serve stack.

The server shares one warm :class:`~repro.core.evaluator.HierarchicalEvaluator`
(and the :class:`~repro.core.index.BiGIndex` beneath it) across handler
threads.  These tests hammer each cache layer from thread pools and pin
the two latent bug classes the serve work fixed:

* **Torn LRU state** — eviction racing ``get``/``__contains__``/``clear``
  used to mutate the backing ``OrderedDict`` mid-iteration (KeyError /
  RuntimeError); the cache now serializes every operation, including the
  dunder reads.
* **Stale-fill poisoning** — a value computed against epoch E landing in
  the cache after the index moved to E' would serve wrong answers for as
  long as the epoch stayed put.  The result cache and the Spec memo key
  on the epoch read before computing, so such a fill lands under E's key,
  which no lookup forms again (both epoch components only grow; there is
  no ABA window).  Sibling COW clones can reach equal epochs with
  different states, so each clone starts its own Spec memo.

Every stochastic hammer asserts against a single-threaded oracle; the
barrier tests schedule the historical interleavings deterministically,
100/100.
"""

from __future__ import annotations

import json
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.evaluator import HierarchicalEvaluator
from repro.core.index import BiGIndex
from repro.core.plugins import boost
from repro.core.querycache import LRUCache
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import instrumented
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import KeywordQuery
from repro.search.bidirectional import BidirectionalSearch
from repro.search.blinks import Blinks
from repro.search.rclique import RClique
from repro.serve.lifecycle import EngineRuntime
from repro.serve.server import encode_response
from repro.serve.service import QueryService, canonical_payload


def build_index(random_graph_factory, small_ontology, seed: int = 0) -> BiGIndex:
    graph = random_graph_factory(seed=seed)
    return BiGIndex.build(graph, small_ontology, num_layers=2)


def splitting_index(random_graph_factory, small_ontology) -> BiGIndex:
    """A sparse graph whose layers compress, so its first edges' deletes
    split layer-1 blocks (the dense ``build_index`` graphs barely
    compress: a stale Spec value there often equals the fresh one)."""
    graph = random_graph_factory(num_edges=60, seed=25)
    return BiGIndex.build(graph, small_ontology, num_layers=2)


class BlockingLayers(list):
    """``index.layers`` whose first item read parks the reading thread
    until ``release`` is set; ``parked`` is set once it got there."""

    def __init__(self, layers):
        super().__init__(layers)
        self.parked = threading.Event()
        self.release = threading.Event()

    def __getitem__(self, item):
        if not self.parked.is_set():
            self.parked.set()
            self.release.wait(timeout=30)
        return list.__getitem__(self, item)


def make_evaluator(index: BiGIndex):
    return boost(
        BackwardKeywordSearch(d_max=4, k=10), index, allow_layer_zero=True
    ).evaluator


def run_threads(n, target):
    """Run ``target(i)`` on ``n`` threads, re-raising the first failure."""
    errors = []

    def wrapped(i):
        try:
            target(i)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    if errors:
        raise errors[0]


# ----------------------------------------------------------------------
# LRUCache
# ----------------------------------------------------------------------
class TestLRUCacheThreading:
    def test_mixed_op_hammer(self):
        """get/put/clear/len/contains from 8 threads never corrupt state."""
        cache = LRUCache(maxsize=32)

        def worker(worker_id):
            rng = random.Random(worker_id)
            for step in range(2000):
                key = rng.randrange(64)
                roll = rng.random()
                if roll < 0.45:
                    value = cache.get(key)
                    assert value is None or value == key * 2
                elif roll < 0.9:
                    cache.put(key, key * 2)
                elif roll < 0.95:
                    assert isinstance(key in cache, bool)
                    assert 0 <= len(cache) <= 32
                else:
                    cache.clear()

        run_threads(8, worker)
        assert 0 <= len(cache) <= 32
        for key in range(64):
            value = cache.get(key)
            assert value is None or value == key * 2

    def test_barrier_scheduled_eviction_race_100_of_100(self):
        """Eviction racing a read, forced via barrier, 100 iterations.

        Pre-fix this interleaving could observe the OrderedDict mid-pop
        (reader thread) while the writer evicted — the regression the
        QueryCache locking closed.  The barrier lines both threads up at
        the racy boundary every iteration; all 100 must survive.
        """
        for _ in range(100):
            cache = LRUCache(maxsize=4)
            for key in range(4):
                cache.put(key, key)  # full: next put evicts
            barrier = threading.Barrier(2)

            def evictor():
                barrier.wait(timeout=10)
                for key in range(4, 12):
                    cache.put(key, key)

            def reader():
                barrier.wait(timeout=10)
                for _ in range(8):
                    for key in range(12):
                        cache.get(key)
                        key in cache  # noqa: B015 - the read is the test
                        len(cache)

            run_threads(2, lambda i: (evictor if i == 0 else reader)())
            assert len(cache) == 4

    def test_hit_miss_counts_consistent(self):
        """A read-only hammer over a warm cache hits every time."""
        cache = LRUCache(maxsize=16)
        for key in range(16):
            cache.put(key, key)

        def worker(worker_id):
            for _ in range(1000):
                assert cache.get(worker_id % 16) == worker_id % 16

        run_threads(8, worker)


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------
class TestMetricsThreading:
    def test_concurrent_inc_loses_no_counts(self):
        """8 threads x 5000 incs == 40000 exactly (was a racy get+set)."""
        metrics = MetricsRegistry()

        def worker(_):
            for _ in range(5000):
                metrics.inc("hammer")

        run_threads(8, worker)
        assert metrics.counter("hammer") == 40000

    def test_mixed_record_and_read_hammer(self):
        metrics = MetricsRegistry()

        def worker(worker_id):
            for step in range(1000):
                metrics.inc(f"c.{worker_id % 2}")
                metrics.gauge("g", step)
                metrics.observe("h", step * 0.001)
                if step % 50 == 0:
                    metrics.snapshot()
                    metrics.format()

        run_threads(8, worker)
        assert metrics.counter("c.0") + metrics.counter("c.1") == 8000
        assert metrics.histograms()["h"]["count"] == 8000

    def test_merge_concurrent_with_recording(self):
        parent = MetricsRegistry()
        workers = [MetricsRegistry() for _ in range(4)]
        for registry in workers:
            for _ in range(1000):
                registry.inc("n")

        def merger(i):
            parent.merge(workers[i])

        def recorder(_):
            for _ in range(1000):
                parent.inc("n")

        run_threads(8, lambda i: merger(i) if i < 4 else recorder(i))
        assert parent.counter("n") == 4 * 1000 + 4 * 1000

    def test_histogram_merge_under_observe_hammer(self):
        """Merging workers while request threads observe() into the same
        histogram must not tear count/sum/bucket triples.

        This is the /metrics scrape pattern: per-request threads feed
        ``serve.latency_seconds`` while a background fold merges worker
        registries into the parent.
        """
        parent = MetricsRegistry()
        workers = [MetricsRegistry() for _ in range(4)]
        for registry in workers:
            for step in range(500):
                registry.observe("serve.latency_seconds", step * 0.001)

        def merger(i):
            parent.merge(workers[i])

        def observer(_):
            for step in range(500):
                parent.observe("serve.latency_seconds", step * 0.001)
                if step % 100 == 0:
                    parent.snapshot()  # concurrent scrape

        run_threads(8, lambda i: merger(i) if i < 4 else observer(i))
        hist = parent.histograms()["serve.latency_seconds"]
        assert hist["count"] == 8 * 500
        expected_sum = 8 * sum(step * 0.001 for step in range(500))
        assert abs(hist["sum"] - expected_sum) < 1e-6
        # Cumulative buckets: the +Inf bucket carries every observation,
        # and no count was torn out of the monotone prefix.
        buckets = hist["buckets"]
        assert buckets["+Inf"] == 8 * 500
        counts = list(buckets.values())
        assert counts == sorted(counts)

    def test_exited_recorders_are_summed_exactly(self):
        """Recording threads that exit before the read lose nothing, in
        every reader: counters, histograms, snapshot and merge."""
        metrics = MetricsRegistry()

        def worker(worker_id):
            for step in range(1000):
                metrics.inc("n")
                metrics.inc(f"t.{worker_id}", 2)
                if step % 10 == 0:
                    metrics.observe("h", worker_id * 0.001)

        run_threads(8, worker)
        expected = {"n": 8000, **{f"t.{i}": 2000 for i in range(8)}}
        assert metrics.counters() == dict(sorted(expected.items()))
        hist = metrics.histograms()["h"]
        assert hist["count"] == 800
        assert abs(hist["sum"] - 100 * sum(i * 0.001 for i in range(8))) < 1e-9
        snapshot = metrics.snapshot()
        assert snapshot["counters"] == metrics.counters()
        assert snapshot["histograms"]["h"]["count"] == 800
        parent = MetricsRegistry()
        parent.merge(metrics)
        parent.merge(metrics)
        assert parent.counter("n") == 16000
        assert parent.histograms()["h"]["count"] == 1600

    def test_counter_reads_are_monotone_under_recording(self):
        """Reads racing lock-free recorders never go backwards and never
        see a torn histogram (count without its bucket)."""
        metrics = MetricsRegistry()
        done = threading.Event()

        def recorder(_):
            for _ in range(20000):
                metrics.inc("n")
                metrics.observe("h", 0.001)

        def reader():
            seen = []
            while not done.is_set():
                seen.append(metrics.counter("n"))
                hist = metrics.histograms().get("h")
                if hist is not None:
                    assert hist["count"] == hist["buckets"]["+Inf"]
            return seen

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=1) as pool:
                reads = pool.submit(reader)
                run_threads(4, recorder)
                done.set()
                seen = reads.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) > 1 and seen == sorted(seen)
        assert metrics.counter("n") == 80000
        assert metrics.histograms()["h"]["count"] == 80000


# ----------------------------------------------------------------------
# Graph posting lists
# ----------------------------------------------------------------------
class TestPostingsThreading:
    def test_concurrent_lazy_builds_agree(
        self, random_graph_factory, frozen_twin
    ):
        """Cold posting lists and the first ``rows()`` of an mmap-backed
        graph, built from 8 threads at once, all come out identical."""
        graph = random_graph_factory(seed=7)
        frozen = frozen_twin(graph)
        labels = sorted(graph.label_histogram())
        results = [None] * 8
        rows = [None] * 8
        start = threading.Barrier(8)

        def worker(worker_id):
            start.wait()
            rows[worker_id] = [list(table) for table in frozen.rows()]
            results[worker_id] = {
                label: graph.sorted_vertices_with_label(label)
                for label in labels
            }

        run_threads(8, worker)
        assert all(r == results[0] for r in results)
        # The cached lists agree with the full snapshot.
        snapshot = graph.postings_snapshot()
        for label in labels:
            assert list(results[0][label]) == snapshot[label]
        # Whichever racing build was kept, every thread read the heap rows.
        heap = [[tuple(row) for row in table] for table in graph.rows()]
        assert all(r == heap for r in rows)
        assert [list(table) for table in frozen.rows()] == heap

    def test_concurrent_first_frontier_lookups_agree(
        self, random_graph_factory, frozen_twin
    ):
        """8 threads make the first frontier-memo lookup of one label on
        an mmap-backed graph at once: every racing miss expands, stores
        one entry, and all of them rank like the heap graph."""
        graph = random_graph_factory(seed=9)
        frozen = frozen_twin(graph)
        label = max(graph.label_histogram().items(), key=lambda kv: kv[1])[0]
        query = KeywordQuery([label])
        searcher = BackwardKeywordSearch(d_max=3).bind(frozen)
        results = [None] * 8
        start = threading.Barrier(8)

        def worker(worker_id):
            start.wait()
            results[worker_id] = searcher.search(query)

        run_threads(8, worker)
        expected = BackwardKeywordSearch(d_max=3).bind(graph).search(query)
        assert all(r == expected for r in results)
        assert len(frozen.frontier_memo()) == 1
        assert searcher.search(query) == expected  # served by the entry

    def test_concurrent_first_profile_lookups_agree(
        self, random_graph_factory, frozen_twin
    ):
        """8 threads verify one root on an mmap-backed graph at once: every
        racing miss builds the root's profile, one entry is kept, and
        all of them equal the heap graph's early-stopping BFS."""
        graph = random_graph_factory(seed=9)
        frozen = frozen_twin(graph)
        query = KeywordQuery(["A", "B"])
        algorithm = BackwardKeywordSearch(d_max=3)
        root = next(
            r for r in range(graph.num_vertices)
            if algorithm.best_hit_for_root(graph, r, query) is not None
        )
        results = [None] * 8
        start = threading.Barrier(8)

        def worker(worker_id):
            start.wait()
            results[worker_id] = algorithm.best_hit_for_root(frozen, root, query)

        run_threads(8, worker)
        expected = algorithm.best_hit_for_root(graph, root, query)
        assert all(r == expected for r in results)
        assert len(frozen.profile_memo()) == 1
        assert algorithm.best_hit_for_root(frozen, root, query) == expected

    def test_snapshot_hammer_with_csr_rebuilds(self, random_graph_factory):
        graph = random_graph_factory(seed=8)

        def worker(worker_id):
            for _ in range(50):
                snapshot = graph.postings_snapshot()
                assert snapshot
                assert graph.rows()  # concurrent adjacency reads too

        run_threads(6, worker)


# ----------------------------------------------------------------------
# BiGIndex Spec memo and Gen^m translations under mutation
# ----------------------------------------------------------------------
class TestMemoThreading:
    def test_spec_memo_survives_mutation_storm(
        self, random_graph_factory, small_ontology
    ):
        """Reader threads race edge mutations; final memo is unpoisoned.

        A stale fill would persist past the storm (the epoch stops moving
        once mutations end), so the decisive check is at the end: every
        memoized spec_to_base answer must match a cold recomputation.
        """
        index = build_index(random_graph_factory, small_ontology, seed=11)
        supernodes = sorted(index.layer_graph(1).vertices())[:12]
        stop = threading.Event()

        def reader(worker_id):
            rng = random.Random(worker_id)
            while not stop.is_set():
                supernode = supernodes[rng.randrange(len(supernodes))]
                frontier = index.spec_to_base(supernode, 1)
                assert isinstance(frontier, list)

        readers = [
            threading.Thread(target=reader, args=(i,)) for i in range(4)
        ]
        for t in readers:
            t.start()
        try:
            rng = random.Random(99)
            removed = []
            for _ in range(10):
                if removed and rng.random() < 0.4:
                    u, v = removed.pop()
                    index.insert_edge(u, v)
                else:
                    edges = sorted(index.base_graph.edges())
                    u, v = edges[rng.randrange(len(edges))]
                    index.delete_edge(u, v)
                    removed.append((u, v))
        finally:
            stop.set()
            for t in readers:
                t.join(timeout=30)

        # Mutations are over; memoized answers must equal cold answers.
        warm = {s: index.spec_to_base(s, 1) for s in supernodes}
        index.drop_caches()
        cold = {s: index.spec_to_base(s, 1) for s in supernodes}
        assert warm == cold

    def test_concurrent_generalizations_agree(
        self, random_graph_factory, small_ontology
    ):
        index = build_index(random_graph_factory, small_ontology, seed=12)
        queries = [
            KeywordQuery(["A", "B"]),
            KeywordQuery(["C", "D"]),
            KeywordQuery(["A", "C"]),
        ]
        oracle = {
            (i, 1): index.generalize_query(q, 1)
            for i, q in enumerate(queries)
        }

        def worker(worker_id):
            rng = random.Random(worker_id)
            for _ in range(500):
                i = rng.randrange(len(queries))
                assert index.generalize_query(queries[i], 1) == oracle[(i, 1)]
                keyword = queries[i].keywords[0]
                generalized = index.generalize_keyword(keyword, 1)
                assert generalized == oracle[(i, 1)][0]

        run_threads(8, worker)

    def test_guarded_fill_rejects_stale_epoch(
        self, random_graph_factory, small_ontology
    ):
        """Deterministic stale-fill interleaving: the fill must not serve.

        Freeze a reader between its epoch read and its fill (the memo
        compute walks ``index.layers`` — a blocking ``__getitem__`` parks
        it there); mutate the index while it is parked; release it.  Its
        fill lands under the superseded epoch's key, which no later
        lookup forms.  The write splits the block read, so a stale fill
        that served would show.
        """
        index = splitting_index(random_graph_factory, small_ontology)
        edge = sorted(index.base_graph.edges())[0]
        supernode = index.layers[0].parent_of[edge[0]]
        before = index.spec_to_base(supernode, 1)
        index.drop_caches()

        plain_layers = index.layers
        index.layers = blocking = BlockingLayers(plain_layers)
        try:
            def parked_reader():
                try:
                    index.spec_to_base(supernode, 1)
                except Exception:  # noqa: BLE001
                    pass  # a torn frontier may not even compute; it
                    # only has to stay unreachable

            reader = threading.Thread(target=parked_reader)
            reader.start()
            assert blocking.parked.wait(timeout=30)
            # Reader is parked mid-compute with a captured epoch; move it.
            index.delete_edge(*edge)
            moved_epoch = index.epoch
            blocking.release.set()
            reader.join(timeout=30)
        finally:
            if index.layers is blocking:  # the write installs new layers
                index.layers = plain_layers

        # The stale computation must not have been cached: a fresh call
        # (same epoch as the mutation) recomputes and matches cold truth.
        assert index.epoch == moved_epoch
        warm = index.spec_to_base(supernode, 1)
        index.drop_caches()
        assert index.spec_to_base(supernode, 1) == warm != before

    def test_barrier_scheduled_memo_race_100_of_100(
        self, random_graph_factory, small_ontology
    ):
        """Two readers fill the same cold memo key simultaneously, 100x."""
        index = build_index(random_graph_factory, small_ontology, seed=14)
        supernode = sorted(index.layer_graph(1).vertices())[0]
        truth = index.spec_to_base(supernode, 1)
        for _ in range(100):
            index.drop_caches()
            barrier = threading.Barrier(2)
            outcomes = [None, None]

            def worker(i):
                barrier.wait(timeout=10)
                outcomes[i] = index.spec_to_base(supernode, 1)

            run_threads(2, worker)
            assert outcomes[0] == outcomes[1] == truth

    def test_sibling_clones_at_equal_epochs_keep_their_own_memos(
        self, random_graph_factory, small_ontology
    ):
        """Two COW clones of one parent take different writes and reach
        equal epochs: an epoch names a state only within one index's own
        history, so a clone's Spec memo (and each evaluator) must be its
        own.  The right clone reads after the left filled its memo, then
        both must answer like cold ones."""
        index = splitting_index(random_graph_factory, small_ontology)
        edges = sorted(index.base_graph.edges())
        left, right = index.cow_clone(), index.cow_clone()
        left.delete_edge(*edges[0])
        right.delete_edge(*edges[1])
        assert left.epoch == right.epoch
        assert left.layers[0].parent_of != right.layers[0].parent_of
        query = KeywordQuery(["A", "B"])

        def read(clone):
            specs = {
                (m, s): clone.spec_to_base(s, m)
                for m in (1, 2)
                for s in clone.layer_graph(m).vertices()
            }
            return specs, make_evaluator(clone).evaluate(query).answers

        warm = [read(clone) for clone in (left, right)]
        for clone, seen in zip((left, right), warm):
            clone.drop_caches()
            assert read(clone) == seen


# ----------------------------------------------------------------------
# HierarchicalEvaluator result cache
# ----------------------------------------------------------------------
class TestNeighborIndexThreading:
    """r-clique's neighbor list, the one per-graph index a bind builds,
    is cached by the algorithm per graph state."""

    def test_concurrent_binds_build_one_index(self, random_graph_factory):
        graph = random_graph_factory(seed=5)
        algorithm = RClique(radius=2, k=None)
        barrier = threading.Barrier(8)
        indexes = [None] * 8

        def bind(i):
            barrier.wait()
            indexes[i] = algorithm.bind(graph).index

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads(8, bind)
        finally:
            sys.setswitchinterval(interval)
        assert all(index is indexes[0] for index in indexes)

    def test_in_place_write_rebuilds_the_index(self, random_graph_factory):
        graph = random_graph_factory(seed=5)
        algorithm = RClique(radius=2, k=None)
        before = algorithm.bind(graph).index
        u, v = next(
            (u, v)
            for u in graph.vertices()
            for v in graph.vertices()
            if u != v and not graph.has_edge(u, v)
            and before.distance(u, v) is None
        )
        graph.add_edge(u, v)
        after = algorithm.bind(graph).index
        assert after is not before
        assert after.distance(u, v) == 1
        fresh = RClique(radius=2, k=None).bind(graph).index
        assert after.neighbor_lists == fresh.neighbor_lists


class TestEvaluatorThreading:
    QUERIES = (("A", "B"), ("C", "D"), ("A", "C"), ("B", "D"))

    @pytest.mark.parametrize(
        "algorithm",
        [
            BackwardKeywordSearch(d_max=3, k=10),
            BidirectionalSearch(d_max=3, k=10),
            Blinks(d_max=3, k=10),
        ],
        ids=lambda a: a.name,
    )
    def test_uncached_pool_matches_sequential(
        self, algorithm, random_graph_factory, small_ontology
    ):
        """Four threads share one evaluator with the result cache off, as
        serve handlers do on a snapshot: every attempt binds its own
        searcher, and every query's frontier scratch is its own."""
        index = build_index(random_graph_factory, small_ontology, seed=23)
        evaluator = HierarchicalEvaluator(
            index, algorithm, allow_layer_zero=True, cache_size=0
        )
        pool = [
            (q, layer, k)
            for q in self.QUERIES + (("A", "C", "E"), ("E",))
            for layer in (None, 0, 1)
            for k in (None, 5)
            if layer != 1 or index.query_distinct_at(KeywordQuery(q), layer)
        ]

        def run(entry):
            q, layer, k = entry
            return evaluator.evaluate(KeywordQuery(q), layer=layer, k=k).answers

        expected = [run(entry) for entry in pool]
        # Switch threads often so streams interleave mid-level.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as executor:
                got = list(executor.map(run, pool * 4))
        finally:
            sys.setswitchinterval(interval)
        assert got == expected * 4

    def test_result_cache_hammer_matches_oracle(
        self, random_graph_factory, small_ontology
    ):
        index = build_index(random_graph_factory, small_ontology, seed=21)
        evaluator = make_evaluator(index)
        oracle = {
            q: evaluator.evaluate(KeywordQuery(list(q))).answers
            for q in self.QUERIES
        }

        def worker(worker_id):
            rng = random.Random(worker_id)
            for _ in range(40):
                q = self.QUERIES[rng.randrange(len(self.QUERIES))]
                result = evaluator.evaluate(KeywordQuery(list(q)))
                assert result.answers == oracle[q]

        run_threads(6, worker)

    def test_pinned_snapshots_match_per_epoch_oracle(
        self, random_graph_factory, small_ontology
    ):
        """The serve-shaped interleaving: readers pin, a writer mutates.

        Every pinned evaluation must equal the single-threaded oracle for
        the epoch the snapshot pinned — the end-to-end statement of the
        guarded-fill + snapshot design.
        """
        factory = lambda: build_index(  # noqa: E731
            random_graph_factory, small_ontology, seed=22
        )
        # Deterministic mutation schedule.
        probe = factory()
        rng = random.Random(5)
        ops = []
        for _ in range(3):
            edges = sorted(probe.base_graph.edges())
            u, v = edges[rng.randrange(len(edges))]
            probe.delete_edge(u, v)
            ops.append((u, v))

        # Per-epoch oracle from a replica replaying the same schedule.
        oracle_index = factory()
        oracle_eval = make_evaluator(oracle_index)
        expectations = {}

        def snap():
            expectations[oracle_index.epoch] = {
                q: oracle_eval.evaluate(KeywordQuery(list(q))).answers
                for q in self.QUERIES
            }

        snap()
        for u, v in ops:
            oracle_index.delete_edge(u, v)
            snap()

        runtime = EngineRuntime(factory(), make_evaluator)
        failures = []

        def reader(worker_id):
            wrng = random.Random(worker_id)
            for _ in range(25):
                q = self.QUERIES[wrng.randrange(len(self.QUERIES))]
                with runtime.pin() as snapshot:
                    answers = snapshot.evaluator.evaluate(
                        KeywordQuery(list(q))
                    ).answers
                    epoch = snapshot.epoch
                expected = expectations.get(epoch, {}).get(q)
                if expected is None:
                    failures.append(f"unknown epoch {epoch}")
                elif answers != expected:
                    failures.append(f"epoch {epoch} Q={q} diverged")

        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(reader, i) for i in range(4)]
            for u, v in ops:
                runtime.mutate({"op": "delete", "u": u, "v": v})
            for future in futures:
                future.result()
        assert not failures, failures[:5]

    def test_evaluator_guarded_fill_skips_stale_result(
        self, random_graph_factory, small_ontology
    ):
        """Single-threaded check of the epoch in the result key.

        Populate the cache, mutate the index out from under the evaluator,
        and re-evaluate: the response must reflect the new epoch, and the
        old epoch's cached entry must not leak through.
        """
        index = build_index(random_graph_factory, small_ontology, seed=23)
        evaluator = make_evaluator(index)
        query = KeywordQuery(["A", "B"])
        before = evaluator.evaluate(query)
        hit = evaluator.evaluate(query)
        assert hit.answers == before.answers  # warm path exercised
        edges = sorted(index.base_graph.edges())
        index.delete_edge(*edges[0])
        after = evaluator.evaluate(query)
        index.drop_caches()
        cold = make_evaluator(index).evaluate(query)
        assert after.answers == cold.answers

    def test_parked_result_fill_is_never_served(
        self, random_graph_factory, small_ontology
    ):
        """Deterministic stale fill of the result cache.

        Park an ``evaluate`` between its lookup and its fill (a blocking
        ``index.layers`` stops it inside the attempt), delete an edge,
        release it: its fill lands under the superseded epoch's key, so
        the next ``evaluate`` misses and answers like a fresh evaluator.
        """
        index = build_index(random_graph_factory, small_ontology, seed=24)
        evaluator = make_evaluator(index)
        query = KeywordQuery(["A", "B"])

        def parked_reader():
            try:
                evaluator.evaluate(query)
            except Exception:  # noqa: BLE001
                pass  # a torn attempt may not even finish; its fill
                # only has to stay unreachable

        plain_layers = index.layers
        index.layers = blocking = BlockingLayers(plain_layers)
        reader = threading.Thread(target=parked_reader)
        try:
            reader.start()
            assert blocking.parked.wait(timeout=30)
            index.delete_edge(*sorted(index.base_graph.edges())[0])
        finally:
            blocking.release.set()
            reader.join(timeout=30)
            if index.layers is blocking:
                index.layers = plain_layers
        assert not reader.is_alive()
        assert index.layers is not blocking

        with instrumented(trace=False) as inst:
            after = evaluator.evaluate(query)
        assert inst.metrics.counters()["cache.miss.result"] == 1
        fresh = make_evaluator(index).evaluate(query)
        assert after.answers == fresh.answers

    def test_concurrent_hits_encode_identical_bodies(
        self, random_graph_factory, small_ontology
    ):
        """Eight handler threads hit one cached query at once: they race
        to fill the entry's encoding memo, and every response body is
        ``json.dumps(payload)`` with the same canonical content."""
        runtime = EngineRuntime(
            build_index(random_graph_factory, small_ontology, seed=21),
            make_evaluator,
        )
        service = QueryService(runtime)
        body = json.dumps({"keywords": ["A", "B"]}).encode()
        status, miss, _ = service.handle("POST", "/query", body, {})
        assert status == 200 and miss["answers"]
        barrier = threading.Barrier(8)

        def hit(_):
            barrier.wait(timeout=30)
            status, payload, extra = service.handle("POST", "/query", body, {})
            _head, data = encode_response(status, payload, extra, False)
            assert data == json.dumps(
                payload, sort_keys=True, allow_nan=False
            ).encode("utf-8")
            return json.dumps(
                canonical_payload(json.loads(data)), sort_keys=True
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as executor:
                bodies = set(executor.map(hit, range(8)))
        finally:
            sys.setswitchinterval(interval)
        assert bodies == {json.dumps(canonical_payload(miss), sort_keys=True)}
