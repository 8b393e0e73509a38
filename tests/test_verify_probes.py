"""Planted-fault tests: every drill probe can actually fail.

The fuzzer and the oracle have had injected-bug tests since PR 1
(``test_verify_fuzzer.py::_ForgetfulIndex``); the cache, persistence,
shard and serve probes had only ever been seen passing.  Each test here
plants one fault the probe exists to catch and asserts the drill's
report is not ``ok`` and names the probe.  ``TestHarnessFloor`` then pins
how much work each leg of ``verify --quick`` does, so no later edit of
the harness can drop a check silently.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.cost import CostParams
from repro.core.evaluator import HierarchicalEvaluator
from repro.core.index import BiGIndex
from repro.core.persistence import load_index
from repro.core.querycache import LRUCache
from repro.core.sharding import build_sharded
from repro.datasets.synthetic import verification_corpus
from repro.graph.digraph import Graph
from repro.search.banks import BackwardKeywordSearch
from repro.search.bidirectional import BidirectionalSearch
from repro.search.blinks import Blinks
from repro.search.rclique import RClique
from repro.verify import (
    fuzz_index,
    probes,
    run_verification,
    servecheck,
    shardcheck,
)
from repro.verify.probes import CacheProbe, PersistProbe, run_fixed_schedule
from repro.verify.runner import probe_queries
from repro.verify.servecheck import (
    fuzz_serve,
    run_mutation_stream_drill,
    run_serve_drill,
)
from repro.verify.shardcheck import run_plan_sanity, run_shard_drill

D_MAX = 3


def run_cache_drill(*args):
    return run_fixed_schedule(CacheProbe, *args)


def run_persistence_drill(*args):
    return run_fixed_schedule(PersistProbe, *args)


@pytest.fixture(scope="module")
def case():
    """The smallest corpus case, exactly as ``run_verification`` uses it."""
    _name, graph, ontology = verification_corpus(quick=True, seed=0)[0]

    def build() -> BiGIndex:
        return BiGIndex.build(
            graph.copy(),
            ontology,
            num_layers=2,
            cost_params=CostParams(exact=True),
        )

    return graph, ontology, build, probe_queries(graph)


def never_store(monkeypatch, kind):
    """Plant: every ``LRUCache`` of ``kind`` drops its puts, so it never
    hits; only its hit counter can tell."""
    real_put = LRUCache.put

    def put_unless(self, key, value):
        if self.kind != kind:
            real_put(self, key, value)

    monkeypatch.setattr(LRUCache, "put", put_unless)


@pytest.fixture
def dead_result_cache(monkeypatch):
    """Plant: a result cache that never fills answers correctly — and
    never hits; only the hit counter can tell."""
    never_store(monkeypatch, "result")


@pytest.fixture
def dead_frontier_memo(monkeypatch):
    """Plant: a frontier memo that never stores, so it never hits."""
    never_store(monkeypatch, "frontier")


@pytest.fixture
def dead_profile_memo(monkeypatch):
    """Plant: a root-profile memo that never stores, so it never hits."""
    never_store(monkeypatch, "profile")


@pytest.fixture
def heap_resident_reload(monkeypatch, case):
    """Plant: a loader that rebuilds on the heap answers identically but
    breaks the zero-copy warm-start contract."""
    build = case[2]
    monkeypatch.setattr(
        probes, "load_index", lambda directory, ontology: build()
    )


class TestCacheProbe:
    def test_clean_run_passes(self, case):
        _graph, _ontology, build, queries = case
        report = run_cache_drill(
            build, [lambda: BackwardKeywordSearch(d_max=D_MAX)], queries
        )
        assert report.ok, report.format()

    def test_stale_epoch_is_caught(self, case, monkeypatch):
        """A result-cache key that omits the index epoch serves
        pre-mutation answers after ``delete_edge``."""
        _graph, _ontology, build, queries = case
        real_get, real_put = LRUCache.get, LRUCache.put

        def epochless(cache, key):
            return key[1:] if cache.kind == "result" else key

        def get(self, key):
            return real_get(self, epochless(self, key))

        def put(self, key, value):
            real_put(self, epochless(self, key), value)

        monkeypatch.setattr(LRUCache, "get", get)
        monkeypatch.setattr(LRUCache, "put", put)
        report = run_cache_drill(
            build, [lambda: BackwardKeywordSearch(d_max=D_MAX)], queries
        )
        assert not report.ok
        text = report.format()
        assert text.startswith("cache:")
        assert "delete_edge" in text or "after op 1" in text

    def test_stale_algorithm_index_is_caught(self, case, monkeypatch):
        """An r-clique neighbor list that outlives an in-place write
        answers layer-0 reads and layer-m verification from pre-write
        distances; the uncached side's own algorithm does not."""
        _graph, _ontology, build, queries = case

        def ignores_epoch(self, graph):
            entry = self._index_cache.get(graph)
            return None if entry is None else entry[1]

        monkeypatch.setattr(RClique, "_index_for", ignores_epoch)
        report = run_cache_drill(
            build, [lambda: RClique(radius=2, k=None)], queries
        )
        assert not report.ok
        assert "r-clique" in report.format()

    def test_dead_result_cache_is_caught(self, case, dead_result_cache):
        _graph, _ontology, build, queries = case
        report = run_cache_drill(
            build, [lambda: BackwardKeywordSearch(d_max=D_MAX)], queries
        )
        assert not report.ok
        text = report.format()
        assert text.startswith("cache:")
        assert "never hit" in text


class TestPersistProbe:
    def test_clean_run_passes(self, case):
        _graph, _ontology, build, queries = case
        report = run_persistence_drill(
            build, [BackwardKeywordSearch(d_max=D_MAX)], queries[:2]
        )
        assert report.ok, report.format()

    def test_heap_resident_reload_is_caught(
        self, case, heap_resident_reload
    ):
        _graph, _ontology, build, queries = case
        report = run_persistence_drill(
            build, [BackwardKeywordSearch(d_max=D_MAX)], queries[:2]
        )
        assert not report.ok
        text = report.format()
        assert text.startswith("persist:")
        assert "mmap-backed" in text

    def test_dead_frontier_memo_is_caught(self, case, dead_frontier_memo):
        _graph, _ontology, build, queries = case
        report = run_persistence_drill(
            build, [BackwardKeywordSearch(d_max=D_MAX)], queries[:2]
        )
        assert not report.ok
        assert "frontier memo never hit" in report.format()

    def test_dead_profile_memo_is_caught(self, case, dead_profile_memo):
        _graph, _ontology, build, queries = case
        report = run_persistence_drill(
            build, [BackwardKeywordSearch(d_max=D_MAX)], queries[:2]
        )
        assert not report.ok
        text = report.format()
        assert "profile memo never hit" in text
        assert "frontier memo" not in text

    def test_memo_kept_across_detach_is_caught(self, case, monkeypatch):
        """Plant: a detach that keeps the frozen payload, and with it the
        memo of frontiers expanded on the pre-write adjacency."""
        _graph, _ontology, build, queries = case
        real_materialize = Graph._materialize

        def keeps_payload(graph):
            frozen = graph._frozen
            real_materialize(graph)
            graph._frozen = frozen

        monkeypatch.setattr(Graph, "_materialize", keeps_payload)
        report = run_persistence_drill(
            build, [BackwardKeywordSearch(d_max=D_MAX)], queries[:2]
        )
        assert not report.ok
        assert "kept their frontier memo" in report.format()
        assert "kept their profile memo" in report.format()

    def test_edge_dropped_by_reload_is_caught(self, case, monkeypatch):
        _graph, _ontology, build, queries = case

        def one_edge_short(directory, ontology):
            loaded = load_index(directory, ontology)
            loaded.delete_edge(*sorted(loaded.base_graph.edges())[-1])
            return loaded

        monkeypatch.setattr(
            probes, "load_index", one_edge_short
        )
        report = run_persistence_drill(
            build, [BackwardKeywordSearch(d_max=D_MAX)], queries[:2]
        )
        assert not report.ok
        text = report.format()
        assert text.startswith("persist:")
        assert "digest" in text


class TestShardProbe:
    def _factories(
        self, graph, ontology, num_shards=3, sharded_hook=lambda s: s
    ):
        kwargs = dict(num_layers=2, cost_params=CostParams(num_samples=25))
        return dict(
            sharded_factory=lambda: sharded_hook(
                build_sharded(
                    graph.copy(), ontology,
                    num_shards, 2 * D_MAX, **kwargs,
                )
            ),
            mono_factory=lambda: BiGIndex.build(
                graph.copy(), ontology, **kwargs
            ),
            algorithms=[
                BackwardKeywordSearch(d_max=D_MAX),
                BidirectionalSearch(d_max=D_MAX),
                Blinks(d_max=D_MAX),
            ],
        )

    def test_clean_run_passes(self, case):
        report = run_shard_drill(
            queries=case[3], mutation_rounds=3, ops_per_round=4, seed=0,
            **self._factories(case[0], case[1]),
        )
        assert report.ok, report.format()

    def test_unrouted_cross_shard_insert_is_caught(self, case):
        """A facade that records a cross-shard insert in the cut table
        but never grows the zone loses the answers that cross it.  The
        case graph plus a relabeled disjoint copy shard without a cut
        (K = 2), so the first cross-shard insert has to create the zone,
        and queries mixing both label sets answer only across the cut."""
        graph, ontology = case[0], case[1]
        twins = graph.copy()
        offset = graph.num_vertices
        for v in range(offset):
            twins.add_vertex(graph.label(v) + "2")
        for u, v in graph.edges():
            twins.add_edge(offset + u, offset + v)

        def zone_blind(sharded):
            assert sharded.num_shards == 2 and sharded.zone is None
            sharded._grow_zone = lambda u, v: None
            return sharded

        report = run_shard_drill(
            queries=probe_queries(twins), mutation_rounds=3, ops_per_round=4,
            seed=0,
            **self._factories(twins, ontology, 2, sharded_hook=zone_blind),
        )
        assert not report.ok
        text = report.format()
        assert text.startswith("shard")
        assert "sharded=" in text and "monolithic=" in text

    def test_plan_sanity_catches_a_lossy_plan(self, case, monkeypatch):
        graph = case[0]
        real_plan = shardcheck.plan_shards

        def lossy_plan(*args, **kwargs):
            plan = real_plan(*args, **kwargs)
            plan.shard_vertices[0].pop()
            return plan

        monkeypatch.setattr(shardcheck, "plan_shards", lossy_plan)
        report = run_plan_sanity(graph, num_shards=3)
        assert not report.ok
        assert "cover every vertex" in report.format()


def _answer_changing_ops(build, query):
    """Delete (then restore) an edge of the query's best answer, so the
    response bytes differ from one epoch to the next."""
    index = build()
    evaluator = HierarchicalEvaluator(
        index, BackwardKeywordSearch(d_max=D_MAX), cache_size=0
    )
    answers = evaluator.evaluate(query).answers
    u, v = sorted(answers[0].edges)[0]
    return [("delete", u, v), ("insert", u, v)]


class TestServeProbe:
    @staticmethod
    def _algorithm():
        return BackwardKeywordSearch(d_max=D_MAX)

    @pytest.fixture
    def stuck_epoch(self, monkeypatch):
        """Plant: the *served* runtime publishes mutations under the
        epoch it booted with (the in-process oracle stays honest)."""

        real_serve = servecheck.serve_in_thread

        def serve_with_stuck_epoch(service, *args, **kwargs):
            runtime = service.runtime
            boot_epoch = runtime.epoch
            real_publish = runtime._publish

            def publish_under_boot_epoch(index):
                forged = dataclasses.replace(
                    real_publish(index), epoch=boot_epoch
                )
                runtime._snapshot = forged
                return forged

            runtime._publish = publish_under_boot_epoch
            return real_serve(service, *args, **kwargs)

        monkeypatch.setattr(
            servecheck, "serve_in_thread", serve_with_stuck_epoch
        )

    def test_clean_run_passes(self, case):
        _graph, _ontology, build, queries = case
        ops = _answer_changing_ops(build, queries[0])
        report = run_serve_drill(
            build, self._algorithm, queries[:2], threads=2, rounds=2,
            ops=ops, seed=0,
        )
        assert report.ok, report.format()

    def test_hammer_catches_mutation_under_a_stale_epoch(
        self, case, stuck_epoch
    ):
        _graph, _ontology, build, queries = case
        ops = _answer_changing_ops(build, queries[0])
        report = run_serve_drill(
            build, self._algorithm, queries[:2], threads=2, rounds=40,
            ops=ops[:1], seed=0,
        )
        assert not report.ok
        text = report.format()
        assert text.startswith("serve:")
        assert "differs from single-threaded evaluation" in text

    def test_mutation_stream_catches_mutation_under_a_stale_epoch(
        self, case, stuck_epoch
    ):
        _graph, _ontology, build, queries = case
        ops = _answer_changing_ops(build, queries[0])
        report = run_mutation_stream_drill(
            build, self._algorithm, queries[:2], threads=2, rounds=40,
            ops=ops[:1], seed=0,
        )
        assert not report.ok
        text = report.format()
        assert text.startswith("serve:")
        assert "single-threaded evaluation" in text

    def test_serve_fuzz_catches_mutation_under_a_stale_epoch(
        self, case, stuck_epoch
    ):
        _graph, _ontology, build, queries = case
        report = fuzz_serve(
            build, self._algorithm, queries[:2], ops_per_sequence=3,
            sequences=1, seed=0,
        )
        assert not report.ok
        text = report.format()
        assert text.startswith("serve:")
        assert "epoch" in text


class TestFuzzInterleaved:
    """The fuzzer runs the very same probe classes, so it asserts what
    used to be checked by the deterministic legs alone."""

    def _fuzz(self, case):
        _graph, _ontology, build, queries = case
        return fuzz_index(
            build, [BackwardKeywordSearch(d_max=D_MAX)], queries[:1],
            sequences=1, ops_per_sequence=2, seed=0,
        )

    def test_dead_result_cache_is_caught(self, case, dead_result_cache):
        report = self._fuzz(case)
        assert not report.ok
        text = report.format()
        assert text.startswith("fuzz:")
        assert "never hit" in text
        assert "seed 0" in text and "minimal reproducer" in text

    def test_heap_resident_reload_is_caught(
        self, case, heap_resident_reload
    ):
        report = self._fuzz(case)
        assert not report.ok
        assert "mmap-backed" in report.format()


class TestHarnessFloor:
    def test_quick_campaign_does_at_least_the_pinned_work(self):
        """Minimums read off ``verify --quick --seed 0 --faults`` when the
        legs were folded onto one loop; raise them when a leg gains
        checks, never lower them."""
        report = run_verification(quick=True, seed=0, faults=True)
        assert report.ok, report.format()
        assert [case.name for case in report.cases] == [
            "verify-toy-a", "verify-toy-b",
        ]
        for case, oracle_floor, cache_floor in zip(
            report.cases, (14, 12), (72, 48)
        ):
            assert case.audit.checks_run >= 18
            assert case.oracle.checks >= oracle_floor
            fuzz = case.drills["fuzz"]
            assert fuzz.notes["sequences"] >= 2 and fuzz.notes["ops"] >= 10
            assert fuzz.checks >= 262
            cache = case.drills["cache"]
            assert cache.checks >= cache_floor
            assert cache.notes["hits"] >= cache_floor // 2
            assert case.drills["persist"].checks >= 44
            assert case.drills["maintain"].checks >= 9
            shard = case.drills["shard"]
            assert shard.checks >= 36
            assert shard.notes["rounds"] >= 2 and shard.notes["ops"] >= 6
        assert report.drills["faults"].checks >= 97
        serve = report.drills["serve"]
        assert serve.checks >= 30
        assert serve.notes["epochs"] >= 6 and serve.notes["fuzz_ops"] >= 2
