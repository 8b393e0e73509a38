"""Sharded BiG-index: planning, building, merging, mutating, persisting."""

import dataclasses
import json
import os
import random
import sys

import pytest

from repro.core.cost import CostParams
from repro.core.evaluator import DegradedResult, HierarchicalEvaluator
from repro.core import persistence
from repro.core.index import BiGIndex
from repro.core.persistence import (
    WAL_NAME,
    load_index,
    save_index,
    write_manifest,
)
from repro.core.sharding import (
    ShardedEvaluator,
    ShardedIndex,
    build_sharded,
    plan_shards,
)
from repro.core.wal import MutationWAL, apply_wal_op
from repro.datasets.knowledge import yago_like
from repro.datasets.synthetic import (
    ZipfSampler,
    community_dataset,
    generate_community_graph,
    synthetic_dataset,
    verification_ontology,
)
from repro.datasets.workloads import generate_queries
from repro.graph.digraph import Graph
from repro.graph.traversal import bfs_distances
from repro.obs import Tracer, instrumented
from repro.ontology.ontology import generate_ontology
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import KeywordQuery
from repro.search.bidirectional import BidirectionalSearch
from repro.search.blinks import Blinks
from repro.search.rclique import RClique
from repro.utils.budget import Budget
from repro.utils.errors import (
    BudgetExceeded,
    ConfigurationError,
    GraphError,
    IndexCorruptedError,
    IndexVersionError,
    QueryError,
)

BUILD_KW = dict(num_layers=2, cost_params=CostParams(num_samples=10))


def small_case(seed=0, num_vertices=60, num_edges=150):
    ontology = verification_ontology()
    import random

    rng = random.Random(seed)
    labels = ["A", "B", "C", "D", "E"]
    g = Graph()
    for _ in range(num_vertices):
        g.add_vertex(rng.choice(labels))
    added = 0
    while added < num_edges:
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u != v and g.add_edge(u, v):
            added += 1
    return g, ontology


def outcomes(evaluator, query, **kwargs):
    try:
        result = evaluator.evaluate(query, **kwargs)
        return [
            (a.score, a.signature(), a.vertices, a.edges)
            for a in result.answers
        ]
    except QueryError as exc:
        return ("error", str(exc))


def probe(graph, count=6):
    from repro.verify.runner import probe_queries

    return probe_queries(graph, count=count)


class TestPlanning:
    def test_plan_covers_every_vertex_once(self):
        g, _ = small_case()
        plan = plan_shards(g, 3, halo_radius=4)
        seen = sorted(v for vs in plan.shard_vertices for v in vs)
        assert seen == list(range(g.num_vertices))
        for s, members in enumerate(plan.shard_vertices):
            assert all(plan.shard_of[v] == s for v in members)

    def test_shards_are_edge_disjoint(self):
        g, _ = small_case()
        plan = plan_shards(g, 3, halo_radius=4)
        cut = set(plan.cut_edges)
        for u, v in g.edges():
            crossing = plan.shard_of[u] != plan.shard_of[v]
            assert crossing == ((u, v) in cut)

    def test_portals_are_exactly_cut_endpoints(self):
        g, _ = small_case(seed=3)
        plan = plan_shards(g, 4, halo_radius=2)
        expected = sorted({v for edge in plan.cut_edges for v in edge})
        assert plan.portals == expected

    def test_zone_is_ball_around_portals(self):
        g, _ = small_case(seed=1)
        plan = plan_shards(g, 3, halo_radius=1)
        members = set(plan.portals)
        for p in plan.portals:
            members.update(g.out_neighbors(p))
            members.update(g.in_neighbors(p))
        assert plan.zone_vertices == sorted(members)

    def test_plan_is_deterministic(self):
        g, _ = small_case(seed=2)
        a = plan_shards(g, 4, halo_radius=3)
        b = plan_shards(g, 4, halo_radius=3)
        assert a == b

    def test_single_shard_has_no_cut(self):
        g, _ = small_case()
        plan = plan_shards(g, 1, halo_radius=4)
        assert plan.num_shards == 1
        assert plan.cut_edges == []
        assert plan.portals == []
        assert plan.zone_vertices == []

    def test_more_shards_than_vertices_drops_empty(self):
        g = Graph()
        for label in ("A", "B", "C"):
            g.add_vertex(label)
        plan = plan_shards(g, 8, halo_radius=2)
        assert plan.num_shards <= 3
        assert sorted(v for vs in plan.shard_vertices for v in vs) == [0, 1, 2]

    def test_invalid_arguments(self):
        g, _ = small_case()
        with pytest.raises(GraphError):
            plan_shards(g, 0)
        with pytest.raises(GraphError):
            plan_shards(g, 2, halo_radius=-1)
        with pytest.raises(GraphError):
            plan_shards(Graph(), 2)


class TestExactness:
    @pytest.mark.parametrize("num_shards", [1, 3], ids=["K1", "K3"])
    @pytest.mark.parametrize(
        "algorithm",
        [
            BackwardKeywordSearch(d_max=2, k=5),
            BidirectionalSearch(d_max=2, k=5),
        ],
        ids=["bkws", "bdws"],
    )
    def test_sharded_matches_monolithic(self, algorithm, num_shards):
        # A monolithic index is the one-locale case: K = 1 has no cut,
        # so no zone, and its one shard answers every query.
        g, ontology = small_case(seed=4)
        sharded = build_sharded(
            g.copy(), ontology, num_shards, 4,
            **BUILD_KW,
        )
        assert sharded.num_shards == num_shards
        assert (sharded.zone is None) == (num_shards == 1)
        mono = BiGIndex.build(
            g.copy(), ontology, **BUILD_KW
        )
        se = ShardedEvaluator(sharded, algorithm)
        he = HierarchicalEvaluator(mono, algorithm, allow_layer_zero=True)
        for query in probe(g):
            assert outcomes(se, query) == outcomes(he, query)

    def test_blinks_matches_scores_and_per_root_optimality(self):
        # Blinks confirms only the first k roots its cursors surface, so
        # among equal-scored answers the monolithic *tie set* is
        # enumeration-dependent and byte-equality is not well-defined.
        # The sharded guarantee is the ranking one: identical score
        # sequence, and every emitted answer optimal for its root.
        algorithm = Blinks(d_max=2, k=5)
        g, ontology = small_case(seed=4)
        sharded = build_sharded(
            g.copy(), ontology, 3, 4, **BUILD_KW
        )
        mono = BiGIndex.build(
            g.copy(), ontology, **BUILD_KW
        )
        se = ShardedEvaluator(sharded, algorithm)
        he = HierarchicalEvaluator(mono, algorithm, allow_layer_zero=True)
        for query in probe(g):
            try:
                ours = se.evaluate(query)
            except QueryError as exc:
                with pytest.raises(QueryError, match=str(exc)):
                    he.evaluate(query)
                continue
            theirs = he.evaluate(query)
            assert [a.score for a in ours.answers] == [
                a.score for a in theirs.answers
            ]
            for answer in ours.answers:
                best = algorithm.best_hit_for_root(g, answer.root, query)
                assert best is not None
                assert answer.score == best.score

    def test_gather_sums_every_locale_count(self):
        """The merged result reports the locales' counts, ``num_bounded``
        (candidates the layer-1 reach bound rejects) included."""
        dataset = yago_like(scale=0.05)
        g = dataset.graph
        sharded = build_sharded(
            g.copy(), dataset.ontology, 2, 6,
            num_layers=3, cost_params=CostParams(num_samples=10),
        )
        se = ShardedEvaluator(sharded, BackwardKeywordSearch(d_max=3, k=None))
        locale_outcomes = []
        evaluate_locale = se._evaluate_locale

        def spy(*args):
            locale_outcomes.append(evaluate_locale(*args))
            return locale_outcomes[-1]

        se._evaluate_locale = spy
        bounded = 0
        for spec in generate_queries(g, [2, 2, 3, 3], seed=0, min_support=3):
            locale_outcomes.clear()
            result = se.evaluate(spec.query, layer=2)
            for count in (
                "num_generalized", "num_candidates", "num_verified",
                "num_bounded",
            ):
                assert getattr(result, count) == sum(
                    getattr(o, count) for o in locale_outcomes
                ), count
            bounded += result.num_bounded
        assert bounded > 0

    def test_missing_keyword_matches_monolithic_error(self):
        g, ontology = small_case()
        sharded = build_sharded(
            g.copy(), ontology, 2, 4, **BUILD_KW
        )
        algorithm = BackwardKeywordSearch(d_max=2, k=5)
        se = ShardedEvaluator(sharded, algorithm)
        with pytest.raises(QueryError, match="does not occur in the graph"):
            se.evaluate(KeywordQuery(["A", "ZZZ"]))

    def test_forced_layer_is_best_effort(self):
        g, ontology = small_case(seed=5)
        sharded = build_sharded(
            g.copy(), ontology, 3, 4, **BUILD_KW
        )
        algorithm = BackwardKeywordSearch(d_max=2, k=5)
        se = ShardedEvaluator(sharded, algorithm)
        for query in probe(g, count=3):
            free = outcomes(se, query)
            forced = outcomes(se, query, layer=sharded.num_layers)
            if isinstance(free, list) and isinstance(forced, list):
                assert [a[:2] for a in free] == [a[:2] for a in forced]

    def test_evaluate_many_matches_sequential(self):
        g, ontology = small_case(seed=6)
        sharded = build_sharded(
            g.copy(), ontology, 2, 4, **BUILD_KW
        )
        algorithm = BackwardKeywordSearch(d_max=2, k=5)
        se = ShardedEvaluator(sharded, algorithm)
        queries = probe(g, count=4)
        batched = se.evaluate_many(queries)
        for query, result in zip(queries, batched):
            solo = se.evaluate_resilient(query)
            assert [a.signature() for a in result.answers] == [
                a.signature() for a in solo.answers
            ]

    def test_traced_scatter_has_one_span_stack(self):
        """The span tree ``query <sharded> --explain`` renders is the
        same on every run and every span closes on the stack top, however
        eagerly the interpreter switches threads: scatter runs on the
        calling thread, so locales cannot interleave pushes onto the
        tracer's one stack (a scatter thread pool did)."""
        g, ontology = small_case(seed=6)
        sharded = build_sharded(
            g.copy(), ontology, 4, 4, **BUILD_KW
        )
        assert sharded.num_shards == 4
        algorithm = BackwardKeywordSearch(d_max=2, k=5)
        queries = probe(g, count=4)

        class CheckedTracer(Tracer):
            closed_off_top = 0

            def _close(self, span, exc):
                self.closed_off_top += not (
                    self._stack and self._stack[-1] is span
                )
                super()._close(span, exc)

        def shape(span):
            return (span.name, [shape(child) for child in span.children])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            trees = []
            for _ in range(6):
                # A fresh evaluator per repeat: a warm result cache would
                # legitimately replace the phases with one span.
                se = ShardedEvaluator(sharded, algorithm)
                tracer = CheckedTracer()
                with instrumented(tracer=tracer):
                    for query in queries:
                        se.evaluate(query)
                assert tracer.closed_off_top == 0
                assert tracer._stack == []
                trees.append([shape(root) for root in tracer.roots])
        finally:
            sys.setswitchinterval(interval)
        assert len(trees[0]) > len(queries)  # several locales answered
        assert all(tree == trees[0] for tree in trees[1:])

    @pytest.mark.parametrize(
        "kind, bad",
        [
            # A and B both generalize to AB: they collide at layer 1.
            ("monolithic", ["A", "B"]),
            # Locales treat a forced layer as a hint, so a sharded index
            # only rejects keywords that occur nowhere in the graph.
            ("sharded", ["A", "ZZZ"]),
        ],
    )
    def test_evaluate_many_returns_only_query_errors(
        self, kind, bad, monkeypatch
    ):
        # One batch contract for both evaluators: return_exceptions turns
        # a bad *query* into a QueryError object in its slot and nothing
        # else — a failure inside evaluation still aborts the batch.
        from repro.core.plugins import boost

        g, ontology = small_case(seed=6)
        graph = g.copy()
        index = (
            BiGIndex.build(graph, ontology, **BUILD_KW)
            if kind == "monolithic"
            else build_sharded(graph, ontology, 2, 4, **BUILD_KW)
        )
        evaluator = boost(
            BackwardKeywordSearch(d_max=2, k=5), index, allow_layer_zero=True
        ).evaluator
        assert isinstance(evaluator, ShardedEvaluator) == (kind == "sharded")
        good = KeywordQuery(["A", "E"])
        results = evaluator.evaluate_many(
            [good, KeywordQuery(bad)], layer=1, return_exceptions=True
        )
        assert not isinstance(results[0], Exception)
        assert isinstance(results[1], QueryError)
        with pytest.raises(QueryError):
            evaluator.evaluate_many([KeywordQuery(bad)], layer=1)

        def broken(*args, **kwargs):
            raise RuntimeError("bug inside evaluation")

        monkeypatch.setattr(evaluator, "evaluate_resilient", broken)
        with pytest.raises(RuntimeError):
            evaluator.evaluate_many([good], layer=1, return_exceptions=True)

    def test_rclique_is_rejected(self):
        g, ontology = small_case()
        sharded = build_sharded(
            g.copy(), ontology, 2, 4, **BUILD_KW
        )
        with pytest.raises(ConfigurationError, match="rooted"):
            ShardedEvaluator(sharded, RClique(radius=2, k=5))

    def test_small_halo_is_rejected(self):
        g, ontology = small_case()
        sharded = build_sharded(
            g.copy(), ontology, 2, 3, **BUILD_KW
        )
        with pytest.raises(ConfigurationError, match="halo"):
            ShardedEvaluator(sharded, BackwardKeywordSearch(d_max=2, k=5))


class TestBudgets:
    def test_tiny_budget_degrades_with_lower_bound(self):
        g, ontology = small_case(seed=7)
        sharded = build_sharded(
            g.copy(), ontology, 3, 4, **BUILD_KW
        )
        algorithm = BackwardKeywordSearch(d_max=2, k=5)
        se = ShardedEvaluator(sharded, algorithm)
        degraded = None
        for query in probe(g, count=6):
            try:
                result = se.evaluate_resilient(
                    query, budget=Budget(max_expansions=3)
                )
            except QueryError:
                continue
            if isinstance(result, DegradedResult):
                degraded = result
                break
        assert degraded is not None, "expected at least one degraded query"
        assert degraded.degraded
        assert degraded.lower_bound is not None
        # Prefix soundness: every ranked answer beats the cut-off.
        assert all(a.score < degraded.lower_bound for a in degraded.answers)
        assert degraded.stats is not None
        assert degraded.attempts

    def test_degraded_never_silently_drops(self):
        g, ontology = small_case(seed=8)
        sharded = build_sharded(
            g.copy(), ontology, 3, 4, **BUILD_KW
        )
        algorithm = BackwardKeywordSearch(d_max=2, k=5)
        se = ShardedEvaluator(sharded, algorithm)
        for query in probe(g, count=6):
            try:
                full = se.evaluate_resilient(query)
                tight = se.evaluate_resilient(
                    query, budget=Budget(max_expansions=3)
                )
            except QueryError:
                continue
            if not isinstance(tight, DegradedResult):
                continue
            # Everything the full run ranks is either ranked or
            # explicitly unranked in the degraded run — never vanished
            # without the lower bound accounting for it.
            emitted = {
                a.signature() for a in (*tight.answers, *tight.unranked)
            }
            for answer in full.answers:
                if answer.score < tight.lower_bound:
                    assert answer.signature() in {
                        a.signature() for a in tight.answers
                    }
                else:
                    assert (
                        answer.signature() in emitted
                        or answer.score >= tight.lower_bound
                    )

    def test_strict_budget_raises_the_resilient_prefix(self):
        # evaluate reads evaluate_resilient's outcome: the exception
        # carries the same proven prefix and bound an equal fresh budget
        # degrades to.
        g, ontology = small_case(seed=7)
        sharded = build_sharded(
            g.copy(), ontology, 3, 4, **BUILD_KW
        )
        se = ShardedEvaluator(sharded, BackwardKeywordSearch(d_max=2, k=5))
        checked = 0
        for query in probe(g, count=6):
            try:
                degraded = se.evaluate_resilient(
                    query, budget=Budget(max_expansions=3)
                )
            except QueryError:
                continue
            if not degraded.degraded:
                continue
            with pytest.raises(BudgetExceeded) as caught:
                se.evaluate(query, budget=Budget(max_expansions=3))
            assert caught.value.partial == degraded.answers
            assert caught.value.lower_bound == degraded.lower_bound
            checked += 1
        assert checked, "expected at least one degraded query"


class TestMutation:
    def rebuild_reference(self, sharded, ontology):
        return BiGIndex.build(
            sharded.base_graph.copy(),
            ontology,
            **BUILD_KW,
        )

    def check_equal(self, sharded, ontology):
        algorithm = BackwardKeywordSearch(d_max=2, k=5)
        se = ShardedEvaluator(sharded, algorithm)
        he = HierarchicalEvaluator(
            self.rebuild_reference(sharded, ontology),
            algorithm,
            allow_layer_zero=True,
        )
        for query in probe(sharded.base_graph, count=4):
            assert outcomes(se, query) == outcomes(he, query)

    def test_same_shard_insert_and_delete(self):
        g, ontology = small_case(seed=9)
        sharded = build_sharded(
            g.copy(), ontology, 3, 4, **BUILD_KW
        )
        members = sharded.shards[0].global_ids
        pair = next(
            (u, v)
            for u in members
            for v in members
            if u != v and not sharded.base_graph.has_edge(u, v)
        )
        sharded.insert_edge(*pair)
        self.check_equal(sharded, ontology)
        sharded.delete_edge(*pair)
        self.check_equal(sharded, ontology)

    def test_cross_shard_insert_and_delete(self):
        g, ontology = small_case(seed=10)
        sharded = build_sharded(
            g.copy(), ontology, 3, 4, **BUILD_KW
        )
        u = sharded.shards[0].global_ids[0]
        v = sharded.shards[1].global_ids[0]
        if sharded.base_graph.has_edge(u, v):
            sharded.delete_edge(u, v)
            self.check_equal(sharded, ontology)
        else:
            before = sharded.cut_edge_count()
            sharded.insert_edge(u, v)
            assert sharded.cut_edge_count() == before + 1
            self.check_equal(sharded, ontology)
            sharded.delete_edge(u, v)
            assert sharded.cut_edge_count() == before
            self.check_equal(sharded, ontology)

    def test_delete_missing_edge_raises(self):
        g, ontology = small_case()
        sharded = build_sharded(
            g.copy(), ontology, 2, 4, **BUILD_KW
        )
        u, v = 0, 1
        while sharded.base_graph.has_edge(u, v):
            v += 1
        with pytest.raises(GraphError):
            sharded.delete_edge(u, v)

    def test_remove_ontology_edge_routes_to_all_locales(self):
        g, ontology = small_case(seed=11)
        sharded = build_sharded(
            g.copy(), ontology, 3, 4, **BUILD_KW
        )
        sharded.remove_ontology_edge("A", "AB")
        for locale in sharded.locales:
            for layer in locale.index.layers:
                assert layer.config.mappings.get("A") != "AB"

    def test_cow_clone_isolates_mutations(self):
        # Serve-stack convention: readers pin the original; mutations go
        # to a cow clone which is swapped in afterwards.
        g, ontology = small_case(seed=12)
        sharded = build_sharded(
            g.copy(), ontology, 3, 4, **BUILD_KW
        )
        digest = sharded.state_digest()
        clone = sharded.cow_clone()
        members = clone.shards[0].global_ids
        pair = next(
            (u, v)
            for u in members
            for v in members
            if u != v and not clone.base_graph.has_edge(u, v)
        )
        clone.insert_edge(*pair)
        assert sharded.state_digest() == digest
        assert clone.state_digest() != digest

    def test_epoch_moves_with_mutations(self):
        g, ontology = small_case(seed=13)
        sharded = build_sharded(
            g.copy(), ontology, 2, 4, **BUILD_KW
        )
        epoch = sharded.epoch
        members = sharded.shards[0].global_ids
        pair = next(
            (u, v)
            for u in members
            for v in members
            if u != v and not sharded.base_graph.has_edge(u, v)
        )
        sharded.insert_edge(*pair)
        assert sharded.epoch != epoch


def test_core_constructs_one_executor():
    """Whole-locale build processes are the one worker pool that beat its
    serial arm on this host (docs/PERFORMANCE.md, "Multicore"); another
    pool under ``repro.core`` has to arrive with its own measurement and
    an edit here."""
    import ast
    import pathlib

    import repro.core

    sites = []
    for path in sorted(pathlib.Path(repro.core.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [
            n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
        ]
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            callee = getattr(call.func, "id", getattr(call.func, "attr", ""))
            if callee.endswith("Executor"):
                owners = [
                    f.name for f in functions
                    if f.lineno <= call.lineno <= f.end_lineno
                ]
                sites.append((path.name, owners, callee))
    assert sites == [
        ("sharding.py", ["_run_build_tasks"], "ProcessPoolExecutor")
    ]


def _log_and_fail(task):
    """Stand-in pool task (module level, so picklable by reference);
    ``task[0]`` is the call log's path."""
    with open(task[0], "a", encoding="utf-8") as handle:
        handle.write("call\n")
    raise RuntimeError("worker-side failure")


class TestPersistence:
    def test_round_trip_preserves_digest_and_answers(self, tmp_path):
        g, ontology = small_case(seed=14)
        directory = str(tmp_path / "sharded")
        sharded = build_sharded(
            g.copy(),
            ontology,
            3,
            4,
            directory=directory,
            workers=2,
            **BUILD_KW,
        )
        loaded = load_index(directory, ontology)
        assert isinstance(loaded, ShardedIndex)
        assert loaded.state_digest() == sharded.state_digest()
        algorithm = BackwardKeywordSearch(d_max=2, k=5)
        se = ShardedEvaluator(sharded, algorithm)
        le = ShardedEvaluator(loaded, algorithm)
        for query in probe(g, count=4):
            assert outcomes(se, query) == outcomes(le, query)

    def test_serial_and_parallel_builds_are_identical(self, tmp_path):
        g, ontology = small_case(seed=15)
        one = build_sharded(
            g.copy(),
            ontology,
            3,
            4,
            directory=str(tmp_path / "w1"),
            workers=1,
            **BUILD_KW,
        )
        four = build_sharded(
            g.copy(),
            ontology,
            3,
            4,
            directory=str(tmp_path / "w4"),
            workers=4,
            **BUILD_KW,
        )
        assert one.state_digest() == four.state_digest()

    def test_failed_build_task_propagates(self, tmp_path, monkeypatch):
        """A locale build that raises runs once and its exception reaches
        the caller: ``_run_build_tasks`` falls back to inline execution
        only when no pool can be *constructed*, never by re-running a
        failed task (which would repeat the work and could mask it)."""
        from repro.core import sharding

        log = tmp_path / "calls.log"
        tasks = [(str(log), "shard-0"), (str(log), "shard-1")]
        monkeypatch.setattr(sharding, "_build_locale_task", _log_and_fail)
        with pytest.raises(RuntimeError, match="worker-side failure"):
            sharding._run_build_tasks(tasks, workers=2)
        assert 1 <= len(log.read_text().splitlines()) <= len(tasks)

    @pytest.fixture
    def saved(self, tmp_path):
        g, ontology = small_case(seed=16)
        directory = str(tmp_path / "sharded")
        sharded = build_sharded(
            g.copy(),
            ontology,
            2,
            4,
            directory=directory,
            **BUILD_KW,
        )
        return directory, ontology, sharded

    def test_manifest_has_per_shard_digests(self, saved):
        # The root manifest has the monolithic shape; every locale's own
        # manifest is one of its checksummed files.
        directory, _ontology, _sharded = saved
        with open(os.path.join(directory, "manifest.json")) as handle:
            manifest = json.load(handle)
        assert set(manifest) == {"algorithm", "files"}
        assert set(manifest["files"]) == {"meta.json", "shards.json"} | {
            f"{name}/manifest.json"
            for name in os.listdir(directory)
            if os.path.isdir(os.path.join(directory, name))
        }

    @pytest.mark.parametrize(
        "victim", ["shards.json", os.path.join("shard-0", "manifest.json")]
    )
    def test_missing_layout_file_is_corruption(self, saved, victim):
        directory, ontology, _sharded = saved
        os.remove(os.path.join(directory, victim))
        with pytest.raises(IndexCorruptedError, match="missing"):
            load_index(directory, ontology)

    def test_tampered_layout_is_corruption(self, saved):
        directory, ontology, _sharded = saved
        with open(os.path.join(directory, "shards.json"), "a") as handle:
            handle.write("\n")
        with pytest.raises(IndexCorruptedError, match="checksum mismatch"):
            load_index(directory, ontology)
        # ... unless the edit was deliberate and the root is re-blessed.
        write_manifest(directory)
        load_index(directory, ontology)

    def test_foreign_sharded_version_is_a_version_error(self, saved):
        # Checked before the checksums, like the monolithic version.
        directory, ontology, _sharded = saved
        meta_path = os.path.join(directory, "meta.json")
        with open(meta_path) as handle:
            meta = json.load(handle)
        meta["sharded_version"] = 1
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)
        with pytest.raises(IndexVersionError, match="rebuild"):
            load_index(directory, ontology)

    def test_failed_swap_keeps_the_previous_index(self, saved, monkeypatch):
        # The final rename fails: like save_index, the build must leave
        # the previous index recoverable at <directory>.stale and no
        # staging residue behind.
        directory, ontology, sharded = saved
        g, _ = small_case(seed=3)
        real_rename = os.rename

        def failing_rename(src, dst):
            if dst == directory:
                raise OSError("disk full")
            real_rename(src, dst)

        monkeypatch.setattr(persistence.os, "rename", failing_rename)
        with pytest.raises(OSError):
            build_sharded(
                g, ontology, 2, 4, directory=directory, **BUILD_KW
            )
        monkeypatch.undo()
        assert sorted(os.listdir(os.path.dirname(directory))) == [
            "sharded.stale"
        ]
        survivor = load_index(directory + ".stale", ontology)
        assert survivor.state_digest() == sharded.state_digest()

    def test_tampered_shard_is_rejected(self, tmp_path):
        g, ontology = small_case(seed=17)
        directory = str(tmp_path / "sharded")
        build_sharded(
            g.copy(),
            ontology,
            2,
            4,
            directory=directory,
            **BUILD_KW,
        )
        victim = os.path.join(directory, "shard-0", "manifest.json")
        with open(victim) as handle:
            manifest = json.load(handle)
        manifest["tampered"] = True
        with open(victim, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(IndexCorruptedError, match="mismatch"):
            load_index(directory, ontology)

    def test_load_any_index_detects_both_kinds(self, tmp_path):
        g, ontology = small_case(seed=18)
        mono_dir = str(tmp_path / "mono")
        mono = BiGIndex.build(
            g.copy(), ontology, **BUILD_KW
        )
        save_index(mono, mono_dir)
        shard_dir = str(tmp_path / "sharded")
        build_sharded(
            g.copy(),
            ontology,
            2,
            4,
            directory=shard_dir,
            **BUILD_KW,
        )
        assert isinstance(load_index(mono_dir, ontology), BiGIndex)
        assert isinstance(load_index(shard_dir, ontology), ShardedIndex)

    def test_reloaded_zone_grows_like_the_heap_zone(self, tmp_path):
        # The zone grows under its own configurations, so a reloaded
        # root — which stores no build parameters — takes a growing
        # insert exactly like the heap index it was built beside.
        g, ontology = TestStateInvariants._case()
        kwargs = dict(
            num_layers=2,
            cost_params=CostParams(
                num_samples=10, alpha=0.2, sample_radius=1, seed=5
            ),
        )
        heap = build_sharded(
            g.copy(), ontology, 3, 2, **kwargs
        )
        directory = str(tmp_path / "sharded")
        build_sharded(
            g.copy(), ontology, 3, 2,
            directory=directory, **kwargs,
        )
        reloaded = load_index(directory, ontology)
        zone = set(heap.zone.local_of)
        shard_of = TestStateInvariants._shard_of(heap)
        u, v = next(
            (u, v)
            for u in range(g.num_vertices)
            for v in range(g.num_vertices)
            if shard_of[u] != shard_of[v]
            and u not in zone
            and not g.has_edge(u, v)
        )
        for twin in (heap, reloaded):
            twin.insert_edge(u, v)
            assert len(twin.zone.global_ids) > len(zone)
        assert reloaded.state_digest() == heap.state_digest()

    def test_layout_with_names_and_build_kwargs_loads(self, saved):
        # Version-3 roots written before the zone grew under its own
        # configurations carry two more keys; the reader ignores them.
        directory, ontology, sharded = saved
        path = os.path.join(directory, "shards.json")
        with open(path) as handle:
            layout = json.load(handle)
        graph = sharded.base_graph
        layout["names"] = {str(v): graph.names[v] for v in graph.names}
        layout["build_kwargs"] = {
            "num_layers": 2, "theta": 1.0, "max_mappings": None,
            "cost_params": dataclasses.asdict(BUILD_KW["cost_params"]),
        }
        with open(path, "w") as handle:
            json.dump(layout, handle, sort_keys=True)
        write_manifest(directory)
        assert load_index(directory, ontology).state_digest() == (
            sharded.state_digest()
        )

    def test_wal_tail_replays_through_facade(self, tmp_path):
        g, ontology = small_case(seed=19)
        directory = str(tmp_path / "sharded")
        sharded = build_sharded(
            g.copy(),
            ontology,
            3,
            4,
            directory=directory,
            **BUILD_KW,
        )
        members = sharded.shards[0].global_ids
        pair = next(
            (u, v)
            for u in members
            for v in members
            if u != v and not sharded.base_graph.has_edge(u, v)
        )
        wal = MutationWAL(os.path.join(directory, WAL_NAME))
        wal.open()
        wal.commit({"op": "insert", "u": pair[0], "v": pair[1]})
        wal.close()
        replayed = load_index(directory, ontology)
        assert replayed.base_graph.has_edge(*pair)
        shard = replayed.shards[0]
        assert shard.index.base_graph.has_edge(
            shard.local_of[pair[0]], shard.local_of[pair[1]]
        )


class TestStateInvariants:
    """A sharded index stores only its locales, the cut table and the
    halo radius; everything else is derived and must agree with the union
    graph after every op — including cross-shard inserts that grow the
    zone and cut-edge deletes that leave it a superset.  A grown zone
    keeps the configurations it had (Algo. 1 runs only at build time)."""

    HALO = 2

    @staticmethod
    def _case():
        ontology = generate_ontology(50, avg_fanout=5, height=3, seed=0)
        g = generate_community_graph(
            300, 700, ontology, seed=1, community_size=100, bridge_edges=2
        )
        return g, ontology

    @staticmethod
    def _shard_of(sharded):
        return {
            v: s
            for s, shard in enumerate(sharded.shards)
            for v in shard.global_ids
        }

    def _check(self, sharded):
        union = sharded.base_graph
        edges = set(union.edges())
        shard_of = self._shard_of(sharded)
        cut = {(u, v) for u, v in edges if shard_of[u] != shard_of[v]}
        assert sharded._cut_edges == cut
        portals = {v for edge in cut for v in edge}
        ball = bfs_distances(union, portals, sharded.halo_radius, "both")
        zone = sharded.zone
        assert set(ball) <= (set(zone.local_of) if zone is not None else set())
        for locale in sharded.locales:
            ids = locale.global_ids
            members = set(ids)
            assert {
                (ids[a], ids[b]) for a, b in locale.index.base_graph.edges()
            } == {(u, v) for u, v in edges if u in members and v in members}

    def _draw(self, rng, sharded, kind):
        union = sharded.base_graph
        shard_of = self._shard_of(sharded)
        if kind in ("intra-delete", "cut-delete"):
            pool = [
                (u, v)
                for u, v in sorted(union.edges())
                if (shard_of[u] == shard_of[v]) == (kind == "intra-delete")
            ]
            u, v = rng.choice(pool)
            return {"op": "delete", "u": u, "v": v}
        zone = set(sharded.zone.local_of)
        while True:
            u, v = rng.randrange(union.num_vertices), rng.randrange(
                union.num_vertices
            )
            if u == v or union.has_edge(u, v):
                continue
            if kind == "intra-insert" and shard_of[u] == shard_of[v]:
                return {"op": "insert", "u": u, "v": v}
            if (
                kind == "cross-insert"
                and shard_of[u] != shard_of[v]
                and not (u in zone and v in zone)
            ):
                return {"op": "insert", "u": u, "v": v}

    def test_derived_state_tracks_the_union_graph(self):
        g, ontology = self._case()
        sharded = build_sharded(g, ontology, 3, self.HALO, **BUILD_KW)
        self._check(sharded)
        zone_before = len(sharded.zone.global_ids)
        assert zone_before < g.num_vertices
        kinds = [
            "intra-insert", "intra-delete", "cut-delete", "cross-insert",
        ] * 3
        rng = random.Random(25)
        pinned = digest = None
        for step, kind in enumerate(kinds):
            if step == len(kinds) // 2:
                # Serve convention: readers pin the published index (it
                # is frozen from here on) and the stream goes on in its
                # copy-on-write clone.
                pinned, digest = sharded, sharded.state_digest()
                sharded = pinned.cow_clone()
            assert apply_wal_op(sharded, self._draw(rng, sharded, kind))
            self._check(sharded)
            if pinned is not None:
                assert pinned.state_digest() == digest
        assert len(sharded.zone.global_ids) > zone_before
        self._check(pinned)

    @staticmethod
    def _configs(locale):
        return [dict(layer.config.mappings) for layer in locale.index.layers]

    def test_grown_zone_keeps_its_configurations(self):
        g, ontology = self._case()
        sharded = build_sharded(g, ontology, 3, self.HALO, **BUILD_KW)
        dropped = min(sharded.zone.index.layers[0].config.mappings.items())
        sharded.remove_ontology_edge(*dropped)
        before = self._configs(sharded.zone)
        size = len(sharded.zone.global_ids)
        op = self._draw(random.Random(0), sharded, "cross-insert")
        assert apply_wal_op(sharded, op)
        assert len(sharded.zone.global_ids) > size
        assert self._configs(sharded.zone) == before
        for locale in sharded.locales:
            for mappings in self._configs(locale):
                assert mappings.get(dropped[0]) != dropped[1]
        self._check(sharded)

    def test_first_cross_insert_creates_the_zone(self):
        # Two components on two shards: no cut, no zone.  The first
        # cross-shard insert creates a zone under the configurations of
        # the source endpoint's shard.
        rng = random.Random(21)
        g = Graph()
        for _ in range(60):
            g.add_vertex(rng.choice("ABCDE"))
        for base in (0, 30):
            added = 0
            while added < 75:
                u, v = base + rng.randrange(30), base + rng.randrange(30)
                if u != v and g.add_edge(u, v):
                    added += 1
        ontology = verification_ontology()
        sharded = build_sharded(
            g.copy(), ontology, 2, 4, **BUILD_KW
        )
        assert sharded.num_shards == 2 and sharded.zone is None
        sharded.remove_ontology_edge("A", "AB")
        u, v = (shard.global_ids[0] for shard in sharded.shards)
        sharded.insert_edge(u, v)
        assert sharded.zone is not None
        assert self._configs(sharded.zone) == self._configs(sharded.shards[0])
        self._check(sharded)
        g.add_edge(u, v)
        algorithm = BackwardKeywordSearch(d_max=2, k=5)
        se = ShardedEvaluator(sharded, algorithm)
        he = HierarchicalEvaluator(
            BiGIndex.build(g, ontology, **BUILD_KW), algorithm,
            allow_layer_zero=True,
        )
        for query in probe(g):
            assert outcomes(se, query) == outcomes(he, query)


class TestCommunityDataset:
    def test_zipf_sampler_matches_distribution_shape(self):
        import random

        sampler = ZipfSampler(["a", "b", "c", "d"], exponent=1.0)
        rng = random.Random(0)
        draws = [sampler.draw(rng) for _ in range(4000)]
        counts = [draws.count(x) for x in ["a", "b", "c", "d"]]
        assert counts[0] > counts[1] > counts[3]

    def test_community_graph_is_streamed_and_local(self):
        ontology = generate_ontology(50, avg_fanout=5, height=3, seed=0)
        g = generate_community_graph(
            400, 900, ontology, seed=1, community_size=100, bridge_edges=3
        )
        assert g.num_vertices == 400
        for u, v in g.edges():
            # Edges stay within a community or hop to the next one.
            assert abs(u // 100 - v // 100) <= 1
        again = generate_community_graph(
            400, 900, ontology, seed=1, community_size=100, bridge_edges=3
        )
        assert sorted(g.edges()) == sorted(again.edges())

    def test_synt_100k_is_registered(self):
        from repro.datasets.synthetic import COMMUNITY_SCALES

        assert "synt-100k" in COMMUNITY_SCALES

    def test_community_dataset_small_clone_plans_cleanly(self):
        ontology = generate_ontology(50, avg_fanout=5, height=3, seed=0)
        g = generate_community_graph(
            600, 1300, ontology, seed=2, community_size=100, bridge_edges=2
        )
        plan = plan_shards(g, 3, halo_radius=4)
        # Locality keeps the cut (and hence the zone) small.
        assert len(plan.cut_edges) < g.num_edges // 4
        assert len(plan.zone_vertices) < g.num_vertices


class TestServeAndCli:
    """The serve stack and CLI treat a sharded index like any other."""

    @staticmethod
    def _saved_graph(tmp_path):
        """A small TSV graph for the CLI to build from; its path prefix."""
        from repro.graph.io import save_graph_tsv

        g, _ = small_case(seed=8)
        prefix = str(tmp_path / "graph")
        save_graph_tsv(g, prefix)
        return prefix

    def _service(self, sharded, algorithm=None):
        from repro.serve.service import QueryService, ServerConfig
        from repro.serve.lifecycle import EngineRuntime

        algorithm = algorithm or BackwardKeywordSearch(d_max=3, k=10)

        def evaluator_factory(index):
            return ShardedEvaluator(index, algorithm)

        runtime = EngineRuntime(sharded, evaluator_factory)
        return QueryService(runtime, config=ServerConfig(enable_admin=True))

    def _post(self, service, path, body):
        return service.handle("POST", path, json.dumps(body).encode(), {})

    def test_service_query_matches_monolithic(self):
        g, o = small_case(seed=5)
        sharded = build_sharded(g.copy(), o, 3,
                                halo_radius=6, **BUILD_KW)
        mono = BiGIndex.build(g, o, **BUILD_KW)
        service = self._service(sharded)
        algorithm = BackwardKeywordSearch(d_max=3, k=10)
        oracle = HierarchicalEvaluator(mono, algorithm, allow_layer_zero=True)
        for query in probe(g):
            status, payload, _ = self._post(
                service, "/query", {"keywords": list(query.keywords)}
            )
            try:
                expected = oracle.evaluate(query, layer=None)
            except QueryError:
                assert status == 400
                continue
            assert status == 200
            assert [a["score"] for a in payload["answers"]] == [
                a.score for a in expected.answers
            ]
            assert [a["root"] for a in payload["answers"]] == [
                a.root for a in expected.answers
            ]

    def test_service_mutate_publishes_new_epoch_and_stays_exact(self):
        g, o = small_case(seed=6)
        sharded = build_sharded(g.copy(), o, 3,
                                halo_radius=6, **BUILD_KW)
        service = self._service(sharded)
        before = service.runtime.epoch
        # Find an absent edge to insert.
        u, v = next(
            (a, b)
            for a in range(g.num_vertices)
            for b in range(g.num_vertices)
            if a != b and not g.has_edge(a, b)
        )
        status, payload, _ = self._post(
            service, "/admin/mutate", {"op": "insert", "u": u, "v": v}
        )
        assert status == 200 and payload["applied"]
        assert service.runtime.epoch != before
        # The published clone matches a monolithic rebuild of the
        # mutated graph.
        g.add_edge(u, v)
        mono = BiGIndex.build(g, o, **BUILD_KW)
        algorithm = BackwardKeywordSearch(d_max=3, k=10)
        oracle = HierarchicalEvaluator(mono, algorithm, allow_layer_zero=True)
        fresh = ShardedEvaluator(service.runtime.current.index, algorithm)
        for query in probe(g):
            assert outcomes(fresh, query) == outcomes(oracle, query)

    def test_snapshot_storage_kind_covers_all_locales(self, tmp_path):
        from repro.serve.lifecycle import Snapshot

        g, o = small_case(seed=7)
        directory = str(tmp_path / "sharded")
        build_sharded(g, o, 2, halo_radius=6, directory=directory,
                      **BUILD_KW)
        loaded = load_index(directory, o)
        snapshot = Snapshot(
            index=loaded, evaluator=None, epoch=loaded.epoch, serial=0
        )
        assert snapshot.storage_kind == "mmap"

    def test_cli_build_shards_query_stats_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        prefix = self._saved_graph(tmp_path)
        index_dir = str(tmp_path / "idx")
        # verification_ontology() is not CLI-reachable; generate one that
        # at least exercises the full path (labels A-E won't generalize,
        # which is fine for an exactness smoke).
        code = main([
            "build", prefix, "--index-dir", index_dir,
            "--layers", "1", "--shards", "2", "--workers", "2",
            "--ontology-types", "20",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 shard(s)" in out and "sharded" in out
        assert os.path.isdir(os.path.join(index_dir, "shard-0"))

        code = main(["stats", index_dir, "--ontology-types", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "shards: 2" in out

        code = main([
            "query", index_dir, "--ontology-types", "20",
            "--keywords", "A", "B", "--algorithm", "bkws",
        ])
        out = capsys.readouterr().out
        assert code in (0, 3)
        assert "answer(s)" in out

    def test_cli_build_workers_needs_shards(self, tmp_path, capsys):
        from repro.cli import main

        prefix = self._saved_graph(tmp_path)
        index_dir = str(tmp_path / "idx")
        code = main([
            "build", prefix, "--index-dir", index_dir, "--layers", "1",
            "--workers", "2", "--ontology-types", "20",
        ])
        assert code == 2
        assert "--shards" in capsys.readouterr().err
        assert not os.path.exists(index_dir)

    def test_cli_build_shards_leaves_worker_count_to_the_host(
        self, tmp_path, monkeypatch
    ):
        """``build --shards K`` without ``--workers`` hands ``None`` to
        ``_run_build_tasks`` (one process per CPU, at most one per
        locale) instead of pinning the build to one process."""
        from repro.cli import main
        from repro.core import sharding

        prefix = self._saved_graph(tmp_path)
        seen = []
        run = sharding._run_build_tasks

        def spy(tasks, workers):
            seen.append(workers)
            return run(tasks, 1)

        monkeypatch.setattr(sharding, "_run_build_tasks", spy)
        assert main([
            "build", prefix, "--index-dir", str(tmp_path / "idx"),
            "--layers", "1", "--shards", "2", "--ontology-types", "20",
        ]) == 0
        assert seen == [None]
