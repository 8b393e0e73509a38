"""The frontier memo: completed keyword frontiers kept per frozen graph.

An mmap-backed (v4) graph memoizes every completed bkws / layer-1 reach
frontier under ``(label id, d_max)``.  A hit must be invisible: the same
answers, trees and counts as a fresh expansion and as the heap twin that
never memoizes, including ``search.expansions`` (logical expansions,
replayed on a hit).  A write detaches a clone from the shared memo.
Under an expansion cap a search uses hits only when every keyword hits
and the cap affords them, so capped outcomes equal the heap twin's.
"""

from __future__ import annotations

import tempfile
from functools import partial
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import CostParams
from repro.core.evaluator import HierarchicalEvaluator
from repro.core.index import BiGIndex
from repro.core.persistence import load_index, save_index
from repro.graph.digraph import Graph
from repro.obs.runtime import instrumented
from repro.ontology.ontology import OntologyGraph
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import KeywordQuery
from repro.utils.budget import Budget
from repro.utils.errors import BigIndexError, BudgetExceeded

LABELS = ("A", "B", "C", "D", "E")
D_MAX = 3
#: The two expansion counters a hit replays.
REPLAYED = ("search.expansions", "search.levels_expanded")


def ontology() -> OntologyGraph:
    """A two-step chain above every label: ``Gen^m`` never collides, so
    forced ``layer:2`` runs answer generation and its layer-1 reach."""
    ont = OntologyGraph()
    for label in LABELS:
        ont.add_subtype(label, label + "1")
        ont.add_subtype(label + "1", label + "2")
    return ont


@st.composite
def labelled_graphs(draw, max_vertices: int = 24) -> Graph:
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    g = Graph()
    labels = st.lists(st.sampled_from(LABELS), min_size=n, max_size=n)
    for label in draw(labels):
        g.add_vertex(label)
    vertex = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)):
        if u != v:
            g.add_edge(u, v)
    return g


def queries():
    return [KeywordQuery(pair) for pair in combinations(LABELS, 2)] + [
        KeywordQuery(("A", "C", "E"))
    ]


def counted(run):
    """``(run()'s result, its two replayed expansion counters)`` and the
    memo hits it made."""
    with instrumented(trace=False) as inst:
        result = run()
    counters = inst.metrics.counters()
    replayed = {name: counters.get(name, 0) for name in REPLAYED}
    return (result, replayed), counters.get("cache.hit.frontier", 0)


def forget(*graphs: Graph) -> None:
    for graph in graphs:
        graph.frontier_memo().clear()


def ladder(searcher, query):
    """Budgeted outcomes over an expansion-cap ladder: complete answers or
    the interrupted search's ``(partial, lower_bound)``.  The top rung
    affords every frontier of a 24-vertex graph."""
    outcomes = []
    for cap in range(0, 80, 3):
        try:
            outcomes.append(searcher.search(query, budget=Budget(max_expansions=cap)))
        except BudgetExceeded as exc:
            outcomes.append((exc.partial, exc.lower_bound))
    return outcomes


class TestSearchIdentity:
    @settings(max_examples=60, deadline=None)
    @given(labelled_graphs())
    def test_cold_warm_and_heap_agree(self, frozen_twin, g):
        frozen = frozen_twin(g)
        assert g.frontier_memo() is None
        bkws = BackwardKeywordSearch(d_max=D_MAX)
        heap, loaded = bkws.bind(g), bkws.bind(frozen)
        for query in queries():
            expected, _ = counted(lambda: heap.search(query))
            forget(frozen)
            cold, _ = counted(lambda: loaded.search(query))
            warm, hits = counted(lambda: loaded.search(query))
            assert cold == warm == expected
            if all(g.label_support(kw) for kw in query):
                assert hits == len(query)

    @settings(max_examples=40, deadline=None)
    @given(labelled_graphs())
    def test_capped_runs_match_the_heap_cold_and_warm(self, frozen_twin, g):
        frozen = frozen_twin(g)
        bkws = BackwardKeywordSearch(d_max=D_MAX)
        heap, loaded = bkws.bind(g), bkws.bind(frozen)
        for query in queries():
            expected, _ = counted(lambda: ladder(heap, query))
            forget(frozen)
            cold, _ = counted(lambda: ladder(loaded, query))
            warm, hits = counted(lambda: ladder(loaded, query))
            assert cold == warm == expected
            if all(g.label_support(kw) for kw in query):
                assert hits > 0  # the top rung affords every hit

    @settings(max_examples=40, deadline=None)
    @given(labelled_graphs())
    def test_deadline_trip_on_a_hit_is_an_exact_prefix(self, frozen_twin, g):
        loaded = BackwardKeywordSearch(d_max=D_MAX).bind(frozen_twin(g))
        for query in queries():
            full = loaded.search(query)  # warm
            assert loaded.search(query, budget=Budget(deadline=60)) == full
            try:
                loaded.search(query, budget=Budget(deadline=0))
            except BudgetExceeded as exc:
                below = [a for a in full if a.score < exc.lower_bound]
                assert exc.partial == below


class TestCopyOnWrite:
    @settings(max_examples=40, deadline=None)
    @given(labelled_graphs(), st.data())
    def test_write_detaches_clone_and_spares_parent(self, frozen_twin, g, data):
        frozen = frozen_twin(g)
        bkws = BackwardKeywordSearch(d_max=D_MAX)
        for query in queries():
            bkws.bind(frozen).search(query)
        memo = frozen.frontier_memo()
        entries = dict(memo._data)
        clone = frozen.cow_clone()
        assert clone.frontier_memo() is memo
        n = g.num_vertices
        u = data.draw(st.integers(0, n - 1))
        v = data.draw(st.integers(0, n - 1).filter(lambda x: x != u))
        heap_clone = g.cow_clone()
        clone.add_edge(u, v)
        heap_clone.add_edge(u, v)
        assert clone.frontier_memo() is None
        assert dict(memo._data) == entries
        for query in queries():
            assert bkws.bind(clone).search(query) == bkws.bind(heap_clone).search(query)
            assert bkws.bind(frozen).search(query) == bkws.bind(g).search(query)


class TestForcedLayers:
    @settings(max_examples=25, deadline=None)
    @given(labelled_graphs(max_vertices=40))
    def test_every_layer_agrees_cold_warm_and_heap(self, g):
        heap = BiGIndex.build(
            g, ontology(), num_layers=2, cost_params=CostParams(exact=True)
        )
        bkws = BackwardKeywordSearch(d_max=D_MAX)
        with tempfile.TemporaryDirectory() as tmp:
            save_index(heap, tmp + "/idx")
            loaded = load_index(tmp + "/idx", heap.ontology)
            graphs = list(loaded.iter_layer_graphs())
            sides = [
                HierarchicalEvaluator(index, bkws, allow_layer_zero=True,
                                      cache_size=0)
                for index in (heap, loaded)
            ]
            for query in queries():
                for layer in (None, 0, 1, 2):
                    on_heap, on_loaded = (
                        partial(evaluated, side, query, layer) for side in sides
                    )
                    expected, _ = counted(on_heap)
                    forget(*graphs)
                    cold, _ = counted(on_loaded)
                    warm, _ = counted(on_loaded)
                    assert cold == warm == expected, (query, layer)


def evaluated(evaluator, query, layer):
    """Answers with trees and the result's counts, or the error."""
    try:
        result = evaluator.evaluate(query, layer=layer)
    except BigIndexError as exc:
        return ("error", type(exc).__name__, str(exc))
    return (result.layer, result.answers, result.num_generalized,
            result.num_candidates, result.num_verified, result.num_bounded)


class TestBound:
    def test_65_labels_leave_64_entries(self, frozen_twin):
        g = Graph()
        for i in range(65):
            g.add_vertex(f"L{i}")
        for v in range(1, 65):
            g.add_edge(v, v - 1)
        frozen = frozen_twin(g)
        searcher = BackwardKeywordSearch(d_max=D_MAX).bind(frozen)
        with instrumented(trace=False) as inst:
            for i in range(65):
                searcher.search(KeywordQuery([f"L{i}"]))
        assert len(frozen.frontier_memo()) == 64
        counters = inst.metrics.counters()
        assert counters["cache.miss.frontier"] == 65
        assert counters["cache.evictions"] == 1
