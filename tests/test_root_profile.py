"""Root profiles: verified roots' forward balls kept per frozen graph.

An mmap-backed (v4) graph answers ``best_hit_for_root`` from a profile
memoized under ``(root, d_max)``: every label of the root's forward
``d_max``-ball with its nearest vertex.  A read must equal the
early-stopping BFS (``nearest_labeled_forward``) the heap runs — ties at
equal depth to the smallest vertex, the root's own label at depth 0, an
absent label to no hit.  Heap graphs never memoize; a write detaches a
clone from the shared memo.  Verification charges one expansion per
candidate either way, so capped evaluations are the same with the memo
cold, warm or absent.
"""

from __future__ import annotations

import tempfile
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import CostParams
from repro.core.evaluator import HierarchicalEvaluator
from repro.core.index import BiGIndex
from repro.core.persistence import load_index, save_index
from repro.graph.digraph import Graph
from repro.graph.traversal import nearest_labeled_forward, nearest_labeled_reader
from repro.obs.runtime import instrumented
from repro.ontology.ontology import OntologyGraph
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import KeywordQuery, top_k
from repro.search.bidirectional import BidirectionalSearch
from repro.search.blinks import Blinks
from repro.utils.budget import Budget

LABELS = ("A", "B", "C", "D")
#: Interned in the label table but carried by no vertex.
UNUSED = "Y"
#: Never interned at all.
UNKNOWN = "Z"


@st.composite
def labelled_graphs(draw, max_vertices: int = 20) -> Graph:
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    g = Graph()
    for label in draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n)):
        g.add_vertex(label)
    vertex = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)):
        if u != v:
            g.add_edge(u, v)
    g.label_table.intern(UNUSED)
    return g


def keyword_sets():
    words = LABELS + (UNUSED, UNKNOWN)
    return [kws for size in (1, 2, 3) for kws in combinations(words, size)]


class TestProfileIsTheBfs:
    @settings(max_examples=60, deadline=None)
    @given(labelled_graphs())
    def test_every_root_keyword_set_and_depth(self, frozen_twin, g):
        frozen = frozen_twin(g)
        for d_max in range(5):
            algorithm = BackwardKeywordSearch(d_max=d_max)
            for root in range(g.num_vertices):
                for keywords in keyword_sets():
                    query = KeywordQuery(keywords)
                    expected = nearest_labeled_forward(
                        frozen, root, set(keywords), d_max
                    )
                    read = nearest_labeled_reader(frozen, keywords, d_max)
                    assert next(read([root])) == expected
                    assert algorithm.best_hit_for_root(
                        frozen, root, query
                    ) == algorithm.best_hit_for_root(g, root, query)
        assert len(frozen.profile_memo()) == 5 * g.num_vertices

    def test_ties_depth_and_the_root_itself(self, frozen_twin):
        g = Graph()
        for label in ("R", "B", "A", "A", "B"):
            g.add_vertex(label)
        # Adjacency lists the larger A first; B is nearer at 4 than at 1.
        for u, v in ((0, 3), (0, 2), (0, 4), (2, 1)):
            g.add_edge(u, v)
        frozen = frozen_twin(g)
        algorithm = BackwardKeywordSearch(d_max=2)
        hit = algorithm.best_hit_for_root(frozen, 0, KeywordQuery("RAB"))
        assert hit.keyword_nodes == (("A", 2), ("B", 4), ("R", 0))
        assert hit.score == 0 + 1 + 1
        heap = algorithm.best_hit_for_root(g, 0, KeywordQuery("RAB"))
        assert heap == hit
        assert algorithm.best_hit_for_root(frozen, 1, KeywordQuery("B")) == (
            0, 1, (("B", 1),)
        )
        assert algorithm.best_hit_for_root(frozen, 0, KeywordQuery("AZ")) is None

    def test_heap_graph_never_memoizes(self, frozen_twin):
        g = Graph()
        for label in LABELS:
            g.add_vertex(label)
        for v in range(1, len(LABELS)):
            g.add_edge(v - 1, v)
        frozen = frozen_twin(g)
        assert g.profile_memo() is None
        algorithm = BackwardKeywordSearch(d_max=3)
        with instrumented(trace=False) as inst:
            for root in range(g.num_vertices):
                algorithm.best_hit_for_root(g, root, KeywordQuery("CD"))
        assert g.profile_memo() is None
        assert len(frozen.profile_memo()) == 0
        assert not any("profile" in name for name in inst.metrics.counters())

    def test_the_bound_evicts_the_oldest(self, frozen_twin):
        g = Graph()
        for _ in range(4097):
            g.add_vertex("A")
        frozen = frozen_twin(g)
        algorithm = BackwardKeywordSearch(d_max=0)
        with instrumented(trace=False) as inst:
            for root in range(4097):
                algorithm.best_hit_for_root(frozen, root, KeywordQuery("A"))
        assert len(frozen.profile_memo()) == 4096
        assert (0, 0) not in frozen.profile_memo()
        counters = inst.metrics.counters()
        assert counters["cache.miss.profile"] == 4097
        assert counters["cache.evictions"] == 1


def ontology() -> OntologyGraph:
    """A two-step chain above every label: ``Gen^m`` never collides, so
    forced ``layer:1`` and ``layer:2`` both run root verification."""
    ont = OntologyGraph()
    for label in LABELS:
        ont.add_subtype(label, label + "1")
        ont.add_subtype(label + "1", label + "2")
    return ont


def queries():
    return [KeywordQuery(pair) for pair in combinations(LABELS, 2)] + [
        KeywordQuery(("A", "B", "D"))
    ]


def loaded_twin(g: Graph, tmp: str) -> BiGIndex:
    heap = BiGIndex.build(
        g, ontology(), num_layers=2, cost_params=CostParams(exact=True)
    )
    save_index(heap, tmp + "/idx")
    return load_index(tmp + "/idx", heap.ontology)


class TestCopyOnWrite:
    @settings(max_examples=20, deadline=None)
    @given(labelled_graphs(max_vertices=30), st.data())
    def test_clone_shares_until_its_first_insert(self, g, data):
        if g.num_vertices < 2:
            return
        bkws = BackwardKeywordSearch(d_max=3)
        with tempfile.TemporaryDirectory() as tmp:
            loaded = loaded_twin(g, tmp)
            evaluator = HierarchicalEvaluator(loaded, bkws, cache_size=0)
            before = {q: evaluator.evaluate(q, layer=1).answers for q in queries()}
            memo = loaded.base_graph.profile_memo()
            entries = dict(memo._data)
            clone = loaded.cow_clone()
            assert clone.base_graph.profile_memo() is memo
            u = data.draw(st.integers(0, g.num_vertices - 1))
            v = data.draw(
                st.integers(0, g.num_vertices - 1).filter(lambda x: x != u)
            )
            if clone.base_graph.has_edge(u, v):
                return
            clone.insert_edge(u, v)
            assert clone.base_graph.profile_memo() is None
            assert dict(memo._data) == entries
            written = HierarchicalEvaluator(clone, bkws, cache_size=0)
            for query in queries():
                assert evaluator.evaluate(query, layer=1).answers == before[query]
                direct = bkws.bind(clone.base_graph).search(query)
                assert written.evaluate(query, layer=1).answers == top_k(
                    direct, None
                )


def capped(evaluator, query, layer, cap):
    """A capped evaluation's whole envelope: answers, bound, and each
    attempt's expansions and counts (or the complete result's)."""
    result = evaluator.evaluate_resilient(
        query, budget=Budget(max_expansions=cap), layer=layer, k=3
    )
    if not result.degraded:
        return ("complete", result.answers, result.num_generalized,
                result.num_candidates, result.num_verified, result.num_bounded)
    return (result.answers, result.lower_bound, result.unranked, [
        (a.layer, a.reason, a.expansions, a.num_generalized,
         a.num_candidates, a.proven, a.unproven)
        for a in result.attempts
    ])


class TestCappedBudgets:
    @settings(max_examples=15, deadline=None)
    @given(labelled_graphs(max_vertices=40))
    def test_cold_and_warm_memos_degrade_identically(self, g):
        """Forced ``layer:1`` / ``layer:2`` under an expansion-cap sweep:
        the envelope is the same with every profile memo cold, warm, and
        on the heap index that has none."""
        with tempfile.TemporaryDirectory() as tmp:
            loaded = loaded_twin(g, tmp)
            heap = BiGIndex.build(
                g, ontology(), num_layers=2, cost_params=CostParams(exact=True)
            )
            graphs = list(loaded.iter_layer_graphs())
            for algorithm in (BackwardKeywordSearch(d_max=3),
                              BidirectionalSearch(d_max=3), Blinks(d_max=3)):
                mine, theirs = (
                    HierarchicalEvaluator(side, algorithm, cache_size=0)
                    for side in (loaded, heap)
                )
                for query in queries():
                    for layer in range(1, min(loaded.num_layers, 2) + 1):
                        for cap in range(0, 160, 9):
                            expected = capped(theirs, query, layer, cap)
                            for graph in graphs:
                                graph.profile_memo().clear()
                            cold = capped(mine, query, layer, cap)
                            mine.evaluate(query, layer=layer)  # warm it all
                            warm = capped(mine, query, layer, cap)
                            assert cold == warm == expected, (
                                algorithm.name, query, layer, cap
                            )
