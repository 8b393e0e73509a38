"""Unit tests for Blinks (rkws): per-query keyword-node lists, search,
and agreement across storage modes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import Graph
from repro.graph.traversal import bfs_distances, bounded_distance
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import KeywordQuery
from repro.search.blinks import Blinks, _LevelCursor, distance_sum_score
from tests.test_rows import LABELS, labelled_graphs


def drain(cursor):
    """Every level of ``cursor``, in the order it hands them out."""
    levels = []
    while not cursor.exhausted:
        levels.append(cursor.take_level())
    return levels


class TestSingleLevelIndex:
    """What Blinks' single-level index stores — each label's keyword-node
    list in ascending distance and the node-keyword distance map — is
    computed per query by a keyword's level cursor."""

    def test_keyword_cursors_sorted_by_distance(self, random_graph_factory):
        g = random_graph_factory(seed=21)
        for label in sorted(g.distinct_labels()):
            cursor = _LevelCursor(g, label, 3)
            dists = [cursor.dist[v] for level in drain(cursor) for v in level]
            assert dists == sorted(dists)

    def test_distances_match_bfs(self, random_graph_factory):
        g = random_graph_factory(num_vertices=30, num_edges=70, seed=22)
        for label in g.distinct_labels():
            expected = bfs_distances(
                g, g.sorted_vertices_with_label(label), max_depth=3, direction="backward"
            )
            cursor = _LevelCursor(g, label, 3)
            drain(cursor)
            for v in g.vertices():
                assert cursor.dist[v] == expected.get(v, -1)

    def test_origin_tracking(self, random_graph_factory):
        """The distance map's origin is a keyword vertex at that distance."""
        g = random_graph_factory(num_vertices=30, num_edges=70, seed=22)
        for label in sorted(g.distinct_labels()):
            cursor = _LevelCursor(g, label, 3)
            for level in drain(cursor):
                for v in level:
                    origin = cursor.origin[v]
                    assert g.label(origin) == label
                    assert bounded_distance(g, v, origin, max_depth=3) == (
                        cursor.dist[v]
                    )

    def test_distance_beyond_dmax_is_none(self):
        g = Graph()
        for _ in range(5):
            g.add_vertex("chain")
        g.relabel_vertex(4, "target")
        for i in range(4):
            g.add_edge(i, i + 1)
        cursor = _LevelCursor(g, "target", 2)
        assert drain(cursor) == [[4], [3], [2]]
        assert cursor.dist[0] == -1
        assert cursor.dist[2] == 2


class TestBiLevelIndex:
    """The bi-level search: each keyword's levels come from a live
    backward expansion, paid per query."""

    def test_level_cursor_hands_out_each_depth_ascending(
        self, random_graph_factory
    ):
        """A live cursor's ``take_level`` is the current depth's vertices
        in ascending id (the emission order rests on it), not the next
        level it just expanded."""
        g = random_graph_factory(num_vertices=40, num_edges=100, seed=29)
        for label in sorted(g.distinct_labels()):
            reach = bfs_distances(
                g, g.sorted_vertices_with_label(label), max_depth=3, direction="backward"
            )
            cursor = _LevelCursor(g, label, 3)
            depth = 0
            while not cursor.exhausted:
                assert cursor.take_level() == sorted(
                    v for v, d in reach.items() if d == depth
                )
                depth += 1


class TestBlinksOnLoadedGraphs:
    """Blinks answers identically on a v4-loaded graph, its copy-on-write
    clone and its heap twin, and ranks the same roots as bkws."""

    @settings(max_examples=60, deadline=None)
    @given(
        labelled_graphs(),
        st.lists(st.sampled_from(LABELS), min_size=1, max_size=3, unique=True),
        st.integers(0, 3),
    )
    def test_loaded_clone_and_heap_twin_agree(
        self, frozen_twin, g, keywords, d_max
    ):
        frozen = frozen_twin(g)
        clone = frozen.cow_clone()
        query = KeywordQuery(keywords)
        blinks = Blinks(d_max=d_max, k=None)
        heap = blinks.bind(g).search(query)
        for graph in (frozen, clone):
            assert repr(blinks.bind(graph).search(query)) == repr(heap)
        assert frozen.is_mmap_backed and clone.is_mmap_backed
        bkws = BackwardKeywordSearch(d_max=d_max, k=None).bind(frozen)
        assert {(a.score, a.root) for a in heap} == {
            (a.score, a.root) for a in bkws.search(query)
        }


class TestBlinksSearch:
    def test_matches_bkws_answer_set(self, random_graph_factory):
        """Blinks distinct-root answers equal bkws' on the same graph."""
        g = random_graph_factory(num_vertices=50, num_edges=130, seed=29)
        query = KeywordQuery(["A", "B"])
        bkws = BackwardKeywordSearch(d_max=3, k=None)
        expected = {(a.root, a.score) for a in bkws.bind(g).search(query)}
        blinks = Blinks(d_max=3, k=None)
        got = {(a.root, a.score) for a in blinks.bind(g).search(query)}
        assert got == expected

    def test_top_k_early_termination_correct(self, random_graph_factory):
        g = random_graph_factory(num_vertices=50, num_edges=130, seed=30)
        query = KeywordQuery(["A", "B"])
        full = Blinks(d_max=3, k=None).bind(g).search(query)
        topk = Blinks(d_max=3, k=3).bind(g).search(query)
        assert [a.score for a in topk] == [a.score for a in full[:3]]

    def test_missing_keyword_returns_empty(self, random_graph_factory):
        g = random_graph_factory(seed=31)
        assert Blinks(d_max=3).bind(g).search(KeywordQuery(["zz"])) == []

    def test_custom_score_function(self, random_graph_factory):
        g = random_graph_factory(num_vertices=40, num_edges=110, seed=32)
        max_score = Blinks(
            d_max=3, k=None, scr=lambda dists: float(max(dists.values()))
        )
        answers = max_score.bind(g).search(KeywordQuery(["A", "B"]))
        for answer in answers:
            assert answer.score <= 3

    def test_invalid_index_kind_rejected(self):
        """No index is built, so the index knobs are gone: passing one
        fails loudly instead of being silently ignored."""
        for knob in ({"index_kind": "bi-level"}, {"block_size": 1000}):
            with pytest.raises(TypeError):
                Blinks(d_max=3, **knob)

    def test_iter_search_ignores_k(self, random_graph_factory):
        g = random_graph_factory(num_vertices=40, num_edges=110, seed=33)
        query = KeywordQuery(["A", "B"])
        blinks = Blinks(d_max=3, k=2)
        searcher = blinks.bind(g)
        truncated = searcher.search(query)
        streamed = list(searcher.iter_search(query))
        assert len(streamed) >= len(truncated)
        assert blinks.k == 2  # k restored after streaming


class TestBlinksVerify:
    def test_verify_scores_with_scr(self, random_graph_factory):
        g = random_graph_factory(num_vertices=40, num_edges=110, seed=34)
        query = KeywordQuery(["A", "B"])
        blinks = Blinks(d_max=3, k=None)
        answers = blinks.bind(g).search(query)
        for answer in answers[:5]:
            verified = blinks.verify(
                g, dict(answer.keyword_nodes), query, root=answer.root
            )
            assert verified is not None
            assert verified.score == answer.score

    def test_verify_rejects_unreachable(self):
        g = Graph()
        a, b = g.add_vertex("A"), g.add_vertex("B")
        blinks = Blinks(d_max=2)
        assert blinks.verify(g, {"B": b}, KeywordQuery(["B"]), root=a) is None

    def test_best_answer_for_root(self, random_graph_factory):
        g = random_graph_factory(num_vertices=40, num_edges=110, seed=35)
        query = KeywordQuery(["A", "B"])
        blinks = Blinks(d_max=3, k=None)
        answers = {a.root: a.score for a in blinks.bind(g).search(query)}
        for root, score in list(answers.items())[:5]:
            best = blinks.best_hit_for_root(g, root, query)
            assert best is not None and best.score == score

    def test_distance_sum_score(self):
        assert distance_sum_score({"a": 1, "b": 2}) == 3.0
