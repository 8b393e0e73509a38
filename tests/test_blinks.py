"""Unit tests for Blinks (rkws) and its single-/bi-level indexes."""

import pytest

from repro.graph.digraph import Graph
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import KeywordQuery
from repro.search.blinks import (
    Blinks,
    BlinksBiLevelIndex,
    BlinksSingleLevelIndex,
    _LevelCursor,
    distance_sum_score,
)
from repro.utils.errors import QueryError


class TestSingleLevelIndex:
    def test_keyword_cursors_sorted_by_distance(self, random_graph_factory):
        g = random_graph_factory(seed=21)
        index = BlinksSingleLevelIndex(g, d_max=3)
        for label in sorted(g.distinct_labels()):
            dists = [d for d, _ in index.keyword_cursor(label)]
            assert dists == sorted(dists)

    def test_distances_match_bfs(self, random_graph_factory):
        from repro.graph.traversal import bfs_distances

        g = random_graph_factory(num_vertices=30, num_edges=70, seed=22)
        index = BlinksSingleLevelIndex(g, d_max=3)
        for label in g.distinct_labels():
            expected = bfs_distances(
                g, g.vertices_with_label(label), max_depth=3, direction="backward"
            )
            for v, d in expected.items():
                assert index.distance(v, label) == d

    def test_origin_tracking(self, random_graph_factory):
        """The distance map's origin is a keyword vertex at that distance."""
        from repro.graph.traversal import bounded_distance

        g = random_graph_factory(num_vertices=30, num_edges=70, seed=22)
        index = BlinksSingleLevelIndex(g, d_max=3)
        for label in sorted(g.distinct_labels()):
            for v, (d, origin) in index.keyword_distances(label).items():
                assert g.label(origin) == label
                assert bounded_distance(g, v, origin, max_depth=3) == d

    def test_distance_beyond_dmax_is_none(self):
        g = Graph()
        vs = [g.add_vertex("chain") for _ in range(5)]
        g.relabel_vertex(4, "target")
        for i in range(4):
            g.add_edge(i, i + 1)
        index = BlinksSingleLevelIndex(g, d_max=2)
        assert index.distance(0, "target") is None
        assert index.distance(2, "target") == 2

    def test_num_entries(self, random_graph_factory):
        g = random_graph_factory(seed=23)
        index = BlinksSingleLevelIndex(g, d_max=2)
        assert index.num_entries == sum(
            len(index.keyword_distances(l)) for l in g.distinct_labels()
        )


class TestBiLevelIndex:
    def test_agrees_with_single_level(self, random_graph_factory):
        g = random_graph_factory(num_vertices=40, num_edges=100, seed=24)
        single = BlinksSingleLevelIndex(g, d_max=3)
        bi = BlinksBiLevelIndex(g, d_max=3, block_size=8)
        for label in sorted(g.distinct_labels()):
            for v in g.vertices():
                assert bi.distance(v, label) == single.distance(v, label)

    def test_cursors_agree_with_single_level(self, random_graph_factory):
        g = random_graph_factory(num_vertices=40, num_edges=100, seed=25)
        single = BlinksSingleLevelIndex(g, d_max=3)
        bi = BlinksBiLevelIndex(g, d_max=3, block_size=8)
        for label in sorted(g.distinct_labels()):
            assert sorted(single.keyword_cursor(label)) == sorted(
                bi.keyword_cursor(label)
            )

    def test_level_cursor_hands_out_each_depth_ascending(
        self, random_graph_factory
    ):
        """A live cursor's ``take_level`` is the current depth's vertices
        in ascending id (the emission order rests on it), not the next
        level it just expanded."""
        g = random_graph_factory(num_vertices=40, num_edges=100, seed=29)
        bi = BlinksBiLevelIndex(g, d_max=3, block_size=8)
        for label in sorted(g.distinct_labels()):
            reach = bi.keyword_distances(label)
            cursor = _LevelCursor(g, bi, label, 3)
            depth = 0
            while not cursor.exhausted:
                assert cursor.take_level() == sorted(
                    v for v, (d, _) in reach.items() if d == depth
                )
                depth += 1

    def test_portals_counted(self, random_graph_factory):
        g = random_graph_factory(num_vertices=40, num_edges=100, seed=26)
        bi = BlinksBiLevelIndex(g, d_max=3, block_size=8)
        assert bi.partition.portals  # several blocks -> crossings exist

    def test_local_maps_are_intra_block(self, random_graph_factory):
        g = random_graph_factory(num_vertices=40, num_edges=100, seed=27)
        bi = BlinksBiLevelIndex(g, d_max=3, block_size=8)
        for block_id, local in enumerate(bi.local_keyword_maps):
            members = set(bi.partition.block_members(block_id))
            assert set(local) == members

    def test_bi_level_stores_only_local_maps(self, random_graph_factory):
        """Querying must not grow the persistent structures."""
        g = random_graph_factory(seed=28)
        bi = BlinksBiLevelIndex(g, d_max=3, block_size=8)
        before = bi.num_entries
        list(bi.keyword_cursor("A"))
        bi.keyword_distances("B")
        assert bi.num_entries == before

    def test_bi_level_smaller_than_single_level(self, random_graph_factory):
        """The memory trade-off that motivates the bi-level index."""
        g = random_graph_factory(num_vertices=60, num_edges=160, seed=28)
        single = BlinksSingleLevelIndex(g, d_max=4)
        bi = BlinksBiLevelIndex(g, d_max=4, block_size=10)
        assert bi.num_entries < single.num_entries


class TestBlinksSearch:
    def test_matches_bkws_answer_set(self, random_graph_factory):
        """Blinks distinct-root answers equal bkws' on the same graph."""
        g = random_graph_factory(num_vertices=50, num_edges=130, seed=29)
        query = KeywordQuery(["A", "B"])
        bkws = BackwardKeywordSearch(d_max=3, k=None)
        expected = {(a.root, a.score) for a in bkws.bind(g).search(query)}
        for kind in ("single-level", "bi-level"):
            blinks = Blinks(d_max=3, k=None, index_kind=kind, block_size=10)
            got = {(a.root, a.score) for a in blinks.bind(g).search(query)}
            assert got == expected, kind

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
        with pytest.raises(QueryError):
            Blinks(index_kind="tri-level")

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
