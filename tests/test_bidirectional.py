"""Tests for the bidirectional-search plug-in (genericity demonstration)."""

import json

import pytest

from repro.core.cost import CostParams
from repro.core.index import BiGIndex
from repro.core.plugins import boost
from repro.datasets.synthetic import synthetic_dataset
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import KeywordQuery
from repro.search.bidirectional import BidirectionalSearch
from repro.serve.service import encode_answer
from repro.utils.errors import QueryError

EXACT = CostParams(exact=True)


class TestSemantics:
    @pytest.mark.parametrize("seed", range(4))
    def test_answer_set_equals_bkws(self, seed, random_graph_factory):
        """Bidirectional search is a strategy change, not a semantics change."""
        g = random_graph_factory(num_vertices=45, num_edges=110, seed=seed)
        query = KeywordQuery(["A", "B"])
        expected = {
            (a.root, a.score)
            for a in BackwardKeywordSearch(d_max=3, k=None).bind(g).search(query)
        }
        got = {
            (a.root, a.score)
            for a in BidirectionalSearch(d_max=3, k=None).bind(g).search(query)
        }
        assert got == expected

    def test_three_keywords(self, random_graph_factory):
        g = random_graph_factory(num_vertices=45, num_edges=110, seed=9)
        query = KeywordQuery(["A", "B", "C"])
        expected = {
            (a.root, a.score)
            for a in BackwardKeywordSearch(d_max=3, k=None).bind(g).search(query)
        }
        got = {
            (a.root, a.score)
            for a in BidirectionalSearch(d_max=3, k=None).bind(g).search(query)
        }
        assert got == expected

    def test_wire_identical_to_bkws(self):
        """Forward-probed and frontier-settled roots share bkws' score type,
        so one ranking never mixes ``"score": 1.0`` with ``"score": 1``."""
        g, _ = synthetic_dataset("synt-1k", seed=0)
        frequent = sorted(g.label_histogram().items(), key=lambda kv: (-kv[1], kv[0]))
        query = KeywordQuery([label for label, _ in frequent[:2]])
        bkws = BackwardKeywordSearch(d_max=3, k=None).bind(g).search(query)
        bdws = BidirectionalSearch(d_max=3, k=None).bind(g).search(query)
        assert len(bdws) > 100
        assert {type(a.score) for a in bdws} == {type(bkws[0].score)}
        assert json.dumps([encode_answer(a) for a in bdws]) == json.dumps(
            [encode_answer(a) for a in bkws]
        )

    def test_missing_keyword_returns_empty(self, random_graph_factory):
        g = random_graph_factory(seed=2)
        assert BidirectionalSearch(d_max=3).bind(g).search(
            KeywordQuery(["zz"])
        ) == []

    def test_top_k(self, random_graph_factory):
        g = random_graph_factory(num_vertices=45, num_edges=110, seed=3)
        query = KeywordQuery(["A", "B"])
        full = BidirectionalSearch(d_max=3, k=None).bind(g).search(query)
        top = BidirectionalSearch(d_max=3, k=3).bind(g).search(query)
        assert [a.score for a in top] == [a.score for a in full[:3]]

    def test_negative_dmax_rejected(self):
        with pytest.raises(QueryError):
            BidirectionalSearch(d_max=-2)


class TestVerify:
    def test_verify_and_best_answer(self, random_graph_factory):
        g = random_graph_factory(num_vertices=40, num_edges=100, seed=4)
        algo = BidirectionalSearch(d_max=3, k=None)
        query = KeywordQuery(["A", "B"])
        for answer in algo.bind(g).search(query)[:5]:
            best = algo.best_hit_for_root(g, answer.root, query)
            assert best is not None and best.score == answer.score
            verified = algo.verify(
                g, dict(answer.keyword_nodes), query, root=answer.root
            )
            assert verified is not None

    def test_verify_rejects_wrong_label(self, random_graph_factory):
        g = random_graph_factory(seed=5)
        algo = BidirectionalSearch(d_max=3)
        b_nodes = sorted(g.vertices_with_label("B"))
        assert (
            algo.verify(g, {"A": b_nodes[0]}, KeywordQuery(["A"]), root=0)
            is None
        )


class TestBoostedBidirectional:
    """The genericity claim: a fourth algorithm plugs in unchanged."""

    def test_eval_equals_eval_ont(self, small_ontology, random_graph_factory):
        g = random_graph_factory(num_vertices=50, num_edges=120, seed=6)
        index = BiGIndex.build(
            g, small_ontology, num_layers=2, cost_params=EXACT
        )
        algo = BidirectionalSearch(d_max=3, k=None)
        query = KeywordQuery(["A", "C"])
        direct = {(a.root, a.score) for a in algo.bind(g).search(query)}
        boosted = boost(algo, index)
        got = {(a.root, a.score) for a in boosted.search(query, layer=1)}
        assert got == direct
