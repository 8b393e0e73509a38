"""Differential-oracle tests, including the injected-bug demonstration."""

import pytest

from repro.core.answer_gen import GeneralizedAnswerGraph
from repro.core.cost import CostParams
from repro.core.evaluator import HierarchicalEvaluator
from repro.core.index import BiGIndex
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import KeywordQuery
from repro.search.bidirectional import BidirectionalSearch
from repro.search.blinks import Blinks
from repro.search.rclique import RClique
from repro.verify import DifferentialOracle

EXACT = CostParams(exact=True)


def build_index(seed, small_ontology, random_graph_factory, **kwargs):
    graph = random_graph_factory(seed=seed, **kwargs)
    return BiGIndex.build(graph, small_ontology, num_layers=2, cost_params=EXACT)


class TestOracleClean:
    @pytest.mark.parametrize("seed", range(3))
    def test_rooted_algorithms_agree(
        self, seed, small_ontology, random_graph_factory
    ):
        index = build_index(seed, small_ontology, random_graph_factory)
        oracle = DifferentialOracle(index)
        report = oracle.run(
            [
                BackwardKeywordSearch(d_max=3, k=None),
                BidirectionalSearch(d_max=3, k=None),
                Blinks(d_max=3, k=None),
            ],
            [KeywordQuery(["A", "C"]), KeywordQuery(["B", "E"])],
        )
        assert report.ok, report.format()
        assert report.checks > 0

    def test_root_free_full_enumeration_agrees(
        self, small_ontology, random_graph_factory
    ):
        index = build_index(
            5, small_ontology, random_graph_factory, num_vertices=25, num_edges=60
        )
        oracle = DifferentialOracle(index)
        report = oracle.run(
            [RClique(radius=2, k=None)], [KeywordQuery(["A", "C"])]
        )
        assert report.ok, report.format()

    def test_top_k_cutoff_compares_scores(
        self, small_ontology, random_graph_factory
    ):
        index = build_index(7, small_ontology, random_graph_factory)
        oracle = DifferentialOracle(index)
        report = oracle.run(
            [BackwardKeywordSearch(d_max=3, k=None)],
            [KeywordQuery(["A", "C"])],
            k=3,
        )
        assert report.ok, report.format()

    def test_algorithm_internal_cutoff_tolerates_tie_sets(
        self, small_ontology, random_graph_factory
    ):
        # k=10 baked into the algorithm truncates both runs; the oracle
        # must fall back to score comparison instead of set equality.
        index = build_index(
            0, small_ontology, random_graph_factory, num_vertices=40, num_edges=90
        )
        oracle = DifferentialOracle(index)
        report = oracle.run(
            [RClique(radius=2, k=10)], [KeywordQuery(["A", "C"])]
        )
        assert report.ok, report.format()

    def test_colliding_layers_are_skipped_not_failed(
        self, small_ontology, random_graph_factory
    ):
        index = build_index(11, small_ontology, random_graph_factory)
        oracle = DifferentialOracle(index)
        # A and B generalize to AB at layer 1 -> Def. 4.1 collision.
        report = oracle.check(
            BackwardKeywordSearch(d_max=3, k=None), KeywordQuery(["A", "B"])
        )
        assert report.ok, report.format()
        assert report.skipped >= 1


class _OverPruningEvaluator(HierarchicalEvaluator):
    """Deliberately buggy: silently prunes every second candidate answer.

    Models a pruning bug in Sec. 4.3 specialization (a candidate summary
    answer wrongly discarded) — exactly the failure class the oracle
    exists to catch: answers quietly go missing while everything still
    runs without errors.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._spec_calls = 0

    def _specialize_answer(self, *args, **kwargs):
        self._spec_calls += 1
        if self._spec_calls % 2 == 0:
            return None  # the injected bug: candidate dropped as "pruned"
        spec = super()._specialize_answer(*args, **kwargs)
        if spec is None:
            return None
        # Also over-truncate multi-member specialization sets, the other
        # flavour of the same bug class (harmless on singleton extents).
        return GeneralizedAnswerGraph(
            vertices=spec.vertices,
            edges=spec.edges,
            spec_sets={
                supernode: members[:1]
                for supernode, members in spec.spec_sets.items()
            },
            keyword_of=spec.keyword_of,
        )


class TestInjectedBug:
    @pytest.mark.parametrize("seed", range(3))
    def test_over_pruning_is_caught(
        self, seed, small_ontology, random_graph_factory
    ):
        index = build_index(seed, small_ontology, random_graph_factory)

        oracle = DifferentialOracle(
            index, evaluator_factory=_OverPruningEvaluator
        )
        report = oracle.run(
            [BackwardKeywordSearch(d_max=3, k=None)],
            [KeywordQuery(["A", "C"]), KeywordQuery(["B", "E"])],
        )
        assert not report.ok, "oracle failed to catch the injected pruning bug"
        kinds = {d.kind for d in report.divergences}
        assert any(kind.startswith("missing") for kind in kinds), kinds

    def test_clean_evaluator_passes_same_workload(
        self, small_ontology, random_graph_factory
    ):
        # Control: identical workload with the real evaluator is clean, so
        # the failure above is attributable to the injected bug alone.
        index = build_index(0, small_ontology, random_graph_factory)
        oracle = DifferentialOracle(index)
        report = oracle.run(
            [BackwardKeywordSearch(d_max=3, k=None)],
            [KeywordQuery(["A", "C"]), KeywordQuery(["B", "E"])],
        )
        assert report.ok, report.format()


class TestReportPlumbing:
    def test_merge_and_format(self, small_ontology, random_graph_factory):
        index = build_index(3, small_ontology, random_graph_factory)
        oracle = DifferentialOracle(index)
        algo = BackwardKeywordSearch(d_max=3, k=None)
        first = oracle.check(algo, KeywordQuery(["A", "C"]))
        second = oracle.check(algo, KeywordQuery(["B", "E"]))
        total = first.checks + second.checks
        first.merge(second)
        assert first.checks == total
        assert "oracle" in first.format()

    def test_direct_answers_cached(self, small_ontology, random_graph_factory):
        index = build_index(3, small_ontology, random_graph_factory)
        oracle = DifferentialOracle(index)
        algo = BackwardKeywordSearch(d_max=3, k=None)
        query = KeywordQuery(["A", "C"])
        first = oracle.direct_answers(algo, query)
        assert oracle.direct_answers(algo, query) is first
