"""Tests for budget-bounded search and graceful degradation.

The central contract (docs/ROBUSTNESS.md): a budget-limited run returns a
*ranking prefix* — every returned answer is exact, and sorting the
unlimited oracle's answers and cutting where scores reach the reported
``lower_bound`` yields the same score sequence.
"""

import pytest

from repro.core.cost import CostParams
from repro.core.evaluator import DegradedResult, eval_direct
from repro.core.index import BiGIndex
from repro.core.plugins import boost
from repro.datasets.synthetic import verification_corpus
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import KeywordQuery, top_k
from repro.search.bidirectional import BidirectionalSearch
from repro.search.blinks import Blinks
from repro.search.rclique import RClique
from repro.utils.budget import Budget
from repro.utils.errors import BudgetExceeded

EXACT = CostParams(exact=True)

ALGORITHMS = [
    BackwardKeywordSearch(d_max=3),
    BidirectionalSearch(d_max=3),
    Blinks(d_max=3),
    RClique(radius=2, k=None),
]


def oracle_scores(graph, algorithm, query):
    answers, _ = eval_direct(graph, algorithm, query)
    return [a.score for a in top_k(answers, None)]


def assert_prefix(result, scores):
    """The degraded answers must equal the oracle ranking cut at the bound."""
    got = [a.score for a in result.answers]
    want = [s for s in scores if s < result.lower_bound]
    assert got == want, (got, want, result.lower_bound)


@pytest.fixture(scope="module")
def corpus_case():
    name, graph, ontology = next(iter(verification_corpus(quick=True, seed=0)))
    index = BiGIndex.build(
        graph.copy(),
        ontology,
        num_layers=2,
        cost_params=EXACT,
    )
    labels = sorted({graph.label(v) for v in graph.vertices()})
    return graph, index, labels


class TestSearcherBudgets:
    """Budgets threaded directly through each algorithm's searcher."""

    @pytest.mark.parametrize(
        "algorithm", ALGORITHMS, ids=lambda a: a.name
    )
    def test_partial_is_prefix_of_full_ranking(self, corpus_case, algorithm):
        graph, _, labels = corpus_case
        query = KeywordQuery(labels[:2])
        searcher = algorithm.bind(graph)
        full = [a.score for a in top_k(searcher.search(query, k=None), None)]
        for cap in (1, 3, 9, 27, 81, 243):
            fresh = algorithm.bind(graph)
            try:
                answers = fresh.search(
                    query, budget=Budget(max_expansions=cap), k=None
                )
            except BudgetExceeded as exc:
                got = [a.score for a in exc.partial]
                want = [s for s in full if s < exc.lower_bound]
                assert got == want, (algorithm.name, cap, got, want)
            else:
                assert [a.score for a in top_k(answers, None)] == full

    def test_expansion_counting_is_deterministic(self, corpus_case):
        graph, _, labels = corpus_case
        query = KeywordQuery(labels[:2])
        algorithm = BackwardKeywordSearch(d_max=3)

        def count():
            budget = Budget()
            algorithm.bind(graph).search(query, budget=budget)
            return budget.expansions

        first = count()
        assert first > 0
        assert count() == first

    def test_search_with_explicit_k_does_not_mutate_searcher(
        self, corpus_case
    ):
        graph, _, labels = corpus_case
        query = KeywordQuery(labels[:2])
        algorithm = BackwardKeywordSearch(d_max=3, k=2)
        searcher = algorithm.bind(graph)
        assert len(searcher.search(query, k=None)) > 2
        assert searcher.k == 2
        assert len(searcher.search(query)) == 2

    def test_iter_search_is_reentrant(self, corpus_case):
        """Interleaved iter_search streams must not corrupt each other,
        and streaming must not clobber the searcher's own ``k``."""
        graph, _, labels = corpus_case
        query = KeywordQuery(labels[:2])
        for algorithm in (
            BackwardKeywordSearch(d_max=3, k=1),
            Blinks(d_max=3, k=1),
        ):
            searcher = algorithm.bind(graph)
            first = searcher.iter_search(query)
            a1 = next(first)
            second = list(searcher.iter_search(query))
            assert len(second) > 1, algorithm.name  # k=1 must not truncate
            assert searcher.k == 1, algorithm.name
            rest = [a1] + list(first)
            assert sorted(a.score for a in rest) == sorted(
                a.score for a in second
            ), algorithm.name
            assert len(searcher.search(query)) == 1, algorithm.name


class TestEvaluatorDegradation:
    @pytest.mark.parametrize(
        "algorithm", ALGORITHMS, ids=lambda a: a.name
    )
    def test_degraded_answers_prefix_the_oracle(self, corpus_case, algorithm):
        graph, index, labels = corpus_case
        query = KeywordQuery(labels[:2])
        scores = oracle_scores(graph, algorithm, query)
        boosted = boost(algorithm, index, allow_layer_zero=True)
        saw_degraded = saw_complete = False
        for cap in (1, 4, 16, 64, 256, 4096, 65536):
            result = boosted.evaluate_resilient(
                query, budget=Budget(max_expansions=cap)
            )
            if result.degraded:
                saw_degraded = True
                assert isinstance(result, DegradedResult)
                assert result.reason == "expansions"
                assert result.attempts
                assert_prefix(result, scores)
                # Unranked answers are real but at/above the bound.
                for answer in result.unranked:
                    assert answer.score >= result.lower_bound
                    assert answer.score in scores
            else:
                saw_complete = True
                assert [a.score for a in result.answers] == scores
        assert saw_degraded and saw_complete, algorithm.name

    def test_deadline_capped_query_degrades_to_oracle_prefix(
        self, corpus_case
    ):
        """Acceptance: a deadline-capped query on the synthetic corpus
        returns a DegradedResult whose answers prefix the oracle ranking."""
        graph, index, labels = corpus_case
        algorithm = BackwardKeywordSearch(d_max=3)
        query = KeywordQuery(labels[:2])
        scores = oracle_scores(graph, algorithm, query)
        boosted = boost(algorithm, index, allow_layer_zero=True)
        # An already-expired deadline forces degradation deterministically
        # regardless of machine speed.
        result = boosted.evaluate_resilient(query, budget=Budget(deadline=0.0))
        assert isinstance(result, DegradedResult)
        assert result.degraded
        assert result.reason == "deadline"
        assert_prefix(result, scores)

    def test_evaluate_raises_with_proven_partial(self, corpus_case):
        graph, index, labels = corpus_case
        algorithm = BackwardKeywordSearch(d_max=3)
        query = KeywordQuery(labels[:2])
        scores = oracle_scores(graph, algorithm, query)
        boosted = boost(algorithm, index, allow_layer_zero=True)
        with pytest.raises(BudgetExceeded) as excinfo:
            boosted.evaluate(query, budget=Budget(max_expansions=40))
        exc = excinfo.value
        assert exc.lower_bound is not None
        assert [a.score for a in exc.partial] == [
            s for s in scores if s < exc.lower_bound
        ]

    def test_no_budget_is_plain_evaluate(self, corpus_case):
        graph, index, labels = corpus_case
        algorithm = BackwardKeywordSearch(d_max=3)
        query = KeywordQuery(labels[:2])
        boosted = boost(algorithm, index, allow_layer_zero=True)
        resilient = boosted.evaluate_resilient(query)
        plain = boosted.evaluate(query)
        assert not resilient.degraded
        assert [a.score for a in resilient.answers] == [
            a.score for a in plain.answers
        ]

    def test_retry_runs_coarser_layers(self, corpus_case):
        graph, index, labels = corpus_case
        algorithm = BackwardKeywordSearch(d_max=3)
        # A pair that stays distinct on layer 1, so a budget-starved
        # layer-0 attempt can retry on the coarser summary layer.
        query = None
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                candidate = KeywordQuery([labels[i], labels[j]])
                if index.query_distinct_at(candidate, 1):
                    query = candidate
                    break
            if query is not None:
                break
        assert query is not None, "corpus lost its layer-1-distinct pair"
        boosted = boost(algorithm, index, allow_layer_zero=True)
        scores = oracle_scores(graph, algorithm, query)
        # Charge granularity (a whole frontier at a time) makes the exact
        # tripping point graph-dependent; sweep caps until one degrades
        # the halved first attempt while leaving the parent budget room
        # for the coarser retry.
        retried = None
        for cap in range(2, 400):
            result = boosted.evaluate_resilient(
                query, budget=Budget(max_expansions=cap), layer=0
            )
            if not result.degraded:
                break
            assert_prefix(result, scores)
            if len(result.attempts) >= 2:
                retried = result
        assert retried is not None, "no cap produced a coarser-layer retry"
        layers = [attempt.layer for attempt in retried.attempts]
        assert layers[0] == 0 and layers[1] == 1

    def test_summary_mentions_reason_and_counts(self, corpus_case):
        _, index, labels = corpus_case
        algorithm = BackwardKeywordSearch(d_max=3)
        boosted = boost(algorithm, index, allow_layer_zero=True)
        result = boosted.evaluate_resilient(
            KeywordQuery(labels[:2]), budget=Budget(max_expansions=5)
        )
        assert result.degraded
        text = result.summary()
        assert "degraded" in text
        assert "expansions" in text
        assert "proven" in text


def _coarsest_distinct(index, labels):
    """``(m, query)``: the coarsest layer at which any label pair stays
    distinct, and the first such pair.  No layer above ``m`` can evaluate
    the query, so a resilient plan forced to ``m`` is a single attempt."""
    for layer in range(index.num_layers, 0, -1):
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                query = KeywordQuery([labels[i], labels[j]])
                if index.query_distinct_at(query, layer):
                    return layer, query
    raise AssertionError("corpus lost its last summary-layer-distinct pair")


#: Expansion caps from "trips on the first charge" to "never binds".
CAP_LADDER = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 4096)


class TestOneAttemptPipeline:
    """``evaluate`` (strict) and ``evaluate_resilient`` are two readings of
    the same attempt: whatever one proves, the other proves."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.name)
    def test_strict_and_resilient_agree_at_the_top_layer(
        self, corpus_case, algorithm
    ):
        """No coarser layer can take the query, so the resilient plan is
        exactly one attempt — the one strict ``evaluate`` makes."""
        graph, index, labels = corpus_case
        top, query = _coarsest_distinct(index, labels)
        evaluator = boost(algorithm, index, allow_layer_zero=True).evaluator
        saw_degraded = saw_complete = False
        for cap in CAP_LADDER:
            resilient = evaluator.evaluate_resilient(
                query, budget=Budget(max_expansions=cap), layer=top
            )
            try:
                strict = evaluator.evaluate(
                    query, layer=top, budget=Budget(max_expansions=cap)
                )
            except BudgetExceeded as exc:
                saw_degraded = True
                assert resilient.degraded, cap
                assert [a.layer for a in resilient.attempts] == [top]
                assert exc.partial == resilient.answers, cap
                assert exc.lower_bound == resilient.lower_bound, cap
                assert exc.reason == resilient.reason
                assert exc.expansions == resilient.attempts[0].expansions
            else:
                saw_complete = True
                assert not resilient.degraded, cap
                assert strict.answers == resilient.answers, cap
        assert saw_degraded and saw_complete, algorithm.name

    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.name)
    def test_resilient_is_prefix_sound_at_every_forced_layer(
        self, corpus_case, algorithm
    ):
        graph, index, labels = corpus_case
        top, query = _coarsest_distinct(index, labels)
        scores = oracle_scores(graph, algorithm, query)
        evaluator = boost(algorithm, index, allow_layer_zero=True).evaluator
        for layer in range(top + 1):
            for cap in CAP_LADDER:
                result = evaluator.evaluate_resilient(
                    query, budget=Budget(max_expansions=cap), layer=layer
                )
                if result.degraded:
                    assert result.attempts[0].layer == layer
                    assert_prefix(result, scores)
                else:
                    assert [a.score for a in result.answers] == scores

    @pytest.mark.parametrize("layer", [0, 1])
    def test_escaping_exception_carries_only_declared_attributes(
        self, corpus_case, layer
    ):
        _, index, labels = corpus_case
        _, query = _coarsest_distinct(index, labels)
        boosted = boost(
            BackwardKeywordSearch(d_max=3), index, allow_layer_zero=True
        )
        with pytest.raises(BudgetExceeded) as excinfo:
            boosted.evaluate(query, layer=layer, budget=Budget(max_expansions=5))
        assert vars(excinfo.value).keys() <= {
            "reason", "expansions", "partial", "lower_bound",
        }

    def test_layer_zero_and_layer_m_attempts_populate_the_same_fields(
        self, corpus_case
    ):
        """Layer 0 is a branch of the one attempt, not a second handler:
        an interrupted attempt reports the same instrumentation either way."""
        _, index, labels = corpus_case
        top, query = _coarsest_distinct(index, labels)
        evaluator = boost(
            BackwardKeywordSearch(d_max=3), index, allow_layer_zero=True
        ).evaluator

        def first_interrupted_with_answers(layer):
            for cap in range(1, 400):
                result = evaluator.evaluate_resilient(
                    query, budget=Budget(max_expansions=cap), layer=layer
                )
                if not result.degraded:
                    break
                attempt = result.attempts[0]
                if attempt.layer == layer and attempt.proven:
                    return attempt
            raise AssertionError(f"no cap interrupts layer {layer} mid-ranking")

        for layer in (0, top):
            attempt = first_interrupted_with_answers(layer)
            assert attempt.reason == "expansions"
            assert attempt.num_candidates >= attempt.proven + attempt.unproven
            # (layer 0 never has an unranked remainder: the searcher's own
            # prefix is all it hands over.)
            populated = {name for name, value in vars(attempt).items() if value}
            assert populated >= {
                "reason", "expansions", "num_generalized", "num_candidates",
                "proven",
            }, layer

    def test_unbudgeted_resilient_goes_through_rebound_evaluate(
        self, corpus_case
    ):
        """The e2e tracer hangs its ``eval`` span by rebinding ``evaluate``
        on the evaluator *instance*; every unbudgeted entry point (serve's
        ``/query`` and ``/batch`` defaults) must keep crossing it."""
        _, index, labels = corpus_case
        evaluator = boost(
            BackwardKeywordSearch(d_max=3), index, allow_layer_zero=True
        ).evaluator
        inner, calls = evaluator.evaluate, []

        def traced(*args, **kwargs):
            calls.append(kwargs)
            return inner(*args, **kwargs)

        evaluator.evaluate = traced
        query = KeywordQuery(labels[:2])
        direct = evaluator.evaluate_resilient(query, k=3)
        (batched,) = evaluator.evaluate_many([query], k=3)
        assert len(calls) == 2
        assert all(call["k"] == 3 for call in calls)
        assert direct.answers == batched.answers == inner(query, k=3).answers
