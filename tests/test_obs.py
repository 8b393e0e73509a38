"""Telemetry tests: sinks, the zero-overhead contract, accounting parity,
trace schema, and the CLI --explain / --trace-out surfaces."""

import io
import itertools
import json
import pathlib
import re

import pytest

from repro.bench.hotpaths import (
    ABS_SLACK_SECONDS,
    available_cpus,
    cpu_affinity,
    reference_seconds,
)
from repro.bisim.refinement import maximal_bisimulation
from repro.core.cost import CostParams
from repro.core.evaluator import DegradationStats, HierarchicalEvaluator
from repro.core.index import BiGIndex
from repro.core.plugins import boost
from repro.core.query_cost import QueryCostModel
from repro.datasets.knowledge import dataset_registry
from repro.datasets.synthetic import deep_dataset, verification_corpus
from repro.obs import (
    NULL_METRICS,
    NULL_TRACER,
    OBS,
    MetricsRegistry,
    NullTracer,
    Tracer,
    charge_expansions,
    instrumented,
    write_trace,
)
from repro.obs.reqlog import SloWindow
from repro.obs.schema import distinct_phases, validate_lines
from repro.obs.schema import main as schema_main
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import KeywordQuery
from repro.search.bidirectional import BidirectionalSearch
from repro.search.blinks import Blinks
from repro.search.rclique import RClique
from repro.utils.budget import Budget
from repro.utils.errors import BudgetExceeded
from repro.verify.runner import probe_queries


@pytest.fixture(scope="module")
def toy_case():
    """Smallest verification-corpus case: (name, graph, ontology)."""
    return verification_corpus(quick=True, seed=0)[0]


@pytest.fixture(scope="module")
def toy_index(toy_case):
    _, graph, ontology = toy_case
    return BiGIndex.build(
        graph.copy(),
        ontology,
        num_layers=2,
        cost_params=CostParams(exact=True),
    )


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("a.x")
        reg.inc("a.x", 4)
        reg.gauge("a.g", 7.5)
        reg.observe("a.h", 1.0)
        reg.observe("a.h", 3.0)
        assert reg.counter("a.x") == 5
        assert reg.counter("never") == 0
        assert reg.counters() == {"a.x": 5}
        assert reg.gauges() == {"a.g": 7.5}
        hist = reg.histograms()["a.h"]
        assert hist["count"] == 2 and hist["mean"] == 2.0
        assert hist["min"] == 1.0 and hist["max"] == 3.0
        json.dumps(reg.snapshot())  # must serialize as traced

    def test_merge_adds_counters_and_combines_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 2)
        b.inc("n", 3)
        b.gauge("g", 1.0)
        a.observe("h", 1.0)
        b.observe("h", 9.0)
        a.merge(b)
        assert a.counter("n") == 5
        assert a.gauges()["g"] == 1.0
        assert a.histograms()["h"]["max"] == 9.0

    def test_format_filters_by_prefix(self):
        reg = MetricsRegistry()
        reg.inc("search.expansions", 7)
        reg.inc("refine.rounds", 2)
        text = reg.format(prefixes=("search.",))
        assert "search.expansions = 7" in text
        assert "refine.rounds" not in text

    def test_null_metrics_drops_everything(self):
        NULL_METRICS.inc("x")
        NULL_METRICS.gauge("y", 1.0)
        NULL_METRICS.observe("z", 1.0)
        assert NULL_METRICS.counters() == {}


class TestTracer:
    def test_spans_nest_and_annotate(self):
        tracer = Tracer()
        with tracer.span("outer", layer=1) as outer:
            with tracer.span("inner"):
                pass
            outer.annotate(done=True)
        assert [s.name for s in tracer.roots] == ["outer"]
        assert [s.name for s in tracer.roots[0].children] == ["inner"]
        assert tracer.roots[0].attrs == {"layer": 1, "done": True}
        assert tracer.roots[0].duration >= 0.0

    def test_exception_annotates_error_and_unwinds(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        assert tracer.roots[0].attrs["error"] == "ValueError"
        assert tracer._stack == []

    def test_format_tree_aggregates_identical_siblings(self):
        tracer = Tracer()
        with tracer.span("query"):
            for _ in range(3):
                with tracer.span("explore", layer=1):
                    pass
            with tracer.span("explore", layer=2):
                pass
        tree = tracer.format_tree()
        assert "explore ×3" in tree
        assert tree.count("explore") == 2  # ×3 group + the layer=2 line

    def test_events_are_schema_valid_jsonl(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        metrics.inc("search.expansions", 3)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        buffer = io.StringIO()
        count = tracer.write(buffer, metrics=metrics)
        lines = buffer.getvalue().splitlines()
        assert count == len(lines) == 3  # two X spans + metrics instant
        events, errors = validate_lines(lines)
        assert errors == []
        assert distinct_phases(events) == ["a", "b"]
        instant = [e for e in events if e["ph"] == "i"]
        assert instant[0]["args"]["counters"]["search.expansions"] == 3

    def test_null_tracer_costs_nothing_observable(self):
        span = NULL_TRACER.span("anything", layer=3)
        with span as inner:
            inner.annotate(ignored=True)
        assert NULL_TRACER.to_events() == []
        assert NULL_TRACER.format_tree() == ""
        assert isinstance(NULL_TRACER, NullTracer)


class TestSchemaValidator:
    def test_rejects_malformed_events(self):
        lines = [
            "not json",
            json.dumps({"ph": "X", "name": "", "ts": -1, "dur": 0,
                        "pid": 1, "tid": 0}),
            json.dumps({"ph": "Z", "name": "x", "ts": 0,
                        "pid": 1, "tid": 0}),
        ]
        _, errors = validate_lines(lines)
        assert any("invalid JSON" in e for e in errors)
        assert any("name" in e for e in errors)
        assert any("ph" in e for e in errors)

    def test_empty_trace_is_an_error(self):
        _, errors = validate_lines(["", "   "])
        assert errors == ["trace is empty"]

    def test_cli_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.jsonl"
        tracer = Tracer()
        for name in ("a", "b", "c", "d"):
            with tracer.span(name):
                pass
        write_trace(str(good), tracer)
        assert schema_main([str(good), "--min-phases", "4"]) == 0
        assert "4 distinct span name(s)" in capsys.readouterr().out
        assert schema_main([str(good), "--min-phases", "5"]) == 1
        assert schema_main([str(tmp_path / "missing.jsonl")]) == 2


# ----------------------------------------------------------------------
# Runtime switch and the authoritative expansion tap
# ----------------------------------------------------------------------
class TestInstrumented:
    def test_disabled_by_default(self):
        assert OBS.enabled is False
        assert OBS.tracer is NULL_TRACER
        assert OBS.metrics is NULL_METRICS

    def test_scoped_enable_and_restore(self):
        with instrumented() as inst:
            assert OBS.enabled is True
            assert OBS.tracer is inst.tracer
            assert OBS.metrics is inst.metrics
            assert isinstance(inst.tracer, Tracer)
            assert not isinstance(inst.tracer, NullTracer)
        assert OBS.enabled is False
        assert OBS.tracer is NULL_TRACER

    def test_nested_blocks_compose(self):
        with instrumented() as outer:
            OBS.metrics.inc("x")
            with instrumented() as inner:
                OBS.metrics.inc("x")
            assert OBS.metrics is outer.metrics
            assert inner.metrics.counter("x") == 1
        assert outer.metrics.counter("x") == 1

    def test_metrics_only_mode(self):
        with instrumented(trace=False) as inst:
            assert inst.tracer is NULL_TRACER
            OBS.metrics.inc("y")
        assert inst.metrics.counter("y") == 1

    def test_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with instrumented():
                raise RuntimeError("boom")
        assert OBS.enabled is False


class TestChargeExpansions:
    def test_counts_metric_and_budget_identically(self):
        budget = Budget()
        with instrumented(trace=False) as inst:
            charge_expansions(budget, 3)
            charge_expansions(budget)  # default amount 1
        assert budget.expansions == 4
        assert inst.metrics.counter("search.expansions") == 4

    def test_tripping_charge_is_counted_on_both_sides(self):
        budget = Budget(max_expansions=5)
        with instrumented(trace=False) as inst:
            with pytest.raises(BudgetExceeded):
                charge_expansions(budget, 10)
        assert budget.expansions == 10
        assert inst.metrics.counter("search.expansions") == 10

    def test_zero_and_negative_amounts_are_noops(self):
        budget = Budget()
        with instrumented(trace=False) as inst:
            charge_expansions(budget, 0)
            charge_expansions(budget, -2)
        assert budget.expansions == 0
        assert inst.metrics.counter("search.expansions") == 0

    def test_works_without_budget_and_while_disabled(self):
        charge_expansions(None, 5)  # disabled: must not touch anything
        assert NULL_METRICS.counters() == {}
        budget = Budget()
        charge_expansions(budget, 2)
        assert budget.expansions == 2


# ----------------------------------------------------------------------
# Identity: instrumentation must never change results
# ----------------------------------------------------------------------
def _all_searchers(d_max=3, k=None):
    return [
        BackwardKeywordSearch(d_max=d_max, k=k),
        BidirectionalSearch(d_max=d_max, k=k),
        Blinks(d_max=d_max, k=k),
        RClique(radius=2, k=k),
    ]


def _canonical_answers(answers):
    """Byte-comparable serialization of a ranked answer list."""
    return json.dumps(
        [
            [a.score, a.root, sorted(a.keyword_nodes)]
            for a in answers
        ],
        sort_keys=True,
    ).encode()


class TestResultsIdenticalOnAndOff:
    def test_refinement_blocks(self, toy_case):
        _, graph, _ = toy_case
        off = maximal_bisimulation(graph)
        with instrumented():
            on = maximal_bisimulation(graph)
        assert on == off

    def test_searcher_answers(self, toy_case):
        _, graph, _ = toy_case
        queries = probe_queries(graph)
        for algorithm in _all_searchers():
            searcher = algorithm.bind(graph)
            off = [
                _canonical_answers(searcher.search(q)) for q in queries
            ]
            with instrumented():
                on = [
                    _canonical_answers(searcher.search(q)) for q in queries
                ]
            assert on == off, algorithm.name

    def test_hierarchical_evaluation(self, toy_case, toy_index):
        _, graph, _ = toy_case
        boosted = boost(
            BackwardKeywordSearch(d_max=3), toy_index, allow_layer_zero=True
        )
        queries = probe_queries(graph)[:2]
        off = [
            _canonical_answers(boosted.evaluate_resilient(q).answers)
            for q in queries
        ]
        with instrumented():
            on = [
                _canonical_answers(boosted.evaluate_resilient(q).answers)
                for q in queries
            ]
        assert on == off


class TestExpansionParity:
    """metrics.counter('search.expansions') == budget.expansions, always."""

    def test_plain_searchers(self, toy_case):
        _, graph, _ = toy_case
        queries = probe_queries(graph)
        for algorithm in _all_searchers():
            searcher = algorithm.bind(graph)
            budget = Budget()
            with instrumented(trace=False) as inst:
                for query in queries:
                    searcher.search(query, budget=budget)
            assert (
                inst.metrics.counter("search.expansions")
                == budget.expansions
            ), algorithm.name
            assert budget.expansions > 0

    @pytest.mark.parametrize("cap", [1, 4, 64, 4096])
    def test_resilient_evaluation_across_the_ladder(
        self, toy_case, toy_index, cap
    ):
        _, graph, _ = toy_case
        boosted = boost(
            BackwardKeywordSearch(d_max=3), toy_index, allow_layer_zero=True
        )
        query = probe_queries(graph)[0]
        budget = Budget(max_expansions=cap)
        with instrumented(trace=False) as inst:
            boosted.evaluate_resilient(query, budget=budget)
        assert (
            inst.metrics.counter("search.expansions") == budget.expansions
        )


    @pytest.mark.parametrize(
        "algorithm",
        [BackwardKeywordSearch(d_max=3, k=5), RClique(radius=4, k=5)],
        ids=["bkws", "r-clique"],
    )
    def test_every_cap_of_a_forced_layer_two_run(
        self, layered_case, algorithm
    ):
        """Capped at every count from 1 to its unbudgeted total, a forced
        layer-2 run trips on each of the evaluator's own charges in turn
        (bkws: summary answers, root specs, the layer-1 reach sweeps and
        candidate roots; r-clique: per-level spec members and
        assignments), and its per-attempt tally still equals the
        budget's ledger on every exit."""
        index, query = layered_case
        evaluator = boost(algorithm, index).evaluator
        unbudgeted = Budget()
        evaluator.evaluate(query, layer=2, budget=unbudgeted)
        tripped = 0
        for cap in range(1, unbudgeted.expansions + 1):
            budget = Budget(max_expansions=cap)
            with instrumented(trace=False) as inst:
                try:
                    evaluator.evaluate(query, layer=2, budget=budget)
                except BudgetExceeded:
                    tripped += 1
            assert (
                inst.metrics.counter("search.expansions") == budget.expansions
            ), cap
        assert tripped == unbudgeted.expansions

    @pytest.mark.parametrize(
        "algorithm",
        [BackwardKeywordSearch(d_max=3), BidirectionalSearch(d_max=3),
         Blinks(d_max=3)],
        ids=["bkws", "bdws", "blinks"],
    )
    def test_every_cap_of_a_forced_layer_three_run(self, mixed_blocks, algorithm):
        """The same ladder on layer 3, where hits descend through two
        levels to their layer-1 blocks and wholly rejected ones are
        charged in one step (``mixed_blocks``): each cap still trips once
        and the tally equals the ledger."""
        index, query = mixed_blocks
        evaluator = boost(algorithm, index).evaluator
        unbudgeted = Budget()
        result = evaluator.evaluate(query, layer=3, budget=unbudgeted)
        assert result.num_bounded and result.answers
        tripped = 0
        for cap in range(1, unbudgeted.expansions + 1):
            budget = Budget(max_expansions=cap)
            with instrumented(trace=False) as inst:
                try:
                    evaluator.evaluate(query, layer=3, budget=budget)
                except BudgetExceeded:
                    tripped += 1
            assert (
                inst.metrics.counter("search.expansions") == budget.expansions
            ), cap
        assert tripped == unbudgeted.expansions


@pytest.fixture(scope="module")
def layered_case():
    """A 3-layer yago-like index and a keyword pair whose forced layer-2
    runs reach every evaluator charge: bkws bounds some candidate roots
    and answers, r-clique enumerates assignments."""
    dataset = dataset_registry(scale=0.02)["yago-like"]()
    index = BiGIndex.build(
        dataset.graph.copy(),
        dataset.ontology,
        num_layers=3,
        cost_params=CostParams(num_samples=10),
    )
    histogram = dataset.graph.label_histogram()
    labels = sorted(histogram, key=lambda label: (-histogram[label], label))
    for pair in itertools.combinations(labels[:12], 2):
        query = KeywordQuery(pair)
        if not index.query_distinct_at(query, 2):
            continue
        rooted = boost(BackwardKeywordSearch(d_max=3, k=5), index).evaluator
        free = boost(RClique(radius=4, k=5), index).evaluator
        bkws = rooted.evaluate(query, layer=2)
        rclique = free.evaluate(query, layer=2)
        if bkws.num_bounded and bkws.answers and rclique.num_candidates:
            return index, query
    pytest.fail("no keyword pair reaches every layer-2 charge")


class TestLayerCostSpan:
    """``layer-selection``'s ``cost.G<m>`` attributes re-run Formula 4
    over every layer, so they are computed only when a tracer records."""

    @pytest.fixture
    def cost_calls(self, monkeypatch):
        calls = []
        costs = QueryCostModel.all_layer_costs

        def counting(model, query):
            calls.append(query)
            return costs(model, query)

        monkeypatch.setattr(QueryCostModel, "all_layer_costs", counting)
        return calls

    def _evaluator(self, toy_index):
        return HierarchicalEvaluator(
            toy_index, BackwardKeywordSearch(d_max=3), allow_layer_zero=True,
            cache_size=0,
        )

    @pytest.mark.parametrize("layer, expected", [(None, 1), (1, 0)])
    def test_metrics_only_costs_only_the_routing(
        self, toy_case, toy_index, cost_calls, layer, expected
    ):
        query = probe_queries(toy_case[1])[0]
        with instrumented(trace=False):
            self._evaluator(toy_index).evaluate(query, layer=layer)
        assert len(cost_calls) == expected

    def test_a_recording_tracer_still_gets_the_costs(
        self, toy_case, toy_index, cost_calls
    ):
        query = probe_queries(toy_case[1])[0]
        with instrumented() as inst:
            self._evaluator(toy_index).evaluate(query)
        (span,) = [
            span for span in inst.tracer.spans
            if span.name == "layer-selection"
        ]
        assert {"cost.G1", "cost.G2"} <= set(span.attrs)
        assert len(cost_calls) == 2


class TestDegradationStats:
    def test_degraded_result_carries_stats(self, toy_case, toy_index):
        _, graph, _ = toy_case
        boosted = boost(
            BackwardKeywordSearch(d_max=3), toy_index, allow_layer_zero=True
        )
        query = probe_queries(graph)[0]
        budget = Budget(max_expansions=1)
        result = boosted.evaluate_resilient(query, budget=budget)
        assert result.degraded
        stats = result.stats
        assert isinstance(stats, DegradationStats)
        assert stats.expansions_consumed == budget.expansions
        assert stats.expansions_remaining == 0
        assert stats.layers_attempted  # at least one layer was tried
        described = stats.describe()
        assert "expansion" in described and "layers tried" in described
        assert described in result.summary()


# ----------------------------------------------------------------------
# Zero-overhead contract (ISSUE 4 acceptance: within 2% on the
# depth-stress refinement case, instrumentation disabled)
# ----------------------------------------------------------------------
class TestDisabledOverhead:
    def test_refine_synt_deep_3k_within_bound(self):
        with open("BENCH_hotpaths.json", "r", encoding="utf-8") as handle:
            document = json.load(handle)
        base_seconds = document["current"]["refine.synt-deep-3k.ref_seconds"]
        graph, _ = deep_dataset("synt-deep-3k", seed=0)
        assert OBS.enabled is False  # measuring the disabled fast path
        # Read on the bench gate's own clock (reference seconds on one
        # pinned CPU), then allow 2% plus the standard absolute slack.
        with cpu_affinity({max(available_cpus())}):
            best = reference_seconds(
                lambda: maximal_bisimulation(graph),
                5,
            ).ref
        allowed = base_seconds * 1.02 + ABS_SLACK_SECONDS
        assert best <= allowed, (
            f"disabled-instrumentation refinement took {best:.6f}s at "
            f"reference speed, allowed {allowed:.6f}s (baseline "
            f"{base_seconds:.6f}s)"
        )


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def built_workspace(tmp_path_factory):
    """One small dataset + index shared by the CLI telemetry tests."""
    from repro.cli import main

    root = tmp_path_factory.mktemp("obs-cli")
    graph_prefix = str(root / "graph")
    index_dir = str(root / "index")
    assert main(
        ["dataset", "yago-like", "--out", graph_prefix, "--scale", "0.05"]
    ) == 0
    assert main(
        [
            "build", graph_prefix,
            "--index-dir", index_dir,
            "--layers", "2",
            "--samples", "10",
            "--ontology-from", "yago-like",
            "--scale", "0.05",
        ]
    ) == 0
    return graph_prefix, index_dir


def _summary_keywords(graph_prefix, index_dir, layer=1):
    """A keyword pair that answers on ``layer`` (so it stays
    collision-free there)."""
    import itertools

    from repro.core.persistence import load_index
    from repro.datasets.knowledge import dataset_ontology
    from repro.graph.io import load_graph_tsv
    from repro.utils.errors import QueryError

    ontology = dataset_ontology("yago-like", 0.05)
    graph, _ = load_graph_tsv(graph_prefix)
    index = load_index(index_dir, ontology)
    histogram = graph.label_histogram()
    labels = sorted(histogram, key=lambda l: (-histogram[l], l))[:40]
    boosted = boost(
        BackwardKeywordSearch(d_max=3, k=3), index, allow_layer_zero=True
    )
    for pair in itertools.combinations(labels, 2):
        try:
            result = boosted.evaluate_resilient(
                KeywordQuery(pair), layer=layer
            )
        except QueryError:
            continue
        if result.answers and not result.degraded:
            return list(pair)
    pytest.skip(f"no keyword pair answering on layer {layer} in the dataset")


class TestCLIExplainAndTrace:
    def _query_args(self, index_dir, keywords, *extra):
        return [
            "query", index_dir,
            "--keywords", *keywords,
            "--algorithm", "bkws",
            "--d-max", "3",
            "--k", "3",
            "--layer", "1",
            "--ontology-from", "yago-like",
            "--scale", "0.05",
            *extra,
        ]

    def test_explain_and_trace_roundtrip(
        self, built_workspace, tmp_path, capsys
    ):
        from repro.cli import main

        graph_prefix, index_dir = built_workspace
        keywords = _summary_keywords(graph_prefix, index_dir)
        trace_path = tmp_path / "trace.jsonl"

        # Plain run first: answers must be identical with telemetry on.
        assert main(self._query_args(index_dir, keywords)) == 0
        plain = capsys.readouterr().out

        code = main(
            self._query_args(
                index_dir, keywords,
                "--explain", "--trace-out", str(trace_path),
            )
        )
        out = capsys.readouterr().out
        assert code == 0
        # Same ranked answers as the unobserved run (header timing varies).
        plain_answers = [
            l for l in plain.splitlines() if l.lstrip().startswith(("1.", "2.", "3."))
        ]
        for line in plain_answers:
            assert line in out
        assert "EXPLAIN" in out
        # The span tree names the pipeline phases with the chosen layer.
        for phase in ("layer-selection", "translate", "explore",
                      "specialize", "generate"):
            assert phase in out, phase
        assert "search.expansions" in out
        assert "eval.queries_generalized" in out

        events, errors = validate_lines(
            trace_path.read_text().splitlines()
        )
        assert errors == []
        assert len(distinct_phases(events)) >= 4
        assert schema_main([str(trace_path), "--min-phases", "4"]) == 0
        capsys.readouterr()

    def test_layer2_explain_counts_bounded_candidates(
        self, built_workspace, capsys
    ):
        """At layer 2 root verification runs behind the layer-1 reach
        bound; --explain reports the roots it rejected without a BFS."""
        from repro.cli import main

        graph_prefix, index_dir = built_workspace
        keywords = _summary_keywords(graph_prefix, index_dir, layer=2)
        args = self._query_args(index_dir, keywords, "--explain")
        args[args.index("--layer") + 1] = "2"
        assert main(args) == 0
        out = capsys.readouterr().out
        counters = dict(
            line.split(" = ")
            for line in out.splitlines()
            if line.startswith("  eval.")
        )
        bounded = int(counters["  eval.candidates_bounded"])
        assert 0 < bounded <= int(counters["  eval.candidates"])

    def test_answers_unchanged_by_observation(
        self, built_workspace, capsys
    ):
        from repro.cli import main

        graph_prefix, index_dir = built_workspace
        keywords = _summary_keywords(graph_prefix, index_dir)
        assert main(self._query_args(index_dir, keywords)) == 0
        plain = capsys.readouterr().out
        assert main(
            self._query_args(index_dir, keywords, "--explain")
        ) == 0
        observed = capsys.readouterr().out

        def answer_lines(text):
            return [
                l for l in text.splitlines()
                if l.startswith("  ") and ". score=" in l
            ]

        assert answer_lines(plain) == answer_lines(observed)

    def test_degraded_exit_reports_stats(self, built_workspace, capsys):
        from repro.cli import main

        _, index_dir = built_workspace
        code = main(
            [
                "query", index_dir,
                "--keywords", "Y7_47", "Y7_57",
                "--algorithm", "bkws",
                "--max-expansions", "1",
                "--ontology-from", "yago-like",
                "--scale", "0.05",
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "expansion" in captured.err
        assert "layers tried" in captured.err


# ----------------------------------------------------------------------
# Telemetry audit: what src/ emits == what docs/OBSERVABILITY.md lists
# ----------------------------------------------------------------------
_REPO = pathlib.Path(__file__).resolve().parents[1]
_SRC = _REPO / "src" / "repro"
#: The audited metric families: build, sharding, copy-on-write, the
#: query path (``budget.`` is audited *empty*: its gauges were deleted),
#: and the core storage / refinement / serve-lifecycle families.
_BUILD_PREFIXES = ("build.", "shard.", "cow.")
_QUERY_PREFIXES = ("eval.", "spec.", "search.", "cache.", "budget.")
_CORE_PREFIXES = (
    "refine.", "persist.", "wal.", "snapshot.", "postings.",
)
#: The serve tables ("Serve counters"), audited against their own rows.
_SERVE_PREFIXES = ("serve.", "req.", "log.", "flight.", "slo.")
_BUILD_SPAN_FILES = ("core/index.py", "core/heuristic.py", "core/sharding.py")
_QUERY_SPAN_FILES = ("core/evaluator.py",)
#: Registry calls, plus ``EngineRuntime._metric_inc`` (the serve
#: runtime's one-registry wrapper around ``metrics.inc``).
_METRIC_CALL = re.compile(
    r"(?:metrics\.(?:inc|observe|gauge)|_metric_inc)\(\s*f?\"([^\"]+)\""
)
#: Tracer calls, plus ``evaluator._timed`` (the evaluator's wrapper that
#: times a phase and traces it under the same name).
_SPAN_CALL = re.compile(
    r"(?:tracer\.span|_timed)\(\s*(?:breakdown,\s*)?\"([^\"]+)\""
)
_CACHE_KIND = re.compile(r"LRUCache\([^)]*kind=\"([^\"]+)\"")


def _emitted(call, paths):
    """Every name ``call`` matches in the source files ``paths``."""
    return {
        name
        for path in paths
        for name in call.findall(path.read_text(encoding="utf-8"))
    }


def _placeholder(name):
    """``shard.scatter.{locale.name}.seconds`` (source f-string) and
    ``shard.scatter.<locale>.seconds`` (docs) are the same name."""
    return re.sub(r"\{[^}]*\}|<[^>]*>", "*", name)


def _doc_table(heading):
    """The first two cells of each row of the table under ``heading``
    in docs/OBSERVABILITY.md."""
    text = (_REPO / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    section = text.split(heading, 1)[1].split("\n#", 1)[0]
    return [
        tuple(cell.strip() for cell in line.strip("|").split("|")[:2])
        for line in section.splitlines()
        if line.startswith("| `")
    ]


def _names(cell):
    return re.findall(r"`([^`]+)`", cell)


def _metric_audit(prefixes):
    """``(emitted, documented)`` metric names of the ``prefixes`` families."""
    emitted = {
        _placeholder(name)
        # bench/ holds bench entry keys, not metrics.
        for name in _emitted(
            _METRIC_CALL,
            (p for p in _SRC.rglob("*.py") if "bench" not in p.parts),
        )
        if name.startswith(prefixes)
    }
    documented = {
        _placeholder(prefix.strip("`") + name)
        for prefix, names in _doc_table("## Metric taxonomy")
        if prefix.strip("`") in prefixes
        # Parenthesised prose explains a name; it does not list one.
        for name in _names(re.sub(r"\([^)]*\)", "", names))
    }
    return emitted, documented


def _documented_spans():
    return {
        name
        for names, _parent in _doc_table("## Span taxonomy")
        for name in _names(names)
    }


def _serve_documented():
    """Metric names of the two tables under "Serve counters": rows that
    list names (``| `serve.admitted` | meaning |``) and rows that list a
    prefix and its names (``| `req.` | `received`, ... |``)."""
    names = set()
    for first, second in _doc_table("### Serve counters"):
        if first.endswith(".`"):
            prefix = first.strip("`")
            names.update(
                prefix + name
                for name in _names(re.sub(r"\([^)]*\)", "", second))
            )
        else:
            names.update(_names(first))
    return {_placeholder(name) for name in names}


class TestTelemetryAudit:
    def test_build_shard_cow_metrics_match_the_docs(self):
        emitted, documented = _metric_audit(_BUILD_PREFIXES)
        assert emitted == documented

    def test_query_path_metrics_match_the_docs(self):
        emitted, documented = _metric_audit(_QUERY_PREFIXES)
        assert emitted == documented

    def test_cache_kinds_match_the_docs(self):
        """``cache.hit.<kind>`` / ``miss.<kind>``: the ``kind`` of every
        ``LRUCache`` in src/ is listed, and every listed kind exists."""
        emitted = _emitted(_CACHE_KIND, _SRC.rglob("*.py"))
        (row,) = [
            names for prefix, names in _doc_table("## Metric taxonomy")
            if prefix == "`cache.`"
        ]
        documented = set(_names(re.search(r"∈ ([^)]*)\)", row).group(1)))
        assert emitted == documented == {"result", "spec", "frontier", "profile"}

    def test_core_metrics_match_the_docs(self):
        emitted, documented = _metric_audit(_CORE_PREFIXES)
        # Both ride /healthz: snapshot.published is emitted only through
        # EngineRuntime._metric_inc, so the scan must see that wrapper.
        assert {"snapshot.published", "persist.mmap.detaches"} <= emitted
        assert emitted == documented

    def test_serve_metrics_match_the_docs(self):
        emitted, _ = _metric_audit(_SERVE_PREFIXES)
        # One f-string emits every SLO gauge; its fields are read from a
        # published window instead.
        emitted.remove("slo.*.*")
        window, metrics = SloWindow(), MetricsRegistry()
        window.observe("/query", 0.01, 200)
        window.publish_gauges(metrics)
        emitted |= {
            name.replace("slo.query.", "slo.*.", 1) for name in metrics.gauges()
        }
        assert {"serve.requests.query", "req.minted", "flight.records"} <= emitted
        assert emitted == _serve_documented()

    def test_build_spans_match_the_docs(self):
        documented = _documented_spans()
        build = _emitted(_SPAN_CALL, (_SRC / rel for rel in _BUILD_SPAN_FILES))
        assert build <= documented
        assert documented <= _emitted(_SPAN_CALL, _SRC.rglob("*.py"))

    def test_evaluator_spans_match_the_docs(self):
        emitted = _emitted(_SPAN_CALL, (_SRC / rel for rel in _QUERY_SPAN_FILES))
        assert emitted == {
            "layer-selection", "translate", "explore", "specialize",
            "generate", "attempt", "result-cache",
        }
        assert emitted <= _documented_spans()
