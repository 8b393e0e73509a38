"""Unit tests for timers, errors, reporting and the bench harness."""

import time

import pytest

from repro.bench.harness import (
    QueryComparison,
    build_index,
    compare_on_queries,
    default_dataset,
    standard_workload,
)
from repro.bench.reporting import format_table, percent_reduction, print_table
from repro.core.evaluator import HierarchicalEvaluator
from repro.obs.runtime import instrumented
from repro.search.banks import BackwardKeywordSearch
from repro.utils.errors import (
    BigIndexError,
    ConfigurationError,
    GraphError,
    OntologyError,
    QueryError,
)
from repro.utils.timers import Stopwatch, TimeBreakdown


class TestErrors:
    def test_hierarchy(self):
        for cls in (GraphError, OntologyError, ConfigurationError, QueryError):
            assert issubclass(cls, BigIndexError)
        assert issubclass(BigIndexError, Exception)


class TestStopwatch:
    def test_accumulates(self):
        sw = Stopwatch().start()
        time.sleep(0.01)
        first = sw.stop()
        assert first > 0
        sw.start()
        time.sleep(0.01)
        assert sw.stop() > first

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_reset(self):
        sw = Stopwatch().start()
        sw.stop()
        sw.reset()
        assert sw.elapsed == 0.0


class TestTimeBreakdown:
    def test_phase_accumulates(self):
        breakdown = TimeBreakdown()
        with breakdown.phase("x"):
            time.sleep(0.005)
        with breakdown.phase("x"):
            time.sleep(0.005)
        assert breakdown.totals["x"] >= 0.01
        assert breakdown.total == pytest.approx(
            sum(breakdown.totals.values())
        )

    def test_add_and_merge(self):
        a = TimeBreakdown()
        a.add("x", 1.0)
        b = TimeBreakdown()
        b.add("x", 0.5)
        b.add("y", 2.0)
        a.merge(b)
        assert a.totals == {"x": 1.5, "y": 2.0}
        assert a.as_dict() == a.totals
        assert a.as_dict() is not a.totals

    def test_phase_records_on_exception(self):
        breakdown = TimeBreakdown()
        with pytest.raises(ValueError):
            with breakdown.phase("x"):
                raise ValueError
        assert "x" in breakdown.totals


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["a", "bbbb"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert all(len(l) >= len("a    bbbb") - 2 for l in lines)

    def test_print_table_smoke(self, capsys):
        print_table("Title", ["h"], [["v"]])
        out = capsys.readouterr().out
        assert "Title" in out and "v" in out

    def test_percent_reduction(self):
        assert percent_reduction(2.0, 1.0) == pytest.approx(50.0)
        assert percent_reduction(0.0, 1.0) == 0.0
        assert percent_reduction(1.0, 1.5) == pytest.approx(-50.0)


class TestHarness:
    def test_default_dataset_cached(self):
        a = default_dataset("yago-like", scale=0.05)
        b = default_dataset("yago-like", scale=0.05)
        assert a is b

    def test_build_index_cached(self):
        ds = default_dataset("yago-like", scale=0.05)
        a = build_index(ds, num_layers=1)
        b = build_index(ds, num_layers=1)
        assert a is b

    def test_compare_on_queries_produces_rows(self):
        ds = default_dataset("yago-like", scale=0.05)
        index = build_index(ds, num_layers=1)
        queries = standard_workload(ds)[:2]
        rows = compare_on_queries(
            ds,
            BackwardKeywordSearch(d_max=2, k=None),
            index,
            queries,
            layer=1,
            repeats=1,
        )
        for row in rows:
            assert row.direct_seconds > 0
            assert row.boosted_seconds > 0
            assert row.layer == 1
            assert isinstance(row.reduction_percent, float)

    def test_repeats_evaluate_instead_of_hitting_the_result_cache(self):
        ds = default_dataset("yago-like", scale=0.05)
        index = build_index(ds, num_layers=1)
        queries = standard_workload(ds)[:2]
        algorithm = BackwardKeywordSearch(d_max=2, k=None)
        with instrumented(trace=False) as inst:
            paper = compare_on_queries(
                ds, algorithm, index, queries, layer=1, repeats=2
            )
        assert paper
        assert inst.metrics.counters().get("cache.hit.result", 0) == 0
        # The library pipeline is exact: same score lists as direct.
        library = compare_on_queries(
            ds, algorithm, index, queries, layer=1, repeats=1,
            pipeline=HierarchicalEvaluator,
        )
        assert library and not any(row.differs for row in library)

    def test_query_comparison_reduction(self):
        row = QueryComparison(
            qid="Q1",
            keywords=("a",),
            direct_seconds=2.0,
            boosted_seconds=1.0,
            layer=1,
        )
        assert row.reduction_percent == pytest.approx(50.0)
        zero = QueryComparison(
            qid="Q2", keywords=("a",), direct_seconds=0.0,
            boosted_seconds=1.0, layer=1,
        )
        assert zero.reduction_percent == 0.0
