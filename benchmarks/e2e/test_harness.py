"""Unit tests of the benchmark's own arithmetic and inputs.

Run explicitly: ``python3 -m pytest benchmarks/e2e -q`` (tier-1's
``testpaths`` is ``tests/``, so these add nothing there).
"""

from __future__ import annotations

import random
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import trace  # noqa: E402
from harness import (  # noqa: E402
    Recorder,
    cli_scores,
    min_ops_for,
    spread_summary,
    tail_percentile,
)
from workloads import (  # noqa: E402
    DATASET,
    LAYERS,
    RESULT_CACHE_ENTRIES,
    SCALE,
    Oracle,
    base_requests,
    build_pool,
    keyword_sets,
    mutation_edges,
    seeded_order,
)

from repro.core.cost import CostParams  # noqa: E402
from repro.core.index import BiGIndex  # noqa: E402
from repro.datasets.knowledge import dataset_registry  # noqa: E402
from repro.search.base import KeywordQuery  # noqa: E402


# ----------------------------------------------------------------------
# Speed normalization
# ----------------------------------------------------------------------
def synthetic_run(slowdown: float, noise: float = 0.03, n: int = 900):
    """Ops of 5 ms true cost; the middle third runs ``slowdown`` x slower,
    and so does the kernel beside them."""
    rng = random.Random(7)
    walls, readings = [], []
    for j in range(n):
        factor = slowdown if n // 3 <= j < 2 * n // 3 else 1.0
        walls.append(5.0 * factor * rng.uniform(1 - noise, 1 + noise))
        readings.append(calib.CAL_REF_MS * factor * rng.uniform(1 - noise, 1 + noise))
    return walls, readings


def test_slow_phase_cancels_within_two_percent():
    walls, readings = synthetic_run(1.3)
    refs = calib.normalize(walls, readings)
    third = len(refs) // 3
    fast = statistics.median(refs[:third])
    slow = statistics.median(refs[third : 2 * third])
    assert abs(slow / fast - 1) < 0.02
    assert abs(statistics.median(refs) / 5.0 - 1) < 0.02
    # Un-normalized, the same phase is plainly visible.
    assert statistics.median(walls[third : 2 * third]) / statistics.median(walls[:third]) > 1.25


def test_one_preempted_kernel_reading_does_not_move_its_neighbours():
    walls, readings = synthetic_run(1.0, noise=0.0, n=50)
    readings[25] *= 20  # the kernel itself was descheduled once
    refs = calib.normalize(walls, readings)
    assert all(abs(ref - 5.0) < 1e-9 for ref in refs)


def test_normalize_needs_a_reading_per_op():
    with pytest.raises(ValueError):
        calib.normalize([1.0, 2.0], [0.8])


def test_recorder_drops_failed_ops_from_latencies():
    recorder = Recorder()
    for wall in (4.0, 400.0, 4.0):
        recorder.walls.append(wall)
        recorder.speeds.append(calib.CAL_REF_MS)
        recorder.ok.append(True)
    recorder.ok[1] = False
    assert recorder.attempted == 3 and recorder.failed == 1
    assert recorder.reference_ms() == [4.0, 4.0]


def test_sampled_ops_keep_their_own_reading():
    recorder = Recorder(window=0)
    recorder.add_sampled(2600.0, 2000.0, True)
    recorder.add_sampled(2000.0, 2000.0, True)
    assert recorder.reference_ms() == pytest.approx([2000.0, 2000.0])


# ----------------------------------------------------------------------
# Fixed percentiles
# ----------------------------------------------------------------------
def test_tail_needs_ten_samples_beyond():
    assert min_ops_for(95) == 200 and min_ops_for(99) == 1000 and min_ops_for(50) == 0
    assert tail_percentile(list(range(1, 201)), 95) == 190
    with pytest.raises(ValueError):
        tail_percentile(list(range(199)), 95)
    with pytest.raises(ValueError):
        tail_percentile(list(range(999)), 99)
    assert tail_percentile(list(range(1, 1001)), 99) == 990


def test_median_is_always_supported():
    assert tail_percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert tail_percentile([4.0, 1.0, 2.0, 3.0], 50) == statistics.median([1, 2, 3, 4])


def test_spread_summary_matches_the_drivers_rule():
    values = [10.0, 10.5, 9.5, 10.2, 9.9, 10.1, 9.8, 10.3, 10.0, 9.7]
    q1, _, q3 = statistics.quantiles(values, n=4)
    summary = spread_summary(values)
    assert summary["iqr_share"] == pytest.approx((q3 - q1) / statistics.median(values))
    assert summary["range_share"] == pytest.approx(1.0 / statistics.median(values))


def test_cli_scores_parses_the_ranked_lines():
    stdout = (
        "3 answer(s) in 4.2 ms (layer 1, 7 generalized, 9 candidates)\n"
        "  1. score=2 root=a [X=a]\n  2. score=3.0 root=b [X=b]\n"
    )
    assert cli_scores(stdout) == [2.0, 3.0]


# ----------------------------------------------------------------------
# Pool construction
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def indexed():
    dataset = dataset_registry(scale=SCALE)[DATASET]()
    index = BiGIndex.build(
        dataset.graph, dataset.ontology, num_layers=LAYERS,
        cost_params=CostParams(num_samples=25),
    )
    return dataset.graph, index


def test_pool_outgrows_the_result_cache_and_is_seeded(indexed):
    graph, index = indexed
    pool = build_pool(keyword_sets(graph), index.query_distinct_at)
    assert len({r.cache_key for r in pool}) == len(pool) > RESULT_CACHE_ENTRIES
    assert pool == build_pool(keyword_sets(graph), index.query_distinct_at)
    assert seeded_order(pool, 3) == seeded_order(pool, 3) != seeded_order(pool, 4)
    assert sorted(seeded_order(pool, 3), key=repr) == sorted(pool, key=repr)
    forced = [r for r in pool if r.layer is not None]
    assert {r.layer for r in forced} == {1, 2}
    assert all(
        index.query_distinct_at(KeywordQuery(r.keywords), r.layer) for r in forced
    )
    assert len(base_requests(pool)) == len({r.keywords for r in pool})


def test_oracle_ranks_and_truncates(indexed):
    graph, index = indexed
    pool = build_pool(keyword_sets(graph), index.query_distinct_at)
    oracle = Oracle(graph)
    for request in pool[:20]:
        scores = oracle.scores(request.keywords)
        assert scores == sorted(scores) and len(scores) >= 5
        assert oracle.expected(request) == scores[: request.k]


def test_mutation_edges_are_a_seeded_permutation(indexed):
    graph, _ = indexed
    edges = mutation_edges(graph, 5)
    assert sorted(edges) == sorted(graph.edges())
    assert edges == mutation_edges(graph, 5) != mutation_edges(graph, 6)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def span(id, name, parent, start, end, op=0):
    return trace.Span(id, name, parent, op, start, end)


def test_self_time_is_span_minus_direct_children():
    spans = [
        span(0, "op", None, 0.000, 0.010),
        span(1, "handle", 0, 0.001, 0.008),
        span(2, "eval", 1, 0.002, 0.006),
        span(3, "dumps", 0, 0.008, 0.0095),
    ]
    own = trace.self_times(spans)
    assert own[0] == pytest.approx(10 - 7 - 1.5)
    assert own[1] == pytest.approx(7 - 4)  # the grandchild is not subtracted twice
    assert own[2] == pytest.approx(4) and own[3] == pytest.approx(1.5)
    assert sum(own.values()) == pytest.approx(10)


def test_closure_is_children_over_root_per_op():
    spans = [
        span(0, "op", None, 0.0, 0.010, op=0),
        span(1, "handle", 0, 0.0, 0.009, op=0),
        span(2, "op", None, 0.0, 0.010, op=1),
        span(3, "handle", 2, 0.0, 0.006, op=1),
        span(4, "dumps", 2, 0.006, 0.010, op=1),
    ]
    assert trace.closure_ratios(spans, "op") == pytest.approx([0.9, 1.0])


def test_tracer_nests_patches_and_restores():
    class Layer:
        def work(self, x):
            return x + 1

    tracer = trace.Tracer()
    tracer.op = 4
    layer = Layer()
    with tracer.patch(Layer, "work", "layer.work"):
        with tracer.span("op"):
            assert layer.work(1) == 2
    assert "work" in vars(Layer) and layer.work(1) == 2 and len(tracer.spans) == 2
    root, child = tracer.spans
    assert (root.name, root.parent, child.name, child.parent) == ("op", None, "layer.work", 0)
    assert child.op == 4 and root.start <= child.start <= child.end <= root.end
    tracer.add_child(root, "phase", 0.001)
    assert tracer.spans[2].parent == 0 and tracer.spans[2].ms == pytest.approx(1.0)

    with tracer.patch(layer, "work", "instance.work"):
        layer.work(1)
    assert "work" not in vars(layer)
