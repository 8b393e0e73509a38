"""Exp-5, Figs. 17-18: effectiveness of the answer-generation optimizations.

* Fig. 17 — specialization order (Sec. 4.3.2) on vs off: the paper reports
  a 14.8% average improvement.
* Fig. 18 — path-based answer generation (Algorithm 4, Sec. 4.3.3) vs
  vertex-at-a-time (Algorithm 3): the paper reports 21.7%.

Both are measured directly on the generation kernels: for every
generalized answer produced by the summary search, run the two generation
variants on identical inputs and compare their total runtimes.  (Measuring
whole-query times would drown the generation phase in exploration noise at
reproduction scale; the kernels are exactly what Figs. 17-18 isolate.)

Known divergence: at ~10k-vertex scale the generalized answer trees are
small (a handful of vertices with modest specialization sets), so
Algorithm 4's decomposition/join overhead can exceed its savings; the
paper's 21.7% gain presupposes the fan-heavy answers of million-vertex
graphs.  The Fig. 18 bench therefore asserts output equality and reports
the improvement either way (see EXPERIMENTS.md).
"""

import time

import pytest

from repro.bench.reporting import percent_reduction, print_table
from repro.core.answer_gen import ans_graph_gen
from repro.core.evaluator import HierarchicalEvaluator
from repro.core.path_answer_gen import p_ans_graph_gen
from repro.search.base import KeywordQuery
from repro.search.blinks import Blinks

D_MAX = 5


def _collect_generation_inputs(dataset, index, queries, limit_per_query=25):
    """Specialized generalized answers for every workload query at layer 1."""
    algorithm = Blinks(d_max=D_MAX, k=None, block_size=1000)
    evaluator = HierarchicalEvaluator(index, algorithm)
    inputs = []
    for spec in queries:
        query = spec.query
        if not index.query_distinct_at(query, 1):
            continue
        generalized = KeywordQuery(index.generalize_query(query, 1))
        keyword_by_generalized = dict(
            zip(generalized.keywords, query.keywords)
        )
        searcher = evaluator.searcher_for_layer(1)
        count = 0
        for answer in searcher.iter_search(generalized):
            spec_graph = evaluator._specialize_answer(
                answer, 1, query, keyword_by_generalized
            )
            if spec_graph is not None and len(spec_graph.vertices) >= 2:
                inputs.append(spec_graph)
                count += 1
                if count >= limit_per_query:
                    break
    return inputs


def _time_generation(graph, inputs, fn, **kwargs):
    start = time.perf_counter()
    total_assignments = 0
    for answer in inputs:
        total_assignments += len(fn(graph, answer, **kwargs))
    return time.perf_counter() - start, total_assignments


def test_fig17_specialization_order(benchmark, yago, yago_index, yago_queries):
    inputs = _collect_generation_inputs(yago, yago_index, yago_queries)
    assert inputs, "no generation inputs produced"

    def measure():
        with_order, n1 = _time_generation(
            yago.graph, inputs, ans_graph_gen, use_spec_order=True
        )
        without_order, n2 = _time_generation(
            yago.graph, inputs, ans_graph_gen, use_spec_order=False
        )
        return with_order, without_order, n1, n2

    with_order, without_order, n1, n2 = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    improvement = percent_reduction(without_order, with_order)
    print_table(
        "Fig. 17: specialization-order optimization "
        f"(improvement {improvement:.1f}%, paper 14.8%)",
        ["variant", "seconds", "assignments"],
        [
            ("with order", f"{with_order:.4f}", n1),
            ("without order", f"{without_order:.4f}", n2),
        ],
    )
    # Both variants enumerate the same assignments.
    assert n1 == n2
    # Shape: ordering does not hurt (it should help on fan-heavy answers).
    assert with_order <= without_order * 1.15


def test_fig18_path_based_generation(benchmark, yago, yago_index, yago_queries):
    inputs = [
        answer
        for answer in _collect_generation_inputs(yago, yago_index, yago_queries)
        if answer.edges
    ]
    assert inputs, "no generation inputs with edges produced"

    def measure():
        vertex_time, n1 = _time_generation(
            yago.graph, inputs, ans_graph_gen, use_spec_order=True
        )
        path_time, n2 = _time_generation(yago.graph, inputs, p_ans_graph_gen)
        return vertex_time, path_time, n1, n2

    vertex_time, path_time, n1, n2 = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    improvement = percent_reduction(vertex_time, path_time)
    print_table(
        "Fig. 18: path-based answer generation "
        f"(improvement {improvement:.1f}%, paper 21.7%)",
        ["variant", "seconds", "assignments"],
        [
            ("vertex-at-a-time (Algo. 3)", f"{vertex_time:.4f}", n1),
            ("path-based (Algo. 4)", f"{path_time:.4f}", n2),
        ],
    )
    assert n1 == n2  # identical assignment sets (tested in unit tests too)
