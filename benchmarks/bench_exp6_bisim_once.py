"""Exp-6: comparison with Fan et al. [10] (query-preserving compression).

Fan et al. summarize the graph with bisimulation *once*.  The paper
emulates it by generalizing keywords one step and evaluating at the
corresponding single summary layer, then reuses BiG-index's query
evaluation; Fig. 19 shows that always evaluating at that fixed layer is
"always suboptimal" compared to the cost-model-chosen layer.

Reproduction: build a depth-1 index (generalize once + summarize once) and
compare every workload query's runtime on it against the multi-layer
BiG-index evaluated at its cost-model layer.  Shape: the adaptive index is
at least as good overall.
"""

import pytest

from repro.bench.harness import compare_on_queries
from repro.bench.reporting import print_table
from repro.core.cost import CostParams
from repro.core.index import BiGIndex
from repro.search.blinks import Blinks

D_MAX = 5
TOP_K = 10


def test_exp6_bisim_once_vs_adaptive(benchmark, yago, yago_index, yago_queries):
    algorithm = Blinks(d_max=D_MAX, k=TOP_K)

    def run_both():
        # Fan et al. style: a single compress-once layer, always used.
        once_index = BiGIndex.build(
            yago.graph,
            yago.ontology,
            num_layers=1,
            cost_params=CostParams(num_samples=20),
        )
        fixed = compare_on_queries(
            yago, algorithm, once_index, yago_queries, layer=1, repeats=1
        )
        adaptive = compare_on_queries(
            yago,
            algorithm,
            yago_index,
            yago_queries,
            layer=None,
            repeats=1,
            # Def. 4.1 as published: the optimal layer is chosen among the
            # summary layers 1..h.
            allow_layer_zero=False,
        )
        return fixed, adaptive

    fixed, adaptive = benchmark.pedantic(run_both, rounds=1, iterations=1)
    fixed_by_qid = {r.qid: r for r in fixed}
    adaptive_by_qid = {r.qid: r for r in adaptive}

    rows = []
    total_fixed = 0.0
    total_adaptive = 0.0
    for qid in sorted(set(fixed_by_qid) & set(adaptive_by_qid)):
        f = fixed_by_qid[qid]
        a = adaptive_by_qid[qid]
        total_fixed += f.boosted_seconds
        total_adaptive += a.boosted_seconds
        rows.append(
            (
                qid,
                f"{f.boosted_seconds * 1e3:.1f}",
                f"{a.boosted_seconds * 1e3:.1f}",
                a.layer,
            )
        )
    assert rows, "no overlapping evaluable queries"
    print_table(
        "Exp-6: bisim-once (Fan et al. [10]) vs adaptive BiG-index "
        f"(totals {total_fixed * 1e3:.1f} ms vs {total_adaptive * 1e3:.1f} ms)",
        ["query", "fixed-layer ms", "adaptive ms", "adaptive layer"],
        rows,
    )
    # Shape: the adaptive choice is overall no worse than compress-once
    # (generous margin for millisecond-scale timing noise).
    assert total_adaptive <= total_fixed * 1.5
