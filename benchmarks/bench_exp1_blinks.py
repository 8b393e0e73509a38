"""Exp-1, Figs. 10-12: query times of Blinks with and without BiG-index.

The paper reports that BiG-index reduces Blinks query times by 61.8% on
YAGO3, 57.3% on Dbpedia and 32.5% on IMDB on average (d_max = 5, bi-level
index, average block size 1000), with a per-phase breakdown showing that
exploring the summary graphs dominates while pruning and answer generation
are small.

Reproduction notes
------------------
* Queries are evaluated at layer 1 — the layer the paper's default index
  ("labels generalized once per layer") most often selects; the router's
  behaviour is studied separately in Exp-4.
* We report two aggregates: the mean of per-query reductions (the paper's
  metric) and the workload-level reduction (total direct time vs total
  boosted time), which is robust to sub-millisecond queries whose
  percentages are measurement noise at reproduction scale.
* Shape to hold: positive workload-level reduction on every dataset, with
  YAGO-like benefiting most and IMDB-like least, as in the paper.
"""

import statistics

import pytest

from repro.bench.harness import compare_on_queries
from repro.bench.reporting import print_table
from repro.search.blinks import Blinks

PAPER_REDUCTION = {"yago-like": 61.8, "dbpedia-like": 57.3, "imdb-like": 32.5}

#: Blinks parameters from Sec. 6.2: d_max (tau_prune) = 5.  The paper's
#: bi-level block size (1000) has no counterpart: queries expand live.
D_MAX = 5
TOP_K = 10


def _run(dataset, index, queries, benchmark):
    algorithm = Blinks(d_max=D_MAX, k=TOP_K)

    def run_comparison():
        return compare_on_queries(dataset, algorithm, index, queries, layer=1)

    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    assert rows, "no evaluable queries"

    table = []
    for row in rows:
        phases = row.phases
        table.append(
            (
                row.qid,
                f"{row.direct_seconds * 1e3:.1f}",
                f"{row.boosted_seconds * 1e3:.1f}",
                f"{row.reduction_percent:.1f}%",
                f"{phases.get('explore', 0) * 1e3:.1f}",
                f"{phases.get('specialize', 0) * 1e3:.1f}",
                f"{phases.get('generate', 0) * 1e3:.1f}",
            )
        )
    mean_reduction = statistics.mean(r.reduction_percent for r in rows)
    total_direct = sum(r.direct_seconds for r in rows)
    total_boosted = sum(r.boosted_seconds for r in rows)
    workload_reduction = 100.0 * (total_direct - total_boosted) / total_direct
    print_table(
        f"Exp-1 Blinks on {dataset.name} "
        f"(mean {mean_reduction:.1f}%, workload {workload_reduction:.1f}%, "
        f"paper {PAPER_REDUCTION[dataset.name]:.1f}%)",
        ["query", "direct ms", "BiG ms", "reduction",
         "explore ms", "prune ms", "gen ms"],
        table,
    )
    return rows, mean_reduction, workload_reduction


def test_fig10_blinks_yago(benchmark, yago, yago_index, yago_queries):
    rows, mean_reduction, workload_reduction = _run(
        yago, yago_index, yago_queries, benchmark
    )
    # Shape: BiG-index clearly reduces the Blinks workload on YAGO.
    assert workload_reduction > 15


def test_fig11_blinks_dbpedia(benchmark, dbpedia, dbpedia_index, dbpedia_queries):
    rows, mean_reduction, workload_reduction = _run(
        dbpedia, dbpedia_index, dbpedia_queries, benchmark
    )
    assert workload_reduction > 10


def test_fig12_blinks_imdb(benchmark, imdb, imdb_index, imdb_queries):
    rows, mean_reduction, workload_reduction = _run(
        imdb, imdb_index, imdb_queries, benchmark
    )
    # IMDB benefits least in the paper as well (32.5% vs 61.8%).
    assert workload_reduction > 0
