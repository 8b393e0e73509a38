"""Ablations over BiG-index design choices (beyond the paper's figures).

DESIGN.md calls out the decisions these sweep:

* **Bisimulation direction** — the paper picks successor matching
  ("backward bisimulation ... seamlessly aligns with the graph traversals
  of popular keyword search algorithms"); matching on both sides gives a
  finer, larger index.
* **Algorithm 1 budget** (theta, Pi) — the default index uses a large
  threshold so every label generalizes once per layer; tightening the
  budget trades compression for lower semantic distortion.
* **Answer-generation pipeline** — the paper's (Algorithm 4,
  qualification-trusted scores, a 60-answer stream cap; what Exp-1
  reports) vs the library's exact ``eval_Ont`` on the Exp-1 Blinks
  workloads: uncached time and how many top-k score lists differ from
  direct evaluation.
"""

import time

import pytest

from repro.bench.harness import PaperPipeline, compare_on_queries
from repro.bench.reporting import print_table
from repro.bisim.refinement import BisimDirection
from repro.core.cost import CostParams
from repro.core.evaluator import HierarchicalEvaluator
from repro.core.index import BiGIndex
from repro.search.blinks import Blinks


def test_ablation_bisim_direction(benchmark, yago):
    """Successor vs both-side matching: index size trade-off."""

    def build_both():
        results = {}
        for direction in (BisimDirection.SUCCESSORS, BisimDirection.BOTH):
            index = BiGIndex.build(
                yago.graph,
                yago.ontology,
                num_layers=1,
                cost_params=CostParams(num_samples=15),
                direction=direction,
            )
            results[direction.value] = index.size_ratio(1)
        return results

    ratios = benchmark.pedantic(build_both, rounds=1, iterations=1)
    print_table(
        "Ablation: bisimulation matching direction (layer-1 size ratio)",
        ["direction", "size ratio"],
        [(d, f"{r:.4f}") for d, r in ratios.items()],
    )
    # Both-side matching refines the partition -> never smaller.
    assert ratios["both"] >= ratios["successors"]


def test_ablation_algorithm1_budget(benchmark, yago):
    """Tightening theta / Pi shrinks configurations and compression."""

    def sweep():
        rows = []
        for theta, pi in ((1.0, None), (0.6, None), (1.0, 20), (1.0, 5)):
            index = BiGIndex.build(
                yago.graph,
                yago.ontology,
                num_layers=1,
                cost_params=CostParams(num_samples=15),
                theta=theta,
                max_mappings=pi,
            )
            rows.append(
                (
                    theta,
                    pi if pi is not None else "inf",
                    len(index.layers[0].config),
                    f"{index.size_ratio(1):.4f}",
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Ablation: Algorithm 1 budget (theta, Pi)",
        ["theta", "Pi", "|C^1|", "layer-1 ratio"],
        rows,
    )
    by_key = {(r[0], r[1]): r for r in rows}
    # A tight mapping budget produces a small configuration...
    assert by_key[(1.0, 5)][2] <= 5
    # ...and compresses no better than the unbounded default.
    assert float(by_key[(1.0, 5)][3]) >= float(by_key[(1.0, "inf")][3])


def test_ablation_pipeline(
    benchmark,
    yago, yago_index, yago_queries,
    dbpedia, dbpedia_index, dbpedia_queries,
    imdb, imdb_index, imdb_queries,
):
    """Paper vs library pipeline on the Exp-1 Blinks workloads (layer 1)."""
    algorithm = Blinks(d_max=5, k=10, index_kind="bi-level", block_size=1000)
    workloads = (
        (yago, yago_index, yago_queries),
        (dbpedia, dbpedia_index, dbpedia_queries),
        (imdb, imdb_index, imdb_queries),
    )
    pipelines = (("paper", PaperPipeline), ("library", HierarchicalEvaluator))

    def run_both():
        return {
            (dataset.name, name): compare_on_queries(
                dataset, algorithm, index, queries, layer=1, repeats=1,
                pipeline=pipeline,
            )
            for dataset, index, queries in workloads
            for name, pipeline in pipelines
        }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    table = []
    for (dataset, name), rows in results.items():
        direct = sum(r.direct_seconds for r in rows)
        boosted = sum(r.boosted_seconds for r in rows)
        table.append(
            (
                dataset,
                name,
                f"{direct * 1e3:.1f}",
                f"{boosted * 1e3:.1f}",
                f"{100.0 * (direct - boosted) / direct:.1f}%",
                f"{sum(r.differs for r in rows)}/{len(rows)}",
                sum(r.short for r in rows),
            )
        )
    print_table(
        "Ablation: answer-generation pipeline (Exp-1 Blinks, layer 1, "
        "uncached)",
        ["dataset", "pipeline", "direct ms", "BiG ms", "reduction",
         "top-k differs", "short"],
        table,
    )
    for (dataset, name), rows in results.items():
        assert rows, dataset
        if name == "library":
            # eval_Ont == eval: every top-k score list equals direct's.
            assert not any(r.differs for r in rows), dataset
