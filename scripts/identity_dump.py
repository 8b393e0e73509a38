#!/usr/bin/env python
"""Identity dump: every rooted read of the serve-explore pool, written out.

For bkws, bdws and Blinks (``d_max`` 3) over the e2e pool's keyword sets
(``benchmarks/e2e/workloads.keyword_sets``: 45 sets on yago-like 0.5),
each forced layer (auto, 0, 1, 2, 3) and each ``k`` (None, 5, 10), one
line records what ``eval_Ont`` returned: every answer with its tree, and
``num_generalized`` / ``num_candidates`` / ``num_bounded`` /
``num_verified`` / ``num_charged``.  A capped leg follows for ``k=10``:
strict ``evaluate`` and ``evaluate_resilient`` under expansion caps,
with the proven answers, bound, reason and per-attempt counts.

The cases run twice (cold, then warm memos) on a heap-built index and on
the same index saved and loaded back as v4 (mmap-backed).  The output
holds one section per (mode, run); the script exits 1 if any section
differs from the first.  A change that should not move any answer or
count shows an empty ``cmp`` between the parent's and the change's
output:

    PYTHONPATH=src python scripts/identity_dump.py --out change.txt
    cmp parent.txt change.txt

``--quick`` runs a slice (6 sets, layers auto/2/3, k 10, one run per
mode) in a few seconds.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path
from typing import Iterator, List, Optional

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

from workloads import D_MAX, DATASET, LAYERS, SCALE, keyword_sets  # noqa: E402

from repro.core.cost import CostParams  # noqa: E402
from repro.core.evaluator import HierarchicalEvaluator  # noqa: E402
from repro.core.index import BiGIndex  # noqa: E402
from repro.core.persistence import load_index, save_index  # noqa: E402
from repro.datasets.knowledge import dataset_registry  # noqa: E402
from repro.search.banks import BackwardKeywordSearch  # noqa: E402
from repro.search.base import KeywordQuery  # noqa: E402
from repro.search.bidirectional import BidirectionalSearch  # noqa: E402
from repro.search.blinks import Blinks  # noqa: E402
from repro.utils.budget import Budget  # noqa: E402
from repro.utils.errors import BudgetExceeded, QueryError  # noqa: E402

ALGORITHMS = (BackwardKeywordSearch, BidirectionalSearch, Blinks)
#: The CLI ``build`` default (``--samples``).
SAMPLES = 25
CAPS = (3, 40, 300, 2000)


def answers_line(answers) -> str:
    return repr([
        (a.score, a.root, a.keyword_nodes, a.vertices, a.edges) for a in answers
    ])


def counts(result) -> str:
    return (
        f"gen={result.num_generalized} cand={result.num_candidates} "
        f"bounded={result.num_bounded} verified={result.num_verified} "
        f"charged={result.num_charged}"
    )


def evaluate_line(evaluator, query, layer, k) -> str:
    try:
        result = evaluator.evaluate(query, layer=layer, k=k)
    except QueryError as exc:
        return f"QueryError {exc}"
    return f"layer={result.layer} {counts(result)} {answers_line(result.answers)}"


def capped_lines(evaluator, query, layer, k) -> Iterator[str]:
    for cap in CAPS:
        budget = Budget(max_expansions=cap)
        try:
            result = evaluator.evaluate(query, layer=layer, k=k, budget=budget)
            strict = f"complete {counts(result)} {answers_line(result.answers)}"
        except BudgetExceeded as exc:
            strict = (
                f"{exc.reason} bound={exc.lower_bound} "
                f"spent={budget.expansions} {answers_line(exc.partial)}"
            )
        except QueryError as exc:
            strict = f"QueryError {exc}"
        yield f"  cap={cap} strict {strict}"
        budget = Budget(max_expansions=cap)
        try:
            result = evaluator.evaluate_resilient(
                query, budget=budget, layer=layer, k=k
            )
        except QueryError as exc:
            yield f"  cap={cap} resilient QueryError {exc}"
            continue
        if not result.degraded:
            yield (
                f"  cap={cap} resilient complete spent={budget.expansions} "
                f"{counts(result)} {answers_line(result.answers)}"
            )
            continue
        attempts = [
            (a.layer, a.reason, a.expansions, a.num_generalized,
             a.num_candidates, a.proven, a.unproven)
            for a in result.attempts
        ]
        yield (
            f"  cap={cap} resilient {result.reason} bound={result.lower_bound} "
            f"spent={budget.expansions} attempts={attempts} "
            f"{answers_line(result.answers)} unranked="
            f"{answers_line(result.unranked)}"
        )


def section(index, sets, layers, ks) -> List[str]:
    lines: List[str] = []
    for make in ALGORITHMS:
        algorithm = make(d_max=D_MAX)
        evaluator = HierarchicalEvaluator(
            index, algorithm, allow_layer_zero=True, cache_size=0
        )
        for keywords in sets:
            query = KeywordQuery(keywords)
            for layer in layers:
                for k in ks:
                    lines.append(
                        f"{algorithm.name} {','.join(keywords)} layer={layer} "
                        f"k={k}: {evaluate_line(evaluator, query, layer, k)}"
                    )
                lines.append(f"{algorithm.name} {','.join(keywords)} "
                             f"layer={layer} k=10 capped:")
                lines.extend(capped_lines(evaluator, query, layer, 10))
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="a slice: 6 sets, layers auto/2/3, k 10, one run")
    parser.add_argument("--scale", type=float, default=SCALE)
    parser.add_argument("--out", default=None,
                        help="write the dump here (default: stdout)")
    args = parser.parse_args(argv)

    dataset = dataset_registry(scale=args.scale)[DATASET]()
    heap = BiGIndex.build(
        dataset.graph, dataset.ontology, num_layers=LAYERS,
        cost_params=CostParams(num_samples=SAMPLES),
    )
    sets = keyword_sets(heap.base_graph)
    layers: tuple = (None, 0, 1, 2, 3)
    ks: tuple = (None, 5, 10)
    runs = 2
    if args.quick:
        sets, layers, ks, runs = sets[:6], (None, 2, 3), (10,), 1

    sections = []
    with tempfile.TemporaryDirectory() as tmp:
        save_index(heap, tmp)
        loaded = load_index(tmp, dataset.ontology)
        for mode, index in (("v4", loaded), ("heap", heap)):
            for run in range(1, runs + 1):
                sections.append((f"{mode} run {run}", section(
                    index, sets, layers, ks
                )))

    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        print(f"# {DATASET} scale={args.scale} layers={LAYERS} "
              f"sizes={heap.layer_sizes()} sets={len(sets)}", file=out)
        for name, lines in sections:
            print(f"== {name}", file=out)
            for line in lines:
                print(line, file=out)
    finally:
        if out is not sys.stdout:
            out.close()

    first_name, first = sections[0]
    status = 0
    for name, lines in sections[1:]:
        if lines != first:
            status = 1
            at = next(
                (i for i, (a, b) in enumerate(zip(first, lines)) if a != b),
                min(len(first), len(lines)),
            )
            print(f"identity dump: {name} differs from {first_name} at case "
                  f"{at}", file=sys.stderr)
    if status == 0:
        print(f"identity dump: {len(sections)} section(s) of {len(first)} "
              f"line(s) identical", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
