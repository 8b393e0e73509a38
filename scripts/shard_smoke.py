#!/usr/bin/env python
"""Sharded-index smoke: parallel build + scatter-gather mixed workload.

CI's ``shard-smoke`` job runs this against the community-structured
``synt-100k`` dataset: plan the shards, build them with a process pool
(``--workers 4``), persist the sharded layout, reload it through
:func:`repro.core.persistence.load_index` (manifest verification and
WAL-tail replay included), and push a mixed 50-query workload through
the scatter-gather evaluator — plain top-k, budget-starved resilient
queries (the degraded path), and forced-layer queries.  It then mutates
the reloaded (mmap-backed) index with a seeded stream of WAL-shaped ops
through :func:`repro.core.wal.apply_wal_op` — intra-shard inserts and
deletes, a cut-edge delete, and a cross-shard insert with an endpoint
outside the zone, so the zone grows — and requires every probe query's
scatter-gather score sequence to equal direct evaluation on the mutated
union graph.

The artifact JSON records the claims the PR rides on:

* ``build`` — total wall-clock plus **per-shard** build seconds (each
  locale times its own subprocess), cut-edge count and zone size;
* ``workload`` — qps, per-query mean, degraded/error counts;
* ``scatter`` — per-shard scatter timing histograms from the
  ``shard.scatter.<name>.seconds`` metrics recorded under
  :func:`repro.obs.runtime.instrumented`;
* ``mutation`` — op count, seconds per op (``op_seconds``), zone size
  before and after, and the number of probe queries checked against
  direct evaluation.

Any query error (other than the deliberate budget degradations), a zone
that did not grow, a grown zone whose configurations changed (it must
grow under the ones it had), or a mutated-index mismatch fails the run.

Usage:
    PYTHONPATH=src python scripts/shard_smoke.py \
        --dataset synt-100k --shards 4 --workers 4 --queries 50 \
        --out shard-qps.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import tempfile
import time

from repro.core.cost import CostParams
from repro.core.persistence import load_index
from repro.core.sharding import ShardedEvaluator, build_sharded
from repro.core.wal import apply_wal_op
from repro.datasets.synthetic import synthetic_dataset
from repro.obs.runtime import instrumented
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import KeywordQuery
from repro.utils.budget import Budget
from repro.utils.errors import BigIndexError, BudgetExceeded


def probe_pool(graph, count: int = 12):
    """2- and 3-keyword combinations of the most frequent labels."""
    histogram = graph.label_histogram()
    labels = sorted(histogram, key=lambda l: (-histogram[l], l))[:6]
    pool = [list(pair) for pair in itertools.combinations(labels, 2)]
    pool.extend(list(t) for t in itertools.combinations(labels, 3))
    return pool[:count]


#: The mutation stream's op kinds, in order: 12 WAL-shaped ops.
MUTATION_KINDS = (
    ["intra-insert", "intra-delete"] * 4
    + ["cut-delete", "cross-insert", "intra-insert", "intra-delete"]
)


def draw_op(rng, sharded, kind):
    """One applicable WAL op of ``kind`` against ``sharded``'s state."""
    union = sharded.base_graph
    shard_of = {
        v: s for s, shard in enumerate(sharded.shards)
        for v in shard.global_ids
    }
    if kind in ("intra-delete", "cut-delete"):
        pool = [
            (u, v) for u, v in sorted(union.edges())
            if (shard_of[u] == shard_of[v]) == (kind == "intra-delete")
        ]
        u, v = pool[rng.randrange(len(pool))]
        return {"op": "delete", "u": u, "v": v}
    zone = sharded.zone.local_of if sharded.zone is not None else {}
    while True:
        u = rng.randrange(union.num_vertices)
        v = rng.randrange(union.num_vertices)
        if u == v or union.has_edge(u, v):
            continue
        if kind == "intra-insert" and shard_of[u] == shard_of[v]:
            return {"op": "insert", "u": u, "v": v}
        if (kind == "cross-insert" and shard_of[u] != shard_of[v]
                and u not in zone):
            return {"op": "insert", "u": u, "v": v}


def mutate_and_check(index, pool, algorithm, seed):
    """Apply the seeded op stream, then compare every probe query's
    scatter-gather scores with direct search on the mutated union graph.

    Returns ``(summary, problems)``.
    """
    rng = random.Random(f"shard-smoke:{seed}")

    def zone_size():
        return len(index.zone.global_ids) if index.zone is not None else 0

    def zone_configs():
        if index.zone is None:
            return None
        return [layer.config for layer in index.zone.index.layers]

    zone_before = zone_size()
    applied = 0
    op_seconds = []
    problems = []
    for kind in MUTATION_KINDS:
        op = draw_op(rng, index, kind)
        zone, configs = index.zone, zone_configs()
        started = time.perf_counter()
        applied += apply_wal_op(index, op)
        op_seconds.append(round(time.perf_counter() - started, 3))
        # Growth rule: a grown zone keeps the configurations it had.
        if zone is not None and index.zone is not zone and (
            zone_configs() != configs
        ):
            problems.append(
                f"{op}: growing the zone changed its configurations"
            )
    if applied != len(MUTATION_KINDS):
        problems.append(f"{len(MUTATION_KINDS) - applied} op(s) were no-ops")
    if zone_size() <= zone_before:
        problems.append("the cross-shard insert did not grow the zone")
    evaluator = ShardedEvaluator(index, algorithm)
    direct = algorithm.bind(index.base_graph)
    for keywords in pool:
        query = KeywordQuery(keywords)
        ours = [a.score for a in evaluator.evaluate(query).answers]
        theirs = [a.score for a in direct.search(query)]
        if ours != theirs:
            problems.append(
                f"{keywords}: sharded {ours} != direct {theirs}"
            )
    summary = {
        "ops": applied,
        "op_seconds": op_seconds,
        "zone_vertices_before": zone_before,
        "zone_vertices_after": zone_size(),
        "queries_checked": len(pool),
        "problems": len(problems),
    }
    return summary, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="synt-100k")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--halo", type=int, default=6)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--layers", type=int, default=2)
    parser.add_argument("--samples", type=int, default=25,
                        help="cost-model sample count")
    parser.add_argument("--queries", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="shard-qps.json")
    parser.add_argument("--index-dir", default=None,
                        help="where to persist the sharded index "
                             "(default: a temporary directory)")
    args = parser.parse_args()

    graph, ontology = synthetic_dataset(args.dataset, seed=args.seed)
    print(
        f"{args.dataset}: |V|={graph.num_vertices} |E|={graph.num_edges}"
    )

    index_dir = args.index_dir or tempfile.mkdtemp(prefix="shard-smoke-")
    started = time.perf_counter()
    sharded = build_sharded(
        graph,
        ontology,
        num_shards=args.shards,
        halo_radius=args.halo,
        directory=index_dir,
        workers=args.workers,
        num_layers=args.layers,
        cost_params=CostParams(num_samples=args.samples),
    )
    build_seconds = time.perf_counter() - started
    per_shard = {
        locale.name: round(locale.build_seconds, 3)
        for locale in sharded.locales
    }
    print(
        f"built {sharded.num_shards} shard(s) + zone in "
        f"{build_seconds:.1f}s with {args.workers} worker(s); "
        f"per-shard {per_shard}"
    )

    started = time.perf_counter()
    reloaded = load_index(index_dir, ontology)
    reload_seconds = time.perf_counter() - started
    if reloaded.state_digest() != sharded.state_digest():
        print("FAIL: reloaded digest differs from the built index",
              file=sys.stderr)
        return 1
    print(f"reloaded + verified manifests in {reload_seconds:.2f}s")

    algorithm = BackwardKeywordSearch(d_max=args.halo // 2, k=10)
    evaluator = ShardedEvaluator(reloaded, algorithm)
    pool = probe_pool(graph)
    rng = random.Random(args.seed)
    answers = degraded = errors = 0
    latencies = []
    with instrumented(trace=False) as inst:
        for _ in range(args.queries):
            keywords = pool[rng.randrange(len(pool))]
            query = KeywordQuery(keywords)
            roll = rng.random()
            t0 = time.perf_counter()
            try:
                if roll < 0.7:
                    result = evaluator.evaluate(query)
                elif roll < 0.9:
                    # Budget-starved: must degrade, never drop silently.
                    result = evaluator.evaluate_resilient(
                        query, budget=Budget(max_expansions=50)
                    )
                    if result.degraded:
                        degraded += 1
                else:
                    result = evaluator.evaluate(query, layer=0)
                answers += len(result.answers)
            except BudgetExceeded:
                degraded += 1
            except BigIndexError as exc:
                errors += 1
                print(f"FAIL: {keywords}: {exc}", file=sys.stderr)
            latencies.append(time.perf_counter() - t0)
        scatter = {
            name: stats
            for name, stats in inst.metrics.histograms().items()
            if name.startswith("shard.scatter.")
        }

    started = time.perf_counter()
    mutation, problems = mutate_and_check(
        reloaded, pool, algorithm, args.seed
    )
    mutation["seconds"] = round(time.perf_counter() - started, 3)
    for problem in problems:
        print(f"FAIL: mutated index: {problem}", file=sys.stderr)
    print(
        f"mutated the reloaded index with {mutation['ops']} op(s): zone "
        f"{mutation['zone_vertices_before']} -> "
        f"{mutation['zone_vertices_after']} vertices, "
        f"{mutation['queries_checked']} probe queries checked"
    )

    total_seconds = sum(latencies)
    summary = {
        "dataset": args.dataset,
        "graph": {"vertices": graph.num_vertices, "edges": graph.num_edges},
        "build": {
            "shards": sharded.num_shards,
            "workers": args.workers,
            "seconds": round(build_seconds, 3),
            "per_shard_seconds": per_shard,
            "cut_edges": sharded.cut_edge_count(),
            "zone_vertices": (
                len(sharded.zone.global_ids)
                if sharded.zone is not None else 0
            ),
            "reload_seconds": round(reload_seconds, 3),
        },
        "workload": {
            "queries": args.queries,
            "seconds": round(total_seconds, 3),
            "qps": round(args.queries / total_seconds, 1)
            if total_seconds else None,
            "mean_ms": round(total_seconds / args.queries * 1e3, 2),
            "answers": answers,
            "degraded": degraded,
            "errors": errors,
        },
        "scatter": scatter,
        "mutation": mutation,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(summary["workload"], indent=2, sort_keys=True))
    print(f"wrote {args.out}")

    if errors or problems:
        return 1
    if answers == 0:
        print("FAIL: the workload produced no answers", file=sys.stderr)
        return 1
    if not scatter:
        print("FAIL: no shard.scatter.* timings were recorded",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
