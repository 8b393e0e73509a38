"""Shard drill: scatter-gather answers identical to monolithic evaluation.

The sharded BiG-index claims *exactness*: for rooted algorithms, the
merged scatter-gather top-k over shards + portal zone equals monolithic
evaluation over the whole graph, answer for answer — scores, roots,
keyword assignments, vertices and edges — and keeps being equal while
mutations stream in.  This drill checks the claim the same way the
cache and persistence drills check theirs: build both sides from the
same graph, compare outcome tuples on every probe query, then
interleave fuzzer-style mutations routed as WAL ops (insert / delete /
drop-ontology dicts through :func:`repro.core.wal.apply_wal_op`, which
the sharded facade routes to the owning shard or zone) and recompare
after every round.

Byte-identity is asserted for the exhaustive-enumeration algorithms
(bkws, bdws).  Blinks is deliberately not in the drill's default set:
it confirms only the first ``k`` roots its cursors surface, so among
equal-scored answers the *monolithic* tie set is already
enumeration-order dependent and only the score sequence is canonical
(see ``tests/test_sharding.py`` for the ranking-level check it does
get).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.index import BiGIndex
from repro.core.sharding import ShardedIndex, plan_shards
from repro.core.wal import apply_wal_op
from repro.graph.digraph import Graph
from repro.search.base import KeywordQuery, KeywordSearchAlgorithm
from repro.utils.errors import BigIndexError
from repro.verify.fuzzer import Op, _random_op


@dataclass
class ShardReport:
    """Outcome of one shard drill."""

    checks: int = 0
    rounds: int = 0
    ops_applied: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def merge(self, other: "ShardReport") -> None:
        self.checks += other.checks
        self.rounds += other.rounds
        self.ops_applied += other.ops_applied
        self.mismatches.extend(other.mismatches)

    def format(self) -> str:
        status = "OK" if self.ok else "FAIL"
        lines = [
            f"shard drill: {status} ({self.checks} comparisons, "
            f"{self.rounds} mutation rounds, {self.ops_applied} ops)"
        ]
        lines.extend(f"  MISMATCH {m}" for m in self.mismatches[:10])
        if len(self.mismatches) > 10:
            lines.append(f"  ... and {len(self.mismatches) - 10} more")
        return "\n".join(lines)


def _outcome(evaluator, query: KeywordQuery):
    """Comparable evaluation outcome: answers or the error identity.

    ``layer`` is deliberately not compared — each locale's cost model
    picks its own navigation layer, and layer choice is a performance
    property, not part of the answer contract.
    """
    try:
        result = evaluator.evaluate(query, layer=None)
    except BigIndexError as exc:
        return ("error", type(exc).__name__, str(exc))
    return (
        "ok",
        tuple(
            (a.score, a.signature(), a.vertices, a.edges)
            for a in result.answers
        ),
    )


def _op_to_wal(op: Op) -> dict:
    kind = op[0]
    if kind in ("insert", "delete"):
        return {"op": kind, "u": op[1], "v": op[2]}
    return {"op": "drop-ontology", "subtype": op[1], "supertype": op[2]}


def _compare_all(
    sharded_eval: Sequence[Tuple[str, object]],
    mono_eval: Sequence[Tuple[str, object]],
    queries: Sequence[KeywordQuery],
    report: ShardReport,
    stage: str,
) -> None:
    for (name, se), (_name, he) in zip(sharded_eval, mono_eval):
        for query in queries:
            report.checks += 1
            ours = _outcome(se, query)
            theirs = _outcome(he, query)
            if ours != theirs:
                report.mismatches.append(
                    f"[{stage}] {name} {list(query.keywords)}: "
                    f"sharded={ours!r:.200} monolithic={theirs!r:.200}"
                )


def run_shard_drill(
    sharded_factory: Callable[[], ShardedIndex],
    mono_factory: Callable[[], BiGIndex],
    algorithms: Sequence[KeywordSearchAlgorithm],
    queries: Sequence[KeywordQuery],
    mutation_rounds: int = 2,
    ops_per_round: int = 3,
    seed: int = 0,
) -> ShardReport:
    """Compare scatter-gather to monolithic, then mutate and recompare.

    Both sides are built fresh from their factories (they must describe
    the same graph/ontology/build parameters).  Each mutation round
    draws fuzzer ops against the monolithic index, converts them to WAL
    records, and applies the *same records* to both sides through
    :func:`apply_wal_op` — on the sharded side that exercises the
    facade's shard routing (intra-shard updates, cut-table maintenance,
    zone refresh) exactly the way WAL replay and ``/admin/mutate`` do.
    """
    report = ShardReport()
    sharded = sharded_factory()
    mono = mono_factory()

    # Evaluators cache per epoch; fresh ones per stage keep the
    # comparison about the indexes, not the caches (cachecheck owns that).
    def evaluators(index):
        return [
            (a.name, index.make_evaluator(a, allow_layer_zero=True))
            for a in algorithms
        ]

    _compare_all(
        evaluators(sharded), evaluators(mono), queries, report, "initial"
    )

    rng = random.Random(f"shard-drill:{seed}")
    for round_index in range(mutation_rounds):
        report.rounds += 1
        for _ in range(ops_per_round):
            op = _random_op(rng, mono)
            if op is None:
                continue
            record = _op_to_wal(op)
            apply_wal_op(mono, record)
            apply_wal_op(sharded, record)
            report.ops_applied += 1
        if sorted(sharded.base_graph.edges()) != sorted(mono.base_graph.edges()):
            report.mismatches.append(
                f"[round {round_index}] base graphs diverged after WAL ops"
            )
            break
        _compare_all(
            evaluators(sharded),
            evaluators(mono),
            queries,
            report,
            f"round {round_index}",
        )
    return report


def run_plan_sanity(
    graph: Graph,
    num_shards: int,
    halo_radius: int = 6,
    name: str = "plan",
) -> ShardReport:
    """Structural invariants of a shard plan, no index builds.

    This is how the big locality datasets (``synt-100k``) ride in the
    verify corpus: planning them is cheap, building them belongs to the
    bench and the CI shard-smoke job.
    """
    report = ShardReport()
    plan = plan_shards(graph, num_shards, halo_radius)

    def check(condition: bool, message: str) -> None:
        report.checks += 1
        if not condition:
            report.mismatches.append(f"[{name}] {message}")

    covered = sorted(v for vs in plan.shard_vertices for v in vs)
    check(
        covered == list(range(graph.num_vertices)),
        "shards do not cover every vertex exactly once",
    )
    cut = set(plan.cut_edges)
    check(
        all(
            ((u, v) in cut) == (plan.shard_of[u] != plan.shard_of[v])
            for u, v in graph.edges()
        ),
        "cut table is not exactly the cross-shard edges",
    )
    check(
        plan.portals == sorted({v for e in plan.cut_edges for v in e}),
        "portals are not exactly the cut-edge endpoints",
    )
    check(
        set(plan.portals) <= set(plan.zone_vertices)
        if plan.portals
        else plan.zone_vertices == [],
        "zone does not contain the portals",
    )
    again = plan_shards(graph, num_shards, halo_radius)
    check(again == plan, "plan is not deterministic")
    return report
