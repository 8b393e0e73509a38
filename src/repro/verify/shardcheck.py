"""Shard drill: scatter-gather answers identical to monolithic evaluation.

The sharded BiG-index claims *exactness*: for rooted algorithms, the
merged scatter-gather top-k over shards + portal zone equals monolithic
evaluation over the whole graph, answer for answer — scores, roots,
keyword assignments, vertices and edges — and keeps being equal while
mutations stream in.  :func:`run_shard_drill` checks the claim with a
:class:`~repro.verify.probes.ShardProbe` over fuzzer ops routed as WAL
records.

Byte-identity is asserted for every rooted algorithm — bkws, bdws and
Blinks — at ``k=None``, where every root is emitted.  Only a top-k
cut's tie set is order dependent: Blinks confirms the first ``k`` roots
its cursors surface, so among equal-scored answers at the cut the
chosen roots depend on enumeration order and only the score sequence
is canonical there.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.core.index import BiGIndex
from repro.core.sharding import ShardedIndex, plan_shards
from repro.core.wal import apply_wal_op
from repro.graph.digraph import Graph
from repro.search.base import KeywordQuery, KeywordSearchAlgorithm
from repro.verify.drill import Op, Report, draw_ops, op_to_wal, run_ops
from repro.verify.probes import ShardProbe


def run_shard_drill(
    sharded_factory: Callable[[], ShardedIndex],
    mono_factory: Callable[[], BiGIndex],
    algorithms: Sequence[KeywordSearchAlgorithm],
    queries: Sequence[KeywordQuery],
    mutation_rounds: int = 2,
    ops_per_round: int = 3,
    seed: int = 0,
) -> Report:
    """Compare scatter-gather to monolithic, then mutate and recompare.

    Both sides are built fresh from their factories (they must describe
    the same graph/ontology/build parameters).  Fuzzer ops are drawn
    against the monolithic index, converted to WAL records, and the
    *same records* applied to both sides through :func:`apply_wal_op` —
    on the sharded side that exercises the facade's shard routing
    (intra-shard updates, cut-table maintenance, zone growth) exactly
    the way WAL replay and ``/admin/mutate`` do.  The probe compares
    before the first op and after every ``ops_per_round`` ops.
    """
    sharded = sharded_factory()
    mono = mono_factory()
    probe = ShardProbe(sharded, mono, algorithms, queries, ops_per_round)

    def apply_to_both(op: Op) -> None:
        record = op_to_wal(op)
        apply_wal_op(mono, record)
        apply_wal_op(sharded, record)

    rng = random.Random(f"shard-drill:{seed}")
    ops = run_ops(
        draw_ops(rng, mono, mutation_rounds * ops_per_round),
        apply_to_both,
        [probe],
    )
    probe.report.notes.update(
        rounds=-(-len(ops) // ops_per_round), ops=len(ops)
    )
    return probe.report


def run_plan_sanity(
    graph: Graph,
    num_shards: int,
    halo_radius: int = 6,
    name: str = "plan",
) -> Report:
    """Structural invariants of a shard plan, no index builds.

    This is how the big locality datasets (``synt-100k``) ride in the
    verify corpus: planning them is cheap, building them belongs to the
    bench and the CI shard-smoke job.
    """
    report = Report(f"shard plan [{name}]", unit="invariant(s)")
    plan = plan_shards(graph, num_shards, halo_radius)

    check = report.check
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
