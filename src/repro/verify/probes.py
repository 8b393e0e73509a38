"""The identity probes: each check the index must pass, implemented once.

A probe (:class:`~repro.verify.drill.Probe`) is run by
:func:`~repro.verify.drill.run_ops` at any point of an op sequence, so
one class serves the deterministic leg (:func:`run_fixed_schedule`), the
fuzzer's random interleavings (:mod:`repro.verify.fuzzer`, which also
owns the rebuild-equivalence probe) and their ddmin replays.  The
served-bytes probe lives in :mod:`repro.verify.servecheck`.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.core.evaluator import HierarchicalEvaluator
from repro.core.index import BiGIndex
from repro.core.persistence import load_index, save_index
from repro.core.sharding import ShardedIndex
from repro.obs.runtime import instrumented
from repro.search.base import KeywordQuery, KeywordSearchAlgorithm
from repro.verify.drill import (
    IndexFactory,
    Probe,
    Report,
    apply_op,
    outcome,
    run_ops,
)


class IndexProbe(Probe):
    """A probe over one live index and a probe workload."""

    #: The report's name (every subclass sets one) and what one check is.
    name: str
    unit = "check(s)"

    def __init__(
        self,
        index: BiGIndex,
        algorithms: Sequence[KeywordSearchAlgorithm],
        queries: Sequence[KeywordQuery],
    ) -> None:
        self.report = Report(self.name, unit=self.unit)
        self.index = index
        self.algorithms = list(algorithms)
        self.queries = list(queries)


class CacheProbe(IndexProbe):
    """Cached == uncached evaluation, byte for byte.

    PR 5's query-path caches (the evaluator's LRU result cache, the
    index's ``Gen``/``Spec`` memos, per-graph keyword postings) are only
    admissible if they are *invisible*, before and after maintenance.

    Holds one *long-lived* caching evaluator per algorithm — result cache
    and the algorithm's own per-graph indexes populated — across the
    whole op sequence, the way a query server would.  At every check
    each probe query runs on it twice and both outcomes must equal an
    uncached evaluator's on the *current* index state, so a stale epoch
    is caught at the op that caused it.  ``algorithms`` are zero-argument
    factories: the uncached side builds its own algorithm per check.
    Both sides may route to layer 0, as ``serve`` does.  The second run
    must be an actual result-cache hit (the ``cache.hit.result``
    counter), so a silently dead cache fails too.
    """

    name = "cache"
    unit = "cached==uncached comparison(s)"

    def __init__(self, index, algorithms, queries) -> None:
        super().__init__(index, algorithms, queries)
        #: Result-cache hits that were served and verified identical.
        self.report.notes["hits"] = 0
        self._cached = [
            HierarchicalEvaluator(
                index, make(), allow_layer_zero=True, cache_size=64
            )
            for make in self.algorithms
        ]

    def check(self, context: str) -> None:
        report = self.report
        for make, cached in zip(self.algorithms, self._cached):
            fresh = HierarchicalEvaluator(
                self.index, make(), allow_layer_zero=True, cache_size=0
            )
            for query in self.queries:
                where = (f"{cached.algorithm.name} Q={list(query.keywords)} "
                         f"({context}")
                expected = outcome(fresh, query)
                with instrumented(trace=False) as inst:
                    runs = [(label, outcome(cached, query))
                            for label in ("cold", "warm")]
                for label, actual in runs:
                    report.check(
                        actual == expected,
                        f"{where}, {label}): cached outcome {actual!r} != "
                        f"uncached {expected!r}",
                    )
                hits = inst.metrics.counters().get("cache.hit.result", 0)
                if expected[0] != "ok":
                    continue
                if hits < 1:
                    report.problems.append(
                        f"{where}): result cache never hit — the warm run "
                        "recomputed instead of serving the cached ranking"
                    )
                else:
                    report.notes["hits"] += hits


#: A frozen graph's memos (``Graph.<kind>_memo()``, cache kind ``<kind>``).
MEMOS = ("frontier", "profile")


def _fresh_edge(index: BiGIndex) -> Optional[Tuple[int, int]]:
    """A deterministic absent edge of ``index``'s base graph (the
    persistence probe's detach mutation)."""
    graph = index.base_graph
    n = graph.num_vertices
    for u in range(min(n, 8)):
        for v in range(min(n, 8)):
            if u != v and not graph.has_edge(u, v):
                return (u, v)
    return None


class PersistProbe(IndexProbe):
    """Save → load-v4 → compare: the on-disk format never changes answers.

    The v4 mmap container (PR 8) serves CSR adjacency, postings, extent
    tables and parent maps straight out of page-cache-backed
    ``memoryview``s; that is only admissible if a reload is
    indistinguishable from the heap-built original.  (The negative side
    — damaged containers must be *rejected*, never misread — is
    :mod:`repro.verify.faults`.)  At every check the live index is saved
    in the v4 container format, loaded back (mmap-backed, zero-copy), and
    held to three standards:

    1. **Round-trip identity** — the reload reproduces the live index's
       :meth:`~repro.core.index.BiGIndex.state_digest` and answers every
       probe query with the exact same outcome, frontier and profile
       memos cold and warm (a memo that missed cold must hit warm).
    2. **Warm-start contract** — the reload reports itself mmap-backed
       on every graph and does not rebuild postings on first use (the
       ``postings.build`` counter stays at zero).
    3. **Detach identity** — mutating the mmap-backed reload first
       materializes it on the heap; one edge insertion on the reload and
       on a copy-on-write clone of the live index must land in the same
       digest and outcomes, with no memo left on a detached graph, so
       detach provably reconstructs the frozen state.
    """

    #: A round trip costs a save and a load; every other op (and always
    #: the last — see :func:`~repro.verify.drill.run_ops`) is enough.
    cadence = 2
    name = "persist"
    unit = "round-trip check(s)"

    def _agree(self, where: str, loaded: BiGIndex, reference) -> None:
        """``loaded`` answers like ``reference``, memo cold then warm; a
        frontier memo that missed must hit by the warm run."""
        for algorithm in self.algorithms:
            mine, theirs = (HierarchicalEvaluator(side, algorithm, cache_size=0)
                            for side in (loaded, reference))
            for query in self.queries:
                at = f"{where}, {algorithm.name}, Q={list(query.keywords)}"
                expected = outcome(theirs, query)
                with instrumented(trace=False) as inst:
                    runs = [outcome(mine, query), outcome(mine, query)]
                for run, actual in zip(("cold", "warm"), runs):
                    self.report.check(actual == expected, f"{at}, memo {run}"
                                      f"): {actual!r} != expected {expected!r}")
                counters = inst.metrics.counters()
                for memo in MEMOS:
                    self.report.check(
                        f"cache.miss.{memo}" not in counters
                        or f"cache.hit.{memo}" in counters,
                        f"{at}): {memo} memo never hit on the warm run",
                    )

    def check(self, context: str) -> None:
        report, where = self.report, f"persist ({context}"
        with tempfile.TemporaryDirectory(prefix="verify-persist-") as tmp:
            directory = os.path.join(tmp, "idx")
            save_index(self.index, directory)
            loaded = load_index(directory, self.index.ontology)
            found_before = len(report.problems)

            reloaded, live = loaded.state_digest(), self.index.state_digest()
            if report.check(
                reloaded == live,
                f"{where}): round trip changed the state digest: "
                f"{reloaded} != live {live}",
            ):
                self._agree(where, loaded, self.index)

            # Warm-start contract: the reload serves postings straight
            # from the container — first use must not *build* anything.
            graphs = list(loaded.iter_layer_graphs())
            cold = [g for g in graphs if not g.is_mmap_backed]
            report.check(
                not cold,
                f"{where}): reload left {len(cold)} of {len(graphs)} "
                f"graph(s) heap-resident instead of mmap-backed",
            )
            label = loaded.base_graph.label(0)
            with instrumented(trace=False) as inst:
                loaded.base_graph.sorted_vertices_with_label(label)
            report.check(
                not inst.metrics.counters().get("postings.build"),
                f"{where}): reload rebuilt postings on first lookup; the "
                "container's postings section should serve it warm",
            )

            edge = _fresh_edge(self.index)
            if edge is None or len(report.problems) > found_before:
                return
            # Same mutation on both sides: the reload detaches from its
            # container, the clone stays on the heap; they must agree.
            twin = self.index.cow_clone()
            twin.insert_edge(*edge)
            loaded.insert_edge(*edge)
            report.check(
                loaded.state_digest() == twin.state_digest(),
                f"{where}): inserting edge {edge} after the reload diverged "
                f"from the same insertion on a heap clone "
                f"({loaded.state_digest()} != {twin.state_digest()})",
            )
            for memo in MEMOS:
                kept = [g for g in loaded.iter_layer_graphs()
                        if not g.is_mmap_backed
                        and getattr(g, f"{memo}_memo")() is not None]
                report.check(not kept, f"{where}): detached graph(s) kept "
                             f"their {memo} memo after inserting edge {edge}")
            self._agree(f"{where}, after inserting {edge}", loaded, twin)


class ShardProbe(IndexProbe):
    """Sharded scatter-gather == monolithic evaluation, answer for answer.

    The two sides are built from the same graph and receive the same
    WAL records; after every round their base graphs must still hold the
    same edges and every probe query must produce the same outcome —
    scores, roots, keyword assignments, vertices and edges.  Evaluators
    cache per epoch, so fresh ones per check keep the comparison about
    the indexes, not the caches (:class:`CacheProbe` owns that).
    """

    name = "shard"
    unit = "sharded==monolithic comparison(s)"

    def __init__(
        self, sharded: ShardedIndex, mono, algorithms, queries, ops_per_round
    ) -> None:
        super().__init__(mono, algorithms, queries)
        self.sharded = sharded
        self.cadence = ops_per_round

    def check(self, context: str) -> None:
        if sorted(self.sharded.base_graph.edges()) != sorted(
            self.index.base_graph.edges()
        ):
            self.report.problems.append(
                f"[{context}] base graphs diverged after WAL ops"
            )
            return
        for algorithm in self.algorithms:
            sides = [
                side.make_evaluator(algorithm, allow_layer_zero=True)
                for side in (self.sharded, self.index)
            ]
            for query in self.queries:
                ours, theirs = (outcome(e, query)[:2] for e in sides)
                self.report.check(
                    ours == theirs,
                    f"[{context}] {algorithm.name} {list(query.keywords)}: "
                    f"sharded={ours!r:.200} monolithic={theirs!r:.200}",
                )


def canonical_hierarchy(index: BiGIndex) -> List[Tuple]:
    """``index``'s layers up to block numbering, comparable across two
    indexes over the same base vertex ids: per layer its configuration,
    the partition of base vertices by ``chi(v, m)`` (each vertex mapped
    to the smallest base vertex of its supernode) and the summary edges
    renumbered the same way (-1 for a supernode with no member)."""
    chi: Sequence[int] = range(index.base_graph.num_vertices)
    hierarchy: List[Tuple] = []
    for layer in index.layers:
        parent = layer.parent_of
        chi = [parent[c] for c in chi]
        smallest: Dict[int, int] = {}
        for v, block in enumerate(chi):
            smallest.setdefault(block, v)
        hierarchy.append((
            sorted(layer.config.mappings.items()),
            [smallest[block] for block in chi],
            sorted(
                (smallest.get(a, -1), smallest.get(b, -1))
                for a, b in layer.graph.edges()
            ),
        ))
    return hierarchy


class _ClimbingIndex(BiGIndex):
    """An index whose edge writes re-run every layer with the seeded
    whole-layer climb — the write rule the localized one replaced."""

    def _maintain(self, u: int) -> None:
        self.layers = self._climb(
            self.base_graph,
            [layer.config for layer in self.layers],
            seeds=[layer.parent_of for layer in self.layers],
        )


class MaintenanceProbe(IndexProbe):
    """Localized maintenance == the whole-layer seeded climb.

    ``insert_edge`` / ``delete_edge`` refine and patch only the blocks
    an update can unsettle.  The coarsest stable refinement of the old
    partition is unique, so re-running every layer with
    ``BiGIndex._climb(seeds=)`` must reach the same hierarchy up to
    block numbering.  A twin over its own copy of the base graph
    receives every op that way; at every check both hierarchies are
    compared layer by layer through :func:`canonical_hierarchy`.
    """

    name = "maintain"
    unit = "localized==climb comparison(s)"

    def __init__(self, index, algorithms=(), queries=()) -> None:
        super().__init__(index, algorithms, queries)
        self.twin = _ClimbingIndex(
            index.base_graph.copy(share_label_table=True), index.ontology
        )
        self.twin.layers = list(index.layers)

    def follow(self, op) -> None:
        apply_op(self.twin, op)

    def check(self, context: str) -> None:
        ours, climbed = (
            canonical_hierarchy(side) for side in (self.index, self.twin)
        )
        where = f"maintain ({context})"
        self.report.check(
            len(ours) == len(climbed),
            f"{where}: h={len(ours)}, the climb's h={len(climbed)}",
        )
        for m, (mine, theirs) in enumerate(zip(ours, climbed), start=1):
            differ = [
                part
                for part, a, b in zip(
                    ("configuration", "partition", "summary edges"),
                    mine,
                    theirs,
                )
                if a != b
            ]
            self.report.check(
                not differ,
                f"{where}: layer {m} {' and '.join(differ)} differ from "
                "the seeded climb's",
            )


def run_fixed_schedule(
    probe_type: Type[IndexProbe],
    index_factory: IndexFactory,
    algorithms: Sequence[KeywordSearchAlgorithm],
    queries: Sequence[KeywordQuery],
) -> Report:
    """The deterministic, always-on leg of every ``verify`` case: one
    probe over the fixed schedule *delete e, insert e*.

    Builds a fresh index (the leg mutates it, so it must not share one
    with other harness legs) and probes it fresh, after an incremental
    edge deletion, and after re-inserting the edge — two epoch bumps end
    to end.
    """
    index = index_factory()
    probe = probe_type(index, algorithms, queries)
    edges = sorted(index.base_graph.edges())
    schedule = [("delete", *edges[0]), ("insert", *edges[0])] if edges else []
    run_ops(schedule, lambda op: apply_op(index, op), [probe])
    return probe.report
