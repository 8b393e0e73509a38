"""Persistence round-trip drill: the on-disk format never changes answers.

The v4 mmap container (PR 8) makes the on-disk index a *live* data
structure — CSR adjacency, postings, extent tables and parent maps are
served straight out of page-cache-backed ``memoryview``s.  That is only
admissible if the storage format is invisible to every consumer: a
reloaded index must be indistinguishable from the heap-built original.
This drill enforces that contract deterministically on every
``repro-bigindex verify`` run:

1. **Round-trip identity** — the built index is saved and reloaded;
   the reload must reproduce the original's ``state_digest`` and answer
   every probe query with the exact same outcome (scores, signatures,
   vertices, edges — or the identical error).
2. **Warm-start contract** — the reload must not rebuild postings on
   first use (the ``postings.build`` counter stays at zero) and must
   report itself mmap-backed on every graph.
3. **Detach identity** — mutating the mmap-backed reload first
   materializes it on the heap; the drill applies one edge insertion to
   the reload and to a heap clone of the original and requires identical
   digests, so copy-on-write detach provably reconstructs the frozen
   state.

The maintenance fuzzer interleaves the same save → load → compare
probe with random op sequences; this is the deterministic, always-on
leg.  The fault-injection drills (:mod:`repro.verify.faults`) cover the
negative side: damaged containers must be *rejected*, never misread.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable, List, Sequence

from repro.core.evaluator import HierarchicalEvaluator
from repro.core.index import BiGIndex
from repro.core.persistence import load_index, save_index
from repro.obs.runtime import instrumented
from repro.search.base import KeywordQuery, KeywordSearchAlgorithm
from repro.verify.fuzzer import _eval_outcome, _fresh_edge

#: Builds a fresh, deterministic index the drill may mutate freely.
IndexFactory = Callable[[], BiGIndex]


@dataclass
class PersistReport:
    """Outcome of one :func:`run_persistence_drill`."""

    checks: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def format(self) -> str:
        if self.ok:
            return f"persist: OK ({self.checks} round-trip check(s))"
        lines = [
            f"persist: {len(self.problems)} problem(s) in "
            f"{self.checks} check(s)"
        ]
        lines.extend(f"  {p}" for p in self.problems)
        return "\n".join(lines)


def _query_outcomes(
    index: BiGIndex,
    algorithms: Sequence[KeywordSearchAlgorithm],
    queries: Sequence[KeywordQuery],
) -> List[tuple]:
    outcomes = []
    for algorithm in algorithms:
        evaluator = HierarchicalEvaluator(index, algorithm, cache_size=0)
        for query in queries:
            outcomes.append(_eval_outcome(evaluator, query))
    return outcomes


def run_persistence_drill(
    index_factory: IndexFactory,
    algorithms: Sequence[KeywordSearchAlgorithm],
    queries: Sequence[KeywordQuery],
) -> PersistReport:
    """Round-trip one index through disk and compare everything."""
    report = PersistReport()
    original = index_factory()
    want_digest = original.state_digest()
    want_outcomes = _query_outcomes(original, algorithms, queries)

    with tempfile.TemporaryDirectory(prefix="persistcheck-") as tmp:
        directory = os.path.join(tmp, "idx")
        save_index(original, directory)
        loaded = load_index(directory, original.ontology)
        report.checks += 1
        digest = loaded.state_digest()
        if digest != want_digest:
            report.problems.append(
                f"round trip changed the state digest: "
                f"{digest} != {want_digest}"
            )
        else:
            report.checks += 1
            outcomes = _query_outcomes(loaded, algorithms, queries)
            if outcomes != want_outcomes:
                report.problems.append(
                    f"round trip changed query outcomes "
                    f"({sum(a != b for a, b in zip(outcomes, want_outcomes))}"
                    f" of {len(want_outcomes)} differ)"
                )

        # Warm-start contract: the reload serves postings straight
        # from the container — first use must not *build* anything.
        report.checks += 1
        graphs = list(loaded.iter_layer_graphs())
        cold = [g for g in graphs if not g.is_mmap_backed]
        if cold:
            report.problems.append(
                f"reload left {len(cold)} of {len(graphs)} "
                f"graph(s) heap-resident instead of mmap-backed"
            )
        report.checks += 1
        label = loaded.base_graph.label(0)
        with instrumented(trace=False) as inst:
            loaded.base_graph.sorted_vertices_with_label(label)
        if inst.metrics.counters().get("postings.build"):
            report.problems.append(
                "reload rebuilt postings on first lookup; the "
                "container's postings section should serve it warm"
            )

        # Detach identity: one insertion on the mmap reload (triggering
        # materialization) vs the same insertion on a heap clone.
        edge = None if report.problems else _fresh_edge(original)
        if edge is not None:
            twin = original.cow_clone()
            twin.insert_edge(*edge)
            loaded.insert_edge(*edge)
            report.checks += 1
            if loaded.state_digest() != twin.state_digest():
                report.problems.append(
                    f"inserting edge {edge} after the reload "
                    f"diverged from the same insertion on a heap "
                    f"clone ({loaded.state_digest()} != "
                    f"{twin.state_digest()})"
                )
    return report
