"""Metamorphic fuzzer for BiG-index incremental maintenance.

The maintenance section of the paper (Sec. 3.2) allows the index to drift
away from minimality under updates but never away from *correctness*: after
any sequence of edge insertions, edge deletions and ontology edits, the
incrementally maintained hierarchy must stay a valid bisimulation hierarchy
over the current data graph and must answer every query exactly like a
from-scratch :meth:`~repro.core.index.BiGIndex.rebuild` (the metamorphic
relation ``incremental(ops) == rebuild(apply(ops))``).

The fuzzer generates seed-reproducible random operation sequences, runs
each through :func:`~repro.verify.drill.run_ops` — so the ops go through
the incremental maintenance entry points — and watches with four probes:
:class:`RebuildProbe` on the final state (the metamorphic relation
itself, see :func:`check_equivalence`) and, *interleaved with the ops*,
:class:`~repro.verify.probes.MaintenanceProbe` (the localized write path
reaches the hierarchy the whole-layer seeded climb reaches),
:class:`~repro.verify.probes.CacheProbe` (long-lived caching evaluators
answer like a fresh uncached one after every single mutation — the
stale-epoch trap a post-sequence check would miss) and
:class:`~repro.verify.probes.PersistProbe` (the index survives a save →
load-v4 round trip: digest, query, warm-start and detach identity).

A failing sequence is shrunk ddmin-style to a minimal reproducer: each op
is tentatively dropped and the remainder replayed from a fresh index
under the same loop and the same probes, so the reported sequence is
1-minimal with respect to the failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Tuple

from repro.core.config import Configuration
from repro.core.index import BiGIndex, Layer
from repro.search.base import KeywordQuery, KeywordSearchAlgorithm
from repro.verify.auditor import audit_index
from repro.verify.drill import (
    IndexFactory,
    Op,
    Report,
    apply_op,
    draw_ops,
    run_ops,
)
from repro.verify.oracle import DifferentialOracle
from repro.verify.probes import (
    CacheProbe,
    IndexProbe,
    MaintenanceProbe,
    PersistProbe,
)


def rebuilt_reference(index: BiGIndex) -> BiGIndex:
    """From-scratch rebuild over ``index``'s current graph and configs.

    Shares the base graph (nothing below mutates it) so base vertex ids are
    directly comparable between the two hierarchies.
    """
    reference = BiGIndex(index.base_graph, index.ontology)
    for layer in index.layers:
        reference.layers.append(
            Layer(
                config=Configuration(layer.config.mappings),
                graph=layer.graph,
                parent_of=list(layer.parent_of),
                extent=[list(members) for members in layer.extent],
            )
        )
    reference.rebuild()
    return reference


def check_equivalence(
    index: BiGIndex,
    algorithms: Sequence[KeywordSearchAlgorithm] = (),
    queries: Sequence[KeywordQuery] = (),
) -> List[str]:
    """All ways the incrementally maintained ``index`` differs from a rebuild.

    The :mod:`~repro.verify.auditor` invariants must still hold on it; a
    from-scratch rebuild over the same base graph and configurations
    must be *refined* by its partitions and itself pass the audit with
    minimality; the :mod:`~repro.verify.oracle` must still see exact
    query agreement.  Returns human-readable problems; empty means
    equivalent.
    """
    problems: List[str] = []
    audit = audit_index(index)
    if not audit.ok:
        problems.extend(f"incremental audit: {v}" for v in audit.violations)
    reference = rebuilt_reference(index)
    ref_audit = audit_index(reference, expect_minimal=True)
    if not ref_audit.ok:
        problems.extend(f"rebuild audit: {v}" for v in ref_audit.violations)
    if index.num_layers != reference.num_layers:
        problems.append(
            f"layer count diverged: incremental h={index.num_layers}, "
            f"rebuild h={reference.num_layers}"
        )
    else:
        problems.extend(_refinement_problems(index, reference))
    if algorithms and queries:
        oracle = DifferentialOracle(index)
        report = oracle.run(list(algorithms), list(queries))
        if not report.ok:
            problems.extend(f"oracle: {d}" for d in report.divergences)
    return problems


def _refinement_problems(index: BiGIndex, reference: BiGIndex) -> List[str]:
    """Incremental partitions must refine the rebuilt (minimal) partitions.

    Two base vertices the incremental index keeps together must be
    bisimilar, hence together in the maximal bisimulation the rebuild
    computes; the converse may fail (legitimate drift).
    """
    problems: List[str] = []
    for m in range(1, index.num_layers + 1):
        block_to_ref = {}
        for v in index.base_graph.vertices():
            block = index.chi(v, m)
            ref_block = reference.chi(v, m)
            seen = block_to_ref.setdefault(block, ref_block)
            if seen != ref_block:
                problems.append(
                    f"layer {m}: incremental supernode {block} mixes rebuild "
                    f"supernodes {seen} and {ref_block} (vertex {v}) — "
                    "incremental partition does not refine the rebuild"
                )
                break
    return problems


class RebuildProbe(IndexProbe):
    """``incremental(ops) == rebuild(apply(ops))`` — see
    :func:`check_equivalence`."""

    #: An audit, a from-scratch rebuild and an oracle pass: final state only.
    cadence = None
    name = "rebuild"

    def check(self, context: str) -> None:
        self.report.checks += 1
        self.report.problems.extend(
            check_equivalence(self.index, self.algorithms, self.queries)
        )


@dataclass(frozen=True)
class FuzzFailure:
    """One failing sequence with its minimal reproducer."""

    seed: int
    sequence: int
    ops: Tuple[Op, ...]
    shrunk_ops: Tuple[Op, ...]
    problems: Tuple[str, ...]

    def format(self) -> str:
        lines = [
            f"sequence {self.sequence} (seed {self.seed}) failed after "
            f"{len(self.ops)} op(s); minimal reproducer "
            f"({len(self.shrunk_ops)} op(s)):"
        ]
        lines.extend(f"    {op!r}" for op in self.shrunk_ops)
        lines.append(
            f"  reproduce with: fuzz_index(..., seed={self.seed}, "
            f"sequences={self.sequence + 1}) or replay the ops above"
        )
        lines.extend(f"  problem: {p}" for p in self.problems[:10])
        return "\n".join(lines)

    __str__ = format


def _run_sequence(
    index_factory: IndexFactory,
    ops_for: Callable[[BiGIndex], Iterable[Op]],
    algorithms: Sequence[KeywordSearchAlgorithm],
    queries: Sequence[KeywordQuery],
) -> Tuple[List[Op], Report]:
    """One op sequence on a fresh index under the fuzzer's probes — the
    campaign and its shrinking replays both come through here, so a
    replay probes exactly what the campaign probed.  ``ops_for`` turns
    the fresh index into the op stream (a lazy draw, or a recorded
    list).  Returns the ops applied and the probes' merged findings."""
    index = index_factory()
    # Shared objects: a per-algorithm cache is the cache probe's to
    # check on the fixed schedule, where each side builds its own.
    shared = [lambda algorithm=algorithm: algorithm for algorithm in algorithms]
    probes = [
        MaintenanceProbe(index, algorithms, queries),
        CacheProbe(index, shared, queries),
        PersistProbe(index, algorithms, queries),
        RebuildProbe(index, algorithms, queries),
    ]
    ops = run_ops(ops_for(index), lambda op: apply_op(index, op), probes)
    found = Report("sequence")
    for probe in probes:
        found.merge(probe.report)
    return ops, found


def shrink_ops(
    index_factory: IndexFactory,
    ops: Sequence[Op],
    algorithms: Sequence[KeywordSearchAlgorithm] = (),
    queries: Sequence[KeywordQuery] = (),
) -> List[Op]:
    """Greedy ddmin: drop ops one at a time while the failure persists."""
    current = list(ops)
    changed = True
    while changed and len(current) > 1:
        changed = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1 :]
            _, found = _run_sequence(
                index_factory, lambda _index: candidate, algorithms, queries
            )
            if not found.ok:
                current = candidate
                changed = True
                break
    return current


def fuzz_index(
    index_factory: IndexFactory,
    algorithms: Sequence[KeywordSearchAlgorithm] = (),
    queries: Sequence[KeywordQuery] = (),
    sequences: int = 3,
    ops_per_sequence: int = 6,
    seed: int = 0,
) -> Report:
    """Run a fuzzing campaign against incremental maintenance.

    Parameters
    ----------
    index_factory:
        Zero-argument callable producing a *fresh deterministic* index;
        called once per sequence and once per shrinking replay.
    algorithms / queries:
        Probe workload for the interleaved probes and the differential
        oracle (empty leaves audit + rebuild refinement + the
        persistence digests).
    sequences / ops_per_sequence:
        Campaign size.
    seed:
        Master seed; sequence ``i`` uses ``random.Random(f"{seed}:{i}")``
        so any failure reproduces from (seed, sequence index) alone.

    Each failing sequence lands in the report's ``problems`` as one
    :class:`FuzzFailure`, already shrunk.
    """
    report = Report("fuzz", notes={"sequences": 0, "ops": 0, "seed": seed})
    for sequence in range(sequences):
        rng = random.Random(f"{seed}:{sequence}")
        ops, found = _run_sequence(
            index_factory,
            lambda index: draw_ops(rng, index, ops_per_sequence),
            algorithms,
            queries,
        )
        report.checks += found.checks
        report.notes["sequences"] += 1
        report.notes["ops"] += len(ops)
        if not found.ok:
            shrunk = shrink_ops(index_factory, ops, algorithms, queries)
            report.problems.append(
                FuzzFailure(
                    seed=seed,
                    sequence=sequence,
                    ops=tuple(ops),
                    shrunk_ops=tuple(shrunk),
                    problems=tuple(found.problems),
                )
            )
    return report
