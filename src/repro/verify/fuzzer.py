"""Metamorphic fuzzer for BiG-index incremental maintenance.

The maintenance section of the paper (Sec. 3.2) allows the index to drift
away from minimality under updates but never away from *correctness*: after
any sequence of edge insertions, edge deletions and ontology edits, the
incrementally maintained hierarchy must stay a valid bisimulation hierarchy
over the current data graph and must answer every query exactly like a
from-scratch :meth:`~repro.core.index.BiGIndex.rebuild` (the metamorphic
relation ``incremental(ops) == rebuild(apply(ops))``).

The fuzzer generates seed-reproducible random operation sequences, applies
them through the incremental maintenance entry points, and checks:

1. the :mod:`~repro.verify.auditor` invariants still hold on the
   incrementally maintained index;
2. a from-scratch rebuild over the same base graph and configurations is
   *refined* by the incremental partitions (incremental may be finer,
   never incompatible), and itself passes the audit with minimality;
3. the :mod:`~repro.verify.oracle` still sees exact query agreement on a
   set of probe queries;
4. *interleaved with the ops*, long-lived caching evaluators (result
   cache + per-layer searchers, invalidated by the index epoch) answer
   every probe query exactly like a fresh uncached evaluator after every
   single mutation — the stale-epoch trap a post-sequence check would
   miss (:class:`_CachedQueryProbe`);
5. *interleaved with the ops*, the index survives a save → load-v4
   round trip: the mmap-backed reload has the same state digest and
   answers every probe query identically, and mutating the reload (a
   copy-on-write detach from the container) lands in exactly the same
   state as the same mutation on the heap-resident original
   (:class:`_PersistRoundtripProbe`).

A failing sequence is shrunk ddmin-style to a minimal reproducer: each op
is tentatively dropped and the remainder replayed from a fresh index, so
the reported sequence is 1-minimal with respect to the failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.config import Configuration
from repro.core.evaluator import HierarchicalEvaluator
from repro.core.index import BiGIndex, Layer
from repro.search.base import KeywordQuery, KeywordSearchAlgorithm
from repro.utils.errors import BigIndexError, QueryError
from repro.verify.auditor import audit_index
from repro.verify.oracle import DifferentialOracle

#: One maintenance operation: ``("insert", u, v)``, ``("delete", u, v)`` or
#: ``("drop-ontology", subtype, supertype)``.
Op = Tuple

#: Builds a fresh, deterministic index for replay during shrinking.
IndexFactory = Callable[[], BiGIndex]


def apply_op(index: BiGIndex, op: Op) -> bool:
    """Apply one operation through the incremental maintenance API.

    Returns whether the operation had an effect.  Inapplicable operations
    (re-inserting a present edge, deleting an absent one) are no-ops, which
    keeps replaying a *subsequence* of a recorded run well defined during
    shrinking.
    """
    kind = op[0]
    if kind == "insert":
        _, u, v = op
        if index.base_graph.has_edge(u, v):
            return False
        index.insert_edge(u, v)
        return True
    if kind == "delete":
        _, u, v = op
        if not index.base_graph.has_edge(u, v):
            return False
        index.delete_edge(u, v)
        return True
    if kind == "drop-ontology":
        _, subtype, supertype = op
        if not any(
            layer.config.mappings.get(subtype) == supertype
            for layer in index.layers
        ):
            return False
        index.remove_ontology_edge(subtype, supertype)
        return True
    raise ValueError(f"unknown fuzz op kind: {kind!r}")


def rebuilt_reference(index: BiGIndex) -> BiGIndex:
    """From-scratch rebuild over ``index``'s current graph and configs.

    Shares the base graph (nothing below mutates it) so base vertex ids are
    directly comparable between the two hierarchies.
    """
    reference = BiGIndex(
        index.base_graph, index.ontology, direction=index.direction
    )
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

    Returns a list of human-readable problems; empty means equivalent.
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


def _eval_outcome(
    evaluator: HierarchicalEvaluator, query: KeywordQuery
) -> Tuple:
    """A comparable snapshot of one evaluation — answers or error.

    Cached and uncached evaluation must agree *outcome-for-outcome*:
    identical rankings down to every answer's vertices and edges, and
    identical errors (e.g. keyword collisions) when a query is rejected.
    """
    try:
        result = evaluator.evaluate(query)
    except (QueryError, BigIndexError) as exc:
        return ("error", type(exc).__name__, str(exc))
    return (
        "ok",
        result.layer,
        tuple(
            (a.score, a.signature(), a.vertices, a.edges)
            for a in result.answers
        ),
    )


def _fresh_edge(index: BiGIndex) -> Optional[Tuple[int, int]]:
    """A deterministic absent edge of ``index``'s base graph (the
    persistence probes' detach mutation)."""
    graph = index.base_graph
    n = graph.num_vertices
    for u in range(min(n, 8)):
        for v in range(min(n, 8)):
            if u != v and not graph.has_edge(u, v):
                return (u, v)
    return None


class _CachedQueryProbe:
    """Cached==uncached assertion interleaved with maintenance ops.

    Holds one *long-lived* caching evaluator per algorithm — result cache
    populated, searchers bound — across an entire fuzz sequence, the way
    a query server would.  After every mutation, each probe query is run
    once (exercising epoch invalidation) and then again (a guaranteed
    result-cache hit) and both outcomes are compared against a fresh
    evaluator with caching disabled.
    """

    def __init__(
        self,
        index: BiGIndex,
        algorithms: Sequence[KeywordSearchAlgorithm],
        queries: Sequence[KeywordQuery],
    ) -> None:
        self.index = index
        self.algorithms = list(algorithms)
        self.queries = list(queries)
        self._cached = [
            HierarchicalEvaluator(index, algorithm, cache_size=32)
            for algorithm in self.algorithms
        ]

    def check(self, context: str) -> List[str]:
        problems: List[str] = []
        for algorithm, cached in zip(self.algorithms, self._cached):
            fresh = HierarchicalEvaluator(
                self.index, algorithm, cache_size=0
            )
            for query in self.queries:
                expected = _eval_outcome(fresh, query)
                outcomes = (
                    ("cold", _eval_outcome(cached, query)),
                    ("warm", _eval_outcome(cached, query)),
                )
                for label, actual in outcomes:
                    if actual != expected:
                        problems.append(
                            f"cached-query ({context}, {algorithm.name}, "
                            f"Q={list(query.keywords)}, {label}): cached "
                            f"outcome {actual!r} != uncached {expected!r}"
                        )
        return problems


class _PersistRoundtripProbe:
    """Save → load-v4 → compare drill interleaved with maintenance ops.

    After every ``every``-th mutation the live index is saved in the v4
    container format, loaded back (mmap-backed, zero-copy), and held to
    three standards:

    * the reload's :meth:`~repro.core.index.BiGIndex.state_digest`
      matches the live index's;
    * every probe query evaluates to the same outcome on both;
    * applying one further edge insertion to the reload — which detaches
      its base graph from the mmap — produces the same digest as the
      same insertion on a copy-on-write clone of the live index, so the
      materialized heap state is provably the frozen state.
    """

    def __init__(
        self,
        index: BiGIndex,
        algorithms: Sequence[KeywordSearchAlgorithm],
        queries: Sequence[KeywordQuery],
        every: int = 2,
    ) -> None:
        self.index = index
        self.algorithms = list(algorithms)
        self.queries = list(queries)
        self.every = max(1, every)
        self._ops_seen = 0

    def check(self, context: str) -> List[str]:
        self._ops_seen += 1
        if self._ops_seen % self.every:
            return []
        import os
        import tempfile

        from repro.core.persistence import load_index, save_index

        problems: List[str] = []
        with tempfile.TemporaryDirectory(prefix="fuzz-persist-") as tmp:
            directory = os.path.join(tmp, "idx")
            save_index(self.index, directory)
            loaded = load_index(directory, self.index.ontology)
        live_digest = self.index.state_digest()
        loaded_digest = loaded.state_digest()
        if loaded_digest != live_digest:
            problems.append(
                f"persist-roundtrip ({context}): v4 reload digest "
                f"{loaded_digest} != live digest {live_digest}"
            )
            return problems
        for algorithm in self.algorithms:
            live_eval = HierarchicalEvaluator(
                self.index, algorithm, cache_size=0
            )
            loaded_eval = HierarchicalEvaluator(
                loaded, algorithm, cache_size=0
            )
            for query in self.queries:
                expected = _eval_outcome(live_eval, query)
                actual = _eval_outcome(loaded_eval, query)
                if actual != expected:
                    problems.append(
                        f"persist-roundtrip ({context}, {algorithm.name}, "
                        f"Q={list(query.keywords)}): v4 reload outcome "
                        f"{actual!r} != live outcome {expected!r}"
                    )
        edge = _fresh_edge(self.index)
        if edge is not None:
            # Same mutation on both sides: the reload detaches from its
            # container, the clone stays on the heap; they must agree.
            twin = self.index.cow_clone()
            twin.insert_edge(*edge)
            loaded.insert_edge(*edge)
            if loaded.state_digest() != twin.state_digest():
                problems.append(
                    f"persist-roundtrip ({context}): inserting edge "
                    f"{edge} after the v4 reload diverged from the same "
                    f"insertion on a heap clone "
                    f"({loaded.state_digest()} != {twin.state_digest()})"
                )
        return problems


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


@dataclass
class FuzzReport:
    """Outcome of one fuzzing campaign."""

    seed: int = 0
    sequences_run: int = 0
    ops_applied: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def format(self) -> str:
        if self.ok:
            return (
                f"fuzz: OK ({self.sequences_run} sequence(s), "
                f"{self.ops_applied} op(s), seed {self.seed})"
            )
        lines = [
            f"fuzz: {len(self.failures)} failing sequence(s) of "
            f"{self.sequences_run} (seed {self.seed})"
        ]
        lines.extend("  " + f.format().replace("\n", "\n  ") for f in self.failures)
        return "\n".join(lines)


def _random_op(rng: random.Random, index: BiGIndex) -> Optional[Op]:
    """Draw one applicable operation, or ``None`` if none can be found."""
    n = index.base_graph.num_vertices
    ontology_edges = sorted(
        {
            (subtype, supertype)
            for layer in index.layers
            for subtype, supertype in layer.config.mappings.items()
        }
    )
    kinds = ["insert", "insert", "delete", "delete"]
    if ontology_edges:
        kinds.append("drop-ontology")
    for _ in range(20):
        kind = rng.choice(kinds)
        if kind == "insert":
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u != v and not index.base_graph.has_edge(u, v):
                return ("insert", u, v)
        elif kind == "delete":
            edges = sorted(index.base_graph.edges())
            if edges:
                return ("delete", *rng.choice(edges))
        else:
            return ("drop-ontology", *rng.choice(ontology_edges))
    return None


def _replay_problems(
    index_factory: IndexFactory,
    ops: Sequence[Op],
    algorithms: Sequence[KeywordSearchAlgorithm],
    queries: Sequence[KeywordQuery],
    cache_probe: bool = True,
    persist_probe: bool = True,
) -> List[str]:
    """Replay ``ops`` on a fresh index, mirroring the campaign's checks
    (including the interleaved cache and persistence probes, so their
    failures shrink)."""
    index = index_factory()
    probe = (
        _CachedQueryProbe(index, algorithms, queries)
        if cache_probe and algorithms and queries
        else None
    )
    persist = (
        _PersistRoundtripProbe(index, algorithms, queries)
        if persist_probe
        else None
    )
    problems: List[str] = []
    if probe is not None:
        problems.extend(probe.check("pre"))
    for position, op in enumerate(ops, start=1):
        apply_op(index, op)
        if probe is not None:
            problems.extend(probe.check(f"after op {position}"))
        if persist is not None:
            problems.extend(persist.check(f"after op {position}"))
    problems.extend(check_equivalence(index, algorithms, queries))
    return problems


def shrink_ops(
    index_factory: IndexFactory,
    ops: Sequence[Op],
    algorithms: Sequence[KeywordSearchAlgorithm] = (),
    queries: Sequence[KeywordQuery] = (),
    cache_probe: bool = True,
    persist_probe: bool = True,
) -> List[Op]:
    """Greedy ddmin: drop ops one at a time while the failure persists."""
    current = list(ops)
    changed = True
    while changed and len(current) > 1:
        changed = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1 :]
            if _replay_problems(
                index_factory, candidate, algorithms, queries,
                cache_probe, persist_probe,
            ):
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
    shrink: bool = True,
    cache_probe: bool = True,
    persist_probe: bool = True,
) -> FuzzReport:
    """Run a fuzzing campaign against incremental maintenance.

    Parameters
    ----------
    index_factory:
        Zero-argument callable producing a *fresh deterministic* index;
        called once per sequence and once per shrinking replay.
    algorithms / queries:
        Probe workload handed to the differential oracle after each
        sequence (empty disables the oracle leg, keeping audit + rebuild
        refinement).
    sequences / ops_per_sequence:
        Campaign size.
    seed:
        Master seed; sequence ``i`` uses ``random.Random(f"{seed}:{i}")``
        so any failure reproduces from (seed, sequence index) alone.
    shrink:
        Minimize failing sequences before reporting.
    cache_probe:
        Interleave the :class:`_CachedQueryProbe` cached==uncached check
        with the ops (needs ``algorithms`` and ``queries``).
    persist_probe:
        Interleave :class:`_PersistRoundtripProbe` save → load-v4
        round-trip checks (digest, query, and detach identity) with the
        ops.
    """
    report = FuzzReport(seed=seed)
    for sequence in range(sequences):
        rng = random.Random(f"{seed}:{sequence}")
        index = index_factory()
        probe = (
            _CachedQueryProbe(index, algorithms, queries)
            if cache_probe and algorithms and queries
            else None
        )
        persist = (
            _PersistRoundtripProbe(index, algorithms, queries)
            if persist_probe
            else None
        )
        problems: List[str] = []
        if probe is not None:
            # Populate the long-lived caches before any mutation.
            problems.extend(probe.check("pre"))
        ops: List[Op] = []
        for _ in range(ops_per_sequence):
            op = _random_op(rng, index)
            if op is None:
                break
            apply_op(index, op)
            ops.append(op)
            if probe is not None:
                problems.extend(probe.check(f"after op {len(ops)}"))
            if persist is not None:
                problems.extend(persist.check(f"after op {len(ops)}"))
        report.sequences_run += 1
        report.ops_applied += len(ops)
        problems.extend(check_equivalence(index, algorithms, queries))
        if problems:
            shrunk = (
                shrink_ops(
                    index_factory, ops, algorithms, queries,
                    cache_probe, persist_probe,
                )
                if shrink
                else list(ops)
            )
            report.failures.append(
                FuzzFailure(
                    seed=seed,
                    sequence=sequence,
                    ops=tuple(ops),
                    shrunk_ops=tuple(shrunk),
                    problems=tuple(problems),
                )
            )
    return report
