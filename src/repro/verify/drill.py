"""The drill spine: one report, one op vocabulary, one outcome, one loop.

Every leg of the harness past the audit and the oracle is the same
experiment: some *sides* must stay equal — a caching and an uncached
evaluator, a live index and its reload from disk, a sharded and a
monolithic build, a served response and a single-threaded one — while
maintenance operations stream in.  :func:`run_ops` is that experiment;
the legs differ only in what they hand it: where the ops come from (an
rng, a recorded list, the fixed schedule *delete e, insert e*), how an
op reaches the sides, and which probes (:class:`Probe`) watch.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.index import BiGIndex
from repro.core.wal import apply_wal_op
from repro.graph.digraph import Graph
from repro.search.base import KeywordQuery
from repro.utils.errors import BigIndexError

#: One maintenance operation: ``("insert", u, v)``, ``("delete", u, v)`` or
#: ``("drop-ontology", subtype, supertype)``.
Op = Tuple

#: Builds a fresh, deterministic index a leg may mutate freely.
IndexFactory = Callable[[], BiGIndex]


@dataclass
class Report:
    """Outcome of one drill leg — the one report type every leg returns."""

    name: str
    #: What one check is, for the status line.
    unit: str = "check(s)"
    checks: int = 0
    #: ``str()`` of an entry is what gets printed: plain strings, except
    #: the fuzzer's :class:`~repro.verify.fuzzer.FuzzFailure` records.
    problems: List[object] = field(default_factory=list)
    #: Leg-specific facts (hits, rounds, ops, epochs, seed, latencies),
    #: shown on the status line and flattened into :meth:`to_dict`.
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems

    def check(self, ok: bool, problem: str) -> bool:
        """Count one check and file ``problem`` unless it held."""
        self.checks += 1
        if not ok:
            self.problems.append(problem)
        return ok

    def merge(self, other: "Report") -> None:
        """Fold ``other`` in: counts add, measurements (floats) keep the
        worst, lists concatenate."""
        self.checks += other.checks
        self.problems.extend(other.problems)
        for key, value in other.notes.items():
            mine = self.notes.get(key)
            if mine is None:
                self.notes[key] = value
            elif isinstance(value, float):
                self.notes[key] = max(mine, value)
            else:
                self.notes[key] = mine + value

    def format(self) -> str:
        facts = [f"{self.checks} {self.unit}"]
        for key, value in self.notes.items():
            if isinstance(value, float):
                facts.append(f"{key}={value:.1f}")
            elif not isinstance(value, list):
                facts.append(f"{key}={value}")
        status = "OK" if self.ok else f"{len(self.problems)} problem(s)"
        lines = [f"{self.name}: {status} ({', '.join(facts)})"]
        lines.extend(
            "  " + str(problem).replace("\n", "\n  ")
            for problem in self.problems[:10]
        )
        if len(self.problems) > 10:
            lines.append(f"  ... and {len(self.problems) - 10} more")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (the chaos drill's CI artifact)."""
        return {
            "name": self.name,
            "ok": self.ok,
            "checks": self.checks,
            **self.notes,
            "problems": [str(problem) for problem in self.problems],
        }


def op_to_wal(op: Op) -> dict:
    """``op`` as the WAL / ``/admin/mutate`` record that
    :func:`repro.core.wal.apply_wal_op` routes."""
    kind = op[0]
    if kind in ("insert", "delete"):
        return {"op": kind, "u": op[1], "v": op[2]}
    if kind == "drop-ontology":
        return {"op": kind, "subtype": op[1], "supertype": op[2]}
    raise ValueError(f"unknown fuzz op kind: {kind!r}")


def apply_op(index: BiGIndex, op: Op) -> bool:
    """Apply one operation through the incremental maintenance API.

    Returns whether the operation had an effect.  Inapplicable operations
    (re-inserting a present edge, deleting an absent one, dropping a
    mapping no layer uses) are no-ops, which keeps replaying a
    *subsequence* of a recorded run well defined during shrinking.
    """
    record = op_to_wal(op)
    if op[0] == "drop-ontology" and not any(
        layer.config.mappings.get(op[1]) == op[2] for layer in index.layers
    ):
        return False
    return apply_wal_op(index, record)


def random_op(rng: random.Random, index: BiGIndex) -> Optional[Op]:
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


def draw_ops(rng: random.Random, index: BiGIndex, count: int) -> Iterator[Op]:
    """Up to ``count`` draws of :func:`random_op`, made lazily: each op
    is drawn against ``index``'s state *at that moment*, so the consumer
    (:func:`run_ops`) applies one before asking for the next.  A draw
    that finds nothing applicable still spends one of the ``count``."""
    for _ in range(count):
        op = random_op(rng, index)
        if op is not None:
            yield op


def edge_ops(ops: Iterable[Op]) -> Iterator[Op]:
    """``ops`` minus the ontology edits: the serve legs mutate through
    ``/admin/mutate``, which speaks edge ops (ontology edits stay the
    in-process fuzzer's concern).  Lazy, like :func:`draw_ops`."""
    return (op for op in ops if op[0] != "drop-ontology")


def probe_queries(graph: Graph, count: int = 4) -> List[KeywordQuery]:
    """Deterministic keyword queries over ``graph``'s most frequent labels.

    Frequent labels make the searches non-trivial (many matches, many
    candidate roots); layers where the generalized keywords collide are
    skipped by the oracle itself, so collisions are exercised too.
    """
    histogram = graph.label_histogram()
    labels = sorted(histogram, key=lambda label: (-histogram[label], label))
    labels = labels[: max(3, min(count, len(labels)))]
    queries = [
        KeywordQuery(pair) for pair in itertools.combinations(labels[:3], 2)
    ]
    if len(labels) >= 3:
        queries.append(KeywordQuery(labels[:3]))
    return queries


def outcome(evaluator, query: KeywordQuery) -> Tuple:
    """A comparable snapshot of one evaluation: ``(status, payload, layer)``.

    Two sides agree *outcome-for-outcome*: identical rankings down to
    every answer's score, signature, vertices and edges — or the
    identical error (e.g. a keyword collision).  ``layer`` comes last so
    a comparison across differently built hierarchies can drop it with
    ``[:2]``: each locale's cost model picks its own navigation layer,
    a performance property, not part of the answer contract.
    """
    try:
        result = evaluator.evaluate(query)
    except BigIndexError as exc:
        return ("error", (type(exc).__name__, str(exc)), None)
    answers = tuple(
        (a.score, a.signature(), a.vertices, a.edges) for a in result.answers
    )
    return ("ok", answers, result.layer)


class Probe:
    """One identity check, runnable at any point of an op sequence: it
    holds the sides it compares and files into its own :attr:`report`;
    :func:`run_ops` decides *when* it runs."""

    #: Checked before the first op, after every ``cadence``-th op and —
    #: always — on the final state.  ``None``: the final state only (for
    #: checks as expensive as a from-scratch rebuild).
    cadence: Optional[int] = 1
    report: Report

    def check(self, context: str) -> None:
        """Compare the sides as they stand; ``context`` says where in
        the sequence ("pre", "after op 3") for the problem messages."""
        raise NotImplementedError

    def follow(self, op: Op) -> None:
        """Carry ``op`` to a side only this probe holds (after ``apply``
        carried it to the shared ones); most probes hold none."""


def run_ops(
    ops: Iterable[Op],
    apply: Callable[[Op], object],
    probes: Sequence[Probe] = (),
) -> List[Op]:
    """Probe; then for each op: apply it to every side, probe again.

    The one place an op sequence is executed.  ``ops`` may be a recorded
    list or a lazy :func:`draw_ops` stream; ``apply`` carries one op to
    every side the probes share, and each probe's :meth:`Probe.follow`
    to the sides it holds alone.  Returns the ops applied.  A cadence
    may thin the middle of the sequence, never the end: the final state
    is always probed, however short the replay — which is what lets
    ddmin reduce a failure to one op.
    """
    applied: List[Op] = []

    def check_probes(final: bool = False) -> None:
        context = f"after op {len(applied)}" if applied else "pre"
        for probe in probes:
            due = bool(probe.cadence) and len(applied) % probe.cadence == 0
            if due != final:  # the final sweep runs whoever did not just run
                probe.check(context)

    check_probes()
    for op in ops:
        apply(op)
        for probe in probes:
            probe.follow(op)
        applied.append(op)
        check_probes()
    check_probes(final=True)
    return applied
