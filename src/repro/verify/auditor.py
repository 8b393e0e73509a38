"""Bisimulation invariant auditor for a built :class:`BiGIndex`.

Every index layer must satisfy the defining equations of Def. 3.1:
``G^i = Bisim(Gen(G^{i-1}, C^i))`` with ``chi`` / ``chi^{-1}`` linking the
layers.  The auditor re-derives each invariant from first principles and
reports every violation it finds:

* **partition** — ``parent_of`` / ``extent`` form an exact inverse pair:
  dense block ids, no empty block, blocks partition the layer below.
* **bisimulation** — the partition satisfies
  :func:`~repro.bisim.refinement.is_bisimulation_partition` on the
  *generalized* lower graph (labels rewritten by ``C^i``).
* **labels** — ``L'([v]) = Gen(L(v), C^i)`` for every member of every
  supernode (well-definedness of the summary labeling).
* **paths** — the summary edge set equals the image of the lower edge set
  under ``chi`` (path preservation, the heart of Lemma 4.1: both that every
  lower edge has an image and that no summary edge is spurious).
* **chi/spec round-trips** — ``chi^m`` composed from per-layer maps agrees
  with :meth:`BiGIndex.chi`; ``spec_to_base`` of all layer-``m`` supernodes
  partitions the base vertex set; ``v in spec_to_base(chi(v, m), m)``.
* **sizes** — the Formula-3 bookkeeping: ``|G^i| = |V^i| + |E^i|`` as
  reported by :meth:`BiGIndex.layer_sizes` and
  :meth:`BiGIndex.total_index_size` matches the graphs themselves.
* **minimality** (opt-in) — each partition equals the *maximal*
  bisimulation of its generalized lower graph.  Holds right after
  :meth:`BiGIndex.build` / :meth:`BiGIndex.rebuild`; incremental updates
  may legitimately leave the partition finer, so the check is gated by
  ``expect_minimal``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.bisim.refinement import (
    is_bisimulation_partition,
    maximal_bisimulation,
)
from repro.core.generalize import generalize_graph
from repro.core.index import BiGIndex
from repro.graph.digraph import Graph
from repro.utils.errors import BigIndexError

#: Cap on per-check examples quoted in a violation detail string.
_MAX_EXAMPLES = 5


@dataclass(frozen=True)
class Violation:
    """One broken invariant, anchored to the layer that breaks it."""

    layer: int
    check: str
    detail: str

    def __str__(self) -> str:
        return f"[layer {self.layer}] {self.check}: {self.detail}"


@dataclass
class AuditReport:
    """Outcome of one :func:`audit_index` run."""

    checks_run: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, layer: int, check: str, detail: str) -> None:
        self.violations.append(Violation(layer=layer, check=check, detail=detail))

    def format(self) -> str:
        if self.ok:
            return f"audit: OK ({self.checks_run} checks)"
        lines = [
            f"audit: {len(self.violations)} violation(s) "
            f"in {self.checks_run} checks"
        ]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)


def _examples(items) -> str:
    shown = list(items)[:_MAX_EXAMPLES]
    suffix = ", ..." if len(items) > _MAX_EXAMPLES else ""
    return f"{shown}{suffix}"


def audit_index(index: BiGIndex, expect_minimal: bool = False) -> AuditReport:
    """Check every layer of ``index`` against the Def. 3.1 invariants.

    Parameters
    ----------
    index:
        The hierarchy to audit.
    expect_minimal:
        Also require each layer's partition to be the *maximal*
        bisimulation (true after ``build``/``rebuild``; may be violated —
        legitimately — after incremental updates).
    """
    report = AuditReport()
    lower = index.base_graph
    for i, layer in enumerate(index.layers, start=1):
        generalized = generalize_graph(lower, layer.config)
        _audit_partition(report, i, lower, layer)
        _audit_bisimulation(report, i, generalized, layer, expect_minimal)
        _audit_labels(report, i, generalized, layer)
        _audit_paths(report, i, lower, layer)
        lower = layer.graph
    _audit_chi_spec(report, index)
    _audit_sizes(report, index)
    return report


# ----------------------------------------------------------------------
# Per-layer checks
# ----------------------------------------------------------------------
def _audit_partition(report: AuditReport, i: int, lower, layer) -> None:
    report.checks_run += 1
    n = lower.num_vertices
    if len(layer.parent_of) != n:
        report.add(
            i,
            "partition",
            f"parent_of covers {len(layer.parent_of)} vertices, "
            f"layer below has {n}",
        )
        return
    num_blocks = layer.graph.num_vertices
    bad_ids = [s for s in layer.parent_of if not 0 <= s < num_blocks]
    if bad_ids:
        report.add(
            i, "partition", f"parent_of ids out of range: {_examples(bad_ids)}"
        )
        return
    if len(layer.extent) != num_blocks:
        report.add(
            i,
            "partition",
            f"extent has {len(layer.extent)} blocks, summary graph has "
            f"{num_blocks} vertices",
        )
        return
    empty = [s for s, members in enumerate(layer.extent) if not members]
    if empty:
        report.add(i, "partition", f"empty extent blocks: {_examples(empty)}")
    mismatched = [
        v
        for s, members in enumerate(layer.extent)
        for v in members
        if layer.parent_of[v] != s
    ]
    if mismatched:
        report.add(
            i,
            "partition",
            f"extent/parent_of disagree on vertices: {_examples(mismatched)}",
        )
    covered = sum(len(members) for members in layer.extent)
    if covered != n:
        report.add(
            i,
            "partition",
            f"extent covers {covered} vertices, layer below has {n} "
            "(blocks overlap or miss vertices)",
        )


def _audit_bisimulation(
    report: AuditReport, i: int, generalized, layer, expect_minimal: bool
) -> None:
    report.checks_run += 1
    if len(layer.parent_of) != generalized.num_vertices:
        return  # already reported by the partition check
    if not is_bisimulation_partition(generalized, layer.parent_of):
        report.add(
            i,
            "bisimulation",
            "partition violates the bisimulation conditions on "
            "Gen(G^{i-1}, C^i)",
        )
    if expect_minimal:
        report.checks_run += 1
        maximal = maximal_bisimulation(generalized)
        if list(layer.parent_of) != maximal:
            finer = len(set(layer.parent_of)) - len(set(maximal))
            report.add(
                i,
                "minimality",
                f"partition is not the maximal bisimulation "
                f"({finer:+d} blocks vs maximal)",
            )


def _audit_labels(report: AuditReport, i: int, generalized, layer) -> None:
    report.checks_run += 1
    bad = []
    for s, members in enumerate(layer.extent):
        expected = layer.graph.labels[s] if s < layer.graph.num_vertices else None
        for v in members:
            if generalized.labels[v] != expected:
                bad.append((s, v))
    if bad:
        report.add(
            i,
            "labels",
            f"supernode label differs from member's generalized label: "
            f"{_examples(bad)}",
        )


def _audit_paths(report: AuditReport, i: int, lower, layer) -> None:
    report.checks_run += 1
    parent = layer.parent_of
    if len(parent) != lower.num_vertices:
        return
    image = {(parent[u], parent[v]) for u, v in lower.edges()}
    summary_edges = set(layer.graph.edges())
    missing = image - summary_edges
    spurious = summary_edges - image
    if missing:
        report.add(
            i,
            "paths",
            f"lower edges with no summary image: {_examples(sorted(missing))}",
        )
    if spurious:
        report.add(
            i,
            "paths",
            f"summary edges with no witness below: "
            f"{_examples(sorted(spurious))}",
        )


# ----------------------------------------------------------------------
# Cross-layer checks
# ----------------------------------------------------------------------
def _safe_chi(index: BiGIndex, vertex: int, m: int):
    """``chi`` that survives corrupted per-layer maps (audits must report,
    not crash)."""
    try:
        return index.chi(vertex, m)
    except (IndexError, BigIndexError):
        return None


def _audit_chi_spec(report: AuditReport, index: BiGIndex) -> None:
    base_vertices = set(index.base_graph.vertices())
    for m in range(1, index.num_layers + 1):
        report.checks_run += 1
        seen = {}
        overlaps = []
        for s in index.layer_graph(m).vertices():
            try:
                members = index.spec_to_base(s, m)
            except (IndexError, BigIndexError):
                report.add(
                    m, "spec", f"spec_to_base({s}, {m}) raised on a corrupted map"
                )
                continue
            for v in members:
                if v in seen:
                    overlaps.append((v, seen[v], s))
                seen[v] = s
        if overlaps:
            report.add(
                m,
                "spec",
                f"spec_to_base blocks overlap on base vertices: "
                f"{_examples(overlaps)}",
            )
        uncovered = base_vertices - set(seen)
        if uncovered:
            report.add(
                m,
                "spec",
                f"spec_to_base misses base vertices: "
                f"{_examples(sorted(uncovered))}",
            )
        report.checks_run += 1
        bad_roundtrip = [
            v for v, s in seen.items() if _safe_chi(index, v, m) != s
        ]
        if bad_roundtrip:
            report.add(
                m,
                "chi",
                f"chi(v, m) disagrees with spec_to_base membership for: "
                f"{_examples(sorted(bad_roundtrip))}",
            )
        # spec_vertex must be the single-step slice of spec_to_base.
        report.checks_run += 1
        bad_step = []
        for s in index.layer_graph(m).vertices():
            one_step = set(index.spec_vertex(s, m))
            expected = set(index.layers[m - 1].extent[s])
            if one_step != expected:
                bad_step.append(s)
        if bad_step:
            report.add(
                m,
                "spec",
                f"spec_vertex disagrees with extent for supernodes: "
                f"{_examples(bad_step)}",
            )


def _audit_sizes(report: AuditReport, index: BiGIndex) -> None:
    """Formula-3 size accounting, recomputed independently of ``Graph.size``.

    ``|G^i| = |V^i| + |E^i|`` with ``|V^i|`` taken from the partition
    (number of extent blocks) and ``|E^i|`` from an actual edge scan, so a
    corrupted edge counter or a partition/graph mismatch is caught here.
    """
    report.checks_run += 1
    expected = [
        index.base_graph.num_vertices
        + sum(1 for _ in index.base_graph.edges())
    ]
    for layer in index.layers:
        expected.append(len(layer.extent) + sum(1 for _ in layer.graph.edges()))
    reported = index.layer_sizes()
    if reported != expected:
        report.add(
            0,
            "sizes",
            f"layer_sizes() = {reported} but partition + edge-scan "
            f"recomputation gives {expected}",
        )
    report.checks_run += 1
    total = sum(expected[1:])
    if index.total_index_size() != total:
        report.add(
            0,
            "sizes",
            f"total_index_size() = {index.total_index_size()} but layer sum "
            f"is {total}",
        )


def reference_bisimulation(
    graph: Graph,
    initial_blocks: Sequence[int] | None = None,
) -> List[int]:
    """The naive Kanellakis–Smolka loop, kept as the differential oracle.

    Re-signatures every vertex each round with frozenset signatures; the
    property tests assert :func:`maximal_bisimulation` matches it
    byte-for-byte on randomized graphs.  The live block count is threaded
    through the loop rather than recomputed with ``len(set(block))`` per
    round.
    """
    n = graph.num_vertices
    if n == 0:
        return []

    if initial_blocks is None:
        block = list(graph.labels)
    else:
        if len(initial_blocks) != n:
            raise ValueError("initial_blocks must cover every vertex")
        combined: Dict[Tuple[int, int], int] = {}
        block = []
        for v in range(n):
            key = (initial_blocks[v], graph.labels[v])
            block_id = combined.setdefault(key, len(combined))
            block.append(block_id)

    num_blocks = len(set(block))
    while True:
        signatures: Dict[Tuple, int] = {}
        new_block = [0] * n
        for v in range(n):
            succ_sig = frozenset(block[w] for w in graph.out_neighbors(v))
            key = (block[v], succ_sig)
            new_block[v] = signatures.setdefault(key, len(signatures))
        block = new_block
        if len(signatures) == num_blocks:
            break
        num_blocks = len(signatures)
    # Renumber blocks by first occurrence, i.e. by smallest member vertex:
    # the canonical numbering maximal_bisimulation promises.
    first_seen: Dict[int, int] = {}
    return [first_seen.setdefault(old, len(first_seen)) for old in block]
