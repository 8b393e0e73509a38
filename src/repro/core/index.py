"""The BiG-index hierarchy (Def. 3.1) with construction and maintenance.

A BiG-index of a graph ``G`` and ontology ``G_Ont`` is ``(G, C)``: graphs
``{G^0, ..., G^h}`` and configurations ``[C^1, ..., C^h]`` with ``G^0 = G``
and ``G^i = chi(G^{i-1}, C^i) = Bisim(Gen(G^{i-1}, C^i))``.

Construction (Sec. 3.2) picks each layer's configuration with Algorithm 1's
greedy heuristic and stops when adding layers stops paying: either the layer
budget is reached, no candidate generalization exists, or summarization no
longer compresses (the paper: "until it cannot be further summarized
efficiently").

Maintenance (Sec. 3.2):

* **Data-graph updates** — an edge insertion/deletion at layer 0
  propagates upward, localized (Luo et al.): after ``(u, v)`` changes
  only ``u``'s block can become unstable, and above it only the blocks
  a split or a changed summary edge reaches.  Each layer runs the
  refinement worklist seeded with those blocks, patches copy-on-write
  copies of its summary graph and maps, and hands the layer above the
  split-off supernodes and changed rows (:func:`_patch_layer`); the
  climb stops at the first layer left unchanged.  The result is the
  coarsest stable refinement of the old partition, so the index stays a
  valid bisimulation hierarchy; it may drift finer than minimal, and
  :meth:`BiGIndex.rebuild` restores minimality — matching the paper's
  "recomputed occasionally to maintain its efficiency".
* **Ontology updates** — additions never invalidate the index (existing
  configurations remain label-preserving).  Removing a subtype edge calls
  :meth:`BiGIndex.remove_ontology_edge`, which drops the affected mappings
  from every configuration and rebuilds from the first affected layer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.bisim.refinement import maximal_bisimulation, refine_blocks
from repro.bisim.summary import summarize
from repro.core.config import Configuration
from repro.core.cost import CostModel, CostParams
from repro.core.generalize import (
    generalize_graph,
    generalize_label,
    generalize_query,
)
from repro.core.heuristic import greedy_configuration
from repro.core.querycache import LRUCache
from repro.graph.digraph import Graph
from repro.obs.runtime import OBS
from repro.ontology.ontology import OntologyGraph
from repro.search.base import KeywordQuery
from repro.utils.errors import BigIndexError, QueryError
from repro.utils.timers import monotonic_now

#: :meth:`BiGIndex.build` stops when a layer's size exceeds this fraction
#: of the layer below (compression has saturated).
STOP_RATIO = 0.98


@dataclass
class Layer:
    """One index layer ``G^i`` plus its link to the layer below.

    Attributes
    ----------
    config:
        ``C^i``, the configuration applied to ``G^{i-1}``'s labels.
    graph:
        ``G^i = Bisim(Gen(G^{i-1}, C^i))``.
    parent_of:
        ``parent_of[v]`` is the supernode of layer-(i-1) vertex ``v`` —
        the per-layer ``chi`` map.  A plain list on heap-built indexes;
        on a v4 load the section itself, zero copy: a
        ``memoryview.cast("i")`` over the mmap (an ``array('i')`` on the
        big-endian fallback).  A loaded map does not compare ``==`` to a
        list; compare ``list(parent_of)``.
    extent:
        ``extent[s]`` lists the layer-(i-1) vertices of supernode ``s`` —
        the per-layer ``chi^{-1}`` hash table.  List-of-lists on heap
        builds, :class:`repro.core.binfmt.ExtentTable` on v4 loads.
    build_seconds:
        Wall-clock construction time of this layer (Exp-3).
    """

    config: Configuration
    graph: Graph
    parent_of: Sequence[int]
    extent: Sequence[Sequence[int]]
    build_seconds: float = 0.0


@dataclass
class ConstructionReport:
    """Summary of one build for the Exp-3 benchmarks."""

    layer_sizes: List[int] = field(default_factory=list)
    layer_seconds: List[float] = field(default_factory=list)
    total_seconds: float = 0.0


class BiGIndex:
    """The hierarchical Bisimulation-of-Generalized-Graph index.

    Use :meth:`build` to construct one; direct instantiation is reserved
    for tests that assemble layers manually.
    """

    def __init__(
        self,
        base_graph: Graph,
        ontology: OntologyGraph,
    ) -> None:
        self.base_graph = base_graph
        self.ontology = ontology
        self.layers: List[Layer] = []
        self.report = ConstructionReport()
        #: updates applied since the last full (re)build.
        self.drift = 0
        #: bumped whenever maintenance replaces layers (see ``epoch``).
        self._maintenance_epoch = 0
        #: Spec fan-outs keyed by (epoch, layer, supernode).
        self._spec_memo = LRUCache(4096, kind="spec")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: Graph,
        ontology: OntologyGraph,
        num_layers: Optional[int] = None,
        theta: float = 1.0,
        max_mappings: Optional[int] = None,
        cost_params: Optional[CostParams] = None,
    ) -> "BiGIndex":
        """Construct a BiG-index bottom-up.

        Parameters
        ----------
        graph:
            The data graph ``G^0`` (not copied; treat as owned by the index
            when using maintenance).
        ontology:
            ``G_Ont`` used for candidate generalizations.
        num_layers:
            Maximum number of layers ``h``; ``None`` keeps adding layers
            while they compress.
        theta / max_mappings / cost_params:
            Algorithm 1 parameters (Sec. 3.2).  The paper's default index
            uses large ``theta`` and ``Pi`` so each layer generalizes every
            label one ontology step.
        """
        index = cls(graph, ontology)
        start_total = monotonic_now()
        current = graph
        while num_layers is None or len(index.layers) < num_layers:
            start = monotonic_now()
            with OBS.tracer.span(
                "build-layer", layer=len(index.layers) + 1, size=current.size
            ) as layer_span:
                with OBS.tracer.span("configure"):
                    config = greedy_configuration(
                        current,
                        ontology,
                        theta=theta,
                        max_mappings=max_mappings,
                        cost_params=cost_params,
                    )
                with OBS.tracer.span("generalize"):
                    generalized = generalize_graph(current, config)
                with OBS.tracer.span("summarize"):
                    summary = summarize(generalized)
                elapsed = monotonic_now() - start
                ratio = (
                    summary.graph.size / current.size if current.size else 1.0
                )
                if OBS.enabled:
                    layer_span.annotate(
                        mappings=len(config),
                        summary_size=summary.graph.size,
                        ratio=round(ratio, 4),
                    )
                if not config and ratio > STOP_RATIO:
                    break  # nothing generalized and bisim stopped compressing
                index.layers.append(
                    Layer(
                        config=config,
                        graph=summary.graph,
                        parent_of=summary.supernode_of,
                        extent=summary.extent,
                        build_seconds=elapsed,
                    )
                )
                index.report.layer_sizes.append(summary.graph.size)
                index.report.layer_seconds.append(elapsed)
                if OBS.enabled:
                    OBS.metrics.inc("build.layers")
                    OBS.metrics.inc("build.mappings_accepted", len(config))
                if ratio > STOP_RATIO and num_layers is None:
                    break  # keep the layer but stop stacking more
                current = summary.graph
        index.report.total_seconds = monotonic_now() - start_total
        return index

    # ------------------------------------------------------------------
    # Cache invalidation
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> Tuple[int, int]:
        """A value that changes whenever cached query artifacts go stale.

        Combines the index's own maintenance counter (layers replaced by
        :meth:`insert_edge`/:meth:`delete_edge`/:meth:`rebuild`/
        :meth:`remove_ontology_edge`) with the base graph's
        ``mutation_epoch``, so direct mutation of ``base_graph`` also
        moves it.  Anything derived from layers, configurations, or
        the data graph and cached — ``Spec`` fan-outs, whole query
        results — is keyed by this: both components only grow, so a
        value computed under a superseded epoch sits under a key no
        later lookup forms.
        """
        return (self._maintenance_epoch, self.base_graph.mutation_epoch)

    def drop_caches(self) -> None:
        """Release the Spec memo (e.g. for cold-start benchmarks); the
        memo needs no other invalidation, its keys carry the epoch."""
        self._spec_memo.clear()

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        """``h``: the number of summary layers above the data graph."""
        return len(self.layers)

    def layer_graph(self, m: int) -> Graph:
        """``G^m`` (``m = 0`` is the data graph)."""
        if m == 0:
            return self.base_graph
        if not 1 <= m <= len(self.layers):
            raise BigIndexError(f"layer {m} out of range (h={len(self.layers)})")
        return self.layers[m - 1].graph

    def iter_layer_graphs(self) -> Iterator[Graph]:
        """``G^0 .. G^h``: every graph whose storage this index pins."""
        yield self.base_graph
        for layer in self.layers:
            yield layer.graph

    def layout_summary(self) -> Optional[str]:
        """How the data graph was split, for ``stats``: one hierarchy
        over the whole graph has nothing to report."""
        return None

    def make_evaluator(self, algorithm, **options):
        """The evaluator answering ``eval_Ont`` over this index — what
        :func:`repro.core.plugins.boost` wraps.  ``options`` are
        :class:`~repro.core.evaluator.HierarchicalEvaluator`'s."""
        from repro.core.evaluator import HierarchicalEvaluator

        return HierarchicalEvaluator(self, algorithm, **options)

    def configs_up_to(self, m: int) -> List[Configuration]:
        """``[C^1, ..., C^m]``."""
        if not 0 <= m <= len(self.layers):
            raise BigIndexError(f"layer {m} out of range (h={len(self.layers)})")
        return [layer.config for layer in self.layers[:m]]

    def layer_sizes(self) -> List[int]:
        """``|G^0|, |G^1|, ..., |G^h|`` (Fig. 9's series)."""
        return [self.base_graph.size] + [layer.graph.size for layer in self.layers]

    def size_ratio(self, m: int) -> float:
        """``|G^m| / |G^0|`` (Tab. 3 reports it for ``m = 1``)."""
        return self.layer_graph(m).size / self.base_graph.size

    def total_index_size(self) -> int:
        """Sum of all summary-graph sizes ("the BiG-index size is simply
        the sum of the summary graphs in the index", Exp-3)."""
        return sum(layer.graph.size for layer in self.layers)

    # ------------------------------------------------------------------
    # chi / Spec navigation
    # ------------------------------------------------------------------
    def chi(self, vertex: int, m: int) -> int:
        """``chi^m(v)``: the layer-``m`` supernode summarizing base vertex ``v``."""
        current = vertex
        for layer in self.layers[:m]:
            current = layer.parent_of[current]
        return current

    def spec_vertex(self, supernode: int, m: int) -> List[int]:
        """``Spec`` one step: layer-``m`` supernode -> layer-(m-1) vertices."""
        if not 1 <= m <= len(self.layers):
            raise BigIndexError(f"layer {m} out of range (h={len(self.layers)})")
        return list(self.layers[m - 1].extent[supernode])

    def spec_to_base(self, supernode: int, m: int) -> List[int]:
        """Fully specialize a layer-``m`` supernode to base vertices, sorted."""
        return list(self.spec_many([supernode], m)[0])

    def spec_many(self, supernodes: Sequence[int], m: int) -> List[Tuple[int, ...]]:
        """:meth:`spec_to_base` of each supernode, as sorted tuples.

        Memoized per (:attr:`epoch`, layer, supernode), looked up as one
        batch (:meth:`LRUCache.get_many`): answer recovery
        specializes the same supernodes over and over across a query
        workload, and the fan-out is a pure function of the extent
        tables.  The epoch is read once per batch, before any table is
        walked, so a batch racing a write files its values under the
        superseded epoch.
        """
        epoch = self.epoch
        memo = self._spec_memo
        specs = memo.get_many([(epoch, m, s) for s in supernodes])
        for i, spec in enumerate(specs):
            if spec is not None:
                continue
            frontier = [supernodes[i]]
            for level in range(m, 0, -1):
                extent = self.layers[level - 1].extent
                frontier = [child for s in frontier for child in extent[s]]
            specs[i] = spec = tuple(sorted(frontier))
            memo.put((epoch, m, supernodes[i]), spec)
        return specs

    # ------------------------------------------------------------------
    # Query generalization
    # ------------------------------------------------------------------
    def generalize_keyword(self, keyword: str, m: int) -> str:
        """``Gen^m`` of one keyword through ``C^1 ... C^m``."""
        return generalize_label(keyword, self.configs_up_to(m))

    def generalize_query(self, query: KeywordQuery, m: int) -> List[str]:
        """``Gen^m(Q)`` as a list (may contain collisions; see Def. 4.1)."""
        return generalize_query(query, self.configs_up_to(m))

    def query_distinct_at(self, query: KeywordQuery, m: int) -> bool:
        """Def. 4.1 condition 1: ``|Gen^m(Q)| = |Q)|``."""
        generalized = self.generalize_query(query, m)
        return len(set(generalized)) == len(generalized)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> None:
        """Insert a data-graph edge and patch the layers it touches."""
        if self.base_graph.add_edge(u, v):
            self._maintain(u)

    def delete_edge(self, u: int, v: int) -> None:
        """Delete a data-graph edge and patch the layers it touches."""
        self.base_graph.remove_edge(u, v)
        self._maintain(u)

    def rebuild(self) -> None:
        """Recompute every layer's *maximal* bisimulation (keeps configs).

        Restores index minimality after incremental updates ("to minimize
        the index size, BiG-index can be recomputed occasionally").
        """
        self.layers = self._climb(
            self.base_graph, [layer.config for layer in self.layers]
        )
        self.drift = 0
        self._maintenance_epoch += 1

    def note_ontology_addition(self) -> None:
        """Record an ontology extension: no action required.

        New subtype edges cannot invalidate existing configurations (each
        mapping's edge still exists); the index simply does not exploit the
        new edges until a rebuild (paper: "new ontologies do not make a
        BiG-index incorrect, and BiG-index can be reconstructed
        periodically").
        """
        self.drift += 1

    def remove_ontology_edge(self, subtype: str, supertype: str) -> None:
        """Handle removal of a subtype-supertype relationship.

        Every configuration using the removed edge loses the affected
        mapping, and all layers from the first affected one upward are
        reconstructed with the reduced configurations — specializing the
        summary graphs "so that the affected relationships are not involved
        in any configurations in the updated BiG-index".
        """
        first_affected: Optional[int] = None
        new_configs: List[Configuration] = []
        for i, layer in enumerate(self.layers):
            # Copy before dropping the mapping: Layer objects may be shared
            # with published copy-on-write snapshots (cow_clone), so the
            # old configuration must stay intact for pinned readers.
            mappings = dict(layer.config.mappings)
            if mappings.get(subtype) == supertype:
                del mappings[subtype]
                if first_affected is None:
                    first_affected = i
            new_configs.append(Configuration(mappings))
        if first_affected is None:
            return
        start = (
            self.base_graph
            if first_affected == 0
            else self.layers[first_affected - 1].graph
        )
        self.layers = self.layers[:first_affected] + self._climb(
            start, new_configs[first_affected:]
        )
        self._maintenance_epoch += 1

    # ------------------------------------------------------------------
    # Copy-on-write snapshots
    # ------------------------------------------------------------------
    def cow_clone(self) -> "BiGIndex":
        """Copy-on-write clone for mutate-while-query snapshot isolation.

        The clone shares every immutable or wholesale-replaced structure
        with this index: the ontology, the ``Layer`` objects (maintenance
        replaces ``self.layers`` with a fresh list, an edge write patches
        copies of the layers it touches, and :meth:`remove_ontology_edge`
        copies a configuration before shrinking it, so published layers
        are never edited in place), and
        the base graph's unmutated adjacency rows / posting sets (via
        :meth:`Graph.cow_clone`).  Mutating the clone leaves this index —
        and any reader still pinning it — byte-identical to before.

        The clone gets a fresh, empty Spec memo rather than sharing this
        one: its keys carry the :attr:`epoch`, but two clones of one
        parent can take different writes and reach equal epochs with
        different states, so an epoch identifies a state only within
        one index's own history.  The construction report is shared
        read-only.
        """
        clone = BiGIndex.__new__(BiGIndex)
        clone.base_graph = self.base_graph.cow_clone()
        clone.ontology = self.ontology
        clone.layers = list(self.layers)
        clone.report = self.report
        clone.drift = self.drift
        clone._maintenance_epoch = self._maintenance_epoch
        clone._spec_memo = LRUCache(4096, kind="spec")
        if OBS.enabled:
            OBS.metrics.inc("cow.index.clones")
        return clone

    def state_digest(self) -> str:
        """Deterministic sha256 over the index's logical state.

        Covers everything query-relevant — base-graph topology, vertex
        labels (as strings, so the digest is stable across label-table
        interning orders), vertex names, every layer's configuration and
        ``chi`` map, and each summary graph's labeled topology.  Two
        indexes answering every query identically produce equal digests;
        the chaos drill compares a crash-recovered server against an
        in-process oracle through this.
        """
        hasher = hashlib.sha256()

        def feed(tag: str, payload: str) -> None:
            hasher.update(tag.encode("utf-8"))
            hasher.update(b"\x1f")
            hasher.update(payload.encode("utf-8"))
            hasher.update(b"\x1e")

        def feed_graph(tag: str, graph: Graph) -> None:
            feed(tag + ".labels", "\x1f".join(
                graph.label_table.label_of(label_id) for label_id in graph.labels
            ))
            feed(tag + ".edges", "\x1f".join(
                f"{u},{v}" for u, v in sorted(graph.edges())
            ))

        feed_graph("base", self.base_graph)
        feed("base.names", "\x1f".join(
            f"{v}={self.base_graph.names[v]}"
            for v in sorted(self.base_graph.names)
        ))
        feed("h", str(len(self.layers)))
        for i, layer in enumerate(self.layers):
            feed(f"layer{i}.config", "\x1f".join(
                f"{sub}->{sup}"
                for sub, sup in sorted(layer.config.mappings.items())
            ))
            feed(f"layer{i}.parent_of", ",".join(map(str, layer.parent_of)))
            feed_graph(f"layer{i}", layer.graph)
        return hasher.hexdigest()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _maintain(self, u: int) -> None:
        """Propagate a change of base vertex ``u``'s out-row upward.

        Layer ``i`` receives a batch from the layer below — the vertices
        whose out-row changed, and the vertices appended by splits, each
        with the vertex it split from — and :func:`_patch_layer` refines
        and patches only what that batch can unsettle.  The climb stops
        at the first layer that hands nothing up (nothing split, no
        summary edge changed): every layer above it stays the very
        ``Layer`` object the parent snapshot holds.
        """
        self.drift += 1
        self._maintenance_epoch += 1
        layers = list(self.layers)
        below = self.base_graph
        origins: Dict[int, int] = {}
        changed = [u]
        for i, layer in enumerate(layers):
            if not origins and not changed:
                break
            with OBS.tracer.span("refresh-layer", layer=i + 1) as span:
                patched, origins, changed = _patch_layer(
                    layer, below, origins, changed
                )
                if OBS.enabled:
                    span.annotate(patched=patched is not layer)
            if patched is not layer:
                if OBS.enabled:
                    OBS.metrics.inc("build.layers_refreshed")
                layers[i] = patched
                below = patched.graph
        self.layers = layers

    def _climb(
        self,
        start: Graph,
        configs: Sequence[Configuration],
        seeds: Optional[Sequence[Sequence[int]]] = None,
    ) -> List[Layer]:
        """The layers above ``start``, one per configuration, to the top:
        the one place maintenance writes whole layers, ``generalize ->
        refine -> summarize -> Layer`` (:meth:`rebuild`,
        :meth:`remove_ontology_edge`).  Without ``seeds`` every layer
        gets its *maximal* bisimulation.  With them (the ``parent_of``
        map of each layer being replaced) layer ``i``'s refinement starts
        from the old partition: every *new* layer-(i-1) vertex is seeded
        with the old supernode of the old vertex enclosing it, well
        defined exactly because each new partition refines the old one.
        That form is no write path: it is the reference the localized
        one (:meth:`_maintain`) must equal up to block numbering
        (:class:`repro.verify.probes.MaintenanceProbe`).
        """
        # Every climb ends at the top layer, which numbers its layers.
        first = len(self.layers) - len(configs) + 1
        current = start
        # new layer-(i-1) vertex -> old layer-(i-1) vertex; identity at start.
        old_of_new: List[int] = list(range(current.num_vertices))
        climbed: List[Layer] = []
        for position, config in enumerate(configs):
            if OBS.enabled:
                OBS.metrics.inc("build.layers_refreshed")
            with OBS.tracer.span("refresh-layer", layer=first + position):
                generalized = generalize_graph(current, config)
                blocks = None
                if seeds is not None:
                    old_parent = seeds[position]
                    blocks = maximal_bisimulation(
                        generalized,
                        initial_blocks=[
                            old_parent[old_of_new[v]]
                            for v in generalized.vertices()
                        ],
                    )
                summary = summarize(generalized, blocks=blocks)
                climbed.append(
                    Layer(
                        config=config,
                        graph=summary.graph,
                        parent_of=summary.supernode_of,
                        extent=summary.extent,
                    )
                )
                if seeds is not None:
                    # Each new supernode -> the old supernode of its members.
                    old_of_new = [
                        old_parent[old_of_new[members[0]]]
                        for members in summary.extent
                    ]
                current = summary.graph
        return climbed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = ", ".join(str(s) for s in self.layer_sizes())
        return f"BiGIndex(h={self.num_layers}, sizes=[{sizes}])"


class _Rows(dict):
    """``refine_blocks``' members over an extent table: a block's row is
    the table's until the worklist rebinds it, so nothing is copied."""

    def __init__(self, extent: Sequence[Sequence[int]]) -> None:
        super().__init__()
        self.extent = extent

    def __missing__(self, block: int) -> Sequence[int]:
        return self.extent[block]


def _seed(
    layer: Layer, origins: Dict[int, int], changed: Sequence[int]
) -> Tuple[List[int], List[Sequence[int]], Set[int]]:
    """The seed partition of :func:`_patch_layer` as copies of
    ``layer``'s ``parent_of`` / ``extent`` — each appended vertex in its
    origin's block — and the blocks it may have unsettled: those of the
    changed and the appended vertices."""
    parent = list(layer.parent_of)
    extent = list(layer.extent)
    dirty = {parent[w] for w in changed}
    for vertex, origin in origins.items():
        block = parent[origin]
        parent.append(block)
        extent[block] = [*extent[block], vertex]
        dirty.add(block)
    return parent, extent, dirty


def _patch_layer(
    layer: Layer,
    below: Graph,
    origins: Dict[int, int],
    changed: Sequence[int],
) -> Tuple[Layer, Dict[int, int], List[int]]:
    """One layer of localized maintenance (Luo et al.).

    ``below`` is the already-patched layer under ``layer``; ``changed``
    are its vertices whose out-row changed, and ``origins`` maps each
    vertex it appended (ascending) to the old vertex it split from.  The
    seed partition is the old one, each appended vertex joining the
    block of its origin.  A block holding neither kind of vertex has the
    same signatures as before the update, so it is still stable: the
    worklist is seeded with the other blocks only and reaches the same
    coarsest stable refinement a whole-layer seeded run would.  Labels
    need no pass (edge updates never change one, and the seed already
    refines them).

    The result is patched on copies — the summary graph via
    :meth:`Graph.cow_clone`, the outer ``parent_of`` / ``extent`` lists —
    so ``layer`` itself never changes.  Every block is stable afterwards,
    so a block's summary out-row is the set of blocks its smallest
    member points into; only the rows of blocks that gained, lost or
    re-pointed members are recomputed.  Returns the patched layer
    (``layer`` itself when nothing moved) and the batch for the layer
    above: the appended supernodes with the blocks they split from, and
    the old supernodes whose out-row changed.
    """
    old_parent = layer.parent_of
    old_blocks = len(layer.extent)
    parent, extent, dirty = _seed(layer, origins, changed)
    successors, predecessors = below.rows()
    members = _Rows(extent)
    split, next_id = refine_blocks(
        parent, members, dirty, old_blocks,
        successors.__getitem__, predecessors.__getitem__,
    )
    fresh = range(old_blocks, next_id)
    for block in split:
        if block < old_blocks:  # a fresh block may split again
            extent[block] = members[block]
    touched = dirty.union(split, fresh)
    lookup = parent.__getitem__
    for block in fresh:
        extent.append(members[block])
        for w in members[block]:
            touched.update(map(lookup, predecessors[w]))

    graph = layer.graph
    edits = []
    for source in sorted(touched):
        row = set(map(lookup, successors[extent[source][0]]))
        old = set(graph.out_neighbors(source) if source < old_blocks else ())
        if row != old:
            edits.append((source, old, row))
    if not origins and not fresh and not edits:
        return layer, {}, []

    origins_up: Dict[int, int] = {}
    changed_up: List[int] = []
    if fresh or edits:
        graph = graph.cow_clone()
        for block in fresh:
            first = members[block][0]
            origin = old_parent[origins.get(first, first)]
            graph.add_vertex_with_label_id(graph.labels[origin])
            origins_up[block] = origin
        for source, old, row in edits:
            _sync_row(graph, source, old, row)
            if source < old_blocks:
                changed_up.append(source)
    return (
        replace(layer, graph=graph, parent_of=parent, extent=extent),
        origins_up,
        changed_up,
    )


def _sync_row(graph: Graph, source: int, old: Set[int], row: Set[int]) -> None:
    """Make ``source``'s summary out-row ``row`` (it is ``old`` now)."""
    for target in sorted(old - row):
        graph.remove_edge(source, target)
    for target in sorted(row - old):
        graph.add_edge(source, target)
