"""Sharded BiG-index: parallel per-shard build + scatter-gather top-k.

The monolithic :class:`~repro.core.index.BiGIndex` keeps one hierarchy
over the whole data graph; this module splits the graph into ``K``
vertex-disjoint (hence edge-disjoint) shards, builds one hierarchy per
shard in a separate *process*, and answers queries by fanning out to
per-shard evaluators and merging their ranked streams.

Exactness rests on a *portal zone*.  The shard planner extends the
Blinks partitioner (:func:`repro.graph.partition.partition_bfs_grow`):
edges crossing shards are collected into a cut table, their endpoints
are *portals*, and the **zone** is the subgraph induced on every vertex
within undirected distance ``halo_radius`` of a portal.  For a rooted
search algorithm whose answers have radius ``d_max`` (so diameter
``2*d_max``), any data-graph answer either

* uses no cut edge — then it is connected inside one shard and the
  shard's evaluator reproduces it exactly (the answer's own paths are
  shard-local, and a subgraph cannot shorten them), or
* uses a cut edge — then it contains a portal, every one of its
  vertices lies within ``2*d_max`` of that portal, and as long as
  ``halo_radius >= 2*d_max`` the zone contains the whole answer.

Every locale (shard or zone) is an induced subgraph of ``G``, so locale
answers are genuine data-graph answers whose scores can only be equal
or worse than the global optimum for the same root; collecting the
roots the locales found and materializing each once on the union graph
therefore reproduces the monolithic top-k (checked query-for-query by
``repro.verify.shardcheck``).  The same
subgraph inequality is what makes per-shard budgets prefix-sound: a
degraded locale's ``lower_bound`` bounds everything it did not emit, so
the merged prefix below the *minimum* bound over degraded locales is
provably complete and the merged outcome degrades via
:class:`~repro.core.evaluator.DegradedResult` instead of silently
dropping cross-shard answers.

On disk a sharded index is a directory of ordinary v4 index
directories (one per locale) under a top-level ``meta.json`` /
``shards.json`` / ``manifest.json`` (the ordinary manifest shape, whose
``files`` pin each locale's own manifest) plus one shared
``mutations.wal`` whose ops are routed to the owning locale(s) on
replay.  :func:`repro.core.persistence.load_index` loads it.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
from array import array
from dataclasses import asdict, dataclass, field, replace
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.cost import CostParams
from repro.core.evaluator import (
    DegradationStats,
    DegradedResult,
    EvalResult,
    HierarchicalEvaluator,
    TimeBreakdown,
)
from repro.core.index import BiGIndex
from repro.core.persistence import (
    SHARDED_FORMAT_VERSION,
    SHARDED_KIND,
    load_index,
    save_index,
    staged_directory,
    write_json,
    write_manifest,
)
from repro.graph.digraph import Graph
from repro.graph.partition import partition_bfs_grow
from repro.graph.traversal import bfs_distances
from repro.obs.runtime import OBS
from repro.ontology.ontology import OntologyGraph
from repro.search.base import (
    Answer,
    KeywordQuery,
    KeywordSearchAlgorithm,
    RootedTreeAlgorithm,
    top_k,
)
from repro.utils.budget import Budget
from repro.utils.errors import (
    BudgetExceeded,
    ConfigurationError,
    GraphError,
    IndexCorruptedError,
    QueryError,
)
from repro.utils.timers import monotonic_now

#: Name of the zone locale (shards are ``shard-0`` .. ``shard-K-1``).
ZONE_NAME = "zone"

#: Top-level metadata files of a sharded index directory.
SHARDED_META_NAME = "meta.json"
SHARDED_LAYOUT_NAME = "shards.json"


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardPlan:
    """How a graph's vertices split into shards plus the portal zone.

    Everything is deterministic and id-sorted so two plans over equal
    graphs are equal structure-for-structure (the sharded manifest and
    the serial/parallel build equivalence both rely on it).
    """

    num_shards: int
    halo_radius: int
    #: shard id for every vertex (dense, indexed by vertex id).
    shard_of: List[int]
    #: sorted global vertex ids per shard.
    shard_vertices: List[List[int]]
    #: edges crossing shards, sorted by ``(src, dst)``.
    cut_edges: List[Tuple[int, int]]
    #: sorted endpoints of cut edges.
    portals: List[int]
    #: sorted vertices within ``halo_radius`` (undirected) of a portal.
    zone_vertices: List[int]


def _ball_around(
    graph: Graph, sources: Iterable[int], radius: int
) -> Set[int]:
    """Vertices within undirected distance ``radius`` of ``sources``."""
    return set(bfs_distances(graph, sources, max_depth=radius, direction="both"))


def plan_shards(
    graph: Graph, num_shards: int, halo_radius: int = 6
) -> ShardPlan:
    """Split ``graph`` into ``num_shards`` shards plus the portal zone.

    Blocks come from the deterministic BFS-grow partitioner with target
    block size ``ceil(n / num_shards)`` and are packed greedily (largest
    block first, onto the currently smallest shard) so shard sizes stay
    balanced even when the graph has many small components.  Shards
    that would end up empty are dropped, so the plan's ``num_shards``
    may be smaller than requested on tiny graphs.

    ``halo_radius`` governs query exactness: a
    :class:`ShardedEvaluator` for an algorithm with answer radius
    ``d_max`` requires ``halo_radius >= 2 * d_max``.
    """
    if num_shards < 1:
        raise GraphError("num_shards must be >= 1")
    if halo_radius < 0:
        raise GraphError("halo_radius must be >= 0")
    n = graph.num_vertices
    if n == 0:
        raise GraphError("cannot shard an empty graph")
    target = max(1, math.ceil(n / num_shards))
    partition = partition_bfs_grow(graph, target)

    # Largest-first greedy packing onto the lightest shard; ties break
    # on the lowest shard id, block order breaks on the lowest block id.
    order = sorted(
        range(partition.num_blocks),
        key=lambda b: (-len(partition.blocks[b]), b),
    )
    loads = [0] * num_shards
    shard_of_block = [0] * partition.num_blocks
    for block in order:
        shard = min(range(num_shards), key=lambda s: (loads[s], s))
        shard_of_block[block] = shard
        loads[shard] += len(partition.blocks[block])

    shard_of = [shard_of_block[partition.block_of[v]] for v in range(n)]
    # Drop empty shards, renumbering densely in ascending old-id order.
    used = sorted({shard_of[v] for v in range(n)})
    renumber = {old: new for new, old in enumerate(used)}
    shard_of = [renumber[s] for s in shard_of]
    actual = len(used)

    shard_vertices: List[List[int]] = [[] for _ in range(actual)]
    for v in range(n):
        shard_vertices[shard_of[v]].append(v)

    cut = sorted(
        (u, v) for (u, v) in graph.edges() if shard_of[u] != shard_of[v]
    )
    portals = sorted({v for edge in cut for v in edge})
    zone = sorted(_ball_around(graph, portals, halo_radius))
    return ShardPlan(
        num_shards=actual,
        halo_radius=halo_radius,
        shard_of=shard_of,
        shard_vertices=shard_vertices,
        cut_edges=cut,
        portals=portals,
        zone_vertices=zone,
    )


# ----------------------------------------------------------------------
# Locales
# ----------------------------------------------------------------------
@dataclass
class Locale:
    """One independently built hierarchy over a subset of the graph."""

    name: str
    index: BiGIndex
    #: global vertex id for every local id (sorted ascending).
    global_ids: List[int]
    #: inverse of ``global_ids``.
    local_of: Dict[int, int] = field(default_factory=dict)
    build_seconds: float = 0.0

    def __post_init__(self) -> None:
        if not self.local_of:
            self.local_of = {g: l for l, g in enumerate(self.global_ids)}

    def cow_clone(self) -> "Locale":
        """Same vertex maps (immutable), copy-on-write clone of the index."""
        return replace(self, index=self.index.cow_clone())


#: Picklable locale snapshot: (labels, CSR offsets, CSR targets, names).
LocalePayload = Tuple[List[str], array, array, Dict[int, str]]


def _locale_payload(graph: Graph, members: Sequence[int]) -> LocalePayload:
    """Snapshot the subgraph induced on ``members`` for a worker.

    ``members`` must be sorted; local ids are their ranks, matching
    :class:`Locale.global_ids`.
    """
    local_of = {g: l for l, g in enumerate(members)}
    labels = [graph.label(g) for g in members]
    names = {
        local_of[g]: graph.names[g] for g in members if g in graph.names
    }
    offsets = array("i")
    targets = array("i")
    offsets.append(0)
    for g in members:
        row = sorted(
            local_of[w] for w in graph.out_neighbors(g) if w in local_of
        )
        targets.extend(row)
        offsets.append(len(targets))
    return (labels, offsets, targets, names)


def _payload_to_graph(payload: LocalePayload) -> Graph:
    labels, offsets, targets, names = payload
    graph = Graph()
    for local, label in enumerate(labels):
        graph.add_vertex(label, name=names.get(local))
    for v in range(len(labels)):
        for i in range(offsets[v], offsets[v + 1]):
            graph.add_edge(v, targets[i])
    return graph


def _build_locale_index(
    payload: LocalePayload,
    ontology: OntologyGraph,
    build_kwargs: Dict[str, object],
) -> BiGIndex:
    """The one code path every build mode funnels through.

    Serial and process builds both reconstruct the locale from
    the same payload and run the same ``BiGIndex.build``, so the result
    is bit-identical no matter how many workers built it.
    """
    graph = _payload_to_graph(payload)
    return BiGIndex.build(graph, ontology, **build_kwargs)


def _build_locale_task(task: Tuple) -> Tuple[str, float]:
    """Process-pool task: build one locale and persist it to its dir;
    returns its name and build seconds."""
    name, payload, ontology, build_kwargs, out_dir = task
    start = monotonic_now()
    save_index(_build_locale_index(payload, ontology, build_kwargs), out_dir)
    return (name, monotonic_now() - start)


def _run_build_tasks(
    tasks: List[Tuple], workers: Optional[int]
) -> List[Tuple[str, float]]:
    """Run locale builds on a process pool (each build is a fresh
    interpreter with no shared state), or inline where none can be made.

    Only pool *construction* falls back: a task that raises (disk full
    in ``save_index``, a build bug) propagates instead of being re-run.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, min(workers, len(tasks)))
    if workers > 1:
        try:
            # Resolved lazily: the import fails without multiprocessing.
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=workers)
        except (ImportError, NotImplementedError, OSError):
            pass
        else:
            with pool:
                return list(pool.map(_build_locale_task, tasks))
    return [_build_locale_task(task) for task in tasks]


# ----------------------------------------------------------------------
# The sharded index
# ----------------------------------------------------------------------
class ShardedIndex:
    """K shard hierarchies + the portal-zone hierarchy behind one facade.

    Presents the maintenance surface the serve stack expects from a
    :class:`~repro.core.index.BiGIndex` — ``base_graph`` (the live union
    graph), ``insert_edge`` / ``delete_edge`` / ``remove_ontology_edge``,
    ``epoch``, ``cow_clone``, ``state_digest``, ``num_layers`` /
    ``layer_sizes``, ``iter_layer_graphs``, ``make_evaluator`` — so
    :class:`~repro.serve.lifecycle.EngineRuntime`, the WAL replayer,
    ``/admin/mutate`` and the CLI work unchanged.  Mutations route to
    the owning locale(s):

    * an intra-shard edge updates its shard, plus the zone when both
      endpoints are zone members;
    * a cross-shard edge lives only in the cut table and the zone;
    * inserts that can move the portal ball re-derive zone membership
      and rebuild the zone hierarchy when it grew (deletes only ever
      shrink the required ball, so the zone is kept as a superset —
      correct, merely non-minimal, exactly like post-maintenance drift
      in the monolithic index).

    The index holds only what it cannot derive: the locales (``shard-0``
    .. ``shard-K-1`` plus the optional zone), the live cut table and the
    halo radius.  The shard of a vertex comes from the shards'
    ``global_ids``, zone membership is the zone's own ``local_of`` and
    the portals are the cut table's endpoints.
    """

    def __init__(
        self,
        locales: Dict[str, Locale],
        cut_edges: Iterable[Tuple[int, int]],
        halo_radius: int,
        ontology: OntologyGraph,
        base_graph: Graph,
        build_kwargs: Optional[Dict[str, object]] = None,
    ) -> None:
        self.shards = _shard_locales(locales)
        self.zone = locales.get(ZONE_NAME)
        self.halo_radius = halo_radius
        self.ontology = ontology
        self.base_graph = base_graph
        self.build_kwargs = dict(build_kwargs or {})
        self._cut_edges: Set[Tuple[int, int]] = set(cut_edges)
        # Vertex -> shard, derived once: the vertex set never changes.
        self._shard_of = [0] * sum(len(s.global_ids) for s in self.shards)
        for s, shard in enumerate(self.shards):
            for v in shard.global_ids:
                self._shard_of[v] = s
        self._maintenance_epoch = 0

    # -- introspection -------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def locales(self) -> List[Locale]:
        return self.shards + ([self.zone] if self.zone is not None else [])

    @property
    def epoch(self) -> Tuple[int, int]:
        return (self._maintenance_epoch, self.base_graph.mutation_epoch)

    @property
    def num_layers(self) -> int:
        return max((loc.index.num_layers for loc in self.locales), default=0)

    def layer_sizes(self) -> List[int]:
        """Per-layer vertex totals summed across locales."""
        sizes = [0] * (self.num_layers + 1)
        for locale in self.locales:
            for m, size in enumerate(locale.index.layer_sizes()):
                sizes[m] += size
        return sizes

    def iter_layer_graphs(self) -> Iterator[Graph]:
        """Every layer graph of every locale (storage-kind probing)."""
        for locale in self.locales:
            yield from locale.index.iter_layer_graphs()

    def cut_edge_count(self) -> int:
        return len(self._cut_edges)

    def layout_summary(self) -> str:
        """The ``stats`` line describing how the graph was split."""
        return (
            f"shards: {self.num_shards} (+zone), "
            f"{self.cut_edge_count()} cut edge(s), halo {self.halo_radius}"
        )

    def make_evaluator(
        self, algorithm: KeywordSearchAlgorithm, **options
    ) -> "ShardedEvaluator":
        """The scatter-gather evaluator :func:`~repro.core.plugins.boost` wraps."""
        return ShardedEvaluator(self, algorithm, **options)

    def total_index_size(self) -> int:
        """Sum of every locale's index size plus the cut table."""
        return sum(
            locale.index.total_index_size() for locale in self.locales
        ) + len(self._cut_edges)

    def state_digest(self) -> str:
        """sha256 over locale digests + the cut table + the assignment."""
        hasher = hashlib.sha256()
        for locale in self.locales:
            hasher.update(locale.name.encode("utf-8"))
            hasher.update(locale.index.state_digest().encode("ascii"))
            hasher.update(b"\x1e")
        hasher.update(
            ",".join(f"{u}-{v}" for u, v in sorted(self._cut_edges)).encode(
                "ascii"
            )
        )
        hasher.update(b"\x1e")
        hasher.update(",".join(map(str, self._shard_of)).encode("ascii"))
        return hasher.hexdigest()

    def cow_clone(self) -> "ShardedIndex":
        """Copy-on-write clone (snapshot isolation for the serve runtime):
        a shallow copy whose mutable parts — locale indexes, union graph,
        cut table — are cloned; the vertex maps never change and are
        shared."""
        clone = copy.copy(self)
        clone.shards = [shard.cow_clone() for shard in self.shards]
        clone.zone = self.zone.cow_clone() if self.zone is not None else None
        clone.base_graph = self.base_graph.cow_clone()
        clone._cut_edges = set(self._cut_edges)
        return clone

    # -- maintenance ---------------------------------------------------
    def insert_edge(self, u: int, v: int) -> None:
        """Insert a data-graph edge, routing it to the owning locale(s)."""
        self._check_vertex(u)
        self._check_vertex(v)
        if not self.base_graph.add_edge(u, v):
            return
        if self._shard_of[u] == self._shard_of[v]:
            shard = self.shards[self._shard_of[u]]
            shard.index.insert_edge(shard.local_of[u], shard.local_of[v])
            zone = self.zone
            if zone is not None and (u in zone.local_of or v in zone.local_of):
                # The new edge may pull vertices into the portal ball.
                self._refresh_zone(incremental_edge=(u, v))
        else:
            # Cross-shard: the shards stay edge-disjoint; the edge lives
            # in the cut table and the zone, and both endpoints become
            # portals (growing the ball around them).
            self._cut_edges.add((u, v))
            self._refresh_zone(incremental_edge=(u, v))
        self._maintenance_epoch += 1

    def delete_edge(self, u: int, v: int) -> None:
        """Delete a data-graph edge from every locale that holds it."""
        self._check_vertex(u)
        self._check_vertex(v)
        if not self.base_graph.has_edge(u, v):
            raise GraphError(f"edge ({u}, {v}) does not exist")
        self.base_graph.remove_edge(u, v)
        if (u, v) in self._cut_edges:
            self._cut_edges.discard((u, v))
        else:
            shard = self.shards[self._shard_of[u]]
            shard.index.delete_edge(shard.local_of[u], shard.local_of[v])
        # Deleting only lengthens portal distances: the required ball
        # shrinks, so current membership stays a valid superset and the
        # zone just drops the edge when it held it.
        zone = self.zone
        if (
            zone is not None
            and u in zone.local_of
            and v in zone.local_of
            and zone.index.base_graph.has_edge(
                zone.local_of[u], zone.local_of[v]
            )
        ):
            zone.index.delete_edge(zone.local_of[u], zone.local_of[v])
        self._maintenance_epoch += 1

    def remove_ontology_edge(self, subtype: str, supertype: str) -> None:
        """Drop an ontology mapping in every locale that uses it."""
        for locale in self.locales:
            locale.index.remove_ontology_edge(subtype, supertype)
        self._maintenance_epoch += 1

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self._shard_of):
            raise GraphError(f"vertex {v} not in the sharded index")

    def _refresh_zone(
        self, incremental_edge: Optional[Tuple[int, int]] = None
    ) -> None:
        """Re-derive zone membership; rebuild the zone when it grew.

        When membership is unchanged the mutation is applied to the zone
        hierarchy incrementally (both endpoints inside the zone); when
        the portal ball grew — or a first cut edge appeared — the zone
        is rebuilt from scratch over the new member set, the sharded
        analogue of the paper's occasional-recompute maintenance rule.
        """
        portals = {v for edge in self._cut_edges for v in edge}
        required = _ball_around(self.base_graph, portals, self.halo_radius)
        zone = self.zone
        if zone is not None and required <= zone.local_of.keys():
            if incremental_edge is not None:
                u, v = incremental_edge
                if u in zone.local_of and v in zone.local_of:
                    zone.index.insert_edge(zone.local_of[u], zone.local_of[v])
            return
        if zone is not None:
            required.update(zone.local_of)
        members = sorted(required)
        payload = _locale_payload(self.base_graph, members)
        start = monotonic_now()
        index = _build_locale_index(payload, self.ontology, self.build_kwargs)
        self.zone = Locale(
            name=ZONE_NAME,
            index=index,
            global_ids=members,
            build_seconds=monotonic_now() - start,
        )


def _shard_locales(locales: Dict[str, Locale]) -> List[Locale]:
    """The shard locales ``shard-0`` .. ``shard-K-1`` in shard order."""
    count = len(locales) - (ZONE_NAME in locales)
    return [locales[f"shard-{s}"] for s in range(count)]


# ----------------------------------------------------------------------
# Building
# ----------------------------------------------------------------------
def build_sharded(
    graph: Graph,
    ontology: OntologyGraph,
    num_shards: int,
    halo_radius: int = 6,
    *,
    plan: Optional[ShardPlan] = None,
    workers: Optional[int] = 1,
    directory: Optional[str] = None,
    num_layers: Optional[int] = None,
    theta: float = 1.0,
    max_mappings: Optional[int] = None,
    cost_params: Optional[CostParams] = None,
) -> ShardedIndex:
    """Plan, build and (optionally) persist a sharded BiG-index.

    ``workers`` is *whole-shard* parallelism: each locale's hierarchy is
    built by one process-pool task (inline where no pool can be created
    — always through the same task function, so the result is identical
    at any worker count; ``None`` is one process per CPU, at most one
    per locale).  With ``directory`` set, locales are
    persisted as ordinary v4 index directories under the sharded layout
    — staged and swapped into place like any saved index — and the
    returned index is the loaded (mmap-backed) one; without it
    everything stays on the heap and is built inline (``workers``
    applies to the persisted path, whose tasks hand over on disk).
    """
    if plan is None:
        plan = plan_shards(graph, num_shards, halo_radius)
    build_kwargs: Dict[str, object] = {
        "num_layers": num_layers,
        "theta": theta,
        "max_mappings": max_mappings,
        "cost_params": cost_params,
    }
    member_sets: List[Tuple[str, List[int]]] = [
        (f"shard-{s}", plan.shard_vertices[s])
        for s in range(plan.num_shards)
    ]
    if plan.zone_vertices:
        member_sets.append((ZONE_NAME, plan.zone_vertices))
    payloads = {
        name: _locale_payload(graph, members)
        for name, members in member_sets
    }

    if directory is None:
        locales: Dict[str, Locale] = {}
        for name, members in member_sets:
            start = monotonic_now()
            index = _build_locale_index(
                payloads[name], ontology, build_kwargs
            )
            locales[name] = Locale(
                name=name,
                index=index,
                global_ids=list(members),
                build_seconds=monotonic_now() - start,
            )
        return ShardedIndex(
            locales, plan.cut_edges, plan.halo_radius, ontology, graph,
            build_kwargs,
        )

    with staged_directory(directory) as staging:
        tasks = [
            (
                name,
                payloads[name],
                ontology,
                build_kwargs,
                os.path.join(staging, name),
            )
            for name, _members in member_sets
        ]
        timings = dict(_run_build_tasks(tasks, workers))
        _write_sharded_layout(
            staging, plan, member_sets, graph, timings, build_kwargs
        )
        write_manifest(staging)
    return load_locales(directory, ontology, base_graph=graph)


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
def _write_sharded_layout(
    directory: str,
    plan: ShardPlan,
    member_sets: List[Tuple[str, List[int]]],
    graph: Graph,
    timings: Dict[str, float],
    build_kwargs: Dict[str, object],
) -> None:
    meta = {
        "kind": SHARDED_KIND,
        "sharded_version": SHARDED_FORMAT_VERSION,
        "num_shards": plan.num_shards,
    }
    write_json(
        os.path.join(directory, SHARDED_META_NAME),
        meta,
        indent=1,
        sort_keys=True,
    )

    cost = build_kwargs["cost_params"]
    layout = {
        "halo_radius": plan.halo_radius,
        "locales": [
            {
                "name": name,
                "global_ids": list(members),
                "build_seconds": round(timings.get(name, 0.0), 6),
            }
            for name, members in member_sets
        ],
        "cut_edges": [list(edge) for edge in plan.cut_edges],
        "names": {
            str(v): graph.names[v] for v in sorted(graph.names)
        },
        # Every build parameter, so a zone that grows after a reload is
        # rebuilt exactly as the in-memory index would rebuild it.
        "build_kwargs": {
            **build_kwargs,
            "cost_params": asdict(cost) if cost is not None else None,
        },
    }
    write_json(
        os.path.join(directory, SHARDED_LAYOUT_NAME), layout, sort_keys=True
    )


def _reconstruct_union(
    shards: List[Locale],
    cut_edges: List[Tuple[int, int]],
    names: Dict[int, str],
) -> Graph:
    """Rebuild the live union graph from shard subgraphs + cut table."""
    labels: List[Optional[str]] = [None] * sum(
        len(shard.global_ids) for shard in shards
    )
    for shard in shards:
        for local, g in enumerate(shard.global_ids):
            labels[g] = shard.index.base_graph.label(local)
    if any(label is None for label in labels):
        raise IndexCorruptedError(
            "sharded layout does not cover every vertex"
        )
    graph = Graph()
    for v, label in enumerate(labels):
        graph.add_vertex(label, name=names.get(v))
    for shard in shards:
        ids = shard.global_ids
        for lu, lv in shard.index.base_graph.edges():
            graph.add_edge(ids[lu], ids[lv])
    for u, v in cut_edges:
        graph.add_edge(u, v)
    return graph


def load_locales(
    directory: str,
    ontology: OntologyGraph,
    base_graph: Optional[Graph] = None,
) -> ShardedIndex:
    """Assemble the :class:`ShardedIndex` of a verified sharded root.

    The sharded half of :func:`repro.core.persistence.load_index`, which
    has already checked the layout version and the root manifest (which
    pins every locale manifest) and replays the shared WAL tail through
    the facade afterwards.  Every locale is an ordinary index directory
    loaded through ``load_index`` itself (manifest-verified,
    mmap-backed).  ``base_graph`` spares :func:`build_sharded` the
    union-graph reconstruction.
    """
    with open(
        os.path.join(directory, SHARDED_LAYOUT_NAME), "r", encoding="utf-8"
    ) as handle:
        layout = json.load(handle)

    locales = {
        entry["name"]: Locale(
            name=entry["name"],
            index=load_index(os.path.join(directory, entry["name"]), ontology),
            global_ids=list(entry["global_ids"]),
            build_seconds=float(entry.get("build_seconds", 0.0)),
        )
        for entry in layout["locales"]
    }
    cut_edges = [tuple(edge) for edge in layout["cut_edges"]]
    if base_graph is None:
        names = {int(v): n for v, n in layout["names"].items()}
        base_graph = _reconstruct_union(
            _shard_locales(locales), cut_edges, names
        )
    build_kwargs = dict(layout["build_kwargs"])
    cost = build_kwargs["cost_params"]
    build_kwargs["cost_params"] = CostParams(**cost) if cost else None
    return ShardedIndex(
        locales, cut_edges, layout["halo_radius"], ontology, base_graph,
        build_kwargs,
    )


# ----------------------------------------------------------------------
# Scatter-gather evaluation
# ----------------------------------------------------------------------
class ShardedEvaluator:
    """Fan a query out to per-locale evaluators and merge the top-k.

    Mirrors :class:`~repro.core.evaluator.HierarchicalEvaluator`'s
    ``evaluate`` / ``evaluate_resilient`` / ``evaluate_many`` surface so
    the serve stack and CLI treat it as a drop-in evaluator.

    Scatter: locales that lack one of the query's keywords cannot host
    an answer containing all of them (answers are locale-connected) and
    are pruned.  The rest run *sequentially* on the calling thread (a
    thread pool lost to this under the GIL — docs/PERFORMANCE.md,
    "Multicore"); budgeted queries hand each locale a
    :meth:`Budget.sub` child, which keeps the remainder flowing to
    later locales, mirroring ``evaluate_resilient``'s attempt plan.

    Gather: a locale reports *roots*.  Each distinct root any locale
    found (in global ids) is materialized once with
    ``best_answer_for_root`` on the union graph and the union re-ranks
    through :func:`~repro.search.base.top_k`.  Degraded locales merge
    into one :class:`DegradedResult` whose ``lower_bound`` is the
    minimum over the degraded locales' bounds — the prefix-soundness
    cut-off: anything a degraded locale failed to emit scores at or
    above its bound, so the merged ranking is provably complete below
    the minimum.
    """

    def __init__(
        self,
        sharded: ShardedIndex,
        algorithm: KeywordSearchAlgorithm,
        *,
        beta: float = 0.5,
        allow_layer_zero: bool = True,
        cache_size: int = 128,
    ) -> None:
        if not isinstance(algorithm, RootedTreeAlgorithm):
            raise ConfigurationError(
                f"sharded evaluation requires a rooted algorithm "
                f"(per-root gather); {algorithm.name!r} is not a "
                f"RootedTreeAlgorithm"
            )
        d_max = algorithm.d_max
        if sharded.halo_radius < 2 * d_max:
            raise ConfigurationError(
                f"halo radius {sharded.halo_radius} is too small for "
                f"d_max={d_max}: portal-spanning answers need "
                f"halo_radius >= 2*d_max = {2 * d_max}"
            )
        self.sharded = sharded
        self.algorithm = algorithm
        self._evaluators: List[Tuple[Locale, HierarchicalEvaluator]] = [
            (
                locale,
                HierarchicalEvaluator(
                    locale.index,
                    algorithm,
                    beta=beta,
                    allow_layer_zero=allow_layer_zero,
                    cache_size=cache_size,
                ),
            )
            for locale in sharded.locales
        ]

    # -- scatter helpers ----------------------------------------------
    def _check_query(self, query: KeywordQuery) -> None:
        graph = self.sharded.base_graph
        for keyword in query.keywords:
            if graph.label_support(keyword) == 0:
                raise QueryError(
                    f"keyword {keyword!r} does not occur in the graph"
                )

    def _active(
        self, query: KeywordQuery
    ) -> List[Tuple[Locale, HierarchicalEvaluator]]:
        """Locales holding every keyword (the others cannot answer)."""
        active = []
        for locale, evaluator in self._evaluators:
            graph = locale.index.base_graph
            if all(graph.label_support(kw) > 0 for kw in query.keywords):
                active.append((locale, evaluator))
        return active

    def _evaluate_locale(self, locale: Locale, run, query, layer, **kwargs):
        """One locale's evaluation — ``run`` is its evaluator's
        ``evaluate`` or ``evaluate_resilient`` — with forced-layer
        fallback + timing."""
        start = monotonic_now()
        # A forced layer is a per-locale *hint*: locales are built
        # independently, so layer ``m``'s configurations differ between
        # them and a layer that collides (or does not exist) in one
        # locale falls back to that locale's own cost-optimal choice.
        hint = None if layer is None else min(layer, locale.index.num_layers)
        try:
            try:
                return run(query, layer=hint, **kwargs)
            except QueryError:
                if hint is None:
                    raise
                return run(query, layer=None, **kwargs)
        finally:
            if OBS.enabled:
                OBS.metrics.observe(
                    f"shard.scatter.{locale.name}.seconds",
                    monotonic_now() - start,
                )

    def _scatter_gather(
        self,
        query: KeywordQuery,
        layer: Optional[int],
        k: Optional[int],
        budget: Optional[Budget],
        resilient: bool,
    ):
        """Fan ``query`` out and merge: the one pipeline behind
        :meth:`evaluate` and :meth:`evaluate_resilient`.

        Returns ``(merged, locales, outcomes)``: the canonical merged
        top-k, the locales that were queried and their outcomes, in
        step (an outcome can be degraded only when ``resilient``).

        Locales contribute roots only.  A locale answer's score can be
        worse than its root's global optimum (a shard cannot see the
        cut edges), and even at equal scores shortest-path trees (and
        equal-distance keyword nodes) can tie, with the locale's
        adjacency order breaking those ties differently than the full
        graph's.  The monolithic root-verify pipeline emits
        ``best_answer_for_root`` over the base graph, so materializing
        each gathered root once through the same function on the union
        graph makes the sharded output byte-identical, signatures and
        trees included.

        Scatter is sequential.  A budgeted resilient run hands locale
        ``i`` of ``n`` still pending ``budget.sub(1/(n-i))`` — an even
        split of the *remaining* ledger — and the final locale inherits
        the whole remainder, so an early locale finishing under budget
        donates its slack to later ones; a strict run charges every
        locale to the one ledger and lets :class:`BudgetExceeded`
        propagate.
        """
        self._check_query(query)
        if k is None:
            k = self.algorithm.k
        active = self._active(query)

        outcomes = []
        for i, (locale, evaluator) in enumerate(active):
            pending = len(active) - i
            split = budget is not None and resilient and pending > 1
            outcomes.append(
                self._evaluate_locale(
                    locale,
                    evaluator.evaluate_resilient if resilient else evaluator.evaluate,
                    query,
                    layer,
                    k=k,
                    budget=budget.sub(1.0 / pending) if split else budget,
                )
            )

        locales = [locale for locale, _evaluator in active]
        roots: Set[int] = set()
        for locale, outcome in zip(locales, outcomes):
            answers = outcome.answers
            if outcome.degraded:
                answers = answers + outcome.unranked
            roots.update(locale.global_ids[a.root] for a in answers)
        graph = self.sharded.base_graph
        merged = top_k(
            [
                self.algorithm.best_answer_for_root(graph, root, query)
                for root in roots
            ],
            k,
        )
        return merged, locales, outcomes

    @staticmethod
    def _complete(merged: List[Answer], outcomes: List[EvalResult]):
        """The merged result of a scatter in which no locale degraded."""
        return EvalResult(
            answers=merged,
            layer=max((o.layer for o in outcomes), default=0),
            breakdown=TimeBreakdown(),
            num_generalized=sum(o.num_generalized for o in outcomes),
            num_candidates=sum(o.num_candidates for o in outcomes),
            num_verified=sum(o.num_verified for o in outcomes),
        )

    # -- the evaluator surface ----------------------------------------
    def evaluate(
        self,
        query: KeywordQuery,
        layer: Optional[int] = None,
        k: Optional[int] = None,
        budget: Optional[Budget] = None,
    ) -> EvalResult:
        """Exact scatter-gather ``eval_Ont`` across all locales.

        Raises :class:`BudgetExceeded` on exhaustion like the monolithic
        evaluator; because unscanned locales may hold arbitrarily good
        answers, the exception carries *no* proven prefix (use
        :meth:`evaluate_resilient` for sound partial results).
        """
        try:
            merged, _locales, outcomes = self._scatter_gather(
                query, layer, k, budget, resilient=False
            )
        except BudgetExceeded as exc:
            # A partial scatter proves nothing globally.
            exc.partial = []
            exc.lower_bound = None
            raise
        return self._complete(merged, outcomes)

    def evaluate_resilient(
        self,
        query: KeywordQuery,
        budget: Optional[Budget] = None,
        layer: Optional[int] = None,
        k: Optional[int] = None,
    ):
        """Scatter-gather that degrades instead of raising on exhaustion
        (see :meth:`_scatter_gather` for the sub-budget split)."""
        merged, locales, outcomes = self._scatter_gather(
            query, layer, k, budget, resilient=True
        )
        degraded = [
            (locale, outcome)
            for locale, outcome in zip(locales, outcomes)
            if outcome.degraded
        ]
        if not degraded:
            return self._complete(merged, outcomes)

        lower_bound = min(o.lower_bound for _l, o in degraded)
        proven = [a for a in merged if a.score < lower_bound]
        unranked = [a for a in merged if a.score >= lower_bound]
        attempts = [
            replace(attempt, reason=f"{locale.name}: {attempt.reason}")
            for locale, outcome in degraded
            for attempt in outcome.attempts
        ]
        stats = None
        if budget is not None:
            stats = DegradationStats(
                expansions_consumed=budget.expansions,
                expansions_remaining=budget.remaining_expansions(),
                time_remaining_seconds=budget.remaining_time(),
                layers_attempted=sorted({a.layer for a in attempts}),
            )
        first = degraded[0][1]
        return DegradedResult(
            answers=proven,
            layer=max(o.layer for o in outcomes),
            reason=(
                f"{len(degraded)}/{len(locales)} locale(s) degraded "
                f"({degraded[0][0].name}: {first.reason})"
            ),
            lower_bound=lower_bound,
            unranked=unranked,
            attempts=attempts,
            breakdown=TimeBreakdown(),
            stats=stats,
        )

    def _warm(self, layer: Optional[int]) -> None:
        """Warm every locale's evaluator (``evaluate_many``'s prologue)."""
        for locale, evaluator in self._evaluators:
            evaluator._warm(
                None if layer is None else min(layer, locale.index.num_layers)
            )

    #: Batched serving is the monolithic implementation verbatim: it only
    #: touches ``_warm`` / ``evaluate`` / ``evaluate_resilient``.
    evaluate_many = HierarchicalEvaluator.evaluate_many
