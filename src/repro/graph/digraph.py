"""Core directed labeled graph.

The paper (Sec. 2) models a knowledge graph as a directed graph
:math:`G = (V, E, L, \\Sigma)` where every vertex carries exactly one label
drawn from :math:`\\Sigma`.  Labels model entity values, attribute values,
types and keywords interchangeably.

Design notes
------------
* Vertices are dense integers ``0..n-1`` so adjacency is a list of lists and
  per-layer vertex maps in the BiG-index hierarchy are plain arrays.
* Labels are interned through :class:`LabelTable`; a vertex stores a label
  *id*.  Graph generalization (Sec. 3.1) then reduces to an ``O(|V|)``
  label-id rewrite, and keyword matching is an inverted-index lookup.
* Reverse adjacency is maintained eagerly because every keyword search
  algorithm in the paper expands *backward* (Sec. 5).
* ``|G| = |V| + |E|`` as in the paper (used by the compression ratio).
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain
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

from repro.core.querycache import LRUCache
from repro.obs.runtime import OBS
from repro.utils.errors import GraphError


class LabelTable:
    """Bidirectional interning table between label strings and dense ids.

    A single :class:`LabelTable` can be shared between a data graph and the
    summary graphs derived from it so label ids stay comparable across the
    BiG-index hierarchy.
    """

    def __init__(self, labels: Optional[Iterable[str]] = None) -> None:
        self._to_id: Dict[str, int] = {}
        self._to_label: List[str] = []
        if labels is not None:
            for label in labels:
                self.intern(label)

    def intern(self, label: str) -> int:
        """Return the id for ``label``, assigning a fresh one if unseen."""
        existing = self._to_id.get(label)
        if existing is not None:
            return existing
        new_id = len(self._to_label)
        self._to_id[label] = new_id
        self._to_label.append(label)
        return new_id

    def get_id(self, label: str) -> Optional[int]:
        """Return the id of ``label`` or ``None`` if it was never interned."""
        return self._to_id.get(label)

    def label_of(self, label_id: int) -> str:
        """Return the string for a label id."""
        try:
            return self._to_label[label_id]
        except IndexError:
            raise GraphError(f"unknown label id: {label_id}") from None

    def __contains__(self, label: str) -> bool:
        return label in self._to_id

    def __len__(self) -> int:
        return len(self._to_label)

    def __iter__(self) -> Iterator[str]:
        return iter(self._to_label)


class FrozenAdjacency:
    """The retained zero-copy payload of an mmap-loaded graph.

    Holds the CSR buffers and packed postings (``memoryview`` slices
    into the container mmap, or arrays on the big-endian fallback) plus
    a reference to the owning reader so the mapping outlives every view.
    A frozen :class:`Graph` keeps one of these instead of ``_out`` /
    ``_in`` / ``_edge_set`` / ``_label_index``; the first mutation
    materializes heap structures and drops it (see
    :meth:`Graph._materialize`).

    Indexed by direction (``0`` out, ``1`` in) it is :meth:`Graph.rows`:
    one tuple per vertex in CSR order over one int per vertex id shared
    by both directions, built on first use (assigned only once finished,
    so racing builds are benign) — ``48 + 8 * degree`` bytes per
    non-empty row on 64-bit CPython.
    """

    __slots__ = (
        "num_vertices",
        "out_offsets",
        "out_targets",
        "in_offsets",
        "in_targets",
        "post_labels",
        "post_offsets",
        "post_ids",
        "owner",
        "_post_row",
        "_rows",
        "_ids",
        "frontiers",
        "profiles",
    )

    def __init__(
        self,
        out_offsets: Sequence[int],
        out_targets: Sequence[int],
        in_offsets: Sequence[int],
        in_targets: Sequence[int],
        post_labels: Sequence[int],
        post_offsets: Sequence[int],
        post_ids: Sequence[int],
        owner: object = None,
    ) -> None:
        self.num_vertices = len(out_offsets) - 1
        self.out_offsets = out_offsets
        self.out_targets = out_targets
        self.in_offsets = in_offsets
        self.in_targets = in_targets
        self.post_labels = post_labels
        self.post_offsets = post_offsets
        self.post_ids = post_ids
        self.owner = owner
        self._post_row: Optional[Dict[int, int]] = None
        self._rows: List[Optional[List[Tuple[int, ...]]]] = [None, None]
        self._ids: Optional[List[int]] = None
        self.frontiers = LRUCache(64, kind="frontier")  # frontier_memo()
        self.profiles = LRUCache(4096, kind="profile")  # profile_memo()

    def __getitem__(self, direction: int) -> List[Tuple[int, ...]]:
        rows = self._rows[direction]  # IndexError ends iteration
        if rows is None:
            ids = self._ids
            if ids is None:
                ids = self._ids = list(range(self.num_vertices))
            targets = (self.out_targets, self.in_targets)[direction]
            flat = tuple(map(ids.__getitem__, targets))
            bounds = (self.out_offsets, self.in_offsets)[direction].tolist()
            rows = [flat[a:b] for a, b in zip(bounds, bounds[1:])]
            self._rows[direction] = rows
        return rows

    def _row_of(self, label_id: int) -> Optional[int]:
        if self._post_row is None:
            self._post_row = {
                lid: row for row, lid in enumerate(self.post_labels)
            }
        return self._post_row.get(label_id)

    def posting(self, label_id: int) -> Sequence[int]:
        """Sorted vertex ids carrying ``label_id`` (zero-copy slice)."""
        row = self._row_of(label_id)
        if row is None:
            return ()
        return self.post_ids[
            self.post_offsets[row] : self.post_offsets[row + 1]
        ]

    def label_ids(self) -> Sequence[int]:
        """Label ids with at least one vertex."""
        return self.post_labels


def _pack_csr(adjacency: Sequence[Sequence[int]]) -> Tuple[array, array]:
    """Pack one direction's rows into the (offsets, targets) int arrays
    of the compressed-sparse-row storage format the v4 writer stores.

    ``targets[offsets[v]:offsets[v + 1]]`` is row ``v``.  Runs at C speed
    (no per-element Python loop); a save packs every heap graph it writes.
    """
    offsets = array("i", [0])
    offsets.fromlist(list(accumulate(map(len, adjacency))))
    targets = array("i")
    targets.fromlist(list(chain.from_iterable(adjacency)))
    return offsets, targets


class Graph:
    """A directed graph with one string label per vertex.

    Parameters
    ----------
    label_table:
        Optional shared :class:`LabelTable`.  When omitted a private table is
        created.

    Example
    -------
    >>> g = Graph()
    >>> a = g.add_vertex("Person")
    >>> b = g.add_vertex("Univ.")
    >>> g.add_edge(a, b)
    >>> g.out_neighbors(a)
    [1]
    >>> g.label(a)
    'Person'
    """

    def __init__(self, label_table: Optional[LabelTable] = None) -> None:
        self.labels: List[int] = []
        self._out: List[List[int]] = []
        self._in: List[List[int]] = []
        self._edge_set: Set[Tuple[int, int]] = set()
        self._label_index: Dict[int, Set[int]] = {}
        self._num_edges = 0
        self.label_table = label_table if label_table is not None else LabelTable()
        #: Optional human-readable vertex names (entity names in examples).
        self.names: Dict[int, str] = {}
        #: Monotone counter bumped by every effective mutation (vertex or
        #: edge insertion, edge removal, relabel).  Derived-data caches
        #: outside the graph (evaluator result caches, BiG-index memos)
        #: key their validity on it; see ``repro.core.querycache``.
        self.mutation_epoch: int = 0
        # Lazily built label postings, dropped on mutation.
        self._posting_cache: Dict[int, Tuple[int, ...]] = {}
        # Copy-on-write bookkeeping (see cow_clone()).  ``None`` means the
        # graph owns every row/set outright and mutators work in place;
        # on a clone these hold the ids whose row/set the clone has
        # privately copied, so shared structure is never written through.
        self._cow_out: Optional[Set[int]] = None
        self._cow_in: Optional[Set[int]] = None
        self._cow_labels: Optional[Set[int]] = None
        # Zero-copy payload of an mmap-loaded graph; ``None`` for heap
        # graphs.  While set (and _out is None) adjacency and postings
        # are served from its buffers (see from_frozen / _materialize).
        self._frozen: Optional[FrozenAdjacency] = None

    @classmethod
    def from_frozen(
        cls,
        label_table: LabelTable,
        labels: Sequence[int],
        frozen: FrozenAdjacency,
        names: Optional[Dict[int, str]] = None,
    ) -> "Graph":
        """A graph served directly from loaded zero-copy buffers.

        ``labels`` and the buffers inside ``frozen`` are typically
        ``memoryview`` slices over an index container mmap; nothing is
        parsed or copied here, so constructing the graph is O(1) in the
        graph size.  The result answers every read exactly like a
        heap-built twin; the first mutation detaches to heap structures
        exactly once (:meth:`_materialize`), so the WAL-replay and
        copy-on-write mutation paths work unchanged.
        """
        graph = cls.__new__(cls)
        graph.labels = labels  # type: ignore[assignment] - read-only view
        graph._out = None  # type: ignore[assignment]
        graph._in = None  # type: ignore[assignment]
        graph._edge_set = None  # type: ignore[assignment]
        graph._label_index = None  # type: ignore[assignment]
        graph._num_edges = len(frozen.out_targets)
        graph.label_table = label_table
        graph.names = dict(names) if names else {}
        graph.mutation_epoch = 0
        graph._posting_cache = {}
        graph._cow_out = None
        graph._cow_in = None
        graph._cow_labels = None
        graph._frozen = frozen
        return graph

    @property
    def is_mmap_backed(self) -> bool:
        """Whether reads are still served from loaded zero-copy buffers.

        Flips to ``False`` permanently after the first mutation
        (:meth:`_materialize` detaches to heap structures).
        """
        return self._out is None

    def _materialize(self) -> None:
        """Detach an mmap-backed graph to owned heap structures, once.

        Called by every mutator before it writes.  Rebuilds ``_out`` /
        ``_in`` in CSR order (which is insertion order — the v4 writer
        preserves it), the edge set, and the label index, then drops the
        frozen payload; subsequent mutations take the normal in-place
        path.  A no-op for heap graphs, so the hot mutation path pays
        one ``is not None`` check.
        """
        if self._out is not None:
            return
        n = self.num_vertices
        self._out, self._in = (list(map(list, rows)) for rows in self._frozen)
        self._edge_set = {
            (u, v) for u in range(n) for v in self._out[u]
        }
        self.labels = list(self.labels)
        label_index: Dict[int, Set[int]] = {}
        for v, label_id in enumerate(self.labels):
            label_index.setdefault(label_id, set()).add(v)
        self._label_index = label_index
        self._cow_out = None
        self._cow_in = None
        self._cow_labels = None
        self._frozen = None
        if OBS.enabled:
            OBS.metrics.inc("persist.mmap.detaches")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self, label: str, name: Optional[str] = None) -> int:
        """Add a vertex with ``label`` and return its id."""
        self._materialize()
        vid = len(self.labels)
        label_id = self.label_table.intern(label)
        self.labels.append(label_id)
        self._out.append([])
        self._in.append([])
        self._own_label_set(label_id).add(vid)
        self.mutation_epoch += 1
        self._posting_cache.pop(label_id, None)
        if name is not None:
            self.names[vid] = name
        return vid

    def add_vertex_with_label_id(self, label_id: int) -> int:
        """Add a vertex by pre-interned label id (fast path for builders)."""
        if not 0 <= label_id < len(self.label_table):
            raise GraphError(f"label id {label_id} not in label table")
        self._materialize()
        vid = len(self.labels)
        self.labels.append(label_id)
        self._out.append([])
        self._in.append([])
        self._own_label_set(label_id).add(vid)
        self.mutation_epoch += 1
        self._posting_cache.pop(label_id, None)
        return vid

    def add_edge(self, u: int, v: int) -> bool:
        """Add the directed edge ``(u, v)``.

        Returns ``True`` if the edge was new, ``False`` if it already
        existed (the graph is simple: parallel edges collapse).
        """
        self._check_vertex(u)
        self._check_vertex(v)
        self._materialize()
        if (u, v) in self._edge_set:
            return False
        self._edge_set.add((u, v))
        self._own_out_row(u).append(v)
        self._own_in_row(v).append(u)
        self._num_edges += 1
        self.mutation_epoch += 1
        return True

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the directed edge ``(u, v)``; raise if absent."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u}, {v}) not in graph")
        self._materialize()
        self._edge_set.remove((u, v))
        self._own_out_row(u).remove(v)
        self._own_in_row(v).remove(u)
        self._num_edges -= 1
        self.mutation_epoch += 1

    def _own_out_row(self, v: int) -> List[int]:
        """Out-adjacency row of ``v``, privately owned before mutation.

        On a :meth:`cow_clone` the outer ``_out`` list is private but the
        rows are shared with the parent; the first write to a row copies
        it.  A graph that owns everything (``_cow_out is None``) returns
        the row directly, so the non-COW mutation path is unchanged.
        """
        if self._cow_out is not None and v not in self._cow_out:
            self._out[v] = list(self._out[v])
            self._cow_out.add(v)
        return self._out[v]

    def _own_in_row(self, v: int) -> List[int]:
        """In-adjacency row of ``v``, privately owned before mutation."""
        if self._cow_in is not None and v not in self._cow_in:
            self._in[v] = list(self._in[v])
            self._cow_in.add(v)
        return self._in[v]

    def _own_label_set(self, label_id: int) -> Set[int]:
        """Posting set of ``label_id``, privately owned before mutation."""
        vertex_set = self._label_index.get(label_id)
        if vertex_set is None:
            vertex_set = set()
            self._label_index[label_id] = vertex_set
            if self._cow_labels is not None:
                self._cow_labels.add(label_id)
        elif self._cow_labels is not None and label_id not in self._cow_labels:
            vertex_set = set(vertex_set)
            self._label_index[label_id] = vertex_set
            self._cow_labels.add(label_id)
        return vertex_set

    def relabel_vertex(self, v: int, new_label: str) -> None:
        """Change the label of ``v``, keeping the inverted index consistent."""
        self._check_vertex(v)
        new_id = self.label_table.intern(new_label)
        self.relabel_vertex_by_id(v, new_id)

    def relabel_vertex_by_id(self, v: int, new_label_id: int) -> None:
        """Change the label of ``v`` to a pre-interned label id."""
        old_id = self.labels[v]
        if old_id == new_label_id:
            return
        self._materialize()
        old_set = self._own_label_set(old_id)
        old_set.discard(v)
        if not old_set:
            del self._label_index[old_id]
        self.labels[v] = new_label_id
        self._own_label_set(new_label_id).add(v)
        self.mutation_epoch += 1
        self._posting_cache.pop(old_id, None)
        self._posting_cache.pop(new_label_id, None)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        """Number of edges ``|E|``."""
        return self._num_edges

    @property
    def size(self) -> int:
        """Graph size ``|G| = |V| + |E|`` as defined in Sec. 2."""
        return self.num_vertices + self._num_edges

    def vertices(self) -> range:
        """Iterate over all vertex ids."""
        return range(self.num_vertices)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all edges as ``(u, v)`` pairs."""
        if self._out is None:
            frozen = self._frozen
            offsets, targets = frozen.out_offsets, frozen.out_targets
            for u in range(self.num_vertices):
                for k in range(offsets[u], offsets[u + 1]):
                    yield (u, targets[k])
            return
        for u in range(self.num_vertices):
            for v in self._out[u]:
                yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        """Return whether edge ``(u, v)`` exists (O(1) on heap graphs)."""
        if self._edge_set is None:
            if not (
                0 <= u < self.num_vertices and 0 <= v < self.num_vertices
            ):
                return False
            frozen = self._frozen
            return v in frozen.out_targets[
                frozen.out_offsets[u] : frozen.out_offsets[u + 1]
            ]
        return (u, v) in self._edge_set

    def out_neighbors(self, v: int) -> Sequence[int]:
        """Successors of ``v`` (owned by the graph; do not mutate)."""
        self._check_vertex(v)
        return self.rows()[0][v]

    def in_neighbors(self, v: int) -> Sequence[int]:
        """Predecessors of ``v`` (owned by the graph; do not mutate)."""
        self._check_vertex(v)
        return self.rows()[1][v]

    def rows(self) -> Sequence[Sequence[Sequence[int]]]:
        """``(successors, predecessors)``, each indexable by vertex id, in
        CSR (= insertion) order: the one traversal format.

        A heap graph returns its live adjacency lists (do not mutate;
        valid until its next mutation).  An mmap-backed graph returns its
        :class:`FrozenAdjacency`, shared by its copy-on-write clones,
        which builds a direction on first index.  Neither packs a CSR.
        """
        if self._out is None:
            return self._frozen
        return self._out, self._in

    def frontier_memo(self) -> Optional[LRUCache]:
        """An mmap-backed graph's keyword-frontier memo, shared by its
        unwritten clones; ``None`` on the heap (see ``BackwardFrontier``)."""
        frozen = self._frozen
        return None if frozen is None else frozen.frontiers

    def profile_memo(self) -> Optional[LRUCache]:
        """:meth:`frontier_memo`'s twin for root profiles (``nearest_labeled``)."""
        frozen = self._frozen
        return None if frozen is None else frozen.profiles

    def out_degree(self, v: int) -> int:
        """Number of out-edges of ``v``."""
        self._check_vertex(v)
        if self._out is None:
            offsets = self._frozen.out_offsets
            return offsets[v + 1] - offsets[v]
        return len(self._out[v])

    def in_degree(self, v: int) -> int:
        """Number of in-edges of ``v``."""
        self._check_vertex(v)
        if self._in is None:
            offsets = self._frozen.in_offsets
            return offsets[v + 1] - offsets[v]
        return len(self._in[v])

    def degree(self, v: int) -> int:
        """Total degree (in + out) of ``v``; used for joint-vertex detection."""
        return self.in_degree(v) + self.out_degree(v)

    def label(self, v: int) -> str:
        """String label of ``v``."""
        self._check_vertex(v)
        return self.label_table.label_of(self.labels[v])

    def label_id(self, v: int) -> int:
        """Interned label id of ``v``."""
        self._check_vertex(v)
        return self.labels[v]

    def name(self, v: int) -> str:
        """Human-readable name of ``v`` (falls back to its label)."""
        return self.names.get(v, self.label(v))

    def sorted_vertices_with_label_id(self, label_id: int) -> Tuple[int, ...]:
        """Sorted vertices carrying ``label_id``, cached (do not mutate).

        The searchers seed their per-keyword frontiers from this inverted
        index; unlike :meth:`vertices_with_label_id` it neither copies nor
        re-sorts on repeated lookups of the same label.
        """
        cached = self._posting_cache.get(label_id)
        if cached is None:
            if self._label_index is None:
                # Loaded postings are already sorted; the tuple copy is
                # per *queried* label, so cold start stays O(1) and does
                # not count as a postings *build* (v4 loads start warm).
                cached = tuple(self._frozen.posting(label_id))
            else:
                cached = tuple(sorted(self._label_index.get(label_id, ())))
                if OBS.enabled:
                    OBS.metrics.inc("postings.build")
            self._posting_cache[label_id] = cached
        return cached

    def sorted_vertices_with_label(self, label: str) -> Tuple[int, ...]:
        """Sorted vertices labeled ``label`` (empty for unknown labels)."""
        label_id = self.label_table.get_id(label)
        if label_id is None:
            return ()
        return self.sorted_vertices_with_label_id(label_id)

    def postings_snapshot(self) -> Dict[str, List[int]]:
        """Every label's sorted posting list, as plain JSON-able data.

        Builds the complete inverted keyword index (label → sorted vertex
        ids) regardless of what is cached.  Persistence ships the same
        lists by label id (:meth:`postings_items_by_id`).
        """
        return {
            self.label_table.label_of(label_id): list(posting)
            for label_id, posting in self.postings_items_by_id()
        }

    def postings_items_by_id(self) -> List[Tuple[int, Sequence[int]]]:
        """``(label_id, sorted vertex ids)`` pairs in ascending label id.

        The building block for persistence writers: on a heap graph the
        lists are sorted fresh from the label index; on an mmap-backed
        graph they are zero-copy slices of the loaded posting arrays, so
        re-saving a loaded index never materializes the inverted index.
        Only labels with at least one vertex appear (same contract as
        :meth:`postings_snapshot`).
        """
        if self._label_index is None:
            frozen = self._frozen
            return [
                (label_id, frozen.posting(label_id))
                for label_id in sorted(frozen.label_ids())
            ]
        return [
            (label_id, sorted(vertex_set))
            for label_id, vertex_set in sorted(self._label_index.items())
        ]

    def drop_caches(self) -> None:
        """Discard the lazily built label postings.

        Used by the cold-query benchmark and tests to return the graph to
        its just-constructed state; postings rebuild on demand.
        """
        self._posting_cache.clear()

    def vertices_with_label(self, label: str) -> Set[int]:
        """All vertices labeled ``label`` (empty set for unknown labels)."""
        label_id = self.label_table.get_id(label)
        if label_id is None:
            return set()
        return self.vertices_with_label_id(label_id)

    def vertices_with_label_id(self, label_id: int) -> Set[int]:
        """All vertices with the interned label id (empty set when absent)."""
        if self._label_index is None:
            return set(self._frozen.posting(label_id))
        return set(self._label_index.get(label_id, ()))

    def label_support(self, label: str) -> int:
        """Number of vertices carrying ``label`` (the paper's ``|V_l|``)."""
        label_id = self.label_table.get_id(label)
        if label_id is None:
            return 0
        if self._label_index is None:
            return len(self._frozen.posting(label_id))
        return len(self._label_index.get(label_id, ()))

    def distinct_labels(self) -> Set[str]:
        """The set of labels actually used by some vertex."""
        return {
            self.label_table.label_of(label_id)
            for label_id in self.distinct_label_ids()
        }

    def distinct_label_ids(self) -> Set[int]:
        """The set of label ids actually used by some vertex."""
        if self._label_index is None:
            return set(self._frozen.label_ids())
        return set(self._label_index)

    def label_histogram(self) -> Dict[str, int]:
        """Map of label -> number of vertices carrying it."""
        return {
            self.label_table.label_of(label_id): len(posting)
            for label_id, posting in self.postings_items_by_id()
        }

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def copy(self, share_label_table: bool = True) -> "Graph":
        """Deep-copy the topology and labels.

        ``share_label_table`` keeps a single interning table across copies,
        which the BiG-index hierarchy relies on for cross-layer label ids.
        """
        table = self.label_table if share_label_table else LabelTable(
            iter(self.label_table)
        )
        clone = Graph(table)
        clone.labels = list(self.labels)
        if self._out is None:
            # mmap-backed: build the heap copy from the rows without
            # detaching this graph (it stays mmap-backed).
            n = self.num_vertices
            clone._out, clone._in = (
                list(map(list, rows)) for rows in self._frozen
            )
            clone._edge_set = {
                (u, v) for u in range(n) for v in clone._out[u]
            }
            clone._label_index = {
                label_id: set(posting)
                for label_id, posting in self.postings_items_by_id()
            }
        else:
            clone._out = [list(adj) for adj in self._out]
            clone._in = [list(adj) for adj in self._in]
            clone._edge_set = set(self._edge_set)
            clone._label_index = {
                label_id: set(vertex_set)
                for label_id, vertex_set in self._label_index.items()
            }
        clone._num_edges = self._num_edges
        clone.names = dict(self.names)
        return clone

    def cow_clone(self) -> "Graph":
        """Copy-on-write clone sharing all unmutated structure.

        The clone gets private *outer* containers (adjacency lists, edge
        set, label-index dict, labels, names) whose *contents* — the
        per-vertex rows and per-label posting sets — stay shared with this
        graph until the clone's first write to each (see
        :meth:`_own_out_row` and friends).  The posting-tuple cache holds
        immutable snapshots, so it is copied shallowly and the clone's own
        mutators invalidate only the clone's entries.

        The parent must be treated as frozen for the clone's lifetime (the
        serve runtime guarantees this: a published snapshot is never
        mutated in place).  O(|V| + |labels|) instead of copy()'s
        O(|V| + |E|).
        """
        clone = Graph.__new__(Graph)
        if self._out is None:
            # mmap-backed: share the frozen buffers outright.  The
            # clone's first mutation runs _materialize(), which builds
            # fully private heap structures — detaching *is* the
            # copy-on-write step, so no per-row bookkeeping is needed.
            clone.labels = self.labels
            clone._out = None
            clone._in = None
            clone._edge_set = None
            clone._label_index = None
            clone._cow_out = None
            clone._cow_in = None
            clone._cow_labels = None
            clone._frozen = self._frozen
        else:
            clone.labels = list(self.labels)
            clone._out = list(self._out)
            clone._in = list(self._in)
            clone._edge_set = set(self._edge_set)
            clone._label_index = dict(self._label_index)
            clone._cow_out = set()
            clone._cow_in = set()
            clone._cow_labels = set()
            clone._frozen = None
        clone._num_edges = self._num_edges
        clone.label_table = self.label_table
        clone.names = dict(self.names)
        clone.mutation_epoch = self.mutation_epoch
        clone._posting_cache = dict(self._posting_cache)
        if OBS.enabled:
            OBS.metrics.inc("cow.graph.clones")
        return clone

    def induced_subgraph(
        self, vertex_subset: Iterable[int]
    ) -> Tuple["Graph", Dict[int, int]]:
        """Node-induced subgraph of ``vertex_subset``.

        Returns the subgraph (sharing this graph's label table) and the map
        from original vertex ids to subgraph ids.  Used by the cost-model
        sampler (Sec. 3.2).
        """
        ordered = sorted(set(vertex_subset))
        sub = Graph(self.label_table)
        mapping: Dict[int, int] = {}
        for v in ordered:
            self._check_vertex(v)
            mapping[v] = sub.add_vertex_with_label_id(self.labels[v])
        member = set(ordered)
        successors = self.rows()[0]
        for v in ordered:
            for w in successors[v]:
                if w in member:
                    sub.add_edge(mapping[v], mapping[w])
        return sub, mapping

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self.labels):
            raise GraphError(f"vertex {v} not in graph of size {len(self.labels)}")

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"|Sigma|={len(self.distinct_label_ids())})"
        )

