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
  label-id rewrite, and keyword matching reads one postings map (label id
  -> sorted vertex ids) derived from the labels.
* A graph is its labels and its rows: successor and predecessor rows in
  insertion order, both kept because every keyword search algorithm in
  the paper expands *backward* (Sec. 5).  Edge, degree and postings reads
  go through :meth:`Graph.rows` and the postings map in both storage
  modes (heap lists, or the zero-copy buffers of a loaded container).
* ``|G| = |V| + |E|`` as in the paper (used by the compression ratio).
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from itertools import accumulate, chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

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
    ``_in``; the first mutation materializes heap rows and drops it (see
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

    def postings(self) -> Dict[int, Sequence[int]]:
        """Label id -> sorted vertex ids, as zero-copy slices of the
        loaded posting arrays (labels with at least one vertex only)."""
        ids, bounds = self.post_ids, self.post_offsets.tolist()
        return {
            label_id: ids[a:b]
            for label_id, a, b in zip(self.post_labels, bounds, bounds[1:])
        }


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

    Its state is ``labels`` (one label id per vertex) and :meth:`rows`
    (successor and predecessor rows, heap lists or a loaded container's
    buffers); edges, degrees and postings are read from those two.

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
        self._num_edges = 0
        self.label_table = label_table if label_table is not None else LabelTable()
        #: Optional human-readable vertex names (entity names in examples).
        self.names: Dict[int, str] = {}
        #: Monotone counter bumped by every effective mutation (vertex or
        #: edge insertion, edge removal, relabel).  Derived-data caches
        #: outside the graph (evaluator result caches, BiG-index memos)
        #: key their validity on it; see ``repro.core.querycache``.
        self.mutation_epoch: int = 0
        # Label id -> sorted vertex ids, derived on first read and dropped
        # by a relabel (see _postings_map).
        self._postings: Optional[Dict[int, Sequence[int]]] = None
        # Copy-on-write bookkeeping (see cow_clone()).  ``None`` means the
        # graph owns every row outright and mutators work in place; on a
        # clone these hold the ids whose row the clone has privately
        # copied, so shared structure is never written through.
        self._cow_out: Optional[Set[int]] = None
        self._cow_in: Optional[Set[int]] = None
        # Zero-copy payload of an mmap-loaded graph; ``None`` for heap
        # graphs.  While set (and _out is None) rows and postings are
        # served from its buffers (see from_frozen / _materialize).
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
        graph = cls(label_table)
        graph.labels = labels  # type: ignore[assignment] - read-only view
        graph._out = None  # type: ignore[assignment]
        graph._in = None  # type: ignore[assignment]
        graph._num_edges = len(frozen.out_targets)
        graph.names = dict(names) if names else {}
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

        Called by every mutator before it writes.  Copies the rows in CSR
        order (which is insertion order — the v4 writer preserves it) and
        the labels, drops the postings map (the next read derives it from
        the labels) and the frozen payload; subsequent mutations take the
        normal in-place path.  A no-op for heap graphs, so the hot
        mutation path pays one ``is not None`` check.
        """
        if self._out is not None:
            return
        self._out, self._in = (list(map(list, rows)) for rows in self._frozen)
        self.labels = list(self.labels)
        self._postings = None
        self._frozen = None
        if OBS.enabled:
            OBS.metrics.inc("persist.mmap.detaches")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self, label: str, name: Optional[str] = None) -> int:
        """Add a vertex with ``label`` and return its id."""
        vid = self._append_vertex(self.label_table.intern(label))
        if name is not None:
            self.names[vid] = name
        return vid

    def add_vertex_with_label_id(self, label_id: int) -> int:
        """Add a vertex by pre-interned label id (fast path for builders)."""
        if not 0 <= label_id < len(self.label_table):
            raise GraphError(f"label id {label_id} not in label table")
        return self._append_vertex(label_id)

    def _append_vertex(self, label_id: int) -> int:
        self._materialize()
        vid = len(self.labels)
        self.labels.append(label_id)
        self._out.append([])
        self._in.append([])
        postings = self._postings
        if postings is not None:
            # The new id is the largest, so the tuple stays sorted.
            postings[label_id] = postings.get(label_id, ()) + (vid,)
        self.mutation_epoch += 1
        return vid

    def add_edge(self, u: int, v: int) -> bool:
        """Add the directed edge ``(u, v)``.

        Returns ``True`` if the edge was new, ``False`` if it already
        existed (the graph is simple: parallel edges collapse).
        """
        self._check_vertex(u)
        self._check_vertex(v)
        self._materialize()
        if v in self._out[u]:
            return False
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

    def relabel_vertex(self, v: int, new_label: str) -> None:
        """Change the label of ``v`` (the postings map is rederived)."""
        self._check_vertex(v)
        new_id = self.label_table.intern(new_label)
        self.relabel_vertex_by_id(v, new_id)

    def relabel_vertex_by_id(self, v: int, new_label_id: int) -> None:
        """Change the label of ``v`` to a pre-interned label id.

        Drops the postings map: relabels happen while graphs are built
        (generalization, typing), before anything reads postings.
        """
        if self.labels[v] == new_label_id:
            return
        self._materialize()
        self.labels[v] = new_label_id
        self._postings = None
        self.mutation_epoch += 1

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
        """Iterate over all edges as ``(u, v)`` pairs, in row order."""
        for u, row in enumerate(self.rows()[0]):
            for v in row:
                yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        """Return whether edge ``(u, v)`` exists (a scan of ``u``'s row)."""
        return 0 <= u < self.num_vertices and v in self.rows()[0][u]

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
        """:meth:`frontier_memo`'s twin for root profiles
        (``nearest_labeled_reader``)."""
        frozen = self._frozen
        return None if frozen is None else frozen.profiles

    def out_degree(self, v: int) -> int:
        """Number of out-edges of ``v``."""
        return len(self.out_neighbors(v))

    def in_degree(self, v: int) -> int:
        """Number of in-edges of ``v``."""
        return len(self.in_neighbors(v))

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

    def _postings_map(self) -> Dict[int, Sequence[int]]:
        """Label id -> sorted vertex ids: every postings read goes here.

        Built on first use and kept until a relabel.  An mmap-backed
        graph maps each label to the container's zero-copy slice, so a
        loaded index starts warm; a heap graph derives tuples from its
        labels in one pass, counted as ``postings.build``.
        """
        postings = self._postings
        if postings is None:
            if self._out is None:
                postings = self._frozen.postings()
            else:
                ids: Dict[int, List[int]] = defaultdict(list)
                for v, label_id in enumerate(self.labels):
                    ids[label_id].append(v)
                postings = {label_id: tuple(vs) for label_id, vs in ids.items()}
                if OBS.enabled:
                    OBS.metrics.inc("postings.build")
            self._postings = postings
        return postings

    def sorted_vertices_with_label_id(self, label_id: int) -> Tuple[int, ...]:
        """Sorted vertices carrying ``label_id`` (do not mutate).

        The searchers seed their per-keyword frontiers from this; unlike
        :meth:`vertices_with_label_id` it neither copies nor re-sorts on
        repeated lookups of the same label.
        """
        postings = self._postings_map()
        posting = postings.get(label_id, ())
        if not isinstance(posting, tuple):
            # A loaded slice becomes a tuple when its label is first queried.
            posting = postings[label_id] = tuple(posting)
        return posting

    def sorted_vertices_with_label(self, label: str) -> Tuple[int, ...]:
        """Sorted vertices labeled ``label`` (empty for unknown labels)."""
        label_id = self.label_table.get_id(label)
        if label_id is None:
            return ()
        return self.sorted_vertices_with_label_id(label_id)

    def postings_snapshot(self) -> Dict[str, List[int]]:
        """Every label's sorted posting list, as plain JSON-able data.

        Persistence ships the same lists by label id
        (:meth:`postings_items_by_id`).
        """
        return {
            self.label_table.label_of(label_id): list(posting)
            for label_id, posting in self.postings_items_by_id()
        }

    def postings_items_by_id(self) -> List[Tuple[int, Sequence[int]]]:
        """``(label_id, sorted vertex ids)`` pairs in ascending label id.

        The building block for persistence writers: on an mmap-backed
        graph the lists are zero-copy slices of the loaded posting
        arrays (or tuples of the labels queried so far), so re-saving a
        loaded index never derives postings.  Only labels with at least
        one vertex appear (same contract as :meth:`postings_snapshot`).
        """
        return sorted(self._postings_map().items())

    def drop_caches(self) -> None:
        """Discard the postings map (the cold-query benchmark and tests
        return a graph to its just-constructed state)."""
        self._postings = None

    def vertices_with_label(self, label: str) -> Set[int]:
        """All vertices labeled ``label`` (empty set for unknown labels)."""
        return set(self.sorted_vertices_with_label(label))

    def vertices_with_label_id(self, label_id: int) -> Set[int]:
        """All vertices with the interned label id (empty set when absent)."""
        return set(self.sorted_vertices_with_label_id(label_id))

    def label_support(self, label: str) -> int:
        """Number of vertices carrying ``label`` (the paper's ``|V_l|``)."""
        return len(self.sorted_vertices_with_label(label))

    def distinct_labels(self) -> Set[str]:
        """The set of labels actually used by some vertex."""
        return set(self.label_histogram())

    def distinct_label_ids(self) -> Set[int]:
        """The set of label ids actually used by some vertex."""
        return set(self._postings_map())

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
        """Deep-copy the topology and labels onto the heap (an mmap-backed
        graph stays mmap-backed).

        ``share_label_table`` keeps a single interning table across copies,
        which the BiG-index hierarchy relies on for cross-layer label ids.
        """
        table = self.label_table if share_label_table else LabelTable(
            iter(self.label_table)
        )
        clone = Graph(table)
        clone.labels = list(self.labels)
        clone._out, clone._in = (list(map(list, rows)) for rows in self.rows())
        clone._num_edges = self._num_edges
        clone.names = dict(self.names)
        return clone

    def cow_clone(self) -> "Graph":
        """Copy-on-write clone sharing all unmutated structure.

        The clone gets private *outer* containers (adjacency lists,
        labels, names, postings map) whose *contents* — the per-vertex
        rows — stay shared with this graph until the clone's first write
        to each (see :meth:`_own_out_row`).  The postings map holds
        immutable sequences, so it is copied shallowly.

        The parent must be treated as frozen for the clone's lifetime (the
        serve runtime guarantees this: a published snapshot is never
        mutated in place).  O(|V| + |labels|) instead of copy()'s
        O(|V| + |E|).
        """
        clone = Graph(self.label_table)
        if self._out is None:
            # mmap-backed: share the frozen buffers outright.  The
            # clone's first mutation runs _materialize(), which builds
            # fully private heap structures — detaching *is* the
            # copy-on-write step, so no per-row bookkeeping is needed.
            clone.labels = self.labels
            clone._out = None
            clone._in = None
            clone._frozen = self._frozen
        else:
            clone.labels = list(self.labels)
            clone._out = list(self._out)
            clone._in = list(self._in)
            clone._cow_out = set()
            clone._cow_in = set()
        clone._num_edges = self._num_edges
        clone.names = dict(self.names)
        clone.mutation_epoch = self.mutation_epoch
        if self._postings is not None:
            clone._postings = dict(self._postings)
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

