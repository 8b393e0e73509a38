"""Graph and label generalization (``Gen``) and specialization (``Spec``).

``Gen(G, C)`` simultaneously applies every mapping of the configuration to
the vertex labels of ``G`` (Sec. 3.1); the topology is untouched.  ``Spec``
reverses the rewrite: on labels it follows the configurations backwards, on
answer vertices the BiG-index layers' extent tables play that role (Sec. 2:
``Bisim^{-1}`` "is implemented by hash tables").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set

from repro.core.config import Configuration
from repro.graph.digraph import Graph, LabelTable
from repro.search.base import KeywordQuery


def generalize_graph(graph: Graph, config: Configuration) -> Graph:
    """``Gen(G, C)``: a copy of ``graph`` with labels rewritten by ``config``.

    The returned graph shares the input's label table so label ids remain
    comparable across BiG-index layers.
    """
    result = graph.copy()
    remap = generalized_label_ids(result.label_table, config, intern=True)
    # Collect every move before applying one, so a vertex is rewritten
    # from its original label only; the moves come from one postings map
    # (one pass over the labels), not one scan of |V| per mapping of C.
    moves = [(result.vertices_with_label_id(s), t) for s, t in remap.items()]
    for vertices, target_id in moves:
        for v in vertices:
            result.relabel_vertex_by_id(v, target_id)
    return result


def generalized_label_ids(
    table: LabelTable, config: Configuration, intern: bool = False
) -> Dict[int, int]:
    """``Gen(C)`` over label ids: ``{source id: target id}``.

    Only sources the table knows appear, and mappings never chain.  A
    target the table lacks is interned when ``intern``; otherwise it gets
    a local id past ``len(table)``, leaving the shared table alone.
    """
    remap: Dict[int, int] = {}
    local: Dict[str, int] = {}
    for source, target in config:
        source_id = table.get_id(source)
        if source_id is None:
            continue
        target_id = table.get_id(target)
        if target_id is None:
            if intern:
                target_id = table.intern(target)
            else:
                target_id = local.setdefault(target, len(table) + len(local))
        remap[source_id] = target_id
    return remap


def generalize_label(label: str, configs: Sequence[Configuration]) -> str:
    """``Gen^m`` on a single label: thread it through ``configs`` in order."""
    current = label
    for config in configs:
        current = config.target_of(current)
    return current


def generalize_query(
    query: KeywordQuery, configs: Sequence[Configuration]
) -> List[str]:
    """``Gen^m(Q)``: the generalized keyword list (may contain collisions).

    Returns a plain list rather than a :class:`KeywordQuery` because two
    keywords may generalize to the same label; Def. 4.1's condition 1
    (``|Gen^m(Q)| = |Q|``) is checked by the caller against this list.
    """
    return [generalize_label(keyword, configs) for keyword in query]


def specialize_label(
    label: str, configs: Sequence[Configuration]
) -> Set[str]:
    """``Spec`` on a label: all layer-0 labels that generalize to ``label``.

    Walks the configuration sequence backwards, expanding through each
    configuration's preimages (a label is its own preimage when unmapped —
    generalization leaves unmapped labels alone).

    Kept as the reference the Gen/Spec right-inverse tests check
    :func:`generalize_label` against.
    """
    current: Set[str] = {label}
    for config in reversed(configs):
        expanded: Set[str] = set()
        for item in current:
            if item not in config:
                # Unmapped labels pass through Gen unchanged, so the label
                # is its own preimage; a mapped label cannot survive Gen.
                expanded.add(item)
            expanded.update(config.sources_of(item))
        current = expanded
    return current
