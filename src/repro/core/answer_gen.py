"""Algorithm 3: vertex-at-a-time answer graph generation.

Given a generalized answer graph ``a^m = (V_a, E_a)`` found on a summary
layer and the specialized candidate set of every answer vertex (``Spec``
down to layer 0, keyword nodes pruned by label per Prop. 4.1), the
generator enlarges partial answers one vertex at a time:

* vertices are processed in the *specialization order* of Sec. 4.3.2 —
  ascending number of specializations ``|chi^{-1}(a_i)|`` — which keeps
  the set of live partial answers small (Example 4.2 shows a 3x
  difference); the order can be disabled for the Exp-5 ablation;
* a concrete vertex ``v`` is *qualified* to enlarge a partial answer
  (Def. 4.2) iff every edge of ``a^m`` between its supernode and an
  already-assigned supernode is realized by a data-graph edge between the
  concrete vertices (in the same direction), its label matches (guaranteed
  upstream by pruning), and the plugged algorithm's own necessary
  condition (``enlarge_ok``) accepts it.

The output is the set of complete assignments ``supernode -> vertex``;
the evaluator turns them into verified answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.graph.digraph import Graph
from repro.search.base import KeywordQuery, KeywordSearchAlgorithm
from repro.utils.errors import BigIndexError

#: Optional extra qualification hook: (partial assignment, supernode, vertex)
#: -> bool.  Used to thread the search algorithm's ``enlarge_ok`` through.
QualifyHook = Callable[[Mapping[int, int], int, int], bool]

#: An assignment of concrete data-graph vertices to answer supernodes.
Assignment = Dict[int, int]


@dataclass
class GeneralizedAnswerGraph:
    """A generalized answer ``a^m`` ready for specialization.

    Attributes
    ----------
    vertices:
        The supernode ids of the answer graph at its layer.
    edges:
        Directed edges of ``a^m`` among those supernodes.
    spec_sets:
        ``supernode -> sorted candidate layer-0 vertices`` (``chi^{-1}``
        composed down the hierarchy, label-pruned for keyword nodes).
    keyword_of:
        ``supernode -> query keyword`` for keyword nodes (the ``isKey``
        attribute of Sec. 4.3.1); non-keyword vertices are absent.
    """

    vertices: Tuple[int, ...]
    edges: Tuple[Tuple[int, int], ...]
    spec_sets: Dict[int, List[int]]
    keyword_of: Dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        missing = [v for v in self.vertices if v not in self.spec_sets]
        if missing:
            raise BigIndexError(
                f"answer vertices without specialization sets: {missing}"
            )

    def degree(self, vertex: int) -> int:
        """Degree of a supernode within the answer graph (joint detection)."""
        return sum(1 for (u, v) in self.edges if u == vertex or v == vertex)


def specialization_order(answer: GeneralizedAnswerGraph) -> List[int]:
    """Sec. 4.3.2: supernodes ordered by ascending ``|chi^{-1}(a_i)|``.

    Ties break by supernode id so the order is deterministic.
    """
    return sorted(answer.vertices, key=lambda s: (len(answer.spec_sets[s]), s))


def enlarge_qualifier(
    algorithm: KeywordSearchAlgorithm,
    graph: Graph,
    answer: GeneralizedAnswerGraph,
    query: KeywordQuery,
) -> QualifyHook:
    """The :data:`QualifyHook` threading ``algorithm.enlarge_ok`` through
    Def. 4.2: a keyword node's candidate must keep the keyword vertices
    assigned so far acceptable to the algorithm."""
    keyword_of = answer.keyword_of

    def qualify(partial: Mapping[int, int], supernode: int, vertex: int) -> bool:
        keyword = keyword_of.get(supernode)
        if keyword is None:
            return True
        partial_keywords = {
            keyword_of[s]: v for s, v in partial.items() if s in keyword_of
        }
        return algorithm.enlarge_ok(
            graph, partial_keywords, keyword, vertex, query
        )

    return qualify


def ans_graph_gen(
    graph: Graph,
    answer: GeneralizedAnswerGraph,
    qualify: Optional[QualifyHook] = None,
    use_spec_order: bool = True,
    max_partials: Optional[int] = None,
) -> List[Assignment]:
    """Algorithm 3: enumerate complete qualified assignments.

    Parameters
    ----------
    graph:
        The data graph ``G^0``.
    answer:
        The generalized answer with its specialization sets.
    qualify:
        Extra per-vertex qualification (the algorithm's ``enlarge_ok``).
    use_spec_order:
        Apply the specialization-order optimization; ``False`` processes
        vertices in their natural order (the Exp-5 "off" arm).
    max_partials:
        Safety cap on live partial answers; ``None`` is unbounded.

    Returns
    -------
    list of dict
        Complete ``supernode -> vertex`` assignments.  Assignments are
        injective (distinct supernodes take distinct vertices).
    """
    if use_spec_order:
        order = specialization_order(answer)
    else:
        order = sorted(answer.vertices)
    partials: List[Assignment] = [{}]
    for supernode in order:
        partials = _enlarge(
            graph, answer, partials, supernode, qualify, max_partials
        )
        if not partials:
            return []
    return partials


def _enlarge(
    graph: Graph,
    answer: GeneralizedAnswerGraph,
    partials: List[Assignment],
    supernode: int,
    qualify: Optional[QualifyHook],
    max_partials: Optional[int],
) -> List[Assignment]:
    """Lines 7-13 of Algorithm 3: extend every partial with one supernode."""
    # Edges of a^m touching this supernode, split by direction.
    out_to = [v for (u, v) in answer.edges if u == supernode]
    in_from = [u for (u, v) in answer.edges if v == supernode]
    next_partials: List[Assignment] = []
    for partial in partials:
        used = set(partial.values())
        for vertex in answer.spec_sets[supernode]:
            if vertex in used:
                continue  # assignments are injective
            if not _edge_qualified(
                graph, partial, vertex, out_to, in_from
            ):
                continue
            if qualify is not None and not qualify(partial, supernode, vertex):
                continue
            enlarged = dict(partial)
            enlarged[supernode] = vertex
            next_partials.append(enlarged)
            if max_partials is not None and len(next_partials) > max_partials:
                raise BigIndexError(
                    f"answer generation exceeded {max_partials} partial answers"
                )
    return next_partials


def _edge_qualified(
    graph: Graph,
    partial: Mapping[int, int],
    vertex: int,
    out_to: Sequence[int],
    in_from: Sequence[int],
) -> bool:
    """Def. 4.2's structural condition against already-assigned neighbors."""
    for neighbor in out_to:
        assigned = partial.get(neighbor)
        if assigned is not None and not graph.has_edge(vertex, assigned):
            return False
    for neighbor in in_from:
        assigned = partial.get(neighbor)
        if assigned is not None and not graph.has_edge(assigned, vertex):
            return False
    return True
