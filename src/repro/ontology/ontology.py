"""Ontology graph: a DAG of type labels with supertype edges.

Model (Sec. 2 of the paper)
---------------------------
``G_Ont = (V_Ont, E_Ont)`` where each vertex is a label (type) and each edge
``(l', l)`` states that ``l'`` is a *direct supertype* of ``l``.  A label may
have several direct supertypes (the DAG is not a tree).  Generalization
configurations map labels to one of their direct supertypes; labels with no
supertype may only map to themselves.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.utils.errors import OntologyError


class OntologyGraph:
    """A DAG of type labels with ``supertype -> subtype`` navigation.

    Edges are stored by label string.  The class validates acyclicity on
    demand (:meth:`validate`) and exposes the queries BiG-index needs:
    direct supertypes/subtypes, transitive closure tests, roots, and height.

    Example
    -------
    >>> ont = OntologyGraph()
    >>> ont.add_subtype("Academics", "Person")
    >>> ont.direct_supertypes("Academics")
    ['Person']
    >>> ont.is_supertype("Person", "Academics")
    True
    """

    def __init__(self) -> None:
        self._supertypes: Dict[str, List[str]] = {}
        self._subtypes: Dict[str, List[str]] = {}
        self._types: Set[str] = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_type(self, label: str) -> None:
        """Register a type with no relationships yet (idempotent)."""
        if label not in self._types:
            self._types.add(label)
            self._supertypes.setdefault(label, [])
            self._subtypes.setdefault(label, [])

    def add_subtype(self, subtype: str, supertype: str) -> None:
        """Declare ``supertype`` as a direct supertype of ``subtype``.

        Mirrors an ontology edge ``(supertype, subtype)`` labeled
        SubClassOf/SubTypeOf.  Refuses self-loops and edges that would close
        a cycle.
        """
        if subtype == supertype:
            raise OntologyError(f"type {subtype!r} cannot be its own supertype")
        self.add_type(subtype)
        self.add_type(supertype)
        if supertype in self._supertypes[subtype]:
            return
        if self.is_supertype(subtype, supertype):
            raise OntologyError(
                f"adding {supertype!r} above {subtype!r} would create a cycle"
            )
        self._supertypes[subtype].append(supertype)
        self._subtypes[supertype].append(subtype)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, label: str) -> bool:
        return label in self._types

    def __len__(self) -> int:
        return len(self._types)

    @property
    def num_types(self) -> int:
        """``|V_Ont|``."""
        return len(self._types)

    @property
    def num_edges(self) -> int:
        """``|E_Ont|``."""
        return sum(len(parents) for parents in self._supertypes.values())

    def types(self) -> Set[str]:
        """All registered type labels."""
        return set(self._types)

    def direct_supertypes(self, label: str) -> List[str]:
        """Direct supertypes of ``label`` (empty for roots)."""
        self._check(label)
        return list(self._supertypes[label])

    def direct_subtypes(self, label: str) -> List[str]:
        """Direct subtypes of ``label`` (empty for leaves)."""
        self._check(label)
        return list(self._subtypes[label])

    def ancestors(self, label: str) -> Set[str]:
        """All transitive supertypes of ``label`` (excluding itself)."""
        self._check(label)
        seen: Set[str] = set()
        queue: deque = deque(self._supertypes[label])
        while queue:
            t = queue.popleft()
            if t in seen:
                continue
            seen.add(t)
            queue.extend(self._supertypes[t])
        return seen

    def is_supertype(self, candidate: str, label: str) -> bool:
        """Whether ``candidate`` is a (transitive) supertype of ``label``.

        By convention a type is also considered a supertype of itself, which
        matches the candidate-filtering rule of Prop. 4.1 (a keyword node's
        specializations keep labels whose generalization chain hits the
        generalized keyword).
        """
        if candidate == label:
            return candidate in self._types
        if candidate not in self._types or label not in self._types:
            return False
        return candidate in self.ancestors(label)

    def roots(self) -> List[str]:
        """Types without supertypes, sorted for determinism."""
        return sorted(t for t in self._types if not self._supertypes[t])

    def leaves(self) -> List[str]:
        """Types without subtypes, sorted for determinism."""
        return sorted(t for t in self._types if not self._subtypes[t])

    def height(self) -> int:
        """Length (in edges) of the longest subtype chain in the DAG."""
        self.validate()
        memo: Dict[str, int] = {}

        order = self._topological_order()
        # Process from roots down: height of a node = 1 + max over parents.
        for label in order:
            parents = self._supertypes[label]
            memo[label] = 0 if not parents else 1 + max(memo[p] for p in parents)
        return max(memo.values(), default=0)

    def validate(self) -> None:
        """Raise :class:`OntologyError` if the ontology contains a cycle."""
        self._topological_order()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _topological_order(self) -> List[str]:
        """Kahn's algorithm from roots down; raises on cycles."""
        in_deg = {t: len(self._supertypes[t]) for t in self._types}
        queue: deque = deque(sorted(t for t, d in in_deg.items() if d == 0))
        order: List[str] = []
        while queue:
            t = queue.popleft()
            order.append(t)
            for child in sorted(self._subtypes[t]):
                in_deg[child] -= 1
                if in_deg[child] == 0:
                    queue.append(child)
        if len(order) != len(self._types):
            raise OntologyError("ontology graph contains a cycle")
        return order

    def _check(self, label: str) -> None:
        if label not in self._types:
            raise OntologyError(f"unknown type: {label!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OntologyGraph(|V|={self.num_types}, |E|={self.num_edges})"


def generate_ontology(
    num_types: int,
    avg_fanout: int = 5,
    height: int = 7,
    seed: int = 0,
    label_prefix: str = "T",
) -> OntologyGraph:
    """Generate a random ontology DAG with the paper's reported shape.

    The synthetic ontologies in Sec. 6.1.2 have an average degree of 5 and a
    height of 7, "consistent with the heights and average degrees of the
    real ontology graphs".  We build a layered DAG: layer 0 holds the roots
    and each subsequent layer's types attach to a random parent in the layer
    above (plus occasional second parents so the result is a genuine DAG,
    not a forest).

    Parameters
    ----------
    num_types:
        Total number of type labels.
    avg_fanout:
        Average number of direct subtypes per internal type.
    height:
        Number of layers below the roots.
    seed:
        RNG seed; generation is deterministic.
    label_prefix:
        Types are named ``f"{label_prefix}{layer}_{index}"``.

    Returns
    -------
    OntologyGraph
    """
    if num_types <= 0:
        raise OntologyError("num_types must be positive")
    if height < 1:
        raise OntologyError("height must be at least 1")
    rng = random.Random(seed)
    ontology = OntologyGraph()

    # Geometric layer sizes: layer k holds ~avg_fanout^k types, rescaled to
    # sum to num_types.
    raw = [float(avg_fanout) ** k for k in range(height + 1)]
    scale = num_types / sum(raw)
    layer_sizes = [max(1, round(x * scale)) for x in raw]
    # Adjust the last layer so the total matches exactly.
    drift = num_types - sum(layer_sizes)
    layer_sizes[-1] = max(1, layer_sizes[-1] + drift)

    layers: List[List[str]] = []
    for level, size in enumerate(layer_sizes):
        layer = [f"{label_prefix}{level}_{i}" for i in range(size)]
        for label in layer:
            ontology.add_type(label)
        layers.append(layer)

    for level in range(1, len(layers)):
        parents = layers[level - 1]
        for label in layers[level]:
            ontology.add_subtype(label, rng.choice(parents))
            # ~10% of types get a second parent to exercise DAG-ness.
            if len(parents) > 1 and rng.random() < 0.1:
                second = rng.choice(parents)
                if second not in ontology.direct_supertypes(label):
                    ontology.add_subtype(label, second)
    return ontology
