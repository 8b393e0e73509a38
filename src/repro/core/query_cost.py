"""Query generalization cost model (Sec. 4.1, Formula 4; Def. 4.1).

The cost of evaluating a query at layer ``m`` trades off two effects:

* evaluating on a *smaller* summary graph is cheaper (less exploration,
  fewer redundant traversals); and
* the *higher* the layer, the less selective the generalized keywords are
  in the summary graph, and the more specialization/pruning work answer
  generation must do to come back down.

Formula 4 as printed is::

    cost_q(m) = beta * (1 - |chi^m(G)| / |G|)
              + (1 - beta) * sum_i sup(Gen^m(q_i), G^m) / sum_i sup(q_i, G)

where ``sup(q, G)`` is the fraction of ``G``'s vertices labeled ``q``.

The prose, however, explains the first term as "the compression ratio of
the summary graph at the m-th layer — the smaller the summary graph, the
more efficient the query processing", i.e. a term that should *decrease*
with ``m`` so it can trade off against the second term (which increases
with ``m``).  Taken literally, ``1 - ratio`` increases with ``m`` as well,
making layer 1 always optimal and contradicting the paper's Fig. 19 (where
several queries are best at the highest layer).  We therefore default to
the prose reading — first term = the size ratio itself — and expose the
literal formula as ``formula="literal"`` for side-by-side comparison in
the Exp-4 benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.index import BiGIndex
from repro.search.base import KeywordQuery
from repro.utils.errors import QueryError


@dataclass
class LayerCost:
    """Cost-model evaluation of one candidate layer."""

    layer: int
    cost: float
    size_ratio: float
    support_ratio: float
    distinct: bool


class QueryCostModel:
    """Evaluates Formula 4 over the layers of a BiG-index.

    Parameters
    ----------
    index:
        The BiG-index whose layers are candidates.
    beta:
        The weight between the size term and the support term (the paper
        sweeps 0.1-0.9 in Exp-4 and settles on 0.5).
    formula:
        ``"prose"`` (default) uses the size ratio as the first term;
        ``"literal"`` uses ``1 - ratio`` exactly as printed.
    """

    def __init__(
        self,
        index: BiGIndex,
        beta: float = 0.5,
        formula: str = "prose",
        allow_layer_zero: bool = False,
    ) -> None:
        if not 0.0 <= beta <= 1.0:
            raise QueryError("beta must be within [0, 1]")
        if formula not in ("prose", "literal"):
            raise QueryError(f"unknown formula variant: {formula!r}")
        self.index = index
        self.beta = beta
        self.formula = formula
        #: When True, the data graph itself (layer 0, whose size ratio and
        #: support ratio are both exactly 1) competes with the summary
        #: layers, so queries the model predicts to lose from
        #: generalization run directly.  The journal formulation compares
        #: only summary layers; the option reproduces the practical
        #: deployment where the index is bypassed for unprofitable
        #: queries.
        self.allow_layer_zero = allow_layer_zero

    def layer_cost(self, query: KeywordQuery, m: int) -> LayerCost:
        """Evaluate Formula 4 for one layer."""
        if m == 0:
            first = 1.0 if self.formula == "prose" else 0.0
            return LayerCost(
                layer=0,
                cost=self.beta * first + (1.0 - self.beta),
                size_ratio=1.0,
                support_ratio=1.0,
                distinct=True,
            )
        base = self.index.base_graph
        layer_graph = self.index.layer_graph(m)
        ratio = layer_graph.size / base.size if base.size else 1.0
        first = ratio if self.formula == "prose" else (1.0 - ratio)

        base_n = base.num_vertices or 1
        layer_n = layer_graph.num_vertices or 1
        base_support = sum(
            base.label_support(keyword) / base_n for keyword in query
        )
        generalized = self.index.generalize_query(query, m)
        layer_support = sum(
            layer_graph.label_support(label) / layer_n for label in generalized
        )
        support_ratio = (
            layer_support / base_support if base_support > 0 else float("inf")
        )
        cost = self.beta * first + (1.0 - self.beta) * support_ratio
        return LayerCost(
            layer=m,
            cost=cost,
            size_ratio=ratio,
            support_ratio=support_ratio,
            distinct=len(set(generalized)) == len(generalized),
        )

    def all_layer_costs(self, query: KeywordQuery) -> List[LayerCost]:
        """Formula 4 over every candidate layer (``0`` included only when
        ``allow_layer_zero`` is set)."""
        start = 0 if self.allow_layer_zero else 1
        return [
            self.layer_cost(query, m)
            for m in range(start, self.index.num_layers + 1)
        ]

    def optimal_layer(self, query: KeywordQuery) -> int:
        """Def. 4.1: the admissible layer with minimal cost.

        Only layers where the generalized keywords stay distinct
        (condition 1) are admissible; among those the minimal-cost layer
        wins (condition 2), ties broken toward the lower layer.  Falls back
        to layer 1 when even it merges keywords is impossible — then layer
        0 (direct evaluation) is the only correct choice, signalled by
        returning 0.
        """
        candidates = [c for c in self.all_layer_costs(query) if c.distinct]
        if not candidates:
            return 0
        best = min(candidates, key=lambda c: (c.cost, c.layer))
        return best.layer


def optimal_query_layer(
    index: BiGIndex, query: KeywordQuery, beta: float = 0.5
) -> int:
    """Convenience wrapper: the cost model's optimal layer for ``query``."""
    return QueryCostModel(index, beta=beta).optimal_layer(query)
