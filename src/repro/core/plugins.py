"""Boosted keyword search: Sec. 5's plug-ins on top of BiG-index.

The framework is "orthogonal to specific query semantics": any algorithm
satisfying the :class:`~repro.search.base.KeywordSearchAlgorithm` contract
plugs in.  This module packages the three instantiations the paper spells
out — ``boost-bkws`` (Sec. 5.1), ``boost-dkws`` (Sec. 5.2) and
``boost-rkws`` (Sec. 5.3) — behind one :class:`BoostedSearch` facade whose
``search`` mirrors the underlying algorithm's interface while routing
through ``eval_Ont``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.core.evaluator import EvalResult
from repro.core.index import BiGIndex
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import Answer, KeywordQuery, KeywordSearchAlgorithm
from repro.utils.budget import Budget


class BoostedSearch:
    """A keyword search algorithm accelerated by a BiG-index.

    Example
    -------
    >>> # doctest-style sketch; see examples/quickstart.py for a real run
    >>> # boosted = boost(BackwardKeywordSearch(d_max=3), index)
    >>> # answers = boosted.search(KeywordQuery(["Club", "Player"]))
    """

    def __init__(
        self,
        algorithm: KeywordSearchAlgorithm,
        index: BiGIndex,
        allow_layer_zero: bool = False,
        cache_size: int = 128,
    ) -> None:
        self.algorithm = algorithm
        self.index = index
        # The index picks its evaluator: one hierarchy evaluates
        # directly, a sharded index scatter-gathers over its locales.
        self.evaluator = index.make_evaluator(
            algorithm,
            allow_layer_zero=allow_layer_zero,
            cache_size=cache_size,
        )

    @property
    def name(self) -> str:
        """``boost-<algorithm>`` (e.g. ``boost-bkws``)."""
        return f"boost-{self.algorithm.name}"

    def search(
        self,
        query: KeywordQuery,
        layer: Optional[int] = None,
        k: Optional[int] = None,
        budget: Optional[Budget] = None,
    ) -> List[Answer]:
        """Answers via ``eval_Ont`` (drops the instrumentation)."""
        return self.evaluate(query, layer=layer, k=k, budget=budget).answers

    def evaluate(
        self,
        query: KeywordQuery,
        layer: Optional[int] = None,
        k: Optional[int] = None,
        budget: Optional[Budget] = None,
    ) -> EvalResult:
        """Full ``eval_Ont`` run with the timing breakdown (benchmarks).

        A budget makes the run raise
        :class:`~repro.utils.errors.BudgetExceeded` on exhaustion; use
        :meth:`evaluate_resilient` to degrade instead.
        """
        return self.evaluator.evaluate(query, layer=layer, k=k, budget=budget)

    def evaluate_resilient(
        self,
        query: KeywordQuery,
        budget: Optional[Budget] = None,
        layer: Optional[int] = None,
        k: Optional[int] = None,
    ):
        """``evaluate`` that returns a ``DegradedResult`` on exhaustion."""
        return self.evaluator.evaluate_resilient(
            query, budget=budget, layer=layer, k=k
        )

    def evaluate_many(
        self,
        queries: Sequence[KeywordQuery],
        *,
        layer: Optional[int] = None,
        k: Optional[int] = None,
        budget_factory: Optional[Callable[[], Optional[Budget]]] = None,
        return_exceptions: bool = False,
    ) -> List[object]:
        """Batched serving; see :meth:`HierarchicalEvaluator.evaluate_many`."""
        return self.evaluator.evaluate_many(
            queries,
            layer=layer,
            k=k,
            budget_factory=budget_factory,
            return_exceptions=return_exceptions,
        )

    def warm(self, layer: Optional[int] = None) -> None:
        """Pre-build the algorithm's per-layer index (offline step).

        The paper builds the plugged algorithm's index (e.g. r-clique's
        neighbor list) "on the m-th layer" before measuring queries; call
        this to keep that cost out of timed runs.  Warms every layer,
        the data graph included, when ``layer`` is ``None``
        (:meth:`HierarchicalEvaluator.warm` per layer).
        """
        layers = (
            range(self.index.num_layers + 1) if layer is None else [layer]
        )
        for m in layers:
            self.evaluator.warm(m)


def boost(
    algorithm: KeywordSearchAlgorithm,
    index: BiGIndex,
    allow_layer_zero: bool = False,
) -> BoostedSearch:
    """Wrap any compatible algorithm with BiG-index acceleration."""
    return BoostedSearch(algorithm, index, allow_layer_zero=allow_layer_zero)


def boost_bkws(
    index: BiGIndex, d_max: int = 3, k: Optional[int] = None, **kwargs
) -> BoostedSearch:
    """Sec. 5.1's ``boost-bkws``: backward keyword search on BiG-index."""
    return boost(BackwardKeywordSearch(d_max=d_max, k=k), index, **kwargs)


def boost_rkws(
    index: BiGIndex, d_max: int = 5, k: Optional[int] = None, **kwargs
) -> BoostedSearch:
    """Sec. 5.3's ``boost-rkws``: Blinks ranked search on BiG-index."""
    from repro.search.blinks import Blinks

    return boost(Blinks(d_max=d_max, k=k), index, **kwargs)


def boost_dkws(
    index: BiGIndex,
    radius: int = 4,
    k: Optional[int] = 10,
    **kwargs,
) -> BoostedSearch:
    """Sec. 5.2's ``boost-dkws``: r-clique search on BiG-index."""
    from repro.search.rclique import RClique

    return boost(RClique(radius=radius, k=k), index, **kwargs)
