"""Differential oracle: ``eval(G, Q, f)`` vs ``eval_Ont(G, Q, f)``.

Lemma 4.1 / Prop. 5.1-5.2 promise that hierarchical evaluation is *exact*:
for any plugged algorithm ``f`` and any layer ``m``, the answers coming
out of the BiG-index equal the answers a direct search on the data graph
returns.  The oracle checks that promise by running both sides and
diffing the results.

The evaluator generates answers one way per query semantics — root
verification for rooted-tree algorithms, exactly verified Algorithm 3
assignments for root-free ones (r-clique) — and both must reproduce the
direct run's answer *signatures and scores* one-for-one (tie-breaking is
canonical across the code base — see ``nearest_labeled_forward``).

With a top-k cutoff answer *sets* may legitimately differ under score
ties, so the oracle compares the sorted score lists instead.  That holds
for the rooted algorithms, whose top-k is exact.  r-clique's top-k is
not: each Lawler subspace's best answer is the greedy 2-approximation
(``search/rclique.py``), so a direct run and a hierarchical run at the
same ``k`` can keep different answers (or miss the true top-k); the
harness therefore runs r-clique at ``k=None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.evaluator import HierarchicalEvaluator, eval_direct
from repro.core.index import BiGIndex
from repro.search.base import Answer, KeywordQuery, KeywordSearchAlgorithm, top_k
from repro.utils.errors import BigIndexError, QueryError

#: Builds the evaluator under test; tests inject buggy subclasses here to
#: prove the oracle catches them.
EvaluatorFactory = Callable[
    [BiGIndex, KeywordSearchAlgorithm], HierarchicalEvaluator
]


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement between direct and hierarchical evaluation."""

    algorithm: str
    query: Tuple[str, ...]
    layer: int
    kind: str
    detail: str

    def __str__(self) -> str:
        return (
            f"{self.algorithm} Q={list(self.query)} layer={self.layer} "
            f"[{self.kind}]: {self.detail}"
        )


@dataclass
class OracleReport:
    """Aggregated outcome of oracle runs."""

    checks: int = 0
    skipped: int = 0
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def merge(self, other: "OracleReport") -> None:
        self.checks += other.checks
        self.skipped += other.skipped
        self.divergences.extend(other.divergences)

    def format(self) -> str:
        if self.ok:
            return (
                f"oracle: OK ({self.checks} comparisons, "
                f"{self.skipped} skipped)"
            )
        lines = [
            f"oracle: {len(self.divergences)} divergence(s) in "
            f"{self.checks} comparisons ({self.skipped} skipped)"
        ]
        lines.extend(f"  {d}" for d in self.divergences)
        return "\n".join(lines)


def _signature_scores(answers: Sequence[Answer]) -> Dict[Tuple, float]:
    """Map each answer signature to its best (lowest) score."""
    result: Dict[Tuple, float] = {}
    for a in answers:
        sig = a.signature()
        if sig not in result or a.score < result[sig]:
            result[sig] = a.score
    return result


def _diff_maps(expected: Dict, actual: Dict, label: str) -> List[Tuple[str, str]]:
    """Compare best-score maps; returns (kind, detail) pairs."""
    problems: List[Tuple[str, str]] = []
    missing = sorted(set(expected) - set(actual), key=repr)
    extra = sorted(set(actual) - set(expected), key=repr)
    if missing:
        problems.append(
            (
                f"missing-{label}",
                f"direct finds {len(missing)} {label}(s) the hierarchy "
                f"misses, e.g. {missing[:3]}",
            )
        )
    if extra:
        problems.append(
            (
                f"extra-{label}",
                f"hierarchy reports {len(extra)} {label}(s) absent from "
                f"the direct run, e.g. {extra[:3]}",
            )
        )
    mismatched = [
        (key, expected[key], actual[key])
        for key in expected
        if key in actual and expected[key] != actual[key]
    ]
    if mismatched:
        examples = mismatched[:3]
        problems.append(
            (
                "score-mismatch",
                f"{len(mismatched)} {label}(s) score differently "
                f"(key, direct, hierarchical): {examples}",
            )
        )
    return problems


class DifferentialOracle:
    """Cross-checks one index against direct evaluation, per algorithm.

    Parameters
    ----------
    index:
        The BiG-index under test.
    evaluator_factory:
        Builds the :class:`HierarchicalEvaluator` per algorithm; override
        to test instrumented/buggy evaluators.
    """

    def __init__(
        self,
        index: BiGIndex,
        evaluator_factory: EvaluatorFactory = HierarchicalEvaluator,
    ) -> None:
        self.index = index
        self.evaluator_factory = evaluator_factory
        self._direct_cache: Dict[Tuple[str, Tuple[str, ...]], List[Answer]] = {}
        # Evaluators are reused across queries (searchers and their
        # per-layer algorithm indexes are expensive to rebuild, and the
        # evaluator's own epoch sync keeps reuse safe across maintenance).
        self._evaluators: Dict[int, HierarchicalEvaluator] = {}

    # ------------------------------------------------------------------
    def _evaluator_for(
        self, algorithm: KeywordSearchAlgorithm
    ) -> HierarchicalEvaluator:
        """One evaluator per algorithm, built lazily."""
        evaluator = self._evaluators.get(id(algorithm))
        if evaluator is None:
            evaluator = self.evaluator_factory(self.index, algorithm)
            self._evaluators[id(algorithm)] = evaluator
        return evaluator

    # ------------------------------------------------------------------
    def direct_answers(
        self, algorithm: KeywordSearchAlgorithm, query: KeywordQuery
    ) -> List[Answer]:
        """All answers of the direct run (cached per algorithm + query)."""
        key = (algorithm.name, query.keywords)
        cached = self._direct_cache.get(key)
        if cached is None:
            cached, _ = eval_direct(self.index.base_graph, algorithm, query)
            cached = top_k(cached, None)
            self._direct_cache[key] = cached
        return cached

    def check(
        self,
        algorithm: KeywordSearchAlgorithm,
        query: KeywordQuery,
        layers: Optional[Sequence[int]] = None,
        k: Optional[int] = None,
    ) -> OracleReport:
        """Diff direct vs hierarchical evaluation for one query.

        Every layer is compared; layers where the generalized keywords
        collide (Def. 4.1 would reject them) are counted as skipped, not
        as divergences.
        """
        report = OracleReport()
        direct = top_k(self.direct_answers(algorithm, query), k)
        # An algorithm-internal cutoff truncates both runs just like an
        # explicit k: answer sets may differ on ties, so compare scores.
        effective_k = k if k is not None else algorithm.k
        if layers is None:
            layers = range(1, self.index.num_layers + 1)
        for layer in layers:
            if not self.index.query_distinct_at(query, layer):
                report.skipped += 1
                continue
            report.checks += 1
            try:
                evaluator = self._evaluator_for(algorithm)
                result = evaluator.evaluate(query, layer=layer, k=k)
            except (QueryError, BigIndexError) as exc:
                problems = [
                    ("error", f"hierarchical evaluation raised: {exc}")
                ]
            else:
                problems = _compare(direct, result.answers, effective_k)
            report.divergences.extend(
                Divergence(
                    algorithm=algorithm.name,
                    query=query.keywords,
                    layer=layer,
                    kind=kind,
                    detail=detail,
                )
                for kind, detail in problems
            )
        return report

    def run(
        self,
        algorithms: Sequence[KeywordSearchAlgorithm],
        queries: Sequence[KeywordQuery],
        k: Optional[int] = None,
    ) -> OracleReport:
        """Cross-check every algorithm against every query."""
        report = OracleReport()
        for algorithm in algorithms:
            for query in queries:
                report.merge(self.check(algorithm, query, k=k))
        return report


def _compare(
    direct: Sequence[Answer],
    hierarchical: Sequence[Answer],
    k: Optional[int],
) -> List[Tuple[str, str]]:
    if k is not None:
        # Under a top-k cutoff the answer sets may differ on ties; the
        # ranked score lists must still agree (Prop. 5.3).
        expected = [a.score for a in direct]
        actual = sorted(a.score for a in hierarchical)[: len(expected)]
        if expected != actual:
            return [
                (
                    "topk-scores",
                    f"direct top-{k} scores {expected} vs hierarchical "
                    f"{actual}",
                )
            ]
        return []
    return _diff_maps(
        _signature_scores(direct), _signature_scores(hierarchical), "answer"
    )
