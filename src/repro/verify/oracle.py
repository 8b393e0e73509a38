"""Differential oracle: ``eval(G, Q, f)`` vs ``eval_Ont(G, Q, f)``.

Lemma 4.1 / Prop. 5.1-5.2 promise that hierarchical evaluation is *exact*:
for any plugged algorithm ``f``, any layer ``m`` and any answer-generation
mode, the answers coming out of the BiG-index equal the answers a direct
search on the data graph returns.  The oracle checks that promise by
running both sides and diffing the results.

What "equal" means depends on the generation mode, because the modes
enumerate different supersets of the same logical answers:

* ``root-verify`` re-derives each candidate root's best answer exactly on
  the data graph, so for distinct-root semantics the answer *signatures
  and scores* must match the direct run one-for-one (tie-breaking is
  canonical across the code base — see ``nearest_labeled_forward``).
* ``vertex`` / ``path`` on *distinct-root* semantics enumerate concrete
  assignments of the summary answer's particular keyword supernodes — the
  nearest generalized matches, which legitimately constrain the
  enumeration (Sec. 4.3 keeps completeness through root verification, not
  through assignment enumeration).  The sound invariant is one-sided:
  every reported root must also qualify directly, and no reported score
  may beat the direct optimum for its root (exact verification can only
  rediscover or dominate the true best).
* root-free semantics (r-clique) enumerate every keyword-supernode
  combination, so the signature -> best-score maps must agree exactly in
  both directions (the Exp-2 boost-dkws equivalence).

With a top-k cutoff answer *sets* may legitimately differ under score
ties, so the oracle compares the sorted score lists instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.evaluator import HierarchicalEvaluator, eval_direct
from repro.core.index import BiGIndex
from repro.search.base import (
    Answer,
    KeywordQuery,
    KeywordSearchAlgorithm,
    RootedTreeAlgorithm,
    top_k,
)
from repro.utils.errors import BigIndexError, QueryError

#: Builds the evaluator under test; tests inject buggy subclasses here to
#: prove the oracle catches them.
EvaluatorFactory = Callable[
    [BiGIndex, KeywordSearchAlgorithm, str], HierarchicalEvaluator
]


def default_evaluator_factory(
    index: BiGIndex, algorithm: KeywordSearchAlgorithm, generation: str
) -> HierarchicalEvaluator:
    return HierarchicalEvaluator(index, algorithm, generation=generation)


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement between direct and hierarchical evaluation."""

    algorithm: str
    query: Tuple[str, ...]
    layer: int
    generation: str
    kind: str
    detail: str

    def __str__(self) -> str:
        return (
            f"{self.algorithm} Q={list(self.query)} layer={self.layer} "
            f"mode={self.generation} [{self.kind}]: {self.detail}"
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


def _root_projection(answers: Sequence[Answer]) -> Dict[Optional[int], float]:
    """Distinct-root projection: root -> minimum score over its answers."""
    result: Dict[Optional[int], float] = {}
    for a in answers:
        if a.root not in result or a.score < result[a.root]:
            result[a.root] = a.score
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


def _diff_soundness(
    expected: Dict[Optional[int], float], actual: Dict[Optional[int], float]
) -> List[Tuple[str, str]]:
    """One-sided check for assignment-mode enumeration on rooted semantics.

    The hierarchy may legitimately report fewer roots (the summary answer's
    supernodes constrain the enumeration; completeness comes from
    root-verify), but every root it does report must qualify directly, and
    no score may beat the direct optimum for its root.
    """
    problems: List[Tuple[str, str]] = []
    extra = sorted((r for r in actual if r not in expected), key=repr)
    if extra:
        problems.append(
            (
                "extra-root",
                f"hierarchy reports {len(extra)} root(s) the direct run "
                f"rejects, e.g. {extra[:3]}",
            )
        )
    too_good = [
        (root, expected[root], actual[root])
        for root in actual
        if root in expected and actual[root] < expected[root]
    ]
    if too_good:
        problems.append(
            (
                "score-too-good",
                f"{len(too_good)} root(s) score better than the direct "
                f"optimum (root, direct, hierarchical): {too_good[:3]}",
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
        Builds the :class:`HierarchicalEvaluator` per (algorithm, mode);
        override to test instrumented/buggy evaluators.
    """

    def __init__(
        self,
        index: BiGIndex,
        evaluator_factory: EvaluatorFactory = default_evaluator_factory,
    ) -> None:
        self.index = index
        self.evaluator_factory = evaluator_factory
        self._direct_cache: Dict[Tuple[str, Tuple[str, ...]], List[Answer]] = {}
        # Evaluators are reused across queries (searchers and their
        # per-layer algorithm indexes are expensive to rebuild, and the
        # evaluator's own epoch sync keeps reuse safe across maintenance).
        self._evaluators: Dict[Tuple[int, str], HierarchicalEvaluator] = {}

    # ------------------------------------------------------------------
    def _evaluator_for(
        self, algorithm: KeywordSearchAlgorithm, generation: str
    ) -> HierarchicalEvaluator:
        """One evaluator per (algorithm, generation), built lazily."""
        key = (id(algorithm), generation)
        evaluator = self._evaluators.get(key)
        if evaluator is None:
            evaluator = self.evaluator_factory(
                self.index, algorithm, generation
            )
            self._evaluators[key] = evaluator
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
        generations: Sequence[str] = ("root-verify", "vertex", "path"),
        layers: Optional[Sequence[int]] = None,
        k: Optional[int] = None,
    ) -> OracleReport:
        """Diff direct vs hierarchical evaluation for one query.

        Every applicable (layer, generation) pair is compared; layers where
        the generalized keywords collide (Def. 4.1 would reject them) are
        counted as skipped, not as divergences.
        """
        report = OracleReport()
        direct_all = self.direct_answers(algorithm, query)
        direct = top_k(direct_all, k)
        rooted = isinstance(algorithm, RootedTreeAlgorithm)
        # An algorithm-internal cutoff truncates both runs just like an
        # explicit k: answer sets may differ on ties, so compare scores.
        effective_k = k if k is not None else algorithm.k
        if layers is None:
            layers = range(1, self.index.num_layers + 1)
        for layer in layers:
            if not self.index.query_distinct_at(query, layer):
                report.skipped += 1
                continue
            for generation in generations:
                if generation == "root-verify" and not rooted:
                    continue
                report.checks += 1
                try:
                    evaluator = self._evaluator_for(algorithm, generation)
                    result = evaluator.evaluate(query, layer=layer, k=k)
                except (QueryError, BigIndexError) as exc:
                    report.divergences.append(
                        Divergence(
                            algorithm=algorithm.name,
                            query=query.keywords,
                            layer=layer,
                            generation=generation,
                            kind="error",
                            detail=f"hierarchical evaluation raised: {exc}",
                        )
                    )
                    continue
                for kind, detail in self._compare(
                    direct, result.answers, rooted, generation, effective_k
                ):
                    report.divergences.append(
                        Divergence(
                            algorithm=algorithm.name,
                            query=query.keywords,
                            layer=layer,
                            generation=generation,
                            kind=kind,
                            detail=detail,
                        )
                    )
        return report

    def run(
        self,
        algorithms: Sequence[KeywordSearchAlgorithm],
        queries: Sequence[KeywordQuery],
        generations_for: Optional[
            Callable[[KeywordSearchAlgorithm], Sequence[str]]
        ] = None,
        k: Optional[int] = None,
    ) -> OracleReport:
        """Cross-check every algorithm against every query."""
        report = OracleReport()
        for algorithm in algorithms:
            if generations_for is not None:
                generations = generations_for(algorithm)
            elif isinstance(algorithm, RootedTreeAlgorithm):
                generations = ("root-verify", "vertex", "path")
            else:
                generations = ("vertex",)
            for query in queries:
                report.merge(
                    self.check(algorithm, query, generations=generations, k=k)
                )
        return report

    # ------------------------------------------------------------------
    def _compare(
        self,
        direct: Sequence[Answer],
        hierarchical: Sequence[Answer],
        rooted: bool,
        generation: str,
        k: Optional[int],
    ) -> List[Tuple[str, str]]:
        if k is not None:
            # Under a top-k cutoff the answer sets may differ on ties; the
            # ranked score lists must still agree (Prop. 5.3).
            expected = [a.score for a in direct]
            actual = sorted(a.score for a in hierarchical)[: len(expected)]
            if rooted and generation != "root-verify":
                # Assignment modes may return fewer answers (see the module
                # docstring); each rank they do fill must not beat the true
                # rank-i optimum, which any valid answer subset dominates.
                too_good = [
                    (rank, expected[rank], actual[rank])
                    for rank in range(min(len(expected), len(actual)))
                    if actual[rank] < expected[rank]
                ]
                if too_good:
                    return [
                        (
                            "topk-too-good",
                            f"hierarchical rank beats the direct optimum "
                            f"(rank, direct, hierarchical): {too_good[:3]}",
                        )
                    ]
                return []
            if expected != actual:
                return [
                    (
                        "topk-scores",
                        f"direct top-{k} scores {expected} vs hierarchical "
                        f"{actual}",
                    )
                ]
            return []
        if rooted and generation == "root-verify":
            return _diff_maps(
                _signature_scores(direct),
                _signature_scores(hierarchical),
                "answer",
            )
        if rooted:
            return _diff_soundness(
                _root_projection(direct),
                _root_projection(hierarchical),
            )
        return _diff_maps(
            _signature_scores(direct),
            _signature_scores(hierarchical),
            "answer",
        )
