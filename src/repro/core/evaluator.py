"""Algorithm 2: hierarchical query processing (``eval_Ont``).

The evaluator runs the five steps of Fig. 5 / Algo. 2:

1. **Query generalization** — pick the optimal layer ``m`` via the query
   cost model (Formula 4, Def. 4.1) and generalize the keywords to it.
2. **Evaluation on the summary graph** — run the plugged algorithm ``f``
   on ``G^m`` with ``Gen^m(Q)`` (the *explore* phase of the Exp-1 time
   breakdown).
3. **Specialization and pruning** — walk each generalized answer's vertex
   sets down the hierarchy one layer at a time; keyword nodes are pruned
   by Prop. 4.1 (a specialization survives only if its label generalizes
   to the keyword's generalization at that layer), implementing the
   early-specialization-of-keyword-nodes optimization of Sec. 4.3.1
   (a generalized answer dies as soon as any keyword node's candidate set
   empties).  Non-keyword vertices specialize without pruning — they are
   kept only for connectivity (Sec. 5.1).
4. **Answer generation** — turn candidate sets into concrete answers, one
   way per query semantics (the plugged algorithm's type decides):

   * rooted-tree semantics (a
     :class:`~repro.search.base.RootedTreeAlgorithm`): root verification.
     The candidate roots are the specializations of each generalized
     answer's root; every candidate root is verified exactly on the data
     graph (``root_verifier``: a read of the root's profile, memoized
     per frozen graph, or one bounded BFS on the heap).  Complete because
     path-preservation guarantees every true root's image is a summary
     answer root (Lemma 4.1 / Prop. 5.1).  Summary answers are batches of
     (score, root) pairs, verified roots stay
     :class:`~repro.search.base.RootHit` tuples, and an answer tree is
     built only for the top-k that leave the evaluator.
   * root-free semantics (r-clique): Algorithm 3 assignment enumeration
     (Def. 4.2 qualification + specialization order), each assignment
     verified exactly by the algorithm.

   Algorithm 4's path-based enumeration with the paper's
   qualification-trusted summary scores is a different program (it can
   under-report scores and miss answers); the Exp-1 benchmarks run it as
   ``repro.bench.harness.PaperPipeline``.

5. **Early termination after the first k answers** (Sec. 4.3.4) —
   generalized answers are processed in ascending summary score; since
   summary distances lower-bound data-graph distances (Prop. 5.2), the
   evaluation stops once k answers are verified and the k-th best score
   is at most the next unprocessed summary score.

Resilience
----------
Every step accepts an optional :class:`~repro.utils.budget.Budget`; the
layer descent charges it per summary answer, per specialization step and
per verified candidate.  One primitive,
:meth:`HierarchicalEvaluator._attempt`, walks the five steps and
*returns* what it got — complete, or interrupted with the *proven prefix*
of the answer ranking found so far.  Two thin wrappers read that outcome:
:meth:`~HierarchicalEvaluator.evaluate` (the result cache; strict) turns
an interrupted attempt into a plain
:class:`~repro.utils.errors.BudgetExceeded` carrying the prefix, and
:meth:`~HierarchicalEvaluator.evaluate_resilient` retries the remaining
budget on coarser, cheaper layers and returns a :class:`DegradedResult`
envelope instead of failing.  See ``docs/ROBUSTNESS.md`` for the exact
guarantees.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.answer_gen import (
    GeneralizedAnswerGraph,
    ans_graph_gen,
    enlarge_qualifier,
)
from repro.core.index import BiGIndex
from repro.core.query_cost import QueryCostModel
from repro.core.querycache import LRUCache
from repro.obs.runtime import OBS
from repro.obs.tracer import NULL_TRACER
from repro.search.base import (
    Answer,
    BackwardFrontier,
    GraphSearcher,
    KeywordQuery,
    KeywordSearchAlgorithm,
    RootedTreeAlgorithm,
    settled_by_all,
    top_k,
)
from repro.utils.budget import Budget
from repro.utils.errors import BudgetExceeded, QueryError
from repro.utils.timers import TimeBreakdown


def _timed(breakdown: TimeBreakdown, phase: str, **attrs) -> object:
    """Time ``phase`` in ``breakdown`` and trace it as a span."""
    return breakdown.phase(phase, OBS.tracer.span(phase, **attrs))


@dataclass
class EvalResult:
    """Outcome of one ``eval_Ont`` run with its instrumentation."""

    answers: List[Answer]
    layer: int
    breakdown: TimeBreakdown = field(default_factory=TimeBreakdown)
    #: |A^m|: generalized answers found on the summary graph.
    num_generalized: int = 0
    #: candidates examined during generation (roots or assignments).
    num_candidates: int = 0
    #: candidates that survived exact verification.
    num_verified: int = 0
    #: candidate roots the layer-1 reach bound rejected without a BFS.
    num_bounded: int = 0
    #: node expansions the evaluator charged itself (:meth:`charge`).
    num_charged: int = 0
    #: supernodes specialized to layer 0 (``spec.lookups``).
    num_spec_lookups: int = 0
    #: The serving layer's memo of these answers' encoding (at most one
    #: item; ``serve.service.encode_result`` fills it), outside equality
    #: and ``repr``.  ``replace`` shares it, so a result-cache entry and
    #: every copy a hit returns encode their answers once; a miss caches
    #: its result with a fresh slot, so only entries that are hit ever
    #: hold an encoding.
    memo: List[object] = field(
        default_factory=list, compare=False, repr=False
    )

    #: Complete results are never degraded; lets callers branch on
    #: ``result.degraded`` without isinstance checks.
    degraded = False

    @property
    def total_seconds(self) -> float:
        """Total measured query time across phases."""
        return self.breakdown.total

    def charge(self, budget: Optional[Budget], amount: int = 1) -> None:
        """Tally ``amount`` expansions, then charge ``budget``: the tally
        is published as ``search.expansions`` once per attempt, and it
        comes first, so the charge that trips the budget is counted."""
        self.num_charged += amount
        if budget is not None:
            budget.charge(amount)


@dataclass
class DegradedAttempt:
    """Instrumentation for one budget-limited evaluation attempt."""

    layer: int
    #: Which budget limit tripped (``"deadline"``, ``"expansions"`` or
    #: ``"cancelled"``).
    reason: str
    #: Node expansions charged when the attempt was interrupted.
    expansions: int
    num_generalized: int = 0
    num_candidates: int = 0
    #: Answers proven to be a ranking prefix (score < the attempt's bound).
    proven: int = 0
    #: Exact answers found but not provably in the prefix.
    unproven: int = 0


@dataclass
class DegradationStats:
    """How far a degraded evaluation got before its budget ran out."""

    #: Node expansions charged to the parent budget across all attempts.
    expansions_consumed: int
    #: Expansions still unspent, or ``None`` without an expansion cap.
    expansions_remaining: Optional[int]
    #: Seconds left before the deadline, or ``None`` without one.
    time_remaining_seconds: Optional[float]
    #: Layers tried, in attempt order.
    layers_attempted: List[int] = field(default_factory=list)

    def describe(self) -> str:
        parts = [f"spent {self.expansions_consumed} expansion(s)"]
        if self.expansions_remaining is not None:
            parts.append(f"{self.expansions_remaining} remaining")
        if self.time_remaining_seconds is not None:
            parts.append(f"{self.time_remaining_seconds:.3f}s left")
        layers = ", ".join(str(m) for m in self.layers_attempted)
        if layers:
            parts.append(f"layers tried: {layers}")
        return ", ".join(parts)


@dataclass
class DegradedResult:
    """Partial — but sound — outcome of a budget-exhausted evaluation.

    ``answers`` is a *ranking prefix*: every answer is exact, and by the
    per-algorithm frontier bounds (see ``docs/ROBUSTNESS.md``) no true
    answer scoring strictly below ``lower_bound`` is missing.  Sorting
    the oracle's full ranking and truncating where scores reach
    ``lower_bound`` yields the same score sequence.

    ``unranked`` holds additional exact answers whose scores reach
    ``lower_bound`` — real answers, but with unknown rank; they are kept
    separate so callers cannot mistake them for part of the prefix.
    """

    answers: List[Answer]
    layer: int
    reason: str
    lower_bound: float
    unranked: List[Answer] = field(default_factory=list)
    attempts: List[DegradedAttempt] = field(default_factory=list)
    breakdown: TimeBreakdown = field(default_factory=TimeBreakdown)
    #: Budget consumption at the moment the evaluation gave up.
    stats: Optional[DegradationStats] = None

    degraded = True

    @property
    def num_generalized(self) -> int:
        return sum(a.num_generalized for a in self.attempts)

    @property
    def num_candidates(self) -> int:
        return sum(a.num_candidates for a in self.attempts)

    @property
    def total_seconds(self) -> float:
        return self.breakdown.total

    def summary(self) -> str:
        """One-line operator-facing description of the degradation."""
        parts = [
            f"degraded ({self.reason}): {len(self.answers)} proven "
            f"answer(s), complete below score {self.lower_bound:g}"
        ]
        if self.unranked:
            parts.append(f"{len(self.unranked)} additional unranked")
        trail = ", ".join(
            f"layer {a.layer} ({a.expansions} expansions, {a.reason})"
            for a in self.attempts
        )
        if trail:
            parts.append(f"attempts: {trail}")
        if self.stats is not None:
            parts.append(self.stats.describe())
        return "; ".join(parts)


class Verified:
    """Verified answers by signature — root hits on the root-verify path —
    with their scores kept sorted, so the k-th best score (Sec. 4.3.4's
    termination test) is a lookup rather than a sort per check."""

    def __init__(self) -> None:
        self._by_signature: Dict[Tuple, object] = {}
        self._scores: List[float] = []

    def __len__(self) -> int:
        return len(self._by_signature)

    def offer(self, item) -> None:
        """Keep ``item`` unless its signature is already held at a score
        at most ``item.score``."""
        signature = item.signature()
        existing = self._by_signature.get(signature)
        if existing is not None:
            if item.score >= existing.score:
                return
            del self._scores[bisect_left(self._scores, existing.score)]
        self._by_signature[signature] = item
        insort(self._scores, item.score)

    def dominates(self, k: Optional[int], score: float) -> bool:
        """Whether ``k`` answers are held and the k-th best scores at most
        ``score`` (Sec. 4.3.4's termination test)."""
        scores = self._scores
        return k is not None and len(scores) >= k and scores[k - 1] <= score

    def values(self) -> List:
        return list(self._by_signature.values())


class HierarchicalEvaluator:
    """``eval_Ont`` for one (index, algorithm) pair.

    Each attempt binds the algorithm to the layer graph it reads
    (:meth:`searcher_for_layer`); a searcher lives for one attempt.  The
    only bind that builds anything, r-clique's neighbor list, is cached
    per graph state by the algorithm itself, which is where the paper's
    offline per-layer index lives (:meth:`warm` builds it up front).

    Parameters
    ----------
    index:
        The BiG-index hierarchy.
    algorithm:
        The plugged keyword search algorithm ``f``.
    allow_layer_zero:
        Let the query cost model route to the data graph itself.
    cache_size:
        Capacity of the per-evaluator query-result LRU (``0`` disables
        caching).  Cached and uncached evaluation are byte-identical —
        entries are keyed by the index's ``epoch``, read before the
        attempt, plus the canonicalized query and every argument that
        affects the ranking.  Epoch components only grow, so a result
        computed under a superseded epoch sits under a key no later
        lookup forms and ages out of the LRU; budgeted executions bypass
        the cache entirely (see :meth:`evaluate`).
    """

    def __init__(
        self,
        index: BiGIndex,
        algorithm: KeywordSearchAlgorithm,
        allow_layer_zero: bool = False,
        cache_size: int = 128,
    ) -> None:
        self.index = index
        self.algorithm = algorithm
        self.cost_model = QueryCostModel(
            index, allow_layer_zero=allow_layer_zero
        )
        #: Answer generation (module docstring, step 4): rooted-tree
        #: semantics verify candidate roots, root-free ones enumerate
        #: assignments.
        self.rooted = isinstance(algorithm, RootedTreeAlgorithm)
        self._result_cache: Optional[LRUCache] = (
            LRUCache(cache_size, kind="result") if cache_size else None
        )

    @staticmethod
    def _copy_result(result: EvalResult) -> EvalResult:
        """A caller-mutable copy of a cached result (answers are frozen);
        it shares the entry's :attr:`EvalResult.memo`."""
        return replace(
            result, answers=list(result.answers), breakdown=TimeBreakdown()
        )

    # ------------------------------------------------------------------
    def _layer_cost_attrs(self, query: KeywordQuery) -> Dict[str, object]:
        """Per-layer Formula-4 costs as span attributes, computed only
        when a tracer records (``--explain`` / ``--trace-out``).

        Shows *why* the cost model picked its layer; colliding layers
        (``|Gen^m(Q)| < |Q|``) are marked ineligible instead of costed.
        """
        try:
            costs = self.cost_model.all_layer_costs(query)
        except QueryError:  # pragma: no cover - defensive
            return {}
        attrs: Dict[str, object] = {}
        for entry in costs:
            key = f"cost.G{entry.layer}"
            attrs[key] = round(entry.cost, 4) if entry.distinct else "collides"
        return attrs

    def searcher_for_layer(self, m: int) -> GraphSearcher:
        """The algorithm bound to ``G^m`` as it is now, for one attempt."""
        return self.algorithm.bind(self.index.layer_graph(m))

    def evaluate(
        self,
        query: KeywordQuery,
        layer: Optional[int] = None,
        k: Optional[int] = None,
        budget: Optional[Budget] = None,
    ) -> EvalResult:
        """Run ``eval_Ont(G, Q, f)``, serving repeats from the result cache.

        Parameters
        ----------
        query:
            The keyword query on the *data graph's* vocabulary.
        layer:
            Force a specific layer ``m`` (Exp-4/6 sweep layers); ``None``
            uses the cost model's optimal layer.
        k:
            Top-k cutoff with early termination; ``None`` uses the
            algorithm's own ``k`` if any, returning all answers otherwise.
        budget:
            Optional execution budget charged throughout exploration,
            specialization and generation.  This is the *strict* entry
            point: on exhaustion it raises
            :class:`~repro.utils.errors.BudgetExceeded` whose ``partial``
            is the proven prefix of the data-graph ranking found so far,
            complete below its ``lower_bound``
            (:meth:`evaluate_resilient` degrades instead).

        Unbudgeted evaluations are memoized per (index epoch, canonical
        query, layer, k) key; a hit replays the stored ranking
        byte-for-byte (the ``verify`` cache drill enforces the identity)
        in a copy that shares the entry's :attr:`EvalResult.memo`.
        Budgeted runs always execute and are never stored: a
        :class:`~repro.utils.budget.Budget` is a stateful ledger, so
        whether a run completes depends on what was already charged, on
        the wall clock and on an external cancellation token — and a
        replay would skip the charges the caller's remaining budget is
        supposed to reflect.
        """
        if k is None:
            k = self.algorithm.k
        key: Optional[Tuple] = None
        if self._result_cache is not None and budget is None:
            # Keywords are canonicalized sorted: answer sets are
            # keyword-order independent (a set semantics the exactness
            # tests pin down).
            key = (self.index.epoch, tuple(sorted(query.keywords)), layer, k)
            hit = self._result_cache.get(key)
            if hit is not None:
                if OBS.enabled:
                    with OBS.tracer.span("result-cache") as span:
                        span.annotate(
                            **{"query.warm": True, "answers": len(hit.answers)}
                        )
                return self._copy_result(hit)
        result = self._attempt(query, layer, k, budget)
        if result.degraded:
            raise BudgetExceeded(
                result.reason,
                result.attempts[0].expansions,
                partial=result.answers,
                lower_bound=result.lower_bound,
            )
        if key is not None:
            # A fresh memo: the miss's own encoding dies with its response.
            entry = replace(
                result,
                answers=list(result.answers),
                breakdown=TimeBreakdown(),
                memo=[],
            )
            self._result_cache.put(key, entry)
        return result

    def _attempt(
        self,
        query: KeywordQuery,
        layer: Optional[int],
        k: Optional[int],
        budget: Optional[Budget],
    ) -> Union[EvalResult, DegradedResult]:
        """One walk through Algo. 2's five steps — the only one there is.

        :meth:`evaluate` (result cache, strict) and
        :meth:`evaluate_resilient` (coarser-layer plan) both run this and
        read what it *returns*: a budget tripping mid-walk is an outcome,
        not an exception — a one-attempt :class:`DegradedResult` (no
        ``stats``; ``lower_bound`` as computed) whose ``answers`` are the
        proven prefix of the data-graph ranking, complete below
        ``lower_bound``, with the exact answers found at or above the
        bound in ``unranked``.  Parameters are :meth:`evaluate`'s.
        """
        breakdown = TimeBreakdown()
        if k is None:
            k = self.algorithm.k

        with _timed(breakdown, "layer-selection") as selection_span:
            forced = layer is not None
            if layer is None:
                layer = self.cost_model.optimal_layer(query)
            elif layer > 0 and not self.index.query_distinct_at(query, layer):
                raise QueryError(
                    f"keywords collide at layer {layer}; Def. 4.1 requires "
                    "|Gen^m(Q)| = |Q|"
                )
            if OBS.tracer is not NULL_TRACER:
                selection_span.annotate(
                    layer=layer, forced=forced, **self._layer_cost_attrs(query)
                )

        result = EvalResult(answers=[], layer=layer, breakdown=breakdown)
        verified = Verified()
        searcher: Optional[GraphSearcher] = None
        # The score of the summary answer being specialized / generated
        # when a budget trips; it bounds everything not yet derived from
        # it (and, in a sorted stream, everything still unread).
        in_flight: Optional[float] = None
        try:
            if layer == 0:
                # Degenerate case: evaluate directly on the data graph, so
                # every answer the searcher finds is at once generalized
                # answer, candidate and verified.
                with _timed(breakdown, "explore", layer=0):
                    searcher = self.searcher_for_layer(0)
                    if self.rooted:
                        found = searcher.search_hits(query, budget=budget)
                    else:
                        found = searcher.search(query, budget=budget)
                result.num_generalized = result.num_candidates = len(found)
            else:
                with _timed(breakdown, "translate", layer=layer) as translate_span:
                    generalized_keywords = self.index.generalize_query(
                        query, layer
                    )
                    keyword_by_generalized = dict(
                        zip(generalized_keywords, query.keywords)
                    )
                    generalized_query = KeywordQuery(generalized_keywords)
                    if OBS.enabled:
                        translate_span.annotate(
                            generalized=",".join(generalized_keywords)
                        )
                        OBS.metrics.inc("eval.queries_generalized")

                # Stream summary answers lazily: specialization is
                # interleaved with enumeration so top-k runs stop as soon
                # as the verified answers dominate everything unexplored
                # (Sec. 4.3.4 and boost-dkws's interleaved decomposition,
                # Sec. 5.2).  Streams are not necessarily score-sorted;
                # searchers that emit out of order expose a running
                # ``stream_lower_bound`` instead.  Rooted streams are settled
                # batches of (score, root) pairs: phases are entered once per
                # batch, and no summary-layer hit is ever built.
                searcher = self.searcher_for_layer(layer)
                if self.rooted:
                    batches = searcher.root_batches(generalized_query, budget)
                else:  # one summary answer per batch
                    batches = (([(answer.score, answer)], None) for answer
                               in searcher.iter_search(generalized_query, budget))
                seen_roots: Set[int] = set()
                reach: Optional[Set[int]] = None
                lifted: Set[int] = set()
                verify = self.algorithm.root_verifier(
                    self.index.base_graph, query
                ) if self.rooted else None
                done = False
                while not done:
                    in_flight = None
                    with _timed(breakdown, "explore", layer=layer):
                        pairs = next(batches, (None,))[0]
                    if pairs is None:
                        break
                    specs: Iterable = repeat(None)
                    if self.rooted:
                        with _timed(breakdown, "specialize", layer=layer):
                            # Only the root specializes, unpruned: the
                            # keyword matches are re-derived on G^0.
                            specs = self.index.spec_many(
                                [root for _, root in pairs], layer
                            )
                    with _timed(breakdown, "generate", strategy="root-verify") \
                            if self.rooted else nullcontext():
                        for (score, summary), spec in zip(pairs, specs):
                            in_flight = score
                            result.charge(budget)
                            result.num_generalized += 1
                            bound = searcher.stream_lower_bound
                            done = verified.dominates(
                                k, score if bound is None else bound
                            )
                            if done:
                                break  # Sec. 4.3.4: the rest cannot win.
                            if verified.dominates(k, score):
                                continue  # cannot improve; keep streaming
                            if self.rooted:
                                result.charge(budget)  # its spec
                                result.num_spec_lookups += 1
                                if reach is None and layer >= 2:
                                    reach = self._layer1_reach(query, budget)
                                    if reach is not None:
                                        lifted = self._lift(reach, layer)
                                if reach is not None and summary not in lifted \
                                        and (budget is None
                                             or budget.affords(len(spec))):
                                    # No layer-1 block under the hit is
                                    # reached: count and charge its roots
                                    # as the per-root loop would, in one
                                    # step (only when the cap affords them
                                    # all, so the loop trips it as before).
                                    result.charge(budget, len(spec))
                                    seen_roots.update(spec)
                                    result.num_candidates += len(spec)
                                    result.num_bounded += len(spec)
                                    continue
                                self._generate_by_root(
                                    score, spec, verify, verified, seen_roots,
                                    result, k, budget, reach,
                                )
                                continue
                            with _timed(breakdown, "specialize", layer=layer):
                                spec = self._specialize_answer(
                                    summary, layer, query,
                                    keyword_by_generalized, result, budget,
                                )
                            if spec is None:
                                continue
                            with _timed(breakdown, "generate",
                                        strategy="assignment"):
                                self._generate_by_assignment(
                                    summary, spec, query, verified, result,
                                    budget,
                                )
                found = verified.values()
                if OBS.enabled:
                    OBS.metrics.inc("eval.candidates", result.num_candidates)
                    OBS.metrics.inc("eval.verified", len(found))
        except BudgetExceeded as exc:
            if layer == 0:
                # The searcher attached its own (already data-level)
                # prefix and bound; re-truncate to this call's k.
                bound = exc.lower_bound if exc.lower_bound is not None else 0.0
                proven, unranked = top_k(exc.partial, k), []
                result.num_generalized = result.num_candidates = len(proven)
            else:
                found = verified.values()
                bound = self._proven_bound(exc, searcher, in_flight)
                proven = top_k([a for a in found if a.score < bound], k)
                unranked = top_k([a for a in found if a.score >= bound], None)
            return DegradedResult(
                answers=self._trees(proven),
                layer=layer,
                reason=exc.reason,
                lower_bound=bound,
                unranked=self._trees(unranked),
                attempts=[
                    DegradedAttempt(
                        layer=layer,
                        reason=exc.reason,
                        expansions=exc.expansions,
                        num_generalized=result.num_generalized,
                        num_candidates=result.num_candidates,
                        proven=len(proven),
                        unproven=len(unranked),
                    )
                ],
                breakdown=breakdown,
            )
        finally:
            # Per-item tallies, flushed once per attempt on every exit
            # path (OBSERVABILITY.md rule 3).
            if OBS.enabled and layer:
                if result.num_charged:
                    OBS.metrics.inc("search.expansions", result.num_charged)
                if result.num_spec_lookups:
                    OBS.metrics.inc("spec.lookups", result.num_spec_lookups)
                if result.num_generalized:
                    OBS.metrics.inc("eval.summary_answers",
                                    result.num_generalized)
                if result.num_bounded:
                    OBS.metrics.inc("eval.candidates_bounded",
                                    result.num_bounded)

        result.answers = self._trees(top_k(found, k))
        result.num_verified = len(found)
        return result

    def _trees(self, ranked: List) -> List[Answer]:
        """The answers that leave the evaluator: rooted runs rank root
        hits and build a tree only for these (module docstring, step 4)."""
        if not self.rooted:
            return ranked
        tree = self.algorithm.answer_tree
        graph = self.index.base_graph
        if ranked and OBS.enabled:
            OBS.metrics.inc("search.trees_materialized", len(ranked))
        return [tree(graph, hit) for hit in ranked]

    @staticmethod
    def _proven_bound(
        exc: BudgetExceeded,
        searcher: GraphSearcher,
        in_flight: Optional[float],
    ) -> float:
        """The score below which an interrupted layer-``m`` walk's verified
        answers are provably the complete ranking.

        It is the minimum over every source of undiscovered answers:

        * ``exc.lower_bound`` / ``exc.partial`` scores — summary-level
          bounds from an interrupted summary search; by Prop. 5.2 summary
          scores lower-bound the scores of the data answers specializing
          from them, so they bound everything never emitted by the stream.
        * the searcher's running ``stream_lower_bound`` (out-of-order
          streams) or the ``in_flight`` score (in-order streams) — bounds
          the unread rest of a stream interrupted by the *evaluator's*
          own charges.
        * ``in_flight``, the score of the summary answer being worked on —
          bounds its candidates not yet verified (Prop. 5.2 again).

        Prop. 5.1 (completeness: every true root's image is a summary
        answer root) guarantees these are the *only* sources, so every
        true data answer scoring strictly below the bound is already
        verified.
        """
        bound_candidates: List[float] = []
        if exc.lower_bound is not None:
            bound_candidates.append(float(exc.lower_bound))
        else:
            stream_bound = searcher.stream_lower_bound
            if stream_bound is not None:
                bound_candidates.append(float(stream_bound))
        if exc.partial:
            bound_candidates.append(min(a.score for a in exc.partial))
        if in_flight is not None:
            bound_candidates.append(in_flight)
        return min(bound_candidates) if bound_candidates else 0.0

    # ------------------------------------------------------------------
    # Graceful degradation
    # ------------------------------------------------------------------
    def evaluate_resilient(
        self,
        query: KeywordQuery,
        budget: Optional[Budget] = None,
        layer: Optional[int] = None,
        k: Optional[int] = None,
    ):
        """``evaluate`` that degrades instead of failing on exhaustion.

        With no budget this is exactly :meth:`evaluate`.  With one, an
        interrupted attempt becomes a :class:`DegradedResult` whose
        ``answers`` are the proven ranking prefix.  While the budget
        still has headroom, coarser layers (cheaper summary graphs,
        Formula 4's motivation) are retried with half the remaining
        budget each, and the attempt with the *largest* proven bound wins
        — every attempt prefixes the same true ranking, so the largest
        bound is the longest prefix.  The last planned attempt runs on
        the whole remainder rather than half, so budget is never left
        unspent.
        """
        if budget is None:
            return self.evaluate(query, layer=layer, k=k)

        first_layer = (
            layer if layer is not None else self.cost_model.optimal_layer(query)
        )
        plan = [first_layer] + [
            m
            for m in range(first_layer + 1, self.index.num_layers + 1)
            if self.index.query_distinct_at(query, m)
        ]

        breakdown = TimeBreakdown()
        interrupted: List[DegradedResult] = []
        for position, m in enumerate(plan):
            last = position == len(plan) - 1
            retry = position > 0
            if retry and OBS.enabled:
                OBS.metrics.inc("eval.degradation_retries")
            with OBS.tracer.span(
                "attempt", layer=m, retry=retry
            ) as attempt_span:
                result = self._attempt(
                    query, m, k, budget if last else budget.sub(0.5)
                )
                breakdown.merge(result.breakdown)
                if not result.degraded:
                    if OBS.enabled:
                        attempt_span.annotate(
                            outcome="complete", answers=len(result.answers)
                        )
                    result.breakdown = breakdown
                    return result
                interrupted.append(result)
                if OBS.enabled:
                    attempt_span.annotate(
                        outcome=result.reason,
                        expansions=result.attempts[0].expansions,
                        proven=len(result.answers),
                    )
                if budget.exhausted_reason() is not None:
                    break  # the *parent* budget is spent; stop retrying

        # Largest bound wins, then most proven answers, then the earlier
        # (finer) attempt.  The plan is never empty, so neither is this.
        best = max(
            interrupted, key=lambda r: (float(r.lower_bound), len(r.answers))
        )
        attempts = [a for r in interrupted for a in r.attempts]
        return replace(
            best,
            reason=interrupted[-1].reason,
            lower_bound=float(best.lower_bound),
            attempts=attempts,
            breakdown=breakdown,
            stats=DegradationStats(
                expansions_consumed=budget.expansions,
                expansions_remaining=budget.remaining_expansions(),
                time_remaining_seconds=budget.remaining_time(),
                layers_attempted=[a.layer for a in attempts],
            ),
        )

    # ------------------------------------------------------------------
    # Batched serving
    # ------------------------------------------------------------------
    def evaluate_many(
        self,
        queries: Sequence[KeywordQuery],
        *,
        layer: Optional[int] = None,
        k: Optional[int] = None,
        budget_factory: Optional[Callable[[], Optional[Budget]]] = None,
        return_exceptions: bool = False,
    ) -> List[object]:
        """Evaluate a workload, amortizing warm-up across its queries.

        :meth:`warm` runs once up front; each query then runs
        :meth:`evaluate_resilient` against warm state (and repeated
        queries hit the result cache).  Results come back in input order.

        Parameters
        ----------
        queries:
            The workload, evaluated in order (results align by index).
        layer / k:
            Forwarded to every evaluation.
        budget_factory:
            Called once per query for a fresh budget (budgets are
            stateful ledgers and must never be shared across queries);
            ``None`` runs unbudgeted.
        return_exceptions:
            When set, a query raising :class:`QueryError` contributes the
            exception object instead of aborting the whole batch; any
            other exception still propagates.

        Shared verbatim with :class:`~repro.core.sharding.ShardedEvaluator`.
        """
        self.warm(layer)

        def run(query: KeywordQuery) -> object:
            budget = budget_factory() if budget_factory is not None else None
            try:
                return self.evaluate_resilient(
                    query, layer=layer, k=k, budget=budget
                )
            except QueryError as exc:
                if return_exceptions:
                    return exc
                raise

        return [run(query) for query in queries]

    def warm(self, layer: Optional[int] = None) -> None:
        """Bind the algorithm (building r-clique's neighbor list) and build
        the adjacency rows it walks for ``layer`` (``None``: every layer
        the cost model may route to), keeping that offline work out of
        the queries that follow."""
        if layer is not None:
            warm_layers = [layer]
        else:
            start = 0 if self.cost_model.allow_layer_zero else 1
            warm_layers = list(range(start, self.index.num_layers + 1))
        for m in warm_layers:
            self.searcher_for_layer(m)
            self.index.layer_graph(m).rows()[1]  # backward searches
        # Root verification always lands on the data graph, forward.
        self.index.base_graph.rows()[0]

    # ------------------------------------------------------------------
    # Step 3: specialization with pruning
    # ------------------------------------------------------------------
    def _specialize_answer(
        self,
        summary_answer: Answer,
        layer: int,
        query: KeywordQuery,
        keyword_by_generalized: Mapping[str, str],
        result: EvalResult,
        budget: Optional[Budget] = None,
    ) -> Optional[GeneralizedAnswerGraph]:
        """Walk one generalized answer's vertex sets down to layer 0.

        Every answer vertex specializes, keyword nodes pruned by Prop. 4.1,
        and the method returns ``None`` when early keyword specialization
        (Sec. 4.3.1) kills the answer (some keyword node has no
        label-qualified specialization).  Root verification specializes
        the root alone, in :meth:`_attempt`.
        """
        # supernode -> keyword for the isKey vertices of this answer.
        keyword_of: Dict[int, str] = {}
        for generalized_kw, supernode in summary_answer.keyword_nodes:
            keyword_of[supernode] = keyword_by_generalized.get(
                generalized_kw, generalized_kw
            )
        spec_sets: Dict[int, List[int]] = {}
        for supernode in summary_answer.vertices:
            keyword = keyword_of.get(supernode)
            members = [supernode]
            for level in range(layer, 0, -1):
                result.charge(budget, len(members))
                extent = self.index.layers[level - 1].extent
                members = [child for s in members for child in extent[s]]
                if keyword is not None:
                    # Prop. 4.1: keep v only if its label at layer level-1
                    # equals the keyword's generalization to that layer.
                    expected = self.index.generalize_keyword(keyword, level - 1)
                    level_graph = self.index.layer_graph(level - 1)
                    members = [
                        v for v in members if level_graph.label(v) == expected
                    ]
                    if not members:
                        return None  # early keyword specialization prune
            spec_sets[supernode] = sorted(members)
            result.num_spec_lookups += 1
        return GeneralizedAnswerGraph(
            vertices=summary_answer.vertices,
            edges=summary_answer.edges,
            spec_sets=spec_sets,
            keyword_of=keyword_of,
        )

    # ------------------------------------------------------------------
    # Step 5: answer generation
    # ------------------------------------------------------------------
    def _generate_by_root(
        self,
        summary_score: float,
        candidate_roots: Sequence[int],
        verify: Callable[[Sequence[int]], Iterator],
        verified: Verified,
        seen_roots: Set[int],
        result: EvalResult,
        k: Optional[int],
        budget: Optional[Budget] = None,
        reach: Optional[Set[int]] = None,
    ) -> None:
        """Verify every candidate root (the summary root's sorted
        specializations) with the attempt's ``verify``
        (:meth:`~repro.search.base.RootedTreeAlgorithm.root_verifier`),
        one charge each.

        The summary hit's score lower-bounds the exact score of every
        root specialized from it (Prop. 5.2), so once the top-k verified
        scores all fall at or below it, the rest of this hit's
        candidates cannot improve the result (Sec. 4.3.4).  A candidate
        the ``reach`` sweeps (:meth:`_layer1_reach`) rule out still
        counts, but is not verified; the others are verified as one
        root list, read as the loop reaches them.  Verified roots stay
        hits; :meth:`_attempt` builds trees for its top-k.
        """
        roots = [root for root in candidate_roots if root not in seen_roots]
        bounded = [False] * len(roots)
        if reach is not None:
            block_of = self.index.layers[0].parent_of
            bounded = [block_of[root] not in reach for root in roots]
        hits = verify([root for root, out in zip(roots, bounded) if not out])
        for root, out in zip(roots, bounded):
            if verified.dominates(k, summary_score):
                return
            result.charge(budget)
            seen_roots.add(root)
            result.num_candidates += 1
            if out:
                result.num_bounded += 1
                continue
            hit = next(hits)
            if hit is not None:
                verified.offer(hit)

    def _layer1_reach(
        self, query: KeywordQuery, budget: Optional[Budget]
    ) -> Set[int]:
        """The layer-1 blocks that every one of the charged backward
        sweeps, one per keyword of ``Gen^1(Q)`` on ``G^1`` to ``d_max``,
        settles.  Path preservation makes ``dist_G1(chi(r), Gen^1(q)) <=
        dist_G0(r, V_q)``, so a root whose block is missing has no answer
        (DESIGN.md)."""
        labels = self.index.generalize_query(query, 1)
        sweeps = BackwardFrontier.recall(
            self.index.layer_graph(1), labels, self.algorithm.d_max, budget
        )
        for sweep in sweeps:
            sweep.replay(budget)
            while not sweep.exhausted:
                sweep.expand_level(budget)
            sweep.remember()
        return set(settled_by_all(sweeps))

    def _lift(self, blocks: Set[int], layer: int) -> Set[int]:
        """The layer-``layer`` supernodes over ``blocks``, one
        ``parent_of`` level at a time: a supernode missing from it has no
        reached block, so every root it specializes to is bounded."""
        for level in range(1, layer):
            parent_of = self.index.layers[level].parent_of
            blocks = {parent_of[b] for b in blocks}
        return blocks

    def _generate_by_assignment(
        self,
        summary_answer: Answer,
        spec: GeneralizedAnswerGraph,
        query: KeywordQuery,
        verified: Verified,
        result: EvalResult,
        budget: Optional[Budget] = None,
    ) -> None:
        """Algorithm 3 enumeration, each assignment exactly verified."""
        graph = self.index.base_graph
        qualify = enlarge_qualifier(self.algorithm, graph, spec, query)
        for assignment in ans_graph_gen(graph, spec, qualify=qualify):
            result.charge(budget)
            result.num_candidates += 1
            keyword_nodes = {
                keyword: assignment[supernode]
                for supernode, keyword in spec.keyword_of.items()
            }
            answer = self.algorithm.verify(
                graph,
                keyword_nodes,
                query,
                root=assignment.get(summary_answer.root),  # root-free: None
            )
            if answer is not None:
                verified.offer(answer)


def eval_direct(
    graph,
    algorithm: KeywordSearchAlgorithm,
    query: KeywordQuery,
    searcher: Optional[GraphSearcher] = None,
) -> Tuple[List[Answer], TimeBreakdown]:
    """Plain ``eval(G, Q, f)`` with the same timing instrumentation.

    The benchmark harness compares this against
    :meth:`HierarchicalEvaluator.evaluate` for the Exp-1/2 figures.  Pass a
    pre-bound ``searcher`` to keep the algorithm's offline index build out
    of the measured query time (as the paper does).
    """
    breakdown = TimeBreakdown()
    if searcher is None:
        with breakdown.phase("bind"):
            searcher = algorithm.bind(graph)
    with breakdown.phase("explore"):
        answers = searcher.search(query)
    return answers, breakdown
