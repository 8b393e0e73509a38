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
     graph with one bounded BFS (``best_answer_for_root``).  Complete
     because path-preservation guarantees every true root's image is a
     summary answer root (Lemma 4.1 / Prop. 5.1).
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

import threading
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
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
from repro.obs.runtime import OBS, charge_expansions
from repro.search.base import (
    Answer,
    GraphSearcher,
    KeywordQuery,
    KeywordSearchAlgorithm,
    RootedTreeAlgorithm,
    top_k,
)
from repro.utils.budget import Budget
from repro.utils.errors import BudgetExceeded, QueryError
from repro.utils.timers import TimeBreakdown


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

    #: Complete results are never degraded; lets callers branch on
    #: ``result.degraded`` without isinstance checks.
    degraded = False

    @property
    def total_seconds(self) -> float:
        """Total measured query time across phases."""
        return self.breakdown.total


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


class HierarchicalEvaluator:
    """``eval_Ont`` for one (index, algorithm) pair.

    Per-layer searchers (the algorithm's own indexes over summary graphs)
    are cached across queries, mirroring the paper's setup where the
    BiG-index layers and the plugged algorithm's indexes are built offline.

    Parameters
    ----------
    index:
        The BiG-index hierarchy.
    algorithm:
        The plugged keyword search algorithm ``f``.
    beta:
        Query cost model weight (Formula 4).
    cache_size:
        Capacity of the per-evaluator query-result LRU (``0`` disables
        caching).  Cached and uncached evaluation are byte-identical —
        entries are keyed by the canonicalized query plus every argument
        that affects the ranking and dropped whenever the index's
        ``epoch`` moves; budgeted executions bypass the cache entirely
        (see :meth:`evaluate`).
    """

    def __init__(
        self,
        index: BiGIndex,
        algorithm: KeywordSearchAlgorithm,
        beta: float = 0.5,
        allow_layer_zero: bool = False,
        cache_size: int = 128,
    ) -> None:
        self.index = index
        self.algorithm = algorithm
        self.cost_model = QueryCostModel(
            index, beta=beta, allow_layer_zero=allow_layer_zero
        )
        #: Answer generation (module docstring, step 4): rooted-tree
        #: semantics verify candidate roots, root-free ones enumerate
        #: assignments.
        self.rooted = isinstance(algorithm, RootedTreeAlgorithm)
        self._searchers: Dict[int, GraphSearcher] = {}
        self._result_cache: Optional[LRUCache] = (
            LRUCache(cache_size, kind="result") if cache_size else None
        )
        #: index epoch the caches were filled under; ``None`` = never synced.
        self._epoch: Optional[Tuple[int, int]] = None
        # Orders epoch sync against searcher binds and result-cache fills
        # under concurrent readers (the serve handlers share one evaluator
        # per snapshot): without it a reader could re-install a searcher
        # or cached result computed under an epoch another thread just
        # invalidated.  Reentrant: searcher_for_layer is reached from
        # locked sections of evaluate.
        self._cache_lock = threading.RLock()

    # ------------------------------------------------------------------
    # Maintenance-aware caching
    # ------------------------------------------------------------------
    def _sync_caches(self) -> None:
        """Drop searchers and cached results if the index has moved.

        Per-layer searchers hold algorithm indexes over the summary
        graphs; maintenance replaces those graphs wholesale, so a stale
        searcher would silently answer against the pre-update index.
        Checking the epoch on every entry point keeps long-lived
        evaluators correct across :meth:`BiGIndex.insert_edge` & co.
        """
        with self._cache_lock:
            epoch = self.index.epoch
            if self._epoch != epoch:
                if self._epoch is not None and OBS.enabled:
                    OBS.metrics.inc("cache.invalidations")
                self._epoch = epoch
                self._searchers.clear()
                if self._result_cache is not None:
                    self._result_cache.clear()

    @staticmethod
    def _copy_result(result: EvalResult) -> EvalResult:
        """A caller-mutable copy of a cached result (answers are frozen)."""
        return EvalResult(
            answers=list(result.answers),
            layer=result.layer,
            breakdown=TimeBreakdown(),
            num_generalized=result.num_generalized,
            num_candidates=result.num_candidates,
            num_verified=result.num_verified,
        )

    # ------------------------------------------------------------------
    def _layer_cost_attrs(self, query: KeywordQuery) -> Dict[str, object]:
        """Per-layer Formula-4 costs as span attributes (--explain only).

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
        """The algorithm bound to ``G^m`` (cached across queries).

        The lock is held across bind-and-install so a concurrent epoch
        invalidation cannot interleave between them — a searcher present
        in the dict is always one bound under the current ``_epoch``.
        Binds serialize, but each (layer, epoch) binds at most once.
        """
        with self._cache_lock:
            self._sync_caches()
            searcher = self._searchers.get(m)
            if searcher is None:
                searcher = self.algorithm.bind(self.index.layer_graph(m))
                self._searchers[m] = searcher
            return searcher

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

        Unbudgeted evaluations are memoized per canonical (query, layer,
        k) key; a hit replays the stored ranking byte-for-byte (the
        ``verify`` cache drill enforces the identity).  Budgeted runs
        always execute and are never stored: a
        :class:`~repro.utils.budget.Budget` is a stateful ledger, so
        whether a run completes depends on what was already charged, on
        the wall clock and on an external cancellation token — and a
        replay would skip the charges the caller's remaining budget is
        supposed to reflect.
        """
        if k is None:
            k = self.algorithm.k
        key: Optional[Tuple] = None
        with self._cache_lock:
            self._sync_caches()
            epoch = self._epoch
            if self._result_cache is not None and budget is None:
                # Keywords are canonicalized sorted: answer sets are
                # keyword-order independent (a set semantics the
                # exactness tests pin down).
                key = (tuple(sorted(query.keywords)), layer, k)
                hit = self._result_cache.get(key)
                if hit is not None:
                    if OBS.enabled:
                        with OBS.tracer.span("result-cache") as span:
                            span.annotate(
                                **{
                                    "query.warm": True,
                                    "answers": len(hit.answers),
                                }
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
            with self._cache_lock:
                # Guarded fill: a result computed under a superseded
                # epoch must not land in the fresh cache (epoch
                # components are monotone, so equality proves no
                # movement since the lookup).
                self._sync_caches()
                if self._epoch == epoch:
                    self._result_cache.put(key, self._copy_result(result))
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

        with breakdown.phase("layer-selection"), OBS.tracer.span(
            "layer-selection"
        ) as selection_span:
            forced = layer is not None
            if layer is None:
                layer = self.cost_model.optimal_layer(query)
            elif layer > 0 and not self.index.query_distinct_at(query, layer):
                raise QueryError(
                    f"keywords collide at layer {layer}; Def. 4.1 requires "
                    "|Gen^m(Q)| = |Q|"
                )
            if OBS.enabled:
                selection_span.annotate(
                    layer=layer, forced=forced, **self._layer_cost_attrs(query)
                )

        result = EvalResult(answers=[], layer=layer, breakdown=breakdown)
        verified: Dict[Tuple, Answer] = {}
        searcher: Optional[GraphSearcher] = None
        # The summary answer being specialized/generated when a budget
        # trips; its score bounds everything not yet derived from it (and,
        # because streams are consumed in ascending score order, everything
        # still unread from the stream).
        current_summary: Optional[Answer] = None
        try:
            if layer == 0:
                # Degenerate case: evaluate directly on the data graph, so
                # every answer the searcher finds is at once generalized
                # answer, candidate and verified.
                with breakdown.phase("explore"), OBS.tracer.span(
                    "explore", layer=0
                ):
                    found = self.searcher_for_layer(0).search(
                        query, budget=budget
                    )
                result.num_generalized = result.num_candidates = len(found)
            else:
                with breakdown.phase("translate"), OBS.tracer.span(
                    "translate", layer=layer
                ) as translate_span:
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
                # ``stream_lower_bound`` instead.
                searcher = self.searcher_for_layer(layer)
                with breakdown.phase("explore"), OBS.tracer.span(
                    "explore", layer=layer
                ):
                    summary_stream = searcher.iter_search(
                        generalized_query, budget=budget
                    )
                seen_roots: Set[int] = set()
                while True:
                    current_summary = None
                    with breakdown.phase("explore"), OBS.tracer.span(
                        "explore", layer=layer
                    ):
                        summary_answer = next(summary_stream, None)
                    if summary_answer is None:
                        break
                    current_summary = summary_answer
                    charge_expansions(budget, 1)
                    result.num_generalized += 1
                    if OBS.enabled:
                        OBS.metrics.inc("eval.summary_answers")
                    if k is not None and len(verified) >= k:
                        kth = sorted(a.score for a in verified.values())[k - 1]
                        stream_bound = searcher.stream_lower_bound
                        if stream_bound is None:  # sorted stream
                            stream_bound = summary_answer.score
                        if kth <= stream_bound:
                            break  # Sec. 4.3.4: the rest cannot beat the top-k.
                        if kth <= summary_answer.score:
                            continue  # cannot improve; keep streaming
                    root_verify = (
                        self.rooted and summary_answer.root is not None
                    )
                    with breakdown.phase("specialize"), OBS.tracer.span(
                        "specialize", layer=layer
                    ):
                        spec = self._specialize_answer(
                            summary_answer,
                            layer,
                            query,
                            keyword_by_generalized,
                            root_only=root_verify,
                            budget=budget,
                        )
                    if spec is None:
                        continue
                    with breakdown.phase("generate"), OBS.tracer.span(
                        "generate",
                        strategy="root-verify" if root_verify else "assignment",
                    ):
                        if root_verify:
                            self._generate_by_root(
                                summary_answer, spec, query, verified,
                                seen_roots, result, k, budget,
                            )
                        else:
                            self._generate_by_assignment(
                                summary_answer, spec, query, verified,
                                result, budget,
                            )
                found = list(verified.values())
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
                found = list(verified.values())
                bound = self._proven_bound(exc, searcher, current_summary)
                proven = top_k([a for a in found if a.score < bound], k)
                unranked = top_k([a for a in found if a.score >= bound], None)
            return DegradedResult(
                answers=proven,
                layer=layer,
                reason=exc.reason,
                lower_bound=bound,
                unranked=unranked,
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

        result.answers = top_k(found, k)
        result.num_verified = len(found)
        return result

    @staticmethod
    def _proven_bound(
        exc: BudgetExceeded,
        searcher: GraphSearcher,
        current_summary: Optional[Answer],
    ) -> float:
        """The score below which an interrupted layer-``m`` walk's verified
        answers are provably the complete ranking.

        It is the minimum over every source of undiscovered answers:

        * ``exc.lower_bound`` / ``exc.partial`` scores — summary-level
          bounds from an interrupted summary search; by Prop. 5.2 summary
          scores lower-bound the scores of the data answers specializing
          from them, so they bound everything never emitted by the stream.
        * the searcher's running ``stream_lower_bound`` (out-of-order
          streams) or ``current_summary.score`` (in-order streams) —
          bounds the unread rest of a stream interrupted by the
          *evaluator's* own charges.
        * ``current_summary.score`` — bounds candidates of the in-flight
          summary answer not yet verified (Prop. 5.2 again).

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
        if current_summary is not None:
            bound_candidates.append(current_summary.score)
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
        self._sync_caches()
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

        Per-layer searchers, CSR views, keyword postings and the index's
        ``Gen``/``Spec`` memos are built once up front; each query then
        runs :meth:`evaluate_resilient` against warm state (and repeated
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
        self._warm(layer)

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

    def _warm(self, layer: Optional[int]) -> None:
        """Bind searchers and CSR views for ``layer`` (``None``: every
        layer the cost model may route to) before a batch runs."""
        self._sync_caches()
        if layer is not None:
            warm_layers = [layer]
        else:
            start = 0 if self.cost_model.allow_layer_zero else 1
            warm_layers = list(range(start, self.index.num_layers + 1))
        for m in warm_layers:
            self.searcher_for_layer(m)
            self.index.layer_graph(m).csr()
        # Root verification always lands on the data graph.
        self.index.base_graph.csr()

    # ------------------------------------------------------------------
    # Step 3: specialization with pruning
    # ------------------------------------------------------------------
    def _specialize_answer(
        self,
        summary_answer: Answer,
        layer: int,
        query: KeywordQuery,
        keyword_by_generalized: Mapping[str, str],
        root_only: bool = False,
        budget: Optional[Budget] = None,
    ) -> Optional[GeneralizedAnswerGraph]:
        """Walk one generalized answer's vertex sets down to layer 0.

        With ``root_only`` (the root-verify strategy) only the answer root
        is specialized, without pruning: root verification re-derives the
        keyword matches exactly on the data graph, so the summary answer's
        particular keyword supernodes — which a distinct-root search picks
        as the *nearest* generalized matches — must not constrain it.

        Otherwise every answer vertex specializes, keyword nodes pruned by
        Prop. 4.1, and the method returns ``None`` when early keyword
        specialization (Sec. 4.3.1) kills the answer (some keyword node
        has no label-qualified specialization).
        """
        # supernode -> keyword for the isKey vertices of this answer.
        keyword_of: Dict[int, str] = {}
        for generalized_kw, supernode in summary_answer.keyword_nodes:
            keyword_of[supernode] = keyword_by_generalized.get(
                generalized_kw, generalized_kw
            )

        if root_only:
            root = summary_answer.root
            assert root is not None
            charge_expansions(budget, 1)
            spec_set = sorted(self.index.spec_to_base(root, layer))
            if OBS.enabled:
                OBS.metrics.inc("spec.lookups")
                OBS.metrics.observe(
                    "spec.candidates_per_lookup", len(spec_set)
                )
            return GeneralizedAnswerGraph(
                vertices=(root,),
                edges=(),
                spec_sets={root: spec_set},
                keyword_of={},
            )

        spec_sets: Dict[int, List[int]] = {}
        for supernode in summary_answer.vertices:
            keyword = keyword_of.get(supernode)
            members = [supernode]
            for level in range(layer, 0, -1):
                charge_expansions(budget, len(members))
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
            if OBS.enabled:
                OBS.metrics.inc("spec.lookups")
                OBS.metrics.observe(
                    "spec.candidates_per_lookup", len(members)
                )
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
        summary_answer: Answer,
        spec: GeneralizedAnswerGraph,
        query: KeywordQuery,
        verified: Dict[Tuple, Answer],
        seen_roots: Set[int],
        result: EvalResult,
        k: Optional[int],
        budget: Optional[Budget] = None,
    ) -> None:
        """Verify every specialized candidate root with one bounded BFS.

        The summary answer's score lower-bounds the exact score of every
        root specialized from it (Prop. 5.2), so once the top-k verified
        scores all fall at or below it, the rest of this answer's
        candidates cannot improve the result (Sec. 4.3.4).
        """
        candidate_roots = spec.spec_sets[summary_answer.root]
        best_for_root = self.algorithm.best_answer_for_root
        for root in candidate_roots:
            if root in seen_roots:
                continue
            if k is not None and len(verified) >= k:
                kth = sorted(a.score for a in verified.values())[k - 1]
                if kth <= summary_answer.score:
                    return
            charge_expansions(budget, 1)
            seen_roots.add(root)
            result.num_candidates += 1
            answer = best_for_root(self.index.base_graph, root, query)
            if answer is not None:
                verified[answer.signature()] = answer

    def _generate_by_assignment(
        self,
        summary_answer: Answer,
        spec: GeneralizedAnswerGraph,
        query: KeywordQuery,
        verified: Dict[Tuple, Answer],
        result: EvalResult,
        budget: Optional[Budget] = None,
    ) -> None:
        """Algorithm 3 enumeration, each assignment exactly verified."""
        graph = self.index.base_graph
        qualify = enlarge_qualifier(self.algorithm, graph, spec, query)
        for assignment in ans_graph_gen(graph, spec, qualify=qualify):
            charge_expansions(budget, 1)
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
                existing = verified.get(answer.signature())
                if existing is None or answer.score < existing.score:
                    verified[answer.signature()] = answer


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
