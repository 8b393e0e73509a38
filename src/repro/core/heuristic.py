"""Algorithm 1: the one-step greedy heuristic for a maximal configuration.

Computing the optimal configuration is NP-hard (Thm. 3.1, reduction from
maxSAT), so the paper builds each index layer with a greedy pass:

1. Enumerate candidate generalizations ``c_i = (l -> l')`` — every label
   of the graph paired with each of its direct supertypes in the ontology.
2. Estimate ``cost(G, {c_i})`` (Formula 3) per candidate and order them
   ascending in a priority queue.
3. Pop candidates; add ``c_i`` to ``C`` while ``cost(G, C + {c_i})`` stays
   within the threshold ``theta``; stop at the first rejection, when the
   queue empties, or when ``|C|`` reaches the budget ``Pi``.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.core.config import Configuration
from repro.core.cost import CostModel, CostParams
from repro.graph.digraph import Graph
from repro.obs.runtime import OBS
from repro.ontology.ontology import OntologyGraph


def candidate_generalizations(
    graph: Graph, ontology: OntologyGraph
) -> List[Tuple[str, str]]:
    """All ``(label, direct supertype)`` pairs applicable to ``graph``.

    Only labels actually used by some vertex and known to the ontology
    produce candidates; labels without supertypes have none (they may only
    map to themselves, which is a no-op).
    """
    candidates: List[Tuple[str, str]] = []
    for label in sorted(graph.distinct_labels()):
        if label not in ontology:
            continue
        for supertype in sorted(ontology.direct_supertypes(label)):
            candidates.append((label, supertype))
    return candidates


def greedy_configuration(
    graph: Graph,
    ontology: OntologyGraph,
    theta: float = 1.0,
    max_mappings: Optional[int] = None,
    cost_params: Optional[CostParams] = None,
    cost_model: Optional[CostModel] = None,
) -> Configuration:
    """Algorithm 1: a maximal configuration under the cost threshold.

    Parameters
    ----------
    graph:
        The (summary) graph to generalize next.
    ontology:
        Ontology supplying the candidate supertype edges.
    theta:
        Cost threshold; a candidate is kept while the cumulative
        configuration's cost stays at or below it.  The paper's default
        index setting uses a large ``theta`` so every label generalizes one
        step per layer.
    max_mappings:
        The budget ``Pi``; ``None`` means unbounded.
    cost_params / cost_model:
        Cost-model configuration, or a prebuilt model (which lets callers
        reuse one sample set across layers/benchmarks).

    Returns
    -------
    Configuration
    """
    model = cost_model or CostModel(graph, cost_params)
    config = Configuration.empty()
    candidates = candidate_generalizations(graph, ontology)
    if not candidates:
        return config

    # Priority queue keyed by the estimated single-mapping cost.
    with OBS.tracer.span("score-candidates", candidates=len(candidates)):
        scores = [
            model.cost(Configuration({source: target}))
            for source, target in candidates
        ]
    if OBS.enabled:
        OBS.metrics.inc("build.candidates_scored", len(candidates))
        for score in scores:
            OBS.metrics.observe("build.candidate_cost", score)
    queue: List[Tuple[float, str, str]] = [
        (score, source, target)
        for score, (source, target) in zip(scores, candidates)
    ]
    heapq.heapify(queue)

    while queue:
        if max_mappings is not None and len(config) >= max_mappings:
            break
        _, source, target = heapq.heappop(queue)
        if config.conflicts_with(source, target) or source in config:
            # A configuration maps each label at most once; a cheaper
            # mapping for this source already won.
            continue
        extended = config.merged_with(source, target, ontology=ontology)
        if model.cost(extended) <= theta:
            config = extended
        else:
            # Candidates are in ascending single-mapping cost; the paper
            # returns at the first rejection.
            break
    return config
