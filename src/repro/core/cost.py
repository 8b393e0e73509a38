"""The index-construction cost model (Sec. 3.2, Formula 3).

``cost(G, C) = alpha * compress(G, C) + (1 - alpha) * distort(G, C)``

* **compress** — the size ratio ``|chi(G, C)| / |G|`` of the summarized
  generalized graph to the input graph.  Computing it exactly summarizes
  the whole graph, so the model estimates it on ``n`` sampled r-hop
  node-induced subgraphs (Sec. 3.2 "Graph sampling"); the estimation-of-
  proportion formula sizes the sample (``n = 400`` at ``E = 5%``,
  ``z = 1.96``).  A partition depends only on which vertices share a
  label, never on label names (cf. Rau et al.), so the ratio is counted
  on ``Gen(C)``'s label-id array — no relabelled copy, no summary graph,
  no label interned — and memoized per sample under the label groups
  ``Gen(C)`` merges there.
* **distort** — the support-weighted semantic distortion.  For a mapping
  ``l_i -> l'_i``, ``distort(l_i) = 1 - 1/|X_{l_i}|`` where ``X_{l_i}``
  counts the configuration's labels generalized to the same supertype;
  the graph-level value weights by label support ``sup(l_i) = |V_{l_i}|/|V|``:

  ``distort(G, C) = (sum_i distort(l_i) * sup(l_i))
                    / (|X| * sum_i sup(l_i))``
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bisim.refinement import maximal_bisimulation
from repro.core.config import Configuration
from repro.core.generalize import generalized_label_ids
from repro.graph.digraph import Graph
from repro.graph.sampling import sample_neighborhoods
from repro.utils.errors import ConfigurationError


@dataclass
class CostParams:
    """Tunables of the cost model.

    Attributes
    ----------
    alpha:
        Weight between compression and distortion (Formula 3).
    sample_radius:
        ``r``: radius of sampled neighborhoods; keyword search semantics
        are bounded by a small hop count, so small radii suffice.
    num_samples:
        ``n``: how many neighborhoods to sample (paper default 400).
    seed:
        RNG seed for sampling; fixed for reproducibility.
    exact:
        When True, skip sampling and compute compress on the full graph
        (used by tests and small benchmarks).
    """

    alpha: float = 0.5
    sample_radius: int = 2
    num_samples: int = 400
    seed: int = 0
    exact: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigurationError("alpha must be within [0, 1]")
        if self.num_samples <= 0:
            raise ConfigurationError("num_samples must be positive")


class CostModel:
    """Evaluates Formula 3 for configurations over one graph.

    The sample set is drawn once per model instance so candidate
    configurations are compared on identical samples — the paper fixes the
    sample subgraphs when ranking 100 configurations in Exp-4.
    """

    def __init__(
        self,
        graph: Graph,
        params: Optional[CostParams] = None,
    ) -> None:
        self.graph = graph
        self.params = params or CostParams()
        self._samples: Optional[List[Graph]] = None
        self._support_cache: Dict[str, float] = {}
        #: (sample index, the label groups Gen(C) merges on the sample) ->
        #: that sample's compression ratio.
        self._ratio_cache: Dict[Tuple[int, Tuple[int, ...]], float] = {}
        self._sample_labels: Optional[List[List[int]]] = None

    # ------------------------------------------------------------------
    @property
    def samples(self) -> List[Graph]:
        """The lazily drawn, cached sample subgraphs.

        Samples are undirected r-hop balls: successor-bisimulation merges
        *co-pointing siblings* (vertices sharing their successor sets), and
        a directed forward ball of a random vertex contains its successors
        but never its siblings, so only the undirected ball exposes the
        structure whose compression the estimate must predict.
        """
        if self._samples is None:
            self._samples = sample_neighborhoods(
                self.graph,
                num_samples=self.params.num_samples,
                radius=self.params.sample_radius,
                seed=self.params.seed,
                direction="both",
            )
        return self._samples

    def support(self, label: str) -> float:
        """``sup(l) = |V_l| / |V|`` on the model's graph."""
        cached = self._support_cache.get(label)
        if cached is None:
            n = self.graph.num_vertices
            cached = self.graph.label_support(label) / n if n else 0.0
            self._support_cache[label] = cached
        return cached

    # ------------------------------------------------------------------
    def compress(self, config: Configuration) -> float:
        """Estimated (or exact) compression ratio ``|chi(G, C)| / |G|``.

        Per-sample ratios are memoized keyed by the groups of the sample's
        labels that ``Gen(C)`` merges: the ratio depends only on which
        vertices share a generalized label, so a mapping whose source is
        absent from a sample, or which merely renames a label, leaves the
        key — and the ratio — as under the empty configuration.  Algorithm
        1 evaluates hundreds of near-identical configurations (every
        single-mapping candidate, then each cumulative extension), and
        most samples see few merges; the cache collapses that to one
        refinement per distinct (sample, merge) pair without changing a
        single float.
        """
        if self.params.exact:
            return compression_ratio(self.graph, config)
        samples = self.samples
        if self._sample_labels is None:
            self._sample_labels = [
                sorted(sample.distinct_label_ids()) for sample in samples
            ]
        gen = generalized_label_ids(self.graph.label_table, config)
        cache = self._ratio_cache
        ratios: List[float] = []
        for i, sample in enumerate(samples):
            if sample.size <= 0:
                continue
            rep: Dict[int, int] = {}  # image -> smallest label with it
            labels = self._sample_labels[i]
            key = (i, tuple(rep.setdefault(gen.get(x, x), x) for x in labels))
            ratio = cache.get(key)
            if ratio is None:
                ratio = compression_ratio(sample, config)
                cache[key] = ratio
            ratios.append(ratio)
        if not ratios:
            return 1.0
        return sum(ratios) / len(ratios)

    def distort(self, config: Configuration) -> float:
        """Support-weighted semantic distortion of ``config`` on the graph."""
        return distortion(self.graph, config, self.support)

    def cost(self, config: Configuration) -> float:
        """Formula 3: the weighted sum of compress and distort."""
        alpha = self.params.alpha
        return alpha * self.compress(config) + (1.0 - alpha) * self.distort(config)


def compression_ratio(graph: Graph, config: Configuration) -> float:
    """Exact ``|Bisim(Gen(G, C))| / |G|`` for one graph: blocks plus
    distinct block edges (self-loops included, as in the summary graph)
    of ``Gen(C)``'s label-id array, without building either graph."""
    if graph.size == 0:
        return 1.0
    gen = generalized_label_ids(graph.label_table, config)
    labels = [gen.get(label, label) for label in graph.labels]
    block = maximal_bisimulation(graph, labels=labels)
    edges = {(block[u], block[w]) for u, w in graph.edges()}
    return (max(block) + 1 + len(edges)) / graph.size


def distortion(graph: Graph, config: Configuration, support=None) -> float:
    """Support-weighted distortion of a configuration on a graph.

    Each mapped label ``l`` contributes ``distort(l) = 1 - 1/|X_l|``
    (Sec. 3.2), ``X_l`` being the labels mapped to ``l``'s target.
    ``support`` may be a callable ``label -> sup(label)``; defaults to
    computing supports from ``graph`` directly.
    """
    domain = sorted(config.domain)
    if not domain:
        return 0.0
    if support is None:
        n = graph.num_vertices

        def support(label: str) -> float:  # type: ignore[misc]
            return graph.label_support(label) / n if n else 0.0

    # |X_l| per target, counted once instead of once per mapped label.
    mappings = config.mappings
    fan_in = Counter(mappings.values())
    weighted = 0.0
    support_sum = 0.0
    for label in domain:
        sup = support(label)
        weighted += (1.0 - 1.0 / fan_in[mappings[label]]) * sup
        support_sum += sup
    if support_sum == 0.0:
        # None of the mapped labels occurs in the graph: the generalization
        # is free of observable distortion.
        return 0.0
    return weighted / (len(domain) * support_sum)
