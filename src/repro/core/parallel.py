"""Parallel candidate-configuration scoring for Algorithm 1.

Index construction spends most of its time in the greedy heuristic's
initial pass: every ``(label -> supertype)`` candidate is scored by
summarizing the cost model's sample subgraphs (Sec. 3.2).  The candidates
are independent, so the pass parallelizes cleanly:

* The sample graphs are snapshotted once into picklable payloads (label
  strings plus the CSR edge arrays) and shipped to a
  ``concurrent.futures`` process pool via its initializer, so each worker
  rebuilds them a single time and scores many candidates against them.
* When a process pool cannot be created (restricted sandboxes, platforms
  without fork/semaphores), scoring runs inline — same results, no hard
  dependency on OS features.  Only pool *construction* falls back: an
  exception raised by a scoring task reaches the caller.

Scores are bit-identical to the serial path: a single-mapping
configuration's distortion is exactly ``0.0`` (its ``X_l`` sibling set
has size 1), so ``cost = alpha * compress + (1 - alpha) * 0.0`` reduces
to the same float sequence the serial :class:`~repro.core.cost.CostModel`
produces, and the differential tests assert the resulting configurations
match mapping-for-mapping.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence, Tuple

from repro.bisim.refinement import BisimDirection
from repro.core.config import Configuration
from repro.core.cost import CostModel, compression_ratio
from repro.graph.digraph import Graph
from repro.obs.runtime import OBS

#: One picklable graph snapshot: (per-vertex label strings, CSR offsets,
#: CSR targets).  Only out-edges are shipped; the rebuilt Graph derives
#: its own in-adjacency.
GraphPayload = Tuple[List[str], array, array]

#: Candidate generalization as shipped to workers.
Candidate = Tuple[str, str]


def graph_to_payload(graph: Graph) -> GraphPayload:
    """Snapshot ``graph`` into a compact picklable payload."""
    csr = graph.csr()
    labels = [graph.label(v) for v in range(graph.num_vertices)]

    def picklable(buf) -> array:
        # mmap-backed graphs expose CSR buffers as memoryviews, which
        # cannot cross a process boundary; copy those into arrays.
        return buf if isinstance(buf, array) else array("i", bytes(buf))

    return (labels, picklable(csr.out_offsets), picklable(csr.out_targets))


def payload_to_graph(payload: GraphPayload) -> Graph:
    """Rebuild a :class:`Graph` from :func:`graph_to_payload` output."""
    labels, offsets, targets = payload
    graph = Graph()
    for label in labels:
        graph.add_vertex(label)
    for v in range(len(labels)):
        for i in range(offsets[v], offsets[v + 1]):
            graph.add_edge(v, targets[i])
    return graph


# ----------------------------------------------------------------------
# Worker-side state and scoring
# ----------------------------------------------------------------------
#: Per-process state installed by :func:`_init_worker`.
_STATE: dict = {}


def _init_worker(
    sample_payloads: List[GraphPayload],
    alpha: float,
    direction_value: str,
    exact: bool,
    graph_payload: Optional[GraphPayload],
) -> None:
    """Process-pool initializer: rebuild the scoring graphs once."""
    samples = [payload_to_graph(p) for p in sample_payloads]
    _STATE["samples"] = samples
    _STATE["sample_labels"] = [
        frozenset(sample.distinct_labels()) for sample in samples
    ]
    _STATE["alpha"] = alpha
    _STATE["direction"] = BisimDirection(direction_value)
    _STATE["exact"] = exact
    _STATE["graph"] = (
        payload_to_graph(graph_payload) if graph_payload is not None else None
    )
    #: (sample index, projected mapping) -> ratio; lives for the worker's
    #: lifetime, so later chunks handled by the same process reuse it.
    _STATE["ratio_cache"] = {}


def _score_chunk(candidates: Sequence[Candidate]) -> List[float]:
    """Score single-mapping candidates against the worker's sample set.

    Mirrors ``CostModel.cost`` on a one-mapping configuration exactly:
    the distortion term is identically ``0.0``, and the compression mean
    iterates the samples in the same order with the same arithmetic.
    """
    samples: List[Graph] = _STATE["samples"]
    sample_labels: List[frozenset] = _STATE["sample_labels"]
    alpha: float = _STATE["alpha"]
    direction: BisimDirection = _STATE["direction"]
    cache: dict = _STATE["ratio_cache"]
    scores: List[float] = []
    for source, target in candidates:
        config = Configuration({source: target})
        if _STATE["exact"]:
            compress = compression_ratio(_STATE["graph"], config, direction)
        else:
            # Same projection memoization as CostModel.compress: a sample
            # without the source label yields the empty-projection ratio,
            # shared by every candidate the sample is blind to.
            ratios: List[float] = []
            for i, sample in enumerate(samples):
                if sample.size <= 0:
                    continue
                key = (i, (source, target)) if source in sample_labels[i] else (i,)
                ratio = cache.get(key)
                if ratio is None:
                    ratio = compression_ratio(sample, config, direction)
                    cache[key] = ratio
                ratios.append(ratio)
            compress = sum(ratios) / len(ratios) if ratios else 1.0
        scores.append(alpha * compress + (1.0 - alpha) * 0.0)
    return scores


def _chunked(items: Sequence[Candidate], num_chunks: int) -> List[List[Candidate]]:
    """Split ``items`` into at most ``num_chunks`` contiguous chunks."""
    num_chunks = max(1, min(num_chunks, len(items)))
    size, extra = divmod(len(items), num_chunks)
    chunks: List[List[Candidate]] = []
    start = 0
    for i in range(num_chunks):
        end = start + size + (1 if i < extra else 0)
        chunks.append(list(items[start:end]))
        start = end
    return chunks


def score_candidates(
    model: CostModel,
    candidates: Sequence[Candidate],
    workers: Optional[int] = None,
) -> List[float]:
    """Cost of each single-mapping candidate, aligned with ``candidates``.

    ``workers`` <= 1 (or ``None``) scores inline through ``model`` itself
    (benefiting from its memoized ratio cache); larger values fan the
    candidates out over a process pool, falling back to inline scoring
    when no pool can be created.
    """
    if OBS.enabled:
        OBS.metrics.inc("build.candidates_scored", len(candidates))
    pool = None
    if workers is not None and workers > 1 and len(candidates) > 1:
        pool = _scoring_pool(model, workers)
    if pool is None:
        with OBS.tracer.span(
            "score-candidates", pool="serial", candidates=len(candidates)
        ):
            return _score_serial(model, candidates)

    chunks = _chunked(candidates, workers * 4)
    if OBS.enabled:
        OBS.metrics.inc("build.parallel_chunks", len(chunks))
    # A task that raises propagates: re-scoring inline could succeed
    # and mask a worker-side divergence from the serial mirror.
    with OBS.tracer.span(
        "score-candidates",
        pool="process",
        workers=workers,
        candidates=len(candidates),
    ):
        with pool:
            results = list(pool.map(_score_chunk, chunks))
    return [score for chunk in results for score in chunk]


def _scoring_pool(model: CostModel, workers: int):
    """A process pool whose workers hold ``model``'s scoring graphs, or
    ``None`` where fork/spawn or semaphores are unavailable."""
    exact = model.params.exact
    init_args = (
        [] if exact else [graph_to_payload(s) for s in model.samples],
        model.params.alpha,
        model.direction.value,
        exact,
        graph_to_payload(model.graph) if exact else None,
    )
    try:
        # Resolved lazily: the import itself fails without multiprocessing.
        import concurrent.futures as futures

        return futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=init_args
        )
    except (ImportError, NotImplementedError, OSError):
        return None


def _score_serial(
    model: CostModel, candidates: Sequence[Candidate]
) -> List[float]:
    """Inline scoring through the model (shares its memoized caches)."""
    return [
        model.cost(Configuration({source: target}))
        for source, target in candidates
    ]
