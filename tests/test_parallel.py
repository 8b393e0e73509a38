"""Parallel candidate scoring: payload round-trip and serial equivalence.

The contract of :mod:`repro.core.parallel` is *bit-identical* floats:
fanning Algorithm 1's scoring pass over workers must never change which
candidate wins the priority queue, so every test here asserts exact
equality — no tolerances.
"""

import pytest

from repro.core.config import Configuration
from repro.core.cost import CostModel, CostParams
from repro.core.heuristic import candidate_generalizations, greedy_configuration
from repro.core.index import BiGIndex
from repro.core.parallel import (
    graph_to_payload,
    payload_to_graph,
    score_candidates,
)


@pytest.fixture
def labeled_graph(random_graph_factory):
    return random_graph_factory(num_vertices=60, num_edges=150, seed=11)


class TestPayloadRoundTrip:
    def test_labels_and_edges_survive(self, labeled_graph):
        rebuilt = payload_to_graph(graph_to_payload(labeled_graph))
        assert rebuilt.num_vertices == labeled_graph.num_vertices
        assert rebuilt.labels == labeled_graph.labels
        assert sorted(rebuilt.edges()) == sorted(labeled_graph.edges())

    def test_empty_graph(self):
        from repro.graph.digraph import Graph

        rebuilt = payload_to_graph(graph_to_payload(Graph()))
        assert rebuilt.num_vertices == 0

    def test_payload_is_picklable(self, labeled_graph):
        import pickle

        payload = graph_to_payload(labeled_graph)
        rebuilt = payload_to_graph(pickle.loads(pickle.dumps(payload)))
        assert rebuilt.labels == labeled_graph.labels


class TestScoreCandidates:
    def _model_and_candidates(self, graph, small_ontology, exact=False):
        model = CostModel(
            graph, CostParams(num_samples=8, exact=exact, seed=0)
        )
        candidates = candidate_generalizations(graph, small_ontology)
        assert candidates, "fixture must yield candidates"
        return model, candidates

    def test_workers_match_serial_sampled(self, labeled_graph, small_ontology):
        model, candidates = self._model_and_candidates(
            labeled_graph, small_ontology
        )
        serial = score_candidates(model, candidates, workers=None)
        fresh = CostModel(
            labeled_graph, CostParams(num_samples=8, seed=0)
        )
        parallel = score_candidates(fresh, candidates, workers=2)
        assert parallel == serial  # exact float equality

    def test_workers_match_serial_exact_mode(
        self, labeled_graph, small_ontology
    ):
        model, candidates = self._model_and_candidates(
            labeled_graph, small_ontology, exact=True
        )
        serial = score_candidates(model, candidates, workers=None)
        fresh = CostModel(
            labeled_graph, CostParams(num_samples=8, exact=True, seed=0)
        )
        parallel = score_candidates(fresh, candidates, workers=2)
        assert parallel == serial

    def test_serial_matches_model_cost(self, labeled_graph, small_ontology):
        model, candidates = self._model_and_candidates(
            labeled_graph, small_ontology
        )
        scores = score_candidates(model, candidates)
        expected = [
            model.cost(Configuration({source: target}))
            for source, target in candidates
        ]
        assert scores == expected

    def test_single_candidate_stays_inline(self, labeled_graph, small_ontology):
        model, candidates = self._model_and_candidates(
            labeled_graph, small_ontology
        )
        one = candidates[:1]
        assert score_candidates(model, one, workers=4) == score_candidates(
            model, one
        )


class TestParallelBuildEquivalence:
    def test_greedy_configuration_matches(self, labeled_graph, small_ontology):
        params = CostParams(num_samples=8, seed=0)
        serial = greedy_configuration(
            labeled_graph, small_ontology, cost_params=params
        )
        parallel = greedy_configuration(
            labeled_graph, small_ontology, cost_params=params, workers=2
        )
        assert parallel.mappings == serial.mappings

    def test_index_build_matches(self, labeled_graph, small_ontology):
        params = CostParams(num_samples=8, seed=0)
        serial = BiGIndex.build(
            labeled_graph.copy(share_label_table=True),
            small_ontology,
            num_layers=2,
            cost_params=params,
        )
        parallel = BiGIndex.build(
            labeled_graph.copy(share_label_table=True),
            small_ontology,
            num_layers=2,
            cost_params=params,
            workers=2,
        )
        assert parallel.layer_sizes() == serial.layer_sizes()
        assert [
            layer.config.mappings for layer in parallel.layers
        ] == [layer.config.mappings for layer in serial.layers]


def _log_and_fail(task):
    """Stand-in pool task (module level, so picklable by reference).

    ``task`` carries the call log's path first — directly for a locale
    build tuple, inside the first candidate pair for a scoring chunk.
    """
    head = task[0]
    log_path = head if isinstance(head, str) else head[0]
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write("call\n")
    raise RuntimeError("worker-side failure")


class TestWorkerErrorsPropagate:
    """A task that raises runs once and its exception reaches the caller.

    The worker ladders fall back to inline execution only when no pool
    can be *constructed*; re-running failed tasks on another rung would
    repeat the work and — for scoring, whose inline path is a different
    function — could succeed and mask a worker-side divergence.
    """

    def test_score_candidates(
        self, labeled_graph, small_ontology, tmp_path, monkeypatch
    ):
        import repro.core.parallel as parallel

        log = tmp_path / "calls.log"
        model = CostModel(labeled_graph, CostParams(num_samples=8, seed=0))
        candidates = [(str(log), "x"), (str(log), "y")]  # two chunks
        monkeypatch.setattr(parallel, "_score_chunk", _log_and_fail)
        with pytest.raises(RuntimeError, match="worker-side failure"):
            parallel.score_candidates(model, candidates, workers=2)
        assert 1 <= len(log.read_text().splitlines()) <= len(candidates)

    def test_run_build_tasks(self, tmp_path, monkeypatch):
        import repro.core.sharding as sharding

        log = tmp_path / "calls.log"
        tasks = [(str(log), "shard-0"), (str(log), "shard-1")]
        monkeypatch.setattr(sharding, "_build_locale_task", _log_and_fail)
        with pytest.raises(RuntimeError, match="worker-side failure"):
            sharding._run_build_tasks(tasks, workers=2)
        assert 1 <= len(log.read_text().splitlines()) <= len(tasks)
