"""Unit tests for the dataset generators and workloads (Sec. 6.1)."""

import pytest

from repro.datasets.knowledge import (
    DATASET_NAMES,
    dataset_ontology,
    dataset_registry,
    dbpedia_like,
    generate_knowledge_graph,
    imdb_like,
    yago_like,
)
from repro.datasets.synthetic import (
    DEEP_SCALES,
    SYNTHETIC_SCALES,
    deep_dataset,
    generate_deep_graph,
    generate_synthetic_graph,
    synthetic_dataset,
    verification_corpus,
    zipf_choice,
)
from repro.datasets.workloads import (
    BENCHMARK_ARITIES,
    benchmark_queries,
    generate_queries,
)
from repro.ontology.ontology import generate_ontology
from repro.utils.errors import BigIndexError, GraphError, QueryError


class TestSyntheticGraphs:
    def test_sizes_match_request(self):
        ont = generate_ontology(100, seed=0)
        g = generate_synthetic_graph(500, 1500, ont, seed=0)
        assert g.num_vertices == 500
        assert g.num_edges == 1500

    def test_deterministic(self):
        ont = generate_ontology(100, seed=0)
        a = generate_synthetic_graph(200, 600, ont, seed=5)
        b = generate_synthetic_graph(200, 600, ont, seed=5)
        assert list(a.edges()) == list(b.edges())
        assert a.labels == b.labels

    def test_labels_are_ontology_leaves(self):
        ont = generate_ontology(100, seed=0)
        g = generate_synthetic_graph(200, 400, ont, seed=1)
        leaves = set(ont.leaves())
        assert g.distinct_labels() <= leaves

    def test_zipf_skew(self):
        ont = generate_ontology(200, seed=0)
        g = generate_synthetic_graph(2000, 4000, ont, seed=2, zipf_exponent=1.5)
        histogram = sorted(g.label_histogram().values(), reverse=True)
        # Head label should dominate the tail under strong skew.
        assert histogram[0] > 5 * histogram[-1]

    def test_invalid_vertex_count(self):
        ont = generate_ontology(10, seed=0)
        with pytest.raises(GraphError):
            generate_synthetic_graph(0, 0, ont)

    def test_named_scales(self):
        for name, (v, e) in SYNTHETIC_SCALES.items():
            graph, ontology = synthetic_dataset(name, ontology_types=100)
            assert graph.num_vertices == v
            break  # one is enough for the size check; all share the code

    def test_unknown_scale_rejected(self):
        with pytest.raises(GraphError):
            synthetic_dataset("synt-99k")

    def test_zipf_choice_prefers_head(self):
        import random

        rng = random.Random(0)
        draws = [zipf_choice(rng, ["a", "b", "c"], 2.0) for _ in range(500)]
        assert draws.count("a") > draws.count("c")


class TestDeepGraphs:
    def test_named_scales_match(self):
        for name, (layers, width, _branching) in DEEP_SCALES.items():
            graph, _ontology = deep_dataset(name)
            assert graph.num_vertices == layers * width

    def test_deterministic(self):
        a, _ = deep_dataset("synt-deep-1k", seed=3)
        b, _ = deep_dataset("synt-deep-1k", seed=3)
        assert list(a.edges()) == list(b.edges())
        assert a.labels == b.labels

    def test_layered_dag_structure(self):
        ont = generate_ontology(100, seed=0)
        g = generate_deep_graph(5, 20, ont, seed=1, branching=3)
        # Every edge goes exactly one layer forward.
        for u, v in g.edges():
            assert v // 20 == u // 20 + 1
        # Non-final layers have out-degree == branching.
        for v in range(4 * 20):
            assert g.out_degree(v) == 3

    def test_one_label_per_layer_plus_seam(self):
        ont = generate_ontology(100, seed=0)
        layers, width = 4, 10
        g = generate_deep_graph(layers, width, ont, seed=2)
        for layer in range(layers - 1):
            labels = {g.label(layer * width + i) for i in range(width)}
            assert len(labels) == 1
        last = {g.label((layers - 1) * width + i) for i in range(width)}
        assert len(last) == 2

    def test_refinement_depth_equals_layers(self):
        """The seam's split wave must walk one layer per round, making
        the final partition distinguish every layer position pairing."""
        from repro.bisim.refinement import maximal_bisimulation

        ont = generate_ontology(100, seed=0)
        layers, width = 6, 8
        g = generate_deep_graph(layers, width, ont, seed=0)
        blocks = maximal_bisimulation(g)
        # Vertices in different layers are never bisimilar (distinct labels
        # / distinct depth), so the block count is at least the layer count.
        assert len(set(blocks)) >= layers
        # The seam separates the last layer's two parities...
        last_base = (layers - 1) * width
        assert blocks[last_base] != blocks[last_base + 1]

    def test_too_few_layers_rejected(self):
        ont = generate_ontology(100, seed=0)
        with pytest.raises(GraphError):
            generate_deep_graph(1, 10, ont)

    def test_unknown_name_rejected(self):
        with pytest.raises(GraphError):
            deep_dataset("synt-deep-9k")

    def test_verification_corpus_includes_depth_stressor(self):
        full_names = [name for name, _g, _o in verification_corpus(quick=False)]
        quick_names = [name for name, _g, _o in verification_corpus(quick=True)]
        assert "synt-deep-3k" in full_names
        assert "synt-deep-3k" not in quick_names


class TestKnowledgeGraphs:
    def test_community_structure_compresses(self):
        ont = generate_ontology(150, seed=0)
        g = generate_knowledge_graph(1000, ont, seed=0, noise_ratio=0.0)
        from repro.bisim.summary import summarize
        from repro.core.generalize import generalize_graph
        from repro.core.config import Configuration

        # Generalize every leaf to its first parent.
        mapping = {}
        for t in ont.leaves():
            supers = ont.direct_supertypes(t)
            if supers:
                mapping[t] = sorted(supers)[0]
        summary = summarize(generalize_graph(g, Configuration(mapping)))
        assert summary.graph.size < 0.4 * g.size

    def test_noise_reduces_compression(self):
        ont = generate_ontology(150, seed=0)
        from repro.bisim.summary import summarize

        clean = generate_knowledge_graph(800, ont, seed=1, noise_ratio=0.0)
        noisy = generate_knowledge_graph(800, ont, seed=1, noise_ratio=0.6)
        ratio_clean = summarize(clean).graph.size / clean.size
        ratio_noisy = summarize(noisy).graph.size / noisy.size
        assert ratio_noisy > ratio_clean

    def test_minimum_size_enforced(self):
        ont = generate_ontology(50, seed=0)
        with pytest.raises(GraphError):
            generate_knowledge_graph(5, ont)

    def test_yago_like_stats(self):
        ds = yago_like(scale=0.1)
        assert ds.stats["V"] == 1000
        assert 1.3 <= ds.stats["E"] / ds.stats["V"] <= 2.5
        assert ds.name == "yago-like"

    def test_dbpedia_like_typing_fallback(self):
        ds = dbpedia_like(scale=0.1)
        # All labels are ontology types after the typing pass.
        assert all(label in ds.ontology for label in ds.graph.distinct_labels())
        assert "typing coverage" in ds.note

    def test_imdb_like_density(self):
        ds = imdb_like(scale=0.1)
        assert ds.stats["E"] / ds.stats["V"] > 2.5

    def test_registry_names(self):
        registry = dataset_registry(scale=0.05)
        assert set(registry) == {"yago-like", "dbpedia-like", "imdb-like"}
        ds = registry["yago-like"]()
        assert ds.graph.num_vertices == 500

    @pytest.mark.parametrize("scale", [0.05, 0.2, 0.5, 1.0])
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_dataset_ontology_matches_registry(self, name, scale):
        """``--ontology-from`` reads the ontology without the graph; it
        must be the very ontology the dataset was generated with."""
        def edges(ontology):
            return [
                (t, ontology.direct_supertypes(t))
                for t in sorted(ontology.types())
            ]

        ontology = dataset_ontology(name, scale)
        expected = dataset_registry(scale=scale)[name]().ontology
        assert ontology.types() == expected.types()
        assert edges(ontology) == edges(expected)

    def test_dataset_ontology_unknown_name(self):
        with pytest.raises(BigIndexError, match="unknown dataset 'nope'"):
            dataset_ontology("nope", 0.05)


class TestWorkloads:
    def test_benchmark_arity_mix(self):
        ds = yago_like(scale=0.2)
        specs = benchmark_queries(ds.graph, seed=3)
        assert tuple(len(s.keywords) for s in specs) == BENCHMARK_ARITIES
        assert [s.qid for s in specs] == [f"Q{i}" for i in range(1, 9)]

    def test_counts_match_histogram(self):
        ds = yago_like(scale=0.2)
        specs = benchmark_queries(ds.graph, seed=3)
        histogram = ds.graph.label_histogram()
        for spec in specs:
            assert spec.counts == tuple(
                histogram[k] for k in spec.keywords
            )

    def test_min_support_respected(self):
        ds = yago_like(scale=0.2)
        specs = generate_queries(ds.graph, [2, 3], seed=1, min_support=10)
        for spec in specs:
            assert all(c >= 10 for c in spec.counts)

    def test_deterministic(self):
        ds = yago_like(scale=0.2)
        a = benchmark_queries(ds.graph, seed=5)
        b = benchmark_queries(ds.graph, seed=5)
        assert [s.keywords for s in a] == [s.keywords for s in b]

    def test_impossible_support_raises(self):
        ds = yago_like(scale=0.05)
        with pytest.raises(QueryError):
            generate_queries(ds.graph, [2], min_support=10**9)

    def test_query_property_is_runnable(self):
        ds = yago_like(scale=0.2)
        spec = benchmark_queries(ds.graph, seed=3)[0]
        assert len(spec.query) == len(spec.keywords)
