"""Unit tests for the index cost model (Formula 3) and Algorithm 1."""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.bisim.summary import summarize
from repro.core.config import Configuration
from repro.core.cost import (
    CostModel,
    CostParams,
    compression_ratio,
    distortion,
)
from repro.core.generalize import generalize_graph
from repro.core.heuristic import candidate_generalizations, greedy_configuration
from repro.core.index import BiGIndex
from repro.datasets.knowledge import yago_like
from repro.graph.digraph import Graph
from repro.ontology.ontology import OntologyGraph
from repro.utils.errors import ConfigurationError

#: Graph labels; ``AB`` is also a supertype in :func:`_ontology`, so
#: generalizing ``A`` or ``B`` can collide with a label already present.
LABELS = ("A", "B", "C", "AB")
#: Mapping targets: graph labels (collisions) plus labels the table lacks.
TARGETS = LABELS + ("X", "Y")


@st.composite
def labelled_graphs(draw, max_vertices: int = 18, max_edges: int = 40) -> Graph:
    """Random labelled digraphs, self-loops included."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    g = Graph()
    for label in draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n)):
        g.add_vertex(label)
    for u, v in draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_edges,
        )
    ):
        g.add_edge(u, v)
    return g


configs = st.dictionaries(
    st.sampled_from(LABELS), st.sampled_from(TARGETS), max_size=4
).map(Configuration)


def _oracle_ratio(graph: Graph, config: Configuration) -> float:
    """``|Bisim(Gen(G, C))| / |G|`` by building both graphs."""
    if graph.size == 0:
        return 1.0
    return summarize(generalize_graph(graph, config)).graph.size / graph.size


def _oracle_distortion(graph: Graph, config: Configuration) -> float:
    """Formula 3's distort term, ``1 - 1/|X_l|`` per mapped label."""
    domain = sorted(config.domain)
    sups = [graph.label_support(l) / graph.num_vertices for l in domain]
    if not domain or sum(sups) == 0.0:
        return 0.0
    weighted = sum(
        (1 - 1 / len(config.sources_of(config.target_of(l)))) * s
        for l, s in zip(domain, sups)
    )
    return weighted / (len(domain) * sum(sups))


def _ontology() -> OntologyGraph:
    ont = OntologyGraph()
    for sub, sup in (
        ("A", "AB"), ("B", "AB"), ("C", "AB"), ("C", "X"), ("AB", "Y")
    ):
        ont.add_subtype(sub, sup)
    return ont


def _reference_greedy(graph, ontology, params, theta):
    """Algorithm 1 scoring every configuration with the oracle formulas."""
    samples = CostModel(graph, params).samples

    def cost(config):
        if params.exact:
            compress = _oracle_ratio(graph, config)
        else:
            ratios = [_oracle_ratio(s, config) for s in samples if s.size > 0]
            compress = sum(ratios) / len(ratios) if ratios else 1.0
        return params.alpha * compress + (
            1 - params.alpha
        ) * _oracle_distortion(graph, config)

    queue = [
        (cost(Configuration({src: tgt})), src, tgt)
        for src, tgt in candidate_generalizations(graph, ontology)
    ]
    heapq.heapify(queue)
    config = Configuration.empty()
    while queue:
        _, src, tgt = heapq.heappop(queue)
        if src in config:
            continue
        extended = config.merged_with(src, tgt)
        if cost(extended) > theta:
            break
        config = extended
    return config


def _label_distortion(config: Configuration, label: str) -> float:
    """``distort(l)`` read through :func:`distortion`: with all support on
    ``label``, the weighted mean is ``distort(l) / |domain|``."""
    return len(config.domain) * distortion(
        Graph(), config, lambda l: float(l == label)
    )


class TestDistortion:
    def test_label_distortion_formula(self):
        # Two labels generalized to the same supertype: 1 - 1/2 each.
        c = Configuration({"P. Graham": "Investor", "W. Buffett": "Investor"})
        assert _label_distortion(c, "P. Graham") == pytest.approx(0.5)
        assert _label_distortion(c, "W. Buffett") == pytest.approx(0.5)

    def test_lone_mapping_has_zero_distortion(self):
        c = Configuration({"a": "X"})
        assert _label_distortion(c, "a") == 0.0

    def test_unmapped_label_has_zero_distortion(self):
        c = Configuration({"a": "X"})
        assert _label_distortion(c, "z") == 0.0

    def test_example_3_1_many_siblings(self):
        """distort = 1 - 1/n for n labels sharing a supertype."""
        n = 5
        c = Configuration({f"l{i}": "Person" for i in range(n)})
        for i in range(n):
            assert _label_distortion(c, f"l{i}") == pytest.approx(1 - 1 / n)

    def test_graph_distortion_weights_by_support(self):
        g = Graph()
        for _ in range(8):
            g.add_vertex("a")
        g.add_vertex("b")
        c = Configuration({"a": "X", "b": "X"})
        # Both labels have distortion 0.5; support-weighting is symmetric in
        # the normalized formula, so the result is 0.5 / |X| = 0.25.
        assert distortion(g, c) == pytest.approx(0.5 / 2)

    def test_empty_config_distortion_zero(self):
        g = Graph()
        g.add_vertex("a")
        assert distortion(g, Configuration.empty()) == 0.0

    def test_distortion_of_absent_labels_is_zero(self):
        g = Graph()
        g.add_vertex("z")
        c = Configuration({"a": "X", "b": "X"})
        assert distortion(g, c) == 0.0


class TestCompression:
    def test_exact_compression_on_fan(self):
        g = Graph()
        hub = g.add_vertex("H")
        for _ in range(9):
            g.add_edge(g.add_vertex("p1"), hub)
        # All p1 vertices already merge without generalization.
        ratio = compression_ratio(g, Configuration.empty())
        # Summary: 2 vertices, 1 edge over size 19.
        assert ratio == pytest.approx(3 / 19)

    def test_generalization_improves_compression(self):
        g = Graph()
        hub = g.add_vertex("H")
        for i in range(10):
            g.add_edge(g.add_vertex(f"p{i % 2}"), hub)
        without = compression_ratio(g, Configuration.empty())
        with_gen = compression_ratio(
            g, Configuration({"p0": "P", "p1": "P"})
        )
        assert with_gen < without

    def test_empty_graph_ratio_is_one(self):
        assert compression_ratio(Graph(), Configuration.empty()) == 1.0

    def test_self_loops_count_as_summary_edges(self):
        g = Graph()
        a, b = g.add_vertex("a"), g.add_vertex("b")
        g.add_edge(a, a)
        g.add_edge(b, b)
        # Gen merges a and b into one block with a self-loop: 1 + 1 over 4.
        assert compression_ratio(g, Configuration({"a": "b"})) == 2 / 4

    @given(labelled_graphs(), configs)
    @settings(max_examples=150, deadline=None)
    def test_counted_ratio_equals_built_summary(self, g, config):
        assert compression_ratio(g, config) == _oracle_ratio(g, config)


class TestCostModel:
    def test_params_validation(self):
        with pytest.raises(ConfigurationError):
            CostParams(alpha=1.5)
        with pytest.raises(ConfigurationError):
            CostParams(num_samples=0)

    def test_exact_mode_matches_direct_computation(self, fig1_graph):
        model = CostModel(fig1_graph, CostParams(exact=True, alpha=1.0))
        c = Configuration({"Student": "Person"})
        assert model.cost(c) == pytest.approx(compression_ratio(fig1_graph, c))

    def test_alpha_zero_is_pure_distortion(self, fig1_graph):
        model = CostModel(fig1_graph, CostParams(exact=True, alpha=0.0))
        c = Configuration({"Student": "Person", "Academics": "Person"})
        assert model.cost(c) == pytest.approx(distortion(fig1_graph, c))

    def test_sampling_estimate_within_bounds(self, fig1_graph):
        model = CostModel(fig1_graph, CostParams(num_samples=20, seed=1))
        value = model.compress(Configuration.empty())
        assert 0.0 < value <= 1.0

    def test_samples_are_cached(self, fig1_graph):
        model = CostModel(fig1_graph, CostParams(num_samples=5))
        assert model.samples is model.samples

    def test_scoring_leaves_label_table_alone(self, fig1_graph):
        size = len(fig1_graph.label_table)
        for params in (CostParams(exact=True), CostParams(num_samples=10)):
            model = CostModel(fig1_graph, params)
            model.cost(Configuration({"Student": "Scholar", "Startup": "Firm"}))
            assert len(fig1_graph.label_table) == size

    def test_greedy_leaves_label_table_alone(self, fig1_graph, fig2_ontology):
        size = len(fig1_graph.label_table)
        config = greedy_configuration(
            fig1_graph, fig2_ontology, cost_params=CostParams(num_samples=10)
        )
        assert config and len(fig1_graph.label_table) == size

    def test_built_index_table_holds_only_carried_labels(self):
        # Algorithm 1 rejects some candidate targets on this graph; none of
        # them may linger in the shared table.
        dataset = yago_like(scale=0.02)
        index = BiGIndex.build(
            dataset.graph, dataset.ontology, num_layers=3,
            cost_params=CostParams(num_samples=10),
        )
        carried = set(dataset.graph.distinct_labels())
        for layer in index.layers:
            carried |= layer.graph.distinct_labels()
        assert set(dataset.graph.label_table) == carried

    @given(
        labelled_graphs(max_vertices=30, max_edges=60),
        st.lists(configs, min_size=1, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_keyed_cache_matches_fresh_models(self, g, sequence):
        params = CostParams(num_samples=8, sample_radius=1, seed=3)
        shared = CostModel(g, params)
        for config in sequence:
            assert shared.cost(config) == CostModel(g, params).cost(config)

    def test_support_cached_and_correct(self, fig1_graph):
        model = CostModel(fig1_graph)
        expected = fig1_graph.label_support("Student") / fig1_graph.num_vertices
        assert model.support("Student") == pytest.approx(expected)
        assert model.support("Student") == pytest.approx(expected)


class TestCandidates:
    def test_candidates_cover_used_labels_with_supertypes(
        self, fig1_graph, fig2_ontology
    ):
        candidates = candidate_generalizations(fig1_graph, fig2_ontology)
        assert ("Student", "Person") in candidates
        assert ("UC Berkeley", "Univ.") in candidates
        # Only labels present in the graph qualify.
        assert all(fig1_graph.label_support(l) > 0 for l, _ in candidates)

    def test_labels_outside_ontology_skipped(self, fig2_ontology):
        g = Graph()
        g.add_vertex("not-a-type")
        assert candidate_generalizations(g, fig2_ontology) == []


class TestGreedyConfiguration:
    def test_large_theta_generalizes_every_label(self, fig1_graph, fig2_ontology):
        config = greedy_configuration(
            fig1_graph,
            fig2_ontology,
            theta=1.0,
            cost_params=CostParams(exact=True),
        )
        # Every graph label with a supertype gets mapped.
        for label in fig1_graph.distinct_labels():
            if label in fig2_ontology and fig2_ontology.direct_supertypes(label):
                assert label in config

    def test_budget_pi_limits_mappings(self, fig1_graph, fig2_ontology):
        config = greedy_configuration(
            fig1_graph,
            fig2_ontology,
            max_mappings=2,
            cost_params=CostParams(exact=True),
        )
        assert len(config) <= 2

    def test_tiny_theta_yields_empty_or_tiny_config(
        self, fig1_graph, fig2_ontology
    ):
        config = greedy_configuration(
            fig1_graph,
            fig2_ontology,
            theta=0.0,
            cost_params=CostParams(exact=True),
        )
        assert len(config) == 0

    def test_config_is_valid_against_ontology(self, fig1_graph, fig2_ontology):
        config = greedy_configuration(
            fig1_graph, fig2_ontology, cost_params=CostParams(exact=True)
        )
        for source, target in config:
            assert target in fig2_ontology.direct_supertypes(source)

    def test_empty_graph_returns_empty_config(self, fig2_ontology):
        assert not greedy_configuration(
            Graph(), fig2_ontology, cost_params=CostParams(exact=True)
        )

    @given(
        labelled_graphs(max_vertices=14, max_edges=30),
        st.booleans(),
        st.sampled_from((0.3, 0.6, 1.0)),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_greedy_on_oracle_scores(self, g, exact, theta):
        params = CostParams(exact=exact, num_samples=6, sample_radius=1)
        ontology = _ontology()
        config = greedy_configuration(g, ontology, theta=theta, cost_params=params)
        assert config == _reference_greedy(g, ontology, params, theta)

    def test_reuses_supplied_cost_model(self, fig1_graph, fig2_ontology):
        model = CostModel(fig1_graph, CostParams(exact=True))
        config = greedy_configuration(
            fig1_graph, fig2_ontology, cost_model=model
        )
        assert len(config) > 0
