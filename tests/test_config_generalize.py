"""Unit tests for configurations and Gen/Spec (Sec. 2-3)."""

import pytest

from repro.core.config import Configuration
from repro.core.generalize import (
    generalize_graph,
    generalize_label,
    generalize_query,
    specialize_label,
)
from repro.graph.digraph import Graph
from repro.search.base import KeywordQuery
from repro.utils.errors import ConfigurationError


class TestConfiguration:
    def test_mappings_normalize_identity_away(self):
        c = Configuration({"a": "a", "b": "B"})
        assert c.mappings == {"b": "B"}
        assert len(c) == 1

    def test_target_of_defaults_to_identity(self):
        c = Configuration({"a": "A"})
        assert c.target_of("a") == "A"
        assert c.target_of("z") == "z"

    def test_domain_and_image(self):
        c = Configuration({"a": "X", "b": "X", "c": "Y"})
        assert c.domain == {"a", "b", "c"}
        assert c.image == {"X", "Y"}

    def test_sources_of(self):
        c = Configuration({"a": "X", "b": "X", "c": "Y"})
        assert c.sources_of("X") == {"a", "b"}
        assert c.sources_of("Z") == set()

    def test_validation_against_ontology(self, fig2_ontology):
        Configuration({"Academics": "Person"}, ontology=fig2_ontology)
        with pytest.raises(ConfigurationError):
            # Agent is a transitive supertype, not a direct one.
            Configuration({"Academics": "Agent"}, ontology=fig2_ontology)
        with pytest.raises(ConfigurationError):
            Configuration({"NotAType": "Person"}, ontology=fig2_ontology)

    def test_merged_with(self):
        c = Configuration({"a": "X"})
        c2 = c.merged_with("b", "X")
        assert "b" in c2 and "b" not in c

    def test_merged_with_conflicting_source_raises(self):
        c = Configuration({"a": "X"})
        with pytest.raises(ConfigurationError):
            c.merged_with("a", "Y")

    def test_merged_with_same_target_ok(self):
        c = Configuration({"a": "X"})
        assert len(c.merged_with("a", "X")) == 1

    def test_conflicts_with(self):
        c = Configuration({"a": "X"})
        assert c.conflicts_with("a", "Y")
        assert not c.conflicts_with("a", "X")
        assert not c.conflicts_with("b", "Y")

    def test_equality_and_hash(self):
        assert Configuration({"a": "X"}) == Configuration({"a": "X"})
        assert hash(Configuration({"a": "X"})) == hash(Configuration({"a": "X"}))
        assert Configuration({"a": "X"}) != Configuration({})

    def test_empty_and_bool(self):
        assert not Configuration.empty()
        assert Configuration({"a": "X"})

    def test_iteration_sorted(self):
        c = Configuration({"b": "Y", "a": "X"})
        assert list(c) == [("a", "X"), ("b", "Y")]


class TestGeneralizeGraph:
    def test_labels_rewritten_topology_untouched(self, fig1_graph, fig2_ontology):
        config = Configuration(
            {"Student": "Person", "UC Berkeley": "Univ."}, ontology=fig2_ontology
        )
        result = generalize_graph(fig1_graph, config)
        assert result.num_vertices == fig1_graph.num_vertices
        assert set(result.edges()) == set(fig1_graph.edges())
        assert result.vertices_with_label("Student") == set()
        assert len(result.vertices_with_label("Person")) == 10

    def test_original_graph_unchanged(self, fig1_graph):
        config = Configuration({"Student": "Person"})
        generalize_graph(fig1_graph, config)
        assert len(fig1_graph.vertices_with_label("Student")) == 10

    def test_empty_config_is_copy(self, fig1_graph):
        result = generalize_graph(fig1_graph, Configuration.empty())
        assert result.num_vertices == fig1_graph.num_vertices
        assert set(result.edges()) == set(fig1_graph.edges())
        assert result.label_histogram() == fig1_graph.label_histogram()

    def test_label_preserving_property(self, fig1_graph):
        """Def. 2.2: each vertex either follows its mapping or is unchanged."""
        config = Configuration({"Student": "Person", "Academics": "Person"})
        result = generalize_graph(fig1_graph, config)
        for v in fig1_graph.vertices():
            before, after = fig1_graph.label(v), result.label(v)
            assert after == config.target_of(before)

    def test_mapping_source_absent_from_graph_is_harmless(self, fig1_graph):
        config = Configuration({"Ghost": "Person"})
        result = generalize_graph(fig1_graph, config)
        assert result.label_histogram() == fig1_graph.label_histogram()

    def test_chained_mappings_apply_once(self):
        """``{a -> b, b -> c}`` rewrites each vertex from its original label."""
        g = Graph()
        g.add_vertex("a")
        g.add_vertex("b")
        config = Configuration({"a": "b", "b": "c"})
        result = generalize_graph(g, config)
        assert [result.label(v) for v in result.vertices()] == ["b", "c"]
        for v in g.vertices():
            assert result.label(v) == generalize_label(g.label(v), [config])


class TestLabelChains:
    def test_generalize_label_threads_configs(self):
        c1 = Configuration({"a": "A"})
        c2 = Configuration({"A": "TOP"})
        assert generalize_label("a", [c1, c2]) == "TOP"
        assert generalize_label("a", [c1]) == "A"
        assert generalize_label("other", [c1, c2]) == "other"

    def test_generalize_query_reports_collisions(self):
        c1 = Configuration({"a": "X", "b": "X"})
        result = generalize_query(KeywordQuery(["a", "b"]), [c1])
        assert result == ["X", "X"]

    def test_specialize_label_single_layer(self):
        c1 = Configuration({"a": "X", "b": "X"})
        # a and b generalize to X; an X-labeled vertex also stays X.
        assert specialize_label("X", [c1]) == {"a", "b", "X"}

    def test_specialize_label_includes_self_when_unmapped(self):
        c1 = Configuration({"a": "X"})
        # X itself passes through Gen unchanged, so it is its own preimage.
        assert specialize_label("X", [c1]) == {"a", "X"}

    def test_specialize_label_excludes_mapped_self(self):
        c1 = Configuration({"X": "Y", "a": "X"})
        # X is mapped by the config, so no layer-above vertex is labeled X
        # because of pass-through; only 'a' generalizes to X.
        assert specialize_label("X", [c1]) == {"a"}

    def test_specialize_label_multi_layer(self):
        c1 = Configuration({"a": "A", "b": "A"})
        c2 = Configuration({"A": "TOP"})
        assert specialize_label("TOP", [c1, c2]) >= {"a", "b", "TOP"}

    def test_spec_is_right_inverse_of_gen(self):
        c1 = Configuration({"a": "A", "b": "A"})
        c2 = Configuration({"A": "TOP", "c": "TOP"})
        configs = [c1, c2]
        for base in ("a", "b", "c", "z"):
            generalized = generalize_label(base, configs)
            assert base in specialize_label(generalized, configs)
