"""Unit tests for the ontology graph and generator."""

import pytest

from repro.ontology.ontology import OntologyGraph, generate_ontology
from repro.utils.errors import OntologyError


class TestOntologyStructure:
    def test_add_subtype_registers_both_types(self):
        ont = OntologyGraph()
        ont.add_subtype("Academics", "Person")
        assert "Academics" in ont and "Person" in ont
        assert ont.num_types == 2
        assert ont.num_edges == 1

    def test_direct_supertypes_and_subtypes(self, fig2_ontology):
        assert fig2_ontology.direct_supertypes("Academics") == ["Person"]
        assert "Academics" in fig2_ontology.direct_subtypes("Person")

    def test_duplicate_edge_is_idempotent(self):
        ont = OntologyGraph()
        ont.add_subtype("a", "b")
        ont.add_subtype("a", "b")
        assert ont.num_edges == 1

    def test_self_supertype_raises(self):
        ont = OntologyGraph()
        with pytest.raises(OntologyError):
            ont.add_subtype("a", "a")

    def test_cycle_rejected(self):
        ont = OntologyGraph()
        ont.add_subtype("a", "b")
        ont.add_subtype("b", "c")
        with pytest.raises(OntologyError):
            ont.add_subtype("c", "a")

    def test_multiple_supertypes_allowed(self):
        ont = OntologyGraph()
        ont.add_subtype("x", "p1")
        ont.add_subtype("x", "p2")
        assert sorted(ont.direct_supertypes("x")) == ["p1", "p2"]

    def test_unknown_type_lookup_raises(self):
        with pytest.raises(OntologyError):
            OntologyGraph().direct_supertypes("ghost")


class TestTransitiveQueries:
    def test_ancestors(self, fig2_ontology):
        assert fig2_ontology.ancestors("Academics") == {"Person", "Agent"}

    def test_is_supertype_transitive(self, fig2_ontology):
        assert fig2_ontology.is_supertype("Agent", "Academics")
        assert not fig2_ontology.is_supertype("Academics", "Agent")

    def test_is_supertype_reflexive(self, fig2_ontology):
        assert fig2_ontology.is_supertype("Person", "Person")

    def test_is_supertype_unknown_types(self, fig2_ontology):
        assert not fig2_ontology.is_supertype("ghost", "Person")
        assert not fig2_ontology.is_supertype("Person", "ghost")

    def test_roots_and_leaves(self, fig2_ontology):
        assert fig2_ontology.roots() == ["Agent", "State"]
        assert "Academics" in fig2_ontology.leaves()
        assert "Person" not in fig2_ontology.leaves()


class TestDepthHeight:
    def test_height_of_fig2(self, fig2_ontology):
        # Harvard Univ. -> Univ. -> Organization -> Agent = 3 edges.
        assert fig2_ontology.height() == 3

    def test_empty_ontology_height(self):
        assert OntologyGraph().height() == 0


class TestGenerator:
    def test_generated_shape(self):
        ont = generate_ontology(500, avg_fanout=5, height=7, seed=1)
        assert ont.num_types == 500
        assert ont.height() == 7
        ont.validate()

    def test_deterministic(self):
        a = generate_ontology(200, seed=3)
        b = generate_ontology(200, seed=3)
        assert a.types() == b.types()
        assert a.num_edges == b.num_edges

    def test_every_nonroot_has_supertype(self):
        ont = generate_ontology(120, seed=2)
        roots = set(ont.roots())
        for t in ont.types():
            if t not in roots:
                assert ont.direct_supertypes(t)

    def test_invalid_params_raise(self):
        with pytest.raises(OntologyError):
            generate_ontology(0)
        with pytest.raises(OntologyError):
            generate_ontology(10, height=0)

    def test_label_prefix(self):
        ont = generate_ontology(30, seed=0, label_prefix="Z")
        assert all(t.startswith("Z") for t in ont.types())
