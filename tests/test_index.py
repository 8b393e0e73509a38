"""Unit tests for the BiG-index hierarchy (Def. 3.1) and maintenance."""

import pytest

from repro.bisim.refinement import is_bisimulation_partition
from repro.core.config import Configuration
from repro.core.cost import CostParams
from repro.core.generalize import generalize_graph
from repro.core.index import BiGIndex
from repro.search.base import KeywordQuery
from repro.utils.errors import BigIndexError

EXACT = CostParams(exact=True)


@pytest.fixture
def index(fig1_graph, fig2_ontology) -> BiGIndex:
    return BiGIndex.build(
        fig1_graph, fig2_ontology, num_layers=3, cost_params=EXACT
    )


class TestBuild:
    def test_layers_built(self, index):
        assert 1 <= index.num_layers <= 3

    def test_layer_sizes_decrease_weakly(self, index):
        sizes = index.layer_sizes()
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))

    def test_layer_graph_access(self, index, fig1_graph):
        assert index.layer_graph(0) is fig1_graph
        assert index.layer_graph(1).num_vertices < fig1_graph.num_vertices
        with pytest.raises(BigIndexError):
            index.layer_graph(index.num_layers + 1)

    def test_definition_3_1_recurrence(self, index, fig1_graph):
        """G^i must equal Bisim(Gen(G^{i-1}, C^i)) vertex-for-vertex."""
        from repro.bisim.summary import summarize

        current = fig1_graph
        for layer in index.layers:
            generalized = generalize_graph(current, layer.config)
            expected = summarize(generalized)
            assert expected.graph.num_vertices == layer.graph.num_vertices
            assert expected.graph.num_edges == layer.graph.num_edges
            assert expected.supernode_of == layer.parent_of
            current = layer.graph

    def test_report_populated(self, index):
        assert len(index.report.layer_sizes) == index.num_layers
        assert index.report.total_seconds > 0

    def test_size_ratio_and_total(self, index, fig1_graph):
        assert index.size_ratio(1) == pytest.approx(
            index.layer_graph(1).size / fig1_graph.size
        )
        assert index.total_index_size() == sum(
            layer.graph.size for layer in index.layers
        )

    def test_num_layers_limit_respected(self, fig1_graph, fig2_ontology):
        idx = BiGIndex.build(
            fig1_graph, fig2_ontology, num_layers=1, cost_params=EXACT
        )
        assert idx.num_layers == 1

    def test_unbounded_build_terminates(self, fig1_graph, fig2_ontology):
        idx = BiGIndex.build(
            fig1_graph, fig2_ontology, num_layers=None, cost_params=EXACT
        )
        assert idx.num_layers >= 1


class TestNavigation:
    def test_chi_and_spec_are_inverse(self, index, fig1_graph):
        for m in range(1, index.num_layers + 1):
            for v in fig1_graph.vertices():
                supernode = index.chi(v, m)
                assert v in index.spec_to_base(supernode, m)

    def test_spec_to_base_partitions_vertices(self, index, fig1_graph):
        for m in range(1, index.num_layers + 1):
            layer_graph = index.layer_graph(m)
            all_members = []
            for s in layer_graph.vertices():
                all_members.extend(index.spec_to_base(s, m))
            assert sorted(all_members) == list(fig1_graph.vertices())

    def test_spec_vertex_single_step(self, index):
        layer = index.layers[0]
        for s, members in enumerate(layer.extent):
            assert index.spec_vertex(s, 1) == members

    def test_spec_vertex_rejects_bad_layer(self, index):
        with pytest.raises(BigIndexError):
            index.spec_vertex(0, 0)

    def test_chi_label_consistency(self, index, fig1_graph):
        """chi^m(v)'s label is Gen^m of v's label."""
        from repro.core.generalize import generalize_label

        for m in range(1, index.num_layers + 1):
            configs = index.configs_up_to(m)
            for v in fig1_graph.vertices():
                expected = generalize_label(fig1_graph.label(v), configs)
                assert index.layer_graph(m).label(index.chi(v, m)) == expected


class TestQueryGeneralization:
    def test_keyword_threads_configs(self, index):
        gen1 = index.generalize_keyword("Student", 1)
        assert gen1 == "Person"

    def test_query_distinct_detection(self, index):
        q = KeywordQuery(["Student", "Academics"])
        # Both generalize to Person at layer 1 -> collision.
        assert not index.query_distinct_at(q, 1)
        q2 = KeywordQuery(["Student", "UC Berkeley"])
        assert index.query_distinct_at(q2, 1)

    def test_generalize_query_list(self, index):
        result = index.generalize_query(KeywordQuery(["Student", "Academics"]), 1)
        assert result == ["Person", "Person"]


class TestEdgeMaintenance:
    def test_insert_edge_keeps_layers_valid(self, index, fig1_graph):
        index.insert_edge(0, 9)  # P. Graham -> California
        self._assert_hierarchy_valid(index, fig1_graph)

    def test_delete_edge_keeps_layers_valid(self, index, fig1_graph):
        index.delete_edge(0, 2)  # P. Graham -> Harvard
        self._assert_hierarchy_valid(index, fig1_graph)

    def test_insert_then_rebuild_restores_minimality(self, index, fig1_graph):
        sizes_before = index.layer_sizes()
        index.insert_edge(0, 9)
        index.delete_edge(0, 9)
        index.rebuild()
        assert index.drift == 0
        assert index.layer_sizes() == sizes_before

    def test_duplicate_insert_is_noop(self, index):
        drift = index.drift
        index.insert_edge(0, 2)  # edge already exists
        assert index.drift == drift

    def test_maintenance_preserves_query_answers(self, fig1_graph, fig2_ontology):
        from repro.core.plugins import boost_bkws
        from repro.search.banks import BackwardKeywordSearch

        idx = BiGIndex.build(
            fig1_graph, fig2_ontology, num_layers=2, cost_params=EXACT
        )
        idx.insert_edge(1, 3)  # S. Idreos -> Cornell
        algo = BackwardKeywordSearch(d_max=3, k=None)
        query = KeywordQuery(["Ivy League", "Massachusetts"])
        direct = {(a.root, a.score) for a in algo.bind(fig1_graph).search(query)}
        boosted = boost_bkws(idx, d_max=3, k=None)
        got = {(a.root, a.score) for a in boosted.search(query, layer=1)}
        assert direct == got

    def test_write_shares_every_layer_it_does_not_touch(self, index):
        """The climb stops at the first layer a write leaves unchanged:
        that layer and every one above stay the parent's own objects,
        and the parent snapshot never moves."""
        assert index.num_layers >= 2
        digest = index.state_digest()
        graph = index.base_graph
        stops = set()
        for u in graph.vertices():
            for v in graph.vertices():
                if u == v or graph.has_edge(u, v):
                    continue
                clone = index.cow_clone()
                clone.insert_edge(u, v)
                shared = [
                    mine is theirs
                    for mine, theirs in zip(clone.layers, index.layers)
                ]
                stop = shared.index(True) if True in shared else len(shared)
                assert all(shared[stop:]), (u, v, shared)
                stops.add(stop)
        assert index.state_digest() == digest
        # Some write patches layer 1 alone and hands layer 2 nothing.
        assert 1 in stops, stops

    @staticmethod
    def _assert_hierarchy_valid(index: BiGIndex, base_graph) -> None:
        current = base_graph
        for layer in index.layers:
            generalized = generalize_graph(current, layer.config)
            assert is_bisimulation_partition(generalized, layer.parent_of)
            # extent/parent consistency
            for s, members in enumerate(layer.extent):
                assert members
                for v in members:
                    assert layer.parent_of[v] == s
            current = layer.graph


class TestOntologyMaintenance:
    def test_addition_is_noop(self, index):
        sizes = index.layer_sizes()
        index.note_ontology_addition()
        assert index.layer_sizes() == sizes
        assert index.drift == 1

    def test_remove_unused_edge_is_noop(self, index):
        sizes = index.layer_sizes()
        index.remove_ontology_edge("Startup", "Organization")
        # Startup does not label any vertex, so no config used the edge...
        # unless the heuristic mapped it; either way layers stay consistent.
        assert index.num_layers == len(index.layer_sizes()) - 1

    def test_remove_used_edge_drops_mapping_everywhere(
        self, fig1_graph, fig2_ontology
    ):
        idx = BiGIndex.build(
            fig1_graph, fig2_ontology, num_layers=2, cost_params=EXACT
        )
        assert "Student" in idx.layers[0].config
        idx.remove_ontology_edge("Student", "Person")
        for layer in idx.layers:
            assert layer.config.mappings.get("Student") != "Person"

    def test_remove_used_edge_keeps_hierarchy_consistent(
        self, fig1_graph, fig2_ontology
    ):
        idx = BiGIndex.build(
            fig1_graph, fig2_ontology, num_layers=2, cost_params=EXACT
        )
        idx.remove_ontology_edge("Student", "Person")
        TestEdgeMaintenance._assert_hierarchy_valid(idx, fig1_graph)

    def test_removed_label_no_longer_generalized(self, fig1_graph, fig2_ontology):
        idx = BiGIndex.build(
            fig1_graph, fig2_ontology, num_layers=1, cost_params=EXACT
        )
        idx.remove_ontology_edge("Student", "Person")
        assert idx.generalize_keyword("Student", 1) == "Student"
