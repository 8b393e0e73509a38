"""Property-based tests (hypothesis) for the core invariants.

Covered properties:

* maximal bisimulation is a valid, canonical, deterministic partition;
* the worklist refinement matches the naive reference loop byte-for-byte,
  with and without a seed partition;
* ``Bisim`` is path- and label-preserving (Def. 2.1/2.2);
* distances contract under summarization (Prop. 5.2);
* ``Gen``/``Spec`` on labels are mutually consistent;
* generalization preserves topology and is label-preserving;
* ``eval == eval_Ont`` for bkws on random graph/ontology pairs (Thm. 4.2);
* re-refining from the old partition after an edge flip (the Sec. 3.2
  maintenance rule) keeps a valid partition that refines the old one;
* localized maintenance of a multi-layer index equals the whole-layer
  seeded climb up to block numbering.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.bisim.refinement import (
    is_bisimulation_partition,
    maximal_bisimulation,
)
from repro.bisim.summary import summarize
from repro.core.config import Configuration
from repro.core.cost import CostParams
from repro.core.generalize import (
    generalize_graph,
    generalize_label,
    specialize_label,
)
from repro.core.index import BiGIndex
from repro.core.plugins import boost_bkws
from repro.graph.digraph import Graph
from repro.graph.traversal import bounded_distance
from repro.ontology.ontology import OntologyGraph
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import KeywordQuery
from repro.verify.auditor import audit_index, reference_bisimulation
from repro.verify.drill import apply_op
from repro.verify.probes import MaintenanceProbe

LABELS = ("A", "B", "C", "D")


@st.composite
def graphs(draw, max_vertices: int = 24, max_edges: int = 60) -> Graph:
    """Random labeled directed graphs."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    labels = draw(
        st.lists(st.sampled_from(LABELS), min_size=n, max_size=n)
    )
    g = Graph()
    for label in labels:
        g.add_vertex(label)
    num_edges = draw(st.integers(min_value=0, max_value=max_edges))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ),
            min_size=num_edges,
            max_size=num_edges,
        )
    )
    for u, v in pairs:
        if u != v:
            g.add_edge(u, v)
    return g


def small_ontology() -> OntologyGraph:
    ont = OntologyGraph()
    ont.add_subtype("A", "AB")
    ont.add_subtype("B", "AB")
    ont.add_subtype("C", "CD")
    ont.add_subtype("D", "CD")
    ont.add_subtype("AB", "Top")
    ont.add_subtype("CD", "Top")
    return ont


@st.composite
def ontologies(draw) -> OntologyGraph:
    """Random three-level ontologies over ``LABELS``: each label under
    one of two middle types (or none), the middle types under ``Top``."""
    ont = OntologyGraph()
    for label in LABELS:
        middle = draw(st.sampled_from(("M1", "M2", None)))
        if middle is not None:
            ont.add_subtype(label, middle)
    for middle in ("M1", "M2"):
        if middle in ont:
            ont.add_subtype(middle, "Top")
    return ont


class TestBisimulationProperties:
    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_partition_is_valid_bisimulation(self, g: Graph):
        blocks = maximal_bisimulation(g)
        assert is_bisimulation_partition(g, blocks)

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_partition_deterministic(self, g: Graph):
        assert maximal_bisimulation(g) == maximal_bisimulation(g)

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_worklist_matches_reference(self, g: Graph):
        """The worklist refinement is byte-identical to the naive oracle.

        The maximal bisimulation is the unique coarsest stable refinement
        of the label partition, and both implementations canonicalize by
        smallest member vertex — so any divergence is a bug in one of
        them.
        """
        assert maximal_bisimulation(g) == reference_bisimulation(g)

    @given(graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_worklist_matches_reference_with_seed_partition(
        self, g: Graph, data
    ):
        """Equivalence also holds from an arbitrary starting partition
        (the maintenance entry point)."""
        n = g.num_vertices
        seeds = data.draw(
            st.lists(st.integers(0, 3), min_size=n, max_size=n)
        )
        assert maximal_bisimulation(
            g, initial_blocks=seeds
        ) == reference_bisimulation(g, initial_blocks=seeds)

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_summary_is_label_preserving(self, g: Graph):
        s = summarize(g)
        for v in g.vertices():
            assert s.graph.label(s.supernode_of[v]) == g.label(v)

    @given(graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_summary_is_path_preserving(self, g: Graph, rng):
        """Def. 2.1: any walk in G lifts to a walk in Bisim(G)."""
        s = summarize(g)
        if g.num_vertices == 0:
            return
        v = rng.randrange(g.num_vertices)
        walk = [v]
        for _ in range(5):
            nbrs = g.out_neighbors(walk[-1])
            if not nbrs:
                break
            walk.append(rng.choice(nbrs))
        lifted = [s.supernode_of[u] for u in walk]
        for a, b in zip(lifted, lifted[1:]):
            assert s.graph.has_edge(a, b)

    @given(graphs())
    @settings(max_examples=25, deadline=None)
    def test_distances_contract(self, g: Graph):
        """Prop. 5.2: dist(chi(u), chi(v)) <= dist(u, v)."""
        s = summarize(g)
        rng = random.Random(0)
        n = g.num_vertices
        for _ in range(10):
            u, v = rng.randrange(n), rng.randrange(n)
            d = bounded_distance(g, u, v, max_depth=4)
            if d is None:
                continue
            lifted = bounded_distance(
                s.graph, s.supernode_of[u], s.supernode_of[v], max_depth=4
            )
            assert lifted is not None and lifted <= d

    @given(graphs())
    @settings(max_examples=25, deadline=None)
    def test_summary_never_larger(self, g: Graph):
        s = summarize(g)
        assert s.graph.num_vertices <= g.num_vertices
        assert s.graph.num_edges <= g.num_edges


class TestGeneralizationProperties:
    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_gen_preserves_topology(self, g: Graph):
        config = Configuration({"A": "AB", "B": "AB"})
        result = generalize_graph(g, config)
        assert result.num_vertices == g.num_vertices
        assert set(result.edges()) == set(g.edges())

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_gen_is_label_preserving(self, g: Graph):
        config = Configuration({"A": "AB", "C": "CD"})
        result = generalize_graph(g, config)
        for v in g.vertices():
            assert result.label(v) == config.target_of(g.label(v))

    @given(st.sampled_from(LABELS + ("AB", "CD", "Top", "zz")))
    @settings(max_examples=30, deadline=None)
    def test_spec_contains_gen_preimage(self, label: str):
        c1 = Configuration({"A": "AB", "B": "AB", "C": "CD", "D": "CD"})
        c2 = Configuration({"AB": "Top", "CD": "Top"})
        configs = [c1, c2]
        generalized = generalize_label(label, configs)
        assert label in specialize_label(generalized, configs)

    @given(graphs())
    @settings(max_examples=20, deadline=None)
    def test_chained_gen_equals_stepwise(self, g: Graph):
        c1 = Configuration({"A": "AB", "B": "AB"})
        c2 = Configuration({"AB": "Top"})
        stepwise = generalize_graph(generalize_graph(g, c1), c2)
        for v in g.vertices():
            assert stepwise.label(v) == generalize_label(
                g.label(v), [c1, c2]
            )


class TestEquivalenceProperty:
    @given(graphs(max_vertices=20, max_edges=45), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_eval_equals_eval_ont_for_bkws(self, g: Graph, d_max: int):
        """Thm. 4.2 for bkws over random graphs and the toy ontology."""
        keywords = [l for l in ("A", "C") if g.sorted_vertices_with_label(l)]
        if len(keywords) < 2:
            return
        ontology = small_ontology()
        index = BiGIndex.build(
            g, ontology, num_layers=1, cost_params=CostParams(exact=True)
        )
        query = KeywordQuery(keywords)
        if not index.query_distinct_at(query, 1):
            return
        algo = BackwardKeywordSearch(d_max=d_max, k=None)
        direct = {(a.root, a.score) for a in algo.bind(g).search(query)}
        boosted = boost_bkws(index, d_max=d_max, k=None)
        got = {(a.root, a.score) for a in boosted.search(query, layer=1)}
        assert got == direct


def _refines(fine, coarse) -> bool:
    """Every block of ``fine`` lies inside one block of ``coarse``."""
    return len(set(zip(fine, coarse))) == len(set(fine))


class TestIncrementalProperty:
    @given(
        graphs(max_vertices=15, max_edges=30),
        st.lists(
            st.tuples(st.integers(0, 14), st.integers(0, 14)),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_updates_keep_valid_partition(self, g: Graph, updates):
        """The maintenance rule ``BiGIndex._climb(seeds=)`` applies per
        layer: after an edge flip, refinement seeded with the old
        partition is valid and only ever splits old blocks."""
        blocks = maximal_bisimulation(g)
        n = g.num_vertices
        for u, v in updates:
            u, v = u % n, v % n
            if u == v:
                continue
            if g.has_edge(u, v):
                g.remove_edge(u, v)
            else:
                g.add_edge(u, v)
            old, blocks = blocks, maximal_bisimulation(g, initial_blocks=blocks)
            assert is_bisimulation_partition(g, blocks)
            assert _refines(blocks, old)
        # Drift is only ever finer: a fresh run is the coarsest valid
        # partition, so the maintained one refines it.
        fresh = maximal_bisimulation(g)
        assert is_bisimulation_partition(g, fresh)
        assert _refines(blocks, fresh)

    @given(
        graphs(max_vertices=15, max_edges=25),
        ontologies(),
        st.integers(2, 3),
        st.lists(
            st.tuples(st.integers(0, 14), st.integers(0, 14)),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_localized_maintenance_matches_seeded_climb(
        self, g: Graph, ontology, num_layers, updates
    ):
        """``insert_edge`` / ``delete_edge`` patch only what an update
        unsettles, on multi-layer indexes; after every update the
        hierarchy equals the whole-layer seeded climb's up to block
        numbering, and audits clean."""
        index = BiGIndex.build(
            g, ontology, num_layers=num_layers,
            cost_params=CostParams(exact=True),
        )
        probe = MaintenanceProbe(index)
        n = g.num_vertices
        for step, (u, v) in enumerate(updates):
            u, v = u % n, v % n
            if u == v:
                continue
            op = ("delete" if g.has_edge(u, v) else "insert", u, v)
            apply_op(index, op)
            probe.follow(op)
            probe.check(f"after update {step}")
            assert probe.report.ok, probe.report.problems
        audit = audit_index(index)
        assert audit.ok, audit.violations
