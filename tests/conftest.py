"""Shared fixtures: the Fig. 1/Fig. 2 running example and random factories."""

from __future__ import annotations

import gc
import random

import pytest

from repro.core.binfmt import SectionFile, SectionWriter
from repro.core.config import Configuration
from repro.core.index import BiGIndex
from repro.core.persistence import _graph_from_sections, _write_graph_sections
from repro.graph.digraph import Graph
from repro.ontology.ontology import OntologyGraph
from repro.search.base import KeywordQuery


@pytest.fixture
def fig2_ontology() -> OntologyGraph:
    """The paper's Fig. 2 ontology (types only, as in the example)."""
    ont = OntologyGraph()
    pairs = [
        ("Academics", "Person"),
        ("Investor", "Person"),
        ("Student", "Person"),
        ("Harvard Univ.", "Univ."),
        ("Cornell Univ.", "Univ."),
        ("Columbia Univ.", "Univ."),
        ("UC Berkeley", "Univ."),
        ("Univ.", "Organization"),
        ("Ivy League", "Organization"),
        ("Startup", "Organization"),
        ("Massachusetts", "Eastern"),
        ("New York", "Eastern"),
        ("California", "Western"),
        ("Eastern", "State"),
        ("Western", "State"),
        ("Person", "Agent"),
        ("Organization", "Agent"),
    ]
    for sub, sup in pairs:
        ont.add_subtype(sub, sup)
    return ont


@pytest.fixture
def fig1_graph() -> Graph:
    """A small version of Fig. 1's data graph.

    Structure: academics point at universities, universities point at
    their state and (for Ivy League schools) at the Ivy League
    organization; a crowd of students all point at UC Berkeley, which
    points at California — the summarizable "100 Persons" pattern
    (scaled to 10).
    """
    g = Graph()
    graham = g.add_vertex("Academics", name="P. Graham")
    idreos = g.add_vertex("Academics", name="S. Idreos")
    harvard = g.add_vertex("Harvard Univ.")
    cornell = g.add_vertex("Cornell Univ.")
    columbia = g.add_vertex("Columbia Univ.")
    berkeley = g.add_vertex("UC Berkeley")
    ivy = g.add_vertex("Ivy League")
    mass = g.add_vertex("Massachusetts")
    ny = g.add_vertex("New York")
    cal = g.add_vertex("California")

    g.add_edge(graham, harvard)
    g.add_edge(graham, cornell)
    g.add_edge(idreos, harvard)
    g.add_edge(harvard, ivy)
    g.add_edge(cornell, ivy)
    g.add_edge(columbia, ivy)
    g.add_edge(harvard, mass)
    g.add_edge(cornell, ny)
    g.add_edge(columbia, ny)
    g.add_edge(berkeley, cal)
    for _ in range(10):
        student = g.add_vertex("Student")
        g.add_edge(student, berkeley)
    return g


@pytest.fixture
def random_graph_factory():
    """Factory of seeded random labeled graphs for equivalence tests."""

    def make(
        num_vertices: int = 60,
        num_edges: int = 150,
        labels=("A", "B", "C", "D", "E"),
        seed: int = 0,
    ) -> Graph:
        rng = random.Random(seed)
        g = Graph()
        for _ in range(num_vertices):
            g.add_vertex(rng.choice(labels))
        added = 0
        while added < num_edges:
            u = rng.randrange(num_vertices)
            v = rng.randrange(num_vertices)
            if u != v and g.add_edge(u, v):
                added += 1
        return g

    return make


@pytest.fixture
def small_ontology() -> OntologyGraph:
    """A two-level ontology over the A-E label alphabet."""
    ont = OntologyGraph()
    ont.add_subtype("A", "AB")
    ont.add_subtype("B", "AB")
    ont.add_subtype("C", "CD")
    ont.add_subtype("D", "CD")
    ont.add_subtype("E", "EF")
    ont.add_subtype("AB", "Top")
    ont.add_subtype("CD", "Top")
    ont.add_subtype("EF", "Top")
    return ont


@pytest.fixture
def mixed_blocks():
    """A 3-layer index whose layer-2 and layer-3 supernodes span reached
    and unreached layer-1 blocks of ``{A1, B}`` (d_max 3), and the query.

    Roots ``P -> {A1, B}`` (two of them, one layer-1 block) and
    ``P -> {A2, B}`` are distinct blocks on layer 1; ``C^2`` generalizes
    ``A1``, ``A2`` to ``A``, so layer 2 merges them into one supernode
    whose layer-1 blocks are reached (``A1``) and unreached (``A2``).
    ``Q -> {A2, B}`` and ``W -> {A2, B}`` (two roots each, so a bulk
    reject covers more than one candidate) are wholly unreached on layer 2;
    ``C^3`` maps ``P``, ``Q`` to ``PQ``, so layer 3 merges ``Q`` into the
    mixed supernode and leaves ``W`` wholly unreached.  ``P2 -> P``
    answers at distance 2 through a reached block."""
    g = Graph()
    a1, a2, b = g.add_vertex("A1"), g.add_vertex("A2"), g.add_vertex("B")

    def root(label, *targets):
        v = g.add_vertex(label)
        for target in targets:
            g.add_edge(v, target)
        return v

    r1 = root("P", a1, b)
    root("P", a2, b)
    root("P", a1, b)
    for label in ("Q", "Q", "W", "W"):  # two roots per unreached block
        root(label, a2, b)
    root("P2", r1)
    ontology = OntologyGraph()
    for label, parent in (("A1", "A"), ("A2", "A"), ("P", "PQ"), ("Q", "PQ")):
        ontology.add_subtype(label, parent)
    index = BiGIndex(g, ontology)
    index.layers = index._climb(g, [
        Configuration({}),
        Configuration({"A1": "A", "A2": "A"}, ontology=ontology),
        Configuration({"P": "PQ", "Q": "PQ"}, ontology=ontology),
    ])
    return index, KeywordQuery(["A1", "B"])


@pytest.fixture(scope="session")
def frozen_twin(tmp_path_factory):
    """Factory: a heap graph's v4 container round trip — an mmap-backed
    twin sharing its label table (session-scoped, so property tests may
    use it).  The containers it opens are closed at session teardown,
    once the twins viewing them are collected."""
    opened = []

    def make(graph: Graph) -> Graph:
        path = str(tmp_path_factory.mktemp("v4") / "graph.bin")
        writer = SectionWriter(path)
        _write_graph_sections(writer, "g", graph)
        writer.close()
        opened.append(SectionFile(path))
        return _graph_from_sections(opened[-1], "g", graph.label_table)

    yield make
    gc.collect()
    for container in opened:
        container.close()
