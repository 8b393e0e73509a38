"""Property-based tests for maximal bisimulation (seeded stdlib random).

Satellite of the differential harness: the refinement engine underneath
every index layer must be (a) a valid bisimulation, (b) idempotent as a
refinement seed, (c) the *coarsest* valid partition, and (d) invariant
under vertex renumbering.  Each property is checked over a family of
seeded random graphs — no external property-testing dependency required.
"""

import random

import pytest

from repro.bisim.refinement import (
    is_bisimulation_partition,
    maximal_bisimulation,
)
from repro.graph.digraph import Graph


def random_graph(seed, num_vertices=30, num_edges=70, labels="ABCD"):
    rng = random.Random(seed)
    graph = Graph()
    for _ in range(num_vertices):
        graph.add_vertex(rng.choice(labels))
    while graph.num_edges < num_edges:
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u != v:
            graph.add_edge(u, v)
    return graph


def blocks_as_sets(partition):
    """Canonical view of a partition: a set of frozen vertex sets."""
    groups = {}
    for vertex, block in enumerate(partition):
        groups.setdefault(block, set()).add(vertex)
    return {frozenset(members) for members in groups.values()}


@pytest.mark.parametrize("seed", range(5))
class TestMaximalBisimulationProperties:
    def test_result_is_valid_partition(self, seed):
        graph = random_graph(seed)
        partition = maximal_bisimulation(graph)
        assert is_bisimulation_partition(graph, partition)

    def test_idempotent_as_refinement_seed(self, seed):
        graph = random_graph(seed)
        partition = maximal_bisimulation(graph)
        again = maximal_bisimulation(graph, initial_blocks=partition)
        assert again == partition

    def test_coarsest_no_two_blocks_can_merge(self, seed):
        graph = random_graph(seed)
        partition = maximal_bisimulation(graph)
        blocks = sorted(set(partition))
        if len(blocks) < 2:
            pytest.skip("partition collapsed to one block")
        rng = random.Random(seed)
        # Sample block pairs; merging any two must break the conditions
        # (otherwise the 'maximal' partition was not coarsest).
        for _ in range(min(10, len(blocks))):
            a, b = rng.sample(blocks, 2)
            merged = [a if block == b else block for block in partition]
            assert not is_bisimulation_partition(graph, merged), (
                f"blocks {a} and {b} merged into a valid partition"
            )

    def test_invariant_under_vertex_permutation(self, seed):
        graph = random_graph(seed)
        n = graph.num_vertices
        rng = random.Random(seed + 1000)
        perm = list(range(n))
        rng.shuffle(perm)  # perm[v] = new id of old vertex v
        inverse = [0] * n
        for old, new in enumerate(perm):
            inverse[new] = old
        permuted = Graph()
        for new in range(n):
            permuted.add_vertex(graph.label(inverse[new]))
        for u, v in graph.edges():
            permuted.add_edge(perm[u], perm[v])

        original = maximal_bisimulation(graph)
        renumbered = maximal_bisimulation(permuted)
        mapped_back = blocks_as_sets(
            [renumbered[perm[v]] for v in range(n)]
        )
        assert mapped_back == blocks_as_sets(original)

    def test_refines_any_coarser_seed(self, seed):
        graph = random_graph(seed)
        partition = maximal_bisimulation(graph)
        # Seeding with the all-in-one partition must give the same result
        # as no seed (the default seed is the label partition, coarser).
        seeded = maximal_bisimulation(
            graph, initial_blocks=[0] * graph.num_vertices
        )
        assert blocks_as_sets(seeded) == blocks_as_sets(partition)


class TestDegenerateGraphs:
    def test_empty_graph(self):
        graph = Graph()
        assert maximal_bisimulation(graph) == []

    def test_no_edges_groups_by_label(self):
        graph = Graph()
        for label in ["A", "B", "A", "B", "A"]:
            graph.add_vertex(label)
        partition = maximal_bisimulation(graph)
        assert blocks_as_sets(partition) == {
            frozenset({0, 2, 4}),
            frozenset({1, 3}),
        }

    def test_cycle_of_same_label_collapses(self):
        graph = Graph()
        for _ in range(4):
            graph.add_vertex("A")
        for v in range(4):
            graph.add_edge(v, (v + 1) % 4)
        partition = maximal_bisimulation(graph)
        assert len(set(partition)) == 1
