"""Unit tests for Algorithms 3 and 4 (answer graph generation)."""

import pytest

from repro.core.answer_gen import (
    GeneralizedAnswerGraph,
    ans_graph_gen,
    specialization_order,
)
from repro.core.path_answer_gen import (
    answer_decomposition,
    joint_vertices,
    p_ans_graph_gen,
    specialize_path,
)
from repro.graph.digraph import Graph
from repro.utils.errors import BigIndexError


@pytest.fixture
def example_4_1():
    """The paper's Example 4.1 setting.

    Generalized answer (subgraph of Fig. 4):
    Academics -> Univ., Univ. -> Eastern, Univ. -> Organization.
    Data graph: Harvard/Cornell/Columbia with their states and Ivy League,
    plus S. Idreos -> Harvard.
    """
    g = Graph()
    idreos = g.add_vertex("Academics", name="S. Idreos")
    harvard = g.add_vertex("Univ.", name="Harvard Univ.")
    cornell = g.add_vertex("Univ.", name="Cornell Univ.")
    columbia = g.add_vertex("Univ.", name="Columbia Univ.")
    ivy = g.add_vertex("Organization", name="Ivy League")
    mass = g.add_vertex("Eastern", name="Massachusetts")
    ny = g.add_vertex("Eastern", name="New York")
    g.add_edge(idreos, harvard)
    g.add_edge(harvard, ivy)
    g.add_edge(cornell, ivy)
    g.add_edge(columbia, ivy)
    g.add_edge(harvard, mass)
    g.add_edge(cornell, ny)
    g.add_edge(columbia, ny)

    # Summary answer graph: A -> U, U -> E, U -> O with supernode ids.
    A, U, E, O = 100, 101, 102, 103
    answer = GeneralizedAnswerGraph(
        vertices=(A, U, E, O),
        edges=((A, U), (U, E), (U, O)),
        spec_sets={
            A: [idreos],
            U: [harvard, cornell, columbia],
            E: [mass, ny],
            O: [ivy],
        },
        keyword_of={E: "Eastern", O: "Organization"},
    )
    names = dict(
        idreos=idreos, harvard=harvard, cornell=cornell, columbia=columbia,
        ivy=ivy, mass=mass, ny=ny, A=A, U=U, E=E, O=O,
    )
    return g, answer, names


class TestGeneralizedAnswerGraph:
    def test_missing_spec_set_rejected(self):
        with pytest.raises(BigIndexError):
            GeneralizedAnswerGraph(
                vertices=(1, 2), edges=(), spec_sets={1: [0]}
            )

    def test_degree(self, example_4_1):
        _, answer, n = example_4_1
        assert answer.degree(n["U"]) == 3
        assert answer.degree(n["A"]) == 1


class TestSpecializationOrder:
    def test_orders_by_spec_set_size(self, example_4_1):
        _, answer, n = example_4_1
        order = specialization_order(answer)
        sizes = [len(answer.spec_sets[s]) for s in order]
        assert sizes == sorted(sizes)
        # A (1) and O (1) precede E (2) which precedes U (3).
        assert order.index(n["U"]) == len(order) - 1


class TestAnsGraphGen:
    def test_example_4_1_unique_answer(self, example_4_1):
        g, answer, n = example_4_1
        assignments = ans_graph_gen(g, answer)
        # Only Harvard satisfies A->U (S. Idreos edge) and U->E and U->O.
        assert len(assignments) == 1
        a = assignments[0]
        assert a[n["U"]] == n["harvard"]
        assert a[n["E"]] == n["mass"]
        assert a[n["A"]] == n["idreos"]
        assert a[n["O"]] == n["ivy"]

    def test_order_toggle_gives_same_answers(self, example_4_1):
        g, answer, _ = example_4_1
        ordered = ans_graph_gen(g, answer, use_spec_order=True)
        unordered = ans_graph_gen(g, answer, use_spec_order=False)
        assert sorted(map(sorted, (a.items() for a in ordered))) == sorted(
            map(sorted, (a.items() for a in unordered))
        )

    def test_qualify_hook_can_veto(self, example_4_1):
        g, answer, n = example_4_1

        def deny_harvard(partial, supernode, vertex):
            return vertex != n["harvard"]

        assert ans_graph_gen(g, answer, qualify=deny_harvard) == []

    def test_injective_assignments(self):
        g = Graph()
        a, b = g.add_vertex("X"), g.add_vertex("X")
        g.add_edge(a, b)
        g.add_edge(b, a)
        answer = GeneralizedAnswerGraph(
            vertices=(0, 1),
            edges=((0, 1),),
            spec_sets={0: [a, b], 1: [a, b]},
        )
        for assignment in ans_graph_gen(g, answer):
            assert assignment[0] != assignment[1]

    def test_max_partials_guard(self):
        g = Graph()
        vs = [g.add_vertex("X") for _ in range(6)]
        answer = GeneralizedAnswerGraph(
            vertices=(0, 1), edges=(), spec_sets={0: vs, 1: vs}
        )
        with pytest.raises(BigIndexError):
            ans_graph_gen(g, answer, max_partials=3)

    def test_empty_spec_set_yields_no_answers(self, example_4_1):
        g, answer, n = example_4_1
        answer.spec_sets[n["A"]] = []
        assert ans_graph_gen(g, answer) == []


class TestDecomposition:
    def test_example_4_3_three_paths(self, example_4_1):
        _, answer, n = example_4_1
        assert joint_vertices(answer) == {n["U"]}
        paths = answer_decomposition(answer)
        assert len(paths) == 3
        # Every path starts or ends at the joint vertex U.
        for vertices, _ in paths:
            assert n["U"] in (vertices[0], vertices[-1])

    def test_every_edge_in_exactly_one_path(self, example_4_1):
        _, answer, _ = example_4_1
        paths = answer_decomposition(answer)
        covered = []
        for vertices, directions in paths:
            for i, forward in enumerate(directions):
                edge = (
                    (vertices[i], vertices[i + 1])
                    if forward
                    else (vertices[i + 1], vertices[i])
                )
                covered.append(edge)
        assert sorted(covered) == sorted(answer.edges)

    def test_chain_is_single_path(self):
        answer = GeneralizedAnswerGraph(
            vertices=(0, 1, 2),
            edges=((0, 1), (1, 2)),
            spec_sets={0: [0], 1: [1], 2: [2]},
        )
        paths = answer_decomposition(answer)
        assert len(paths) == 1
        assert len(paths[0][0]) == 3

    def test_cycle_decomposes(self):
        answer = GeneralizedAnswerGraph(
            vertices=(0, 1, 2),
            edges=((0, 1), (1, 2), (2, 0)),
            spec_sets={0: [0], 1: [1], 2: [2]},
        )
        paths = answer_decomposition(answer)
        covered = sum(len(d) for _, d in paths)
        assert covered == 3


class TestSpecializePath:
    def test_path_specialization_respects_directions(self, example_4_1):
        g, answer, n = example_4_1
        # Path U -> E (forward edge from U to E).
        path = ((n["U"], n["E"]), (True,))
        concrete = specialize_path(g, answer, path)
        assert sorted(concrete) == [
            [n["cornell"], n["ny"]],
            [n["columbia"], n["ny"]],
            [n["harvard"], n["mass"]],
        ] or sorted(concrete) == sorted(
            [
                [n["harvard"], n["mass"]],
                [n["cornell"], n["ny"]],
                [n["columbia"], n["ny"]],
            ]
        )

    def test_backward_direction(self, example_4_1):
        g, answer, n = example_4_1
        # Path E <- U written as (E, U) with direction False (edge U->E).
        path = ((n["E"], n["U"]), (False,))
        concrete = specialize_path(g, answer, path)
        assert [n["mass"], n["harvard"]] in concrete


class TestPAnsGraphGen:
    def test_agrees_with_vertex_generation(self, example_4_1):
        g, answer, _ = example_4_1
        by_vertex = ans_graph_gen(g, answer)
        by_path = p_ans_graph_gen(g, answer)
        normalize = lambda assignments: sorted(
            tuple(sorted(a.items())) for a in assignments
        )
        assert normalize(by_vertex) == normalize(by_path)

    def test_agreement_on_random_instances(self, random_graph_factory):
        import random as _random

        for seed in range(4):
            g = random_graph_factory(num_vertices=20, num_edges=45, seed=seed)
            rng = _random.Random(seed)
            # Random star-shaped generalized answer over label classes.
            labels = sorted(g.distinct_labels())[:3]
            if len(labels) < 3:
                continue
            spec_sets = {
                i: list(g.sorted_vertices_with_label(label))
                for i, label in enumerate(labels)
            }
            answer = GeneralizedAnswerGraph(
                vertices=(0, 1, 2),
                edges=((0, 1), (0, 2)),
                spec_sets=spec_sets,
            )
            normalize = lambda assignments: sorted(
                tuple(sorted(a.items())) for a in assignments
            )
            assert normalize(ans_graph_gen(g, answer)) == normalize(
                p_ans_graph_gen(g, answer)
            )

    def test_edgeless_answer_falls_back(self):
        g = Graph()
        a, b = g.add_vertex("X"), g.add_vertex("Y")
        answer = GeneralizedAnswerGraph(
            vertices=(0, 1), edges=(), spec_sets={0: [a], 1: [b]}
        )
        assert p_ans_graph_gen(g, answer) == [{0: a, 1: b}]

    def test_example_4_3_path_qualification(self, example_4_1):
        """p1' and p3' join at Harvard; p3'' (Cornell) is rejected."""
        g, answer, n = example_4_1
        assignments = p_ans_graph_gen(g, answer)
        assert len(assignments) == 1
        assert assignments[0][n["U"]] == n["harvard"]
